"""The tree of equalities behind the main distance: gp = box_half / 2 = the glue of gp's witness."""

from fractions import Fraction

from mmdist import (
    box_lambda,
    glued_upper_bound,
    gromov_prohorov,
    gromov_prohorov_detail,
    mm_space,
    optimal_correspondence,
    sample_mm_space,
)

F = Fraction


def main():
    point = mm_space(("x",), ((F(0),),), (F(1),))
    pair = mm_space(
        ("y0", "y1"),
        ((F(0), F(1)), (F(1), F(0))),
        (F(3, 4), F(1, 4)),
    )
    print("point vs weighted pair")
    print("  gp:      ", gromov_prohorov(point, pair))
    print("  box_1/2: ", box_lambda(point, pair, F(1, 2)))
    print("  box_1:   ", box_lambda(point, pair, F(1)))
    corr = optimal_correspondence(point, pair, F(1, 2))
    print("  optimal correspondence:", corr)

    for seed in (5, 21, 77):
        a = sample_mm_space(2 * seed, n_max=3)
        b = sample_mm_space(2 * seed + 1, n_max=3)
        detail = gromov_prohorov_detail(a, b)
        glue = glued_upper_bound(a, b)
        print(f"seed {seed}: gp = {detail.value} ({a.n}x{b.n} points)")
        print(f"  box value {detail.box_value}, search exact: {detail.exact}")
        print(f"  glue of gp's {glue.source} witness: {glue.value} at eps {glue.eps}")
        assert glue.value == detail.value
        one = box_lambda(a, b, F(1))
        assert detail.value <= one <= 2 * detail.value
        print(f"  chain gp <= box_1 <= 2*gp: {detail.value} <= {one} <= {2 * detail.value}")


if __name__ == "__main__":
    main()
