"""Comb excursions converge in the excursion metrics but their trees stay apart."""

from fractions import Fraction

from mmdist import (
    code_excursion,
    comb,
    d_excursion_detail,
    gromov_prohorov_detail,
)

F = Fraction


def main():
    ns = (2, 3, 4, 6, 8)
    combs = {n: comb(n) for n in ns}
    stars = {n: code_excursion(combs[n]).space for n in ns}
    for n in ns:
        print(f"comb({n}) codes to {stars[n].n} points at mutual distance 2")

    print()
    print("pair   d_excursion        gp of the coded trees")
    for i, n in enumerate(ns):
        for m in ns[i + 1 :]:
            exc = d_excursion_detail(combs[n], combs[m])
            gp = gromov_prohorov_detail(stars[n], stars[m]).value
            print(f"{n},{m:>2}   {str(exc.value):<16}   {gp}")
            assert gp == 0 or gp >= F(1, 4)
            if n >= 6 and m >= 6:
                assert exc.value < F(1, 5)

    # The excursion gap between consecutive combs keeps shrinking, but the
    # coded trees of different combs never get closer than 1/4.
    print()
    print("so the coding map is continuous but not uniformly continuous.")


if __name__ == "__main__":
    main()
