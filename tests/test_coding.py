"""Coding excursions into finite tree-like mm-spaces."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from mmdist import (
    FiniteMMSpace,
    SizeError,
    TruncatedMonomial,
    ValidationError,
    are_isomorphic,
    canonicalize,
    code_excursion,
    comb,
    dh,
    evaluate_polynomial,
    four_point_check,
    is_canonical,
    normalize,
    pl_cut_points,
    pl_excursion,
    random_excursion,
    step_one,
    tent,
    validate,
    zero_excursion,
)
from mmdist import coding, spaces

from excursion_refs import ref_cuts, ref_evaluate, ref_piece_limits
from quotient_refs import class_roots, zero_pairs

F = Fraction


def star(n):
    dist = tuple(tuple(F(0) if i == j else F(2) for j in range(n)) for i in range(n))
    return FiniteMMSpace(tuple(f"x{i}" for i in range(n)), dist, tuple(F(1, n) for _ in range(n)))


def mean_distance(space):
    return sum(
        space.weights[i] * space.weights[j] * space.dist[i][j]
        for i in range(space.n)
        for j in range(space.n)
    )


def test_comb_codes_to_star():
    for n in (2, 3, 5):
        coded = code_excursion(comb(n))
        assert are_isomorphic(coded.space, star(n))
        assert coded.resolution_bound == 0
        assert len(coded.segments) == n


def test_coded_space_is_valid_and_canonical():
    # coded spaces come out marked canonical, so `canonicalize` returns them
    # as they are; an unmarked copy must canonicalize to the same space
    rng = random.Random(43)
    cases = [random_excursion(rng) for _ in range(40)]
    cases += [random_excursion(rng, kind) for kind in ("pl", "pc") for _ in range(20)]
    cases += [comb(n) for n in range(1, 8)]
    cases += [tent(), step_one(), zero_excursion("pl"), zero_excursion("pc")]
    for h in cases:
        coded = code_excursion(h)
        assert validate(coded.space) == []
        assert is_canonical(coded.space)
        assert canonicalize(replace(coded.space)) == coded.space
        assert canonicalize(coded.space) is coded.space


def test_tree_distance_equals_path_distance_at_representatives():
    rng = random.Random(47)
    for _ in range(40):
        h = random_excursion(rng)
        coded = code_excursion(h)
        m = len(coded.segments)
        assert len(coded.representatives) == m
        assert len(coded.projection) == m
        for k in range(m):
            for l in range(m):
                p, q = coded.projection[k], coded.projection[l]
                want = dh(h, coded.representatives[k], coded.representatives[l])
                assert coded.space.dist[p][q] == want


def test_weights_are_pushed_segment_lengths():
    rng = random.Random(53)
    for _ in range(40):
        h = random_excursion(rng)
        coded = code_excursion(h)
        for p in range(coded.space.n):
            length = sum(
                hi - lo
                for (lo, hi), q in zip(coded.segments, coded.projection)
                if q == p
            )
            assert coded.space.weights[p] == length


def test_representatives_stay_inside_their_segments():
    rng = random.Random(59)
    for _ in range(30):
        h = random_excursion(rng)
        coded = code_excursion(h)
        for (lo, hi), r in zip(coded.segments, coded.representatives):
            assert lo <= r <= hi


def test_redundant_breakpoints_leave_the_tree_unchanged():
    rng = random.Random(61)
    for _ in range(30):
        h = random_excursion(rng, kind="pl")
        bps, vals = list(h.breakpoints), list(h.values)
        k = rng.randrange(len(bps) - 1)
        mid = (bps[k] + bps[k + 1]) / 2
        refined = pl_excursion(
            bps[: k + 1] + [mid] + bps[k + 1 :],
            vals[: k + 1] + [ref_evaluate(h, mid)] + vals[k + 1 :],
        )
        assert are_isomorphic(code_excursion(refined).space, code_excursion(h).space)


def test_merge_makes_one_fraction_per_distinct_distance(monkeypatch):
    made = []
    # the coded tree is built by the one maker of spaces from its int form
    monkeypatch.setattr(spaces, "Fraction", lambda *x: made.append(x) or Fraction(*x))
    # four segments over 4, the last two at distance 0: three points whose
    # nine distances take the three values 0, 2/4 and 3/4
    d = [[0, 2, 3, 3], [2, 0, 3, 3], [3, 3, 0, 0], [3, 3, 0, 0]]
    space, roots, reps = spaces._quotient(["s0", "s1", "s2", "s3"], d, 4, [1, 1, 1, 1], 4)
    half, three = F(1, 2), F(3, 4)
    assert [reps.index(r) for r in roots] == [0, 1, 2, 2]
    assert space.dist == ((0, half, three), (half, 0, three), (three, three, 0))
    assert space.weights == (F(1, 4), F(1, 4), F(1, 2))
    assert len(made) == 3 + 2  # one per distinct distance and one per distinct weight


def test_projection_groups_segments_as_union_find_over_dh_zeros():
    rng = random.Random(541)
    merged = {"pl": 0, "pc": 0}
    for k in range(60):
        kind = ("pl", "pc")[k % 2]
        # few levels, so that segments repeat heights and tie at distance 0
        h = random_excursion(rng, kind, max_pieces=10, value_den=2)
        coded = code_excursion(h)
        reps, m = coded.representatives, len(coded.segments)
        roots = class_roots(m, zero_pairs(m, lambda i, j: dh(h, reps[i], reps[j])))
        index_of = {r: c for c, r in enumerate(sorted(set(roots)))}
        assert coded.projection == tuple(index_of[r] for r in roots)
        merged[kind] += coded.space.n < m
    assert merged["pl"] >= 15 and merged["pc"] >= 6


def test_resolution_refinement_tightens_the_bound():
    t = tent()
    bounds = []
    for den in (8, 16, 32):
        res = tuple(F(k, den) for k in range(den + 1))
        coded = code_excursion(t, resolution=res)
        bounds.append(coded.resolution_bound)
    assert bounds == [F(1, 4), F(1, 8), F(1, 16)]


def test_tent_coding_expectation_at_sixteenths():
    res = tuple(F(k, 16) for k in range(17))
    coded = code_excursion(tent(), resolution=res)
    value = mean_distance(coded.space)
    assert value == F(21, 64)
    # Continuum target: the tent pushes Lebesgue measure to the uniform law
    # on heights, and its path distance is the height difference, so the
    # expectation of d(U, V) over the excursion itself is E|X - Y| = 1/3.
    assert abs(value - F(1, 3)) <= coded.resolution_bound
    phi = TruncatedMonomial(factors=((0, 1, 1),), cap=F(2))
    cross = evaluate_polynomial(coded.space, 2, phi)
    assert isinstance(cross, Fraction)
    assert cross == value


def test_four_point_condition_on_codes():
    rng = random.Random(67)
    for _ in range(60):
        h = random_excursion(rng)
        assert four_point_check(code_excursion(h).space) == []


def test_four_point_flags_the_unit_four_cycle():
    rows = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    c4 = FiniteMMSpace(
        ("a", "b", "c", "d"),
        tuple(tuple(F(x) for x in row) for row in rows),
        (F(1, 4),) * 4,
    )
    assert four_point_check(c4) != []


def test_resolution_points_are_checked_in_the_order_given():
    for h in (tent(), comb(3)):
        for resolution, bad in (((2, -1), 2), ((-1, 2), -1), ((F(1, 2), F(3, 2)), F(3, 2))):
            try:
                code_excursion(h, resolution=resolution)
                assert False
            except ValidationError as exc:
                assert str(exc) == f"resolution point {bad} outside [0, 1]"


def test_pl_cut_points_merge_breakpoints_and_resolution():
    cuts = pl_cut_points(tent(), (F(1, 3),))
    assert cuts == (F(0), F(1, 3), F(1, 2), F(1))
    cuts16 = pl_cut_points(tent(), tuple(F(k, 16) for k in range(17)))
    assert len(cuts16) == 17
    assert cuts16 == tuple(sorted(set(cuts16)))
    assert pl_cut_points(comb(3), (F(1, 2),)) == (F(0), F(1, 3), F(1, 2), F(2, 3), F(1))


def test_cut_points_match_the_level_scan_reference():
    rng = random.Random(613)
    for k in range(200):
        kind = "pl" if k % 4 else "pc"
        h = random_excursion(rng, kind, max_pieces=12, time_den=30, value_den=6)
        extras = rng.randint(1, 5) if k % 2 else 0
        resolution = tuple(F(rng.randint(0, 24), 24) for _ in range(extras))
        assert pl_cut_points(h, resolution) == ref_cuts(normalize(h), resolution)


def ref_code_excursion(h, resolution=()):
    """`code_excursion` as a Fraction loop, read through the reference
    readers: (space, segments, projection, representatives, bound)."""
    h = normalize(h)
    cuts = ref_cuts(h, resolution)
    cutvals = [ref_evaluate(h, t) for t in cuts]
    pieces = [ref_piece_limits(h, a, b) for a, b in zip(cuts, cuts[1:])]
    if h.kind == "pc":
        heights, bound = [left for left, _ in pieces], F(0)
    else:
        heights = [(left + right) / 2 for left, right in pieces]
        bound = max(abs(right - left) for left, right in pieces)
    m = len(heights)
    d = [[F(0)] * m for _ in range(m)]
    for i in range(m):
        run_min = heights[i]
        for j in range(i + 1, m):
            run_min = min(run_min, cutvals[j])
            d[i][j] = d[j][i] = heights[i] + heights[j] - 2 * min(run_min, heights[j])
    # merge the points at distance 0, each into its leftmost one
    roots = list(range(m))
    for j in range(m):
        roots[j] = next(i for i in range(j + 1) if d[i][j] == 0)
    classes = sorted(set(roots))
    projection = tuple(classes.index(r) for r in roots)
    weights = [F(0)] * len(classes)
    for k, (lo, hi) in zip(projection, zip(cuts, cuts[1:])):
        weights[k] += hi - lo
    space = FiniteMMSpace(
        tuple(f"s{r}" for r in classes),
        tuple(tuple(d[a][b] for b in classes) for a in classes),
        tuple(weights),
    )
    segments = tuple(zip(cuts, cuts[1:]))
    return space, segments, projection, tuple((lo + hi) / 2 for lo, hi in segments), bound


def test_coding_equals_the_fraction_loop():
    # time grids of 7, 12 and 30 against resolution points over 24 put
    # resolution points strictly inside pl pieces, where h reads off-grid
    rng = random.Random(617)
    for k in range(240):
        kind = "pl" if k % 3 else "pc"
        h = random_excursion(
            rng, kind, max_pieces=rng.randint(1, 9), time_den=rng.choice((7, 12, 30)), value_den=rng.choice((4, 7))
        )
        extras = rng.randint(1, 5) if k % 2 else 0
        resolution = tuple(F(rng.randint(0, 24), 24) for _ in range(extras))
        coded = code_excursion(h, resolution)
        got = (coded.space, coded.segments, coded.projection, coded.representatives, coded.resolution_bound)
        assert got == ref_code_excursion(h, resolution)
        assert all(type(x) is F for row in coded.space.dist for x in (*row, *coded.space.weights))


def many_piece_excursion(pieces, seed=1000):
    """A pl excursion of `pieces` pieces at random levels k/50: its cut set
    grows with pieces times crossed levels."""
    rng = random.Random(seed)
    bps = [F(k, pieces) for k in range(pieces + 1)]
    values = [F(0)] + [F(rng.randint(1, 50), 50) for _ in range(pieces - 1)] + [F(0)]
    return pl_excursion(bps, values)


def test_coding_refuses_a_cut_set_past_the_cap_before_reading_it(monkeypatch):
    read = []
    real = coding._on_int_grid
    monkeypatch.setattr(coding, "_on_int_grid", lambda *args: read.append(args) or real(*args))
    h = many_piece_excursion(1000)
    segments = len(pl_cut_points(h)) - 1
    assert segments > coding.MAX_CODING_SEGMENTS
    with pytest.raises(SizeError) as info:
        code_excursion(h)
    assert str(info.value) == f"{segments} segments exceeds the coding cap {coding.MAX_CODING_SEGMENTS}"
    assert read == []  # refused before h is read on the cuts or the matrix allocated
    # the cap counts segments: a tent with two resolution points has four
    cuts = (F(1, 4), F(3, 4))
    monkeypatch.setattr(coding, "MAX_CODING_SEGMENTS", 3)
    with pytest.raises(SizeError, match="^4 segments exceeds the coding cap 3$"):
        code_excursion(tent(), resolution=cuts)
    monkeypatch.setattr(coding, "MAX_CODING_SEGMENTS", 4)
    assert len(code_excursion(tent(), resolution=cuts).segments) == 4
