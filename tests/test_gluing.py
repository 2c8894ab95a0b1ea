"""Gluing along correspondences and the glue of the gp witness."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdist import (
    FiniteMMSpace,
    ValidationError,
    box_lambda,
    box_lambda_detail,
    build_glued_space,
    canonicalize,
    check_triangle,
    correspondence_info,
    distortion,
    glued_common_space,
    glued_upper_bound,
    gromov_prohorov,
    gromov_prohorov_detail,
    mm_space,
    prohorov_flow,
    prohorov_of_glue,
    sample_mm_space,
)
F = Fraction


def sampled_pair(rng, n_max=3):
    a = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=n_max))
    b = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=n_max))
    return a, b


def optimal_pairs(a, b):
    """An optimal lam = 1/2 correspondence: the exact search's witness."""
    box = box_lambda_detail(a, b, F(1, 2))
    assert box.exact
    return box.pairs


def glue_at_half_distortion(rng, a, b):
    pairs = optimal_pairs(a, b)
    eps = distortion(pairs, a, b) / 2 + F(rng.randint(0, 3), 8)
    return build_glued_space(a, b, pairs, eps)


def test_glued_space_embeds_both_blocks():
    rng = random.Random(97)
    for _ in range(30):
        a, b = sampled_pair(rng)
        g = glue_at_half_distortion(rng, a, b)
        assert g.n1 == a.n and g.n2 == b.n
        for x in range(a.n):
            for x2 in range(a.n):
                assert g.dist[x][x2] == a.dist[x][x2]
        for y in range(b.n):
            for y2 in range(b.n):
                assert g.dist[a.n + y][a.n + y2] == b.dist[y][y2]
        assert sum(g.mu_ext) == 1 and sum(g.nu_ext) == 1
        assert all(w == 0 for w in g.mu_ext[a.n :])
        assert all(w == 0 for w in g.nu_ext[: a.n])


def test_glued_space_satisfies_the_triangle_inequality():
    rng = random.Random(101)
    for _ in range(30):
        a, b = sampled_pair(rng)
        assert check_triangle(glue_at_half_distortion(rng, a, b)) == []


def test_cross_distances_follow_the_formula():
    rng = random.Random(103)
    for _ in range(20):
        a, b = sampled_pair(rng)
        pairs = optimal_pairs(a, b)
        eps = distortion(pairs, a, b) / 2 + F(1, 8)
        g = build_glued_space(a, b, pairs, eps)
        for x in range(a.n):
            for y in range(b.n):
                want = min(a.dist[x][p] + eps + b.dist[q][y] for p, q in pairs)
                assert g.dist[x][a.n + y] == want
                assert g.dist[a.n + y][x] == want


def test_build_rejects_bad_input():
    rng = random.Random(107)
    a, b = sampled_pair(rng)
    pairs = optimal_pairs(a, b)
    dis = distortion(pairs, a, b)
    if dis > 0:
        try:
            build_glued_space(a, b, pairs, dis / 2 - F(1, 1000))
            assert False
        except ValidationError:
            pass
    try:
        build_glued_space(a, b, (), F(1))
        assert False
    except ValidationError:
        pass
    for bad in ((a.n, 0), (0, b.n), (-1, 0), (0, -1)):
        try:
            build_glued_space(a, b, ((0, 0), bad), F(1))
            assert False
        except ValidationError as exc:
            assert str(exc) == f"pair {bad} out of range"
    try:
        build_glued_space(a, b, pairs, F(-1, 2))
        assert False
    except ValidationError:
        pass


def test_glue_prohorov_matches_the_generic_route():
    # The cross-only computation must equal plain prohorov on the full
    # glued matrix with the two embedded measures.
    rng = random.Random(109)
    for _ in range(30):
        a, b = sampled_pair(rng)
        g = glue_at_half_distortion(rng, a, b)
        assert prohorov_of_glue(g) == prohorov_flow(glued_common_space(g))


def test_glue_value_is_at_least_eps():
    rng = random.Random(113)
    for _ in range(30):
        a, b = sampled_pair(rng)
        g = glue_at_half_distortion(rng, a, b)
        assert prohorov_of_glue(g) >= min(g.eps, 1)


def test_search_never_beats_the_distance_and_attains_it():
    rng = random.Random(131)
    for _ in range(20):
        a, b = sampled_pair(rng)
        res = glued_upper_bound(a, b)
        gp = gromov_prohorov(a, b)
        assert res.value >= gp
        assert res.value == gp
        assert res.source in ("full", "clique")
        assert res.evaluations >= 1


def test_search_is_deterministic():
    rng = random.Random(137)
    a, b = sampled_pair(rng)
    r1 = glued_upper_bound(a, b)
    r2 = glued_upper_bound(a, b, search_budget=0)  # the one value still accepted
    assert r1 == r2


def test_search_witness_pairs_reproduce_the_value():
    rng = random.Random(139)
    for _ in range(15):
        a, b = sampled_pair(rng)
        res = glued_upper_bound(a, b)
        assert res.source in ("full", "clique")
        g = build_glued_space(canonicalize(a), canonicalize(b), res.pairs, res.eps)
        assert prohorov_of_glue(g) == res.value


def test_past_the_budget_with_no_incumbent_glues_the_full_grid():
    # distances in [10, 20] against [100, 200]: every nonzero mismatch is at
    # least 80, so past the budget no candidate of two or more cells beats
    # the empty correspondence, and the glue falls back to the full grid
    def generic(seed, scale):
        rng = random.Random(seed)
        d = [[0] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                d[i][j] = d[j][i] = rng.randint(scale, 2 * scale)
        return mm_space([f"p{i}" for i in range(5)], d, [F(1, 5)] * 5)

    a, b = generic(1, 10), generic(2, 100)
    assert gromov_prohorov_detail(a, b, budget=0).pairs == ()
    res = glued_upper_bound(a, b, budget=0)
    gp = gromov_prohorov_detail(a, b)
    assert gp.exact and not res.exact
    assert res.source == "full" and gp.value <= res.value <= 1
    g = build_glued_space(canonicalize(a), canonicalize(b), res.pairs, res.eps)
    assert prohorov_of_glue(g) == res.value


def test_float_spaces_match_their_fraction_twins():
    # dyadic entries, so each float converts to exactly its Fraction twin
    docs = [
        (
            ("x", "y", "z"),
            [["0", "0.5", "0.75"], ["0.5", "0", "0.25"], ["0.75", "0.25", "0"]],
            ["0.5", "0.25", "0.25"],
        ),
        (("u", "v"), [["0", "0.375"], ["0.375", "0"]], ["0.625", "0.375"]),
    ]
    floats = [
        FiniteMMSpace(labels, tuple(tuple(map(float, row)) for row in dist), tuple(map(float, w)))
        for labels, dist, w in docs
    ]
    twins = [mm_space(*doc) for doc in docs]
    assert isinstance(floats[0].dist[0][1], float)
    gp = gromov_prohorov_detail(*floats)
    assert gp == gromov_prohorov_detail(*twins)
    assert isinstance(gp.value, Fraction)
    glue = glued_upper_bound(*floats)
    assert glue == glued_upper_bound(*twins)
    assert glue.value == gp.value and isinstance(glue.value, Fraction)
    assert glue.source in ("full", "clique")


@st.composite
def small_spaces(draw):
    """Up to 4 points: a shortest-path pseudometric over small rationals (a
    drawn 0 off the diagonal stays a zero distance) and weights that may be 0."""
    n = draw(st.integers(1, 4))
    raw = draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n))
    d = [[0 if i == j else raw[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    den = draw(st.integers(1, 3))
    w = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    return mm_space(
        tuple(f"p{i}" for i in range(n)),
        tuple(tuple(F(x, den) for x in row) for row in d),
        tuple(F(x, sum(w)) for x in w),
    )


@settings(max_examples=100)
@given(small_spaces(), small_spaces())
def test_glue_search_equals_gp_and_half_box(a, b):
    res = glued_upper_bound(a, b)
    assert res.value == gromov_prohorov(a, b) == box_lambda(a, b, F(1, 2)) / 2
    assert res.source in ("full", "clique")
    A, B = canonicalize(a), canonicalize(b)
    g = build_glued_space(A, B, res.pairs, res.eps)
    assert prohorov_of_glue(g) == res.value
    # the other direction, box_{1/2} / 2 <= gp, on this embedding: the cells
    # within the glue's value p have distortion <= 2p by the triangle
    # inequality and carry mass >= 1 - p (an empty set scores 2)
    p = res.value
    close = [(x, y) for x, row in enumerate(g.cross()) for y, d in enumerate(row) if d <= p]
    info = correspondence_info(A, B, close)
    assert max(info.distortion, 2 * (1 - info.max_coupling_mass)) <= 2 * p
    with pytest.raises(ValidationError):
        glued_upper_bound(a, b, search_budget=1)


def test_over_distortion_is_named_by_its_exact_value():
    # the check runs on the int rows of both matrices, and the message names
    # the distortion as `distortion` returns it, floats by their exact value
    rng = random.Random(109)
    floats = FiniteMMSpace(("x", "y", "z"), ((0.0, 0.1, 0.3), (0.1, 0.0, 0.25), (0.3, 0.25, 0.0)), (0.5, 0.25, 0.25))
    cases = [sampled_pair(rng) for _ in range(20)]
    cases += [(floats, canonicalize(sample_mm_space(5, n_max=3))), (floats, floats)]
    for a, b in cases:
        pairs = tuple((i, j) for i in range(a.n) for j in range(b.n) if (i + j) % 2 == 0)
        dis = distortion(pairs, a, b)
        assert build_glued_space(a, b, pairs, dis / 2).eps == dis / 2
        if dis == 0:
            continue
        for eps in (dis / 2 - F(1, 10**6), float(dis) / 2 * 0.999):
            if F(eps) < 0:
                continue
            with pytest.raises(ValidationError) as info:
                build_glued_space(a, b, pairs, eps)
            want = F(eps)
            assert str(info.value) == f"correspondence distortion {dis} exceeds 2*eps = {2 * want}"
