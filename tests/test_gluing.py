"""Gluing along correspondences and the glue-search upper bound."""

import hashlib
import json
import random
from fractions import Fraction

from mmdist import (
    FiniteMMSpace,
    ValidationError,
    build_glued_space,
    canonicalize,
    check_triangle,
    distortion,
    glued_common_space,
    glued_upper_bound,
    gromov_prohorov,
    gromov_prohorov_detail,
    mm_space,
    optimal_correspondence,
    prohorov_flow,
    prohorov_of_glue,
    sample_mm_space,
)
from mmdist.exact import format_scalar
from mmdist.gluing import _assemble, repaired_random_cross

F = Fraction


def sampled_pair(rng, n_max=3):
    a = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=n_max))
    b = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=n_max))
    return a, b


def glue_at_half_distortion(rng, a, b):
    pairs = optimal_correspondence(a, b, F(1, 2))
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
        pairs = optimal_correspondence(a, b, F(1, 2))
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
    pairs = optimal_correspondence(a, b, F(1, 2))
    dis = distortion(pairs, a, b)
    if dis > 0:
        try:
            build_glued_space(a, b, pairs, dis / 2 - F(1, 1000))
            assert False
        except ValidationError:
            pass
    for bad_pairs in ((), ((a.n, 0),), ((0, b.n),)):
        try:
            build_glued_space(a, b, bad_pairs, F(1))
            assert False
        except ValidationError:
            pass
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


def test_repaired_random_cross_is_triangle_valid():
    rng = random.Random(127)
    for _ in range(30):
        a, b = sampled_pair(rng)
        cross = repaired_random_cross(a, b, rng)
        for x in range(a.n):
            for y in range(b.n):
                assert cross[x][y] >= 0
                for x2 in range(a.n):
                    assert cross[x][y] <= a.dist[x][x2] + cross[x2][y]
                    assert a.dist[x][x2] <= cross[x][y] + cross[x2][y]
                for y2 in range(b.n):
                    assert cross[x][y] <= cross[x][y2] + b.dist[y2][y]
                    assert b.dist[y][y2] <= cross[x][y] + cross[x][y2]


# sha256 of 32 seeded repaired glues (cross entries and Prohorov value),
# taken when the repair still ran on Fractions
PINNED_RANDOM_GLUES = {
    (3, 17, 5): "24b61f267ebe0cd9381cf3cf72297e84ad3477e57f1ad67ce530cd7abcc265f6",
    (5, 11, 4): "0f8bc5209cd69bb7c8bc20f56fcc2433c125dfc9e454c5f30f12223e0eaf0ed5",
}


def test_repaired_random_glues_are_pinned():
    for (seed_a, seed_b, n_max), digest in PINNED_RANDOM_GLUES.items():
        a = sample_mm_space(seed_a, n_max=n_max)
        b = sample_mm_space(seed_b, n_max=n_max)
        rng = random.Random(0)
        rows = []
        for _ in range(32):
            cross = repaired_random_cross(a, b, rng)
            value = prohorov_of_glue(_assemble(a, b, cross))
            rows.append([[format_scalar(x) for x in row] for row in cross] + [format_scalar(value)])
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


def test_search_never_beats_the_distance_and_attains_it():
    rng = random.Random(131)
    for _ in range(20):
        a, b = sampled_pair(rng)
        res = glued_upper_bound(a, b, search_budget=8, seed=3)
        gp = gromov_prohorov(a, b)
        assert res.value >= gp
        assert res.value == gp
        assert res.source in ("full", "clique", "random")
        assert res.evaluations >= 9


def test_search_is_deterministic():
    rng = random.Random(137)
    a, b = sampled_pair(rng)
    r1 = glued_upper_bound(a, b, search_budget=16, seed=5)
    r2 = glued_upper_bound(a, b, search_budget=16, seed=5)
    assert r1 == r2


def test_search_witness_pairs_reproduce_the_value():
    rng = random.Random(139)
    for _ in range(15):
        a, b = sampled_pair(rng)
        res = glued_upper_bound(a, b, search_budget=4, seed=1)
        if res.pairs is not None:
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
    glue = glued_upper_bound(*floats, search_budget=4)
    assert glue == glued_upper_bound(*twins, search_budget=4)
    assert glue.value == gp.value and isinstance(glue.value, Fraction)
