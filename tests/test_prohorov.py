"""Prohorov distance between two measures on one finite space, two routes."""

import importlib
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mmdist import (
    CommonSpaceMeasures,
    SizeError,
    ValidationError,
    prohorov_bruteforce,
    prohorov_condition_holds,
    prohorov_flow,
    sample_mm_space,
    validate_common,
)
from mmdist.flow import Transport

F = Fraction


def rand_weights(rng, n):
    w = [rng.randint(0, 6) for _ in range(n)]
    if sum(w) == 0:
        w[rng.randrange(n)] = 1
    s = sum(w)
    return tuple(F(x, s) for x in w)


def rand_common(rng, n_max=6):
    sp = sample_mm_space(rng.randint(0, 10**9), n_max=n_max)
    return CommonSpaceMeasures(sp.dist, rand_weights(rng, sp.n), rand_weights(rng, sp.n))


def test_swap_on_unit_distance_pair():
    cm = CommonSpaceMeasures(
        ((F(0), F(1)), (F(1), F(0))),
        (F(3, 4), F(1, 4)),
        (F(1, 4), F(3, 4)),
    )
    assert prohorov_bruteforce(cm) == F(1, 2)
    assert prohorov_flow(cm) == F(1, 2)


def test_identical_measures_give_zero():
    rng = random.Random(2)
    for _ in range(30):
        sp = sample_mm_space(rng.randint(0, 10**9))
        mu = rand_weights(rng, sp.n)
        cm = CommonSpaceMeasures(sp.dist, mu, mu)
        assert prohorov_flow(cm) == F(0)
        assert prohorov_bruteforce(cm) == F(0)


def test_flow_equals_bruteforce():
    rng = random.Random(31)
    for _ in range(120):
        cm = rand_common(rng)
        assert validate_common(cm) == []
        assert prohorov_flow(cm) == prohorov_bruteforce(cm)


@st.composite
def common_spaces(draw):
    """Up to 6 points: a shortest-path pseudometric over small rationals (a
    drawn 0 off the diagonal stays a zero distance) and two probability
    vectors that may have zero weights."""
    n = draw(st.integers(1, 6))
    raw = draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n))
    d = [[0 if i == j else raw[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    den = draw(st.integers(1, 3))
    weights = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    mu, nu = draw(weights), draw(weights)
    return CommonSpaceMeasures(
        tuple(tuple(F(x, den) for x in row) for row in d),
        tuple(F(x, sum(mu)) for x in mu),
        tuple(F(x, sum(nu)) for x in nu),
    )


@settings(max_examples=100)
@given(common_spaces())
def test_flow_equals_bruteforce_on_generated_spaces(cm):
    assert validate_common(cm) == []
    assert prohorov_flow(cm) == prohorov_bruteforce(cm)


def test_value_is_infimum_of_condition():
    # Point mass moved across distance 1/2: the defining condition uses a
    # strict enlargement, so it fails at the returned value and holds above.
    cm = CommonSpaceMeasures(
        ((F(0), F(1, 2)), (F(1, 2), F(0))),
        (F(1), F(0)),
        (F(0), F(1)),
    )
    v = prohorov_flow(cm)
    assert v == F(1, 2)
    assert not prohorov_condition_holds(cm, v)
    assert prohorov_condition_holds(cm, v + F(1, 1000))
    # eps is read as any exact scalar, as build_glued_space reads it
    assert prohorov_condition_holds(cm, "1/2") == prohorov_condition_holds(cm, F(1, 2))


def test_condition_holds_strictly_above_value():
    rng = random.Random(37)
    for _ in range(60):
        cm = rand_common(rng, n_max=5)
        v = prohorov_flow(cm)
        assert prohorov_condition_holds(cm, v + F(1, 997))
        if v > 0:
            assert not prohorov_condition_holds(cm, v - F(1, 997))


def test_symmetry():
    rng = random.Random(41)
    for _ in range(60):
        cm = rand_common(rng)
        swapped = CommonSpaceMeasures(cm.dist, cm.nu, cm.mu)
        assert prohorov_flow(cm) == prohorov_flow(swapped)


def test_triangle_inequality():
    rng = random.Random(43)
    for _ in range(60):
        sp = sample_mm_space(rng.randint(0, 10**9), n_max=5)
        mu = rand_weights(rng, sp.n)
        nu = rand_weights(rng, sp.n)
        rho = rand_weights(rng, sp.n)
        d = lambda x, y: prohorov_flow(CommonSpaceMeasures(sp.dist, x, y))
        assert d(mu, rho) <= d(mu, nu) + d(nu, rho)


def test_value_bounded_by_total_variation_and_diameter():
    rng = random.Random(47)
    for _ in range(60):
        cm = rand_common(rng)
        v = prohorov_flow(cm)
        tv = sum(abs(a - b) for a, b in zip(cm.mu, cm.nu)) / 2
        diam = max(max(row) for row in cm.dist)
        assert 0 <= v <= tv
        assert v <= diam


def test_bruteforce_cap():
    n = 4
    dist = tuple(
        tuple(F(0) if i == j else F(1) for j in range(n)) for i in range(n)
    )
    w = tuple(F(1, n) for _ in range(n))
    cm = CommonSpaceMeasures(dist, w, w)
    try:
        prohorov_bruteforce(cm, cap=3)
        assert False
    except SizeError:
        pass


def test_validate_common_flags_shape_mismatch():
    cm = CommonSpaceMeasures(((F(0),),), (F(1),), (F(1, 2), F(1, 2)))
    assert validate_common(cm) != []


UNIT_PAIR = ((F(0), F(1)), (F(1), F(0)))
HALVES = (F(1, 2), F(1, 2))
INVALID_COMMON = [
    (CommonSpaceMeasures(((F(0), F(1)),), (F(1),), (F(1),)), ["dist is not square"]),
    (CommonSpaceMeasures(UNIT_PAIR, (F(-1, 2), F(3, 2)), HALVES), ["mu has a negative entry"]),
    (CommonSpaceMeasures(UNIT_PAIR, HALVES, (F(1),)), ["nu length 1 != 2"]),
    (
        CommonSpaceMeasures(UNIT_PAIR, (F(-1, 2), F(3, 2)), (F(1),)),
        ["mu has a negative entry", "nu length 1 != 2"],
    ),
]


def test_invalid_common_spaces_are_rejected_by_every_route():
    routes = (
        prohorov_flow,
        prohorov_bruteforce,
        lambda cm: prohorov_condition_holds(cm, F(1, 2)),
    )
    for cm, violations in INVALID_COMMON:
        assert validate_common(cm) == violations
        for route in routes:
            try:
                route(cm)
                assert False
            except ValidationError as exc:
                assert str(exc) == f"invalid common-space input: {violations[0]}"
                assert exc.violations == violations


def test_the_scan_opens_only_the_thresholds_it_reaches(monkeypatch):
    # three points on a line, d01 = 1/4, d12 = 1/2, d02 = 3/4: four thresholds
    # 0 < 1/4 < 1/2 < 3/4, each opening its own cells
    dist = ((F(0), F(1, 4), F(3, 4)), (F(1, 4), F(0), F(1, 2)), (F(3, 4), F(1, 2), F(0)))
    opened = []
    real = Transport.allow
    monkeypatch.setattr(Transport, "allow", lambda t, i, j: opened.append((i, j)) or real(t, i, j))
    # two weightings whose diagonal flow leaves 1/4 uncoupled: 1/4 <= 1/4,
    # the next threshold, so the scan stops at d = 0 with the diagonal open
    mu, nu = (F(1, 2), F(1, 2), F(0)), (F(1, 2), F(1, 4), F(1, 4))
    assert prohorov_flow(CommonSpaceMeasures(dist, mu, nu)) == F(1, 4)
    assert opened == [(0, 0), (1, 1), (2, 2)]
    # a point mass at each end is coupled only at d = 3/4: every threshold
    # opens, each run row-major
    del opened[:]
    one, other = (F(1), F(0), F(0)), (F(0), F(0), F(1))
    assert prohorov_flow(CommonSpaceMeasures(dist, one, other)) == F(3, 4)
    assert opened == [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]


def test_a_scan_that_stops_at_zero_sorts_no_cell(monkeypatch):
    # the zero-distance run is listed as it lies; the other cells are sorted
    # by distance only once the scan goes past d = 0, and only they are
    dist = ((F(0), F(1, 4), F(3, 4)), (F(1, 4), F(0), F(1, 2)), (F(3, 4), F(1, 2), F(0)))
    # the package exports a function named prohorov, so fetch the module
    module = importlib.import_module("mmdist.prohorov")
    keyed = []

    def recording(items, key=None):
        items = list(items)
        if key is not None:
            keyed.append(len(items))
        return sorted(items, key=key)

    monkeypatch.setattr(module, "sorted", recording, raising=False)
    mu, nu = (F(1, 2), F(1, 2), F(0)), (F(1, 2), F(1, 4), F(1, 4))
    assert prohorov_flow(CommonSpaceMeasures(dist, mu, nu)) == F(1, 4)
    assert keyed == []
    one, other = (F(1), F(0), F(0)), (F(0), F(0), F(1))
    assert prohorov_flow(CommonSpaceMeasures(dist, one, other)) == F(3, 4)
    assert keyed == [6]
