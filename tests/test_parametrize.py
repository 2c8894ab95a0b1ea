"""Interval parametrizations of couplings and their induced box value."""

import random
from fractions import Fraction
from unittest import mock

from mmdist import (
    Coupling,
    FiniteMMSpace,
    IntervalParametrization,
    SizeError,
    ValidationError,
    box_lambda,
    box_lambda_detail,
    box_of_parametrizations,
    canonicalize,
    complete_subcoupling,
    coupling_to_parametrizations,
    max_subcoupling,
    parametrizations_to_cells,
    sample_mm_space,
    validate_parametrization,
)
from mmdist import gromov
from mmdist.exact import scaled_rows

F = Fraction

LAMBDAS = (F(1, 4), F(1, 2), F(1), F(2))


def product_coupling(a, b):
    return Coupling(
        tuple(tuple(wa * wb for wb in b.weights) for wa in a.weights)
    )


def uniform(n, d):
    dist = tuple(tuple(F(0) if i == j else F(d) for j in range(n)) for i in range(n))
    return FiniteMMSpace(
        tuple(f"p{i}" for i in range(n)), dist, tuple(F(1, n) for _ in range(n))
    )


def refine(p, k):
    """Split piece k at its midpoint without changing the map."""
    bps = list(p.breakpoints)
    vals = list(p.values)
    mid = (bps[k] + bps[k + 1]) / 2
    return IntervalParametrization(
        tuple(bps[: k + 1] + [mid] + bps[k + 1 :]),
        tuple(vals[: k + 1] + [vals[k]] + vals[k + 1 :]),
    )


def test_validate_parametrization():
    good = IntervalParametrization((F(0), F(1, 2), F(1)), (0, 1))
    assert validate_parametrization(good, 2) == []
    assert validate_parametrization(
        IntervalParametrization((F(0), F(1)), (0, 1)), 2
    ) != []
    assert validate_parametrization(
        IntervalParametrization((F(0), F(1, 2)), (0,)), 2
    ) != []
    assert validate_parametrization(
        IntervalParametrization((F(0), F(1, 2), F(1, 2), F(1)), (0, 1, 0)), 2
    ) != []
    assert validate_parametrization(
        IntervalParametrization((F(0), F(1)), (5,)), 2
    ) != []


def test_coupling_round_trips_through_parametrizations():
    rng = random.Random(71)
    for _ in range(60):
        a = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=4))
        b = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=4))
        coupling = product_coupling(a, b)
        p1, p2 = coupling_to_parametrizations(coupling, a, b)
        assert validate_parametrization(p1, a.n) == []
        assert validate_parametrization(p2, b.n) == []
        cells = parametrizations_to_cells(p1, p2)
        want = {
            (i, j): x
            for i, row in enumerate(coupling.matrix)
            for j, x in enumerate(row)
            if x > 0
        }
        assert cells == want


def test_rejects_non_couplings():
    rng = random.Random(73)
    a = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=3))
    b = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=3))
    bad = Coupling(tuple(tuple(F(0) for _ in b.weights) for _ in a.weights))
    try:
        coupling_to_parametrizations(bad, a, b)
        assert False
    except ValidationError:
        pass


def test_box_of_parametrizations_reproduces_box_at_an_optimal_coupling():
    rng = random.Random(79)
    for t in range(25):
        a = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=3))
        b = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=3))
        lam = LAMBDAS[t % 4]
        box = box_lambda_detail(a, b, lam)
        assert box.exact
        pairs = box.pairs
        _, cells = max_subcoupling(a.weights, b.weights, pairs)
        coupling = complete_subcoupling(cells, a.weights, b.weights)
        p1, p2 = coupling_to_parametrizations(coupling, a, b)
        assert box_of_parametrizations(p1, p2, a, b, lam) == box_lambda(a, b, lam)


def test_box_of_parametrizations_never_beats_the_box():
    rng = random.Random(83)
    for t in range(25):
        a = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=3))
        b = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=3))
        lam = LAMBDAS[t % 4]
        p1, p2 = coupling_to_parametrizations(product_coupling(a, b), a, b)
        assert box_of_parametrizations(p1, p2, a, b, lam) >= box_lambda(a, b, lam)


def test_box_of_parametrizations_is_refinement_invariant():
    rng = random.Random(89)
    for t in range(15):
        a = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=3))
        b = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=3))
        lam = LAMBDAS[t % 4]
        p1, p2 = coupling_to_parametrizations(product_coupling(a, b), a, b)
        before = box_of_parametrizations(p1, p2, a, b, lam)
        r1 = refine(p1, rng.randrange(p1.pieces))
        r2 = refine(p2, rng.randrange(p2.pieces))
        assert box_of_parametrizations(r1, p2, a, b, lam) == before
        assert box_of_parametrizations(r1, r2, a, b, lam) == before


def fraction_box_of_parametrizations(p1, p2, a, b, lam):
    """The induced box value scored in Fractions, clique by clique of the
    same sweep: the reference for the int incumbents."""
    masses = parametrizations_to_cells(p1, p2)
    cells = sorted(masses)
    (da, db), D = scaled_rows(a.dist, b.dist)
    sweep = gromov._CliqueSweep(da, db, cells, gromov._Budget(gromov.DEFAULT_SEARCH_BUDGET))
    # the empty subset, and the full set, which carries mass 1
    best = min(1 / lam, Fraction(sweep.thresholds[-1], D))
    for t, mask in sweep.cliques(lambda t: t >= D * best, lambda mask: False):
        mass = sum(masses[c] for c in sweep.pairs(mask))
        best = min(best, max(Fraction(t, D), (1 - mass) / lam))
    return best


def test_box_of_parametrizations_equals_the_fraction_scan():
    rng = random.Random(97)
    for _ in range(40):
        a = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=4))
        b = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=4))
        for lam in LAMBDAS + (F(3, 7),):
            _, cells = max_subcoupling(a.weights, b.weights, box_lambda_detail(a, b, lam).pairs)
            optimal = complete_subcoupling(cells, a.weights, b.weights)
            for coupling in (product_coupling(a, b), optimal):
                p1, p2 = coupling_to_parametrizations(coupling, a, b)
                want = fraction_box_of_parametrizations(p1, p2, a, b, lam)
                assert box_of_parametrizations(p1, p2, a, b, lam) == want


def unpruned_search(inc, sweep):
    """`gromov._Incumbents.search` as parametrize ran its sweep before it
    pruned by mass: no node cut, every listed clique scored."""
    for t, mask in sweep.cliques(inc.frozen, lambda mask: False):
        inc.consider(sweep.pairs(mask), t)


def spent_units(call):
    """call()'s value and the work units its search spent."""
    spent, real = [], gromov._Budget.spend
    spend = lambda budget, units: spent.append(units) or real(budget, units)
    with mock.patch.object(gromov._Budget, "spend", spend):
        value = call()
    return value, sum(spent)


def cut_checked(method, calls):
    """An `_Incumbents` method that checks, after each call, that the live
    cut is min(m_cut), and counts its calls."""

    def checked(inc, *args):
        out = method(inc, *args)
        assert inc.cut == min(inc.m_cut)
        calls.append(method.__name__)
        return out

    return checked


def line_space(rng, n):
    """n points at distinct random multiples of 1/8 on a line, uniform weights."""
    pos = rng.sample(range(60), n)
    dist = tuple(tuple(F(abs(x - y), 8) for y in pos) for x in pos)
    return FiniteMMSpace(tuple(f"p{i}" for i in range(n)), dist, (F(1, n),) * n)


def test_pruned_parametrize_search_keeps_values_and_spends_no_more_units():
    rng = random.Random(101)
    cases = []
    for _ in range(12):
        a = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=4))
        b = canonicalize(sample_mm_space(rng.randint(0, 10**9), n_max=4))
        _, cells = max_subcoupling(a.weights, b.weights, box_lambda_detail(a, b, F(1, 2)).pairs)
        for coupling in (product_coupling(a, b), complete_subcoupling(cells, a.weights, b.weights)):
            cases.append((*coupling_to_parametrizations(coupling, a, b), a, b))
    # the northwest-corner coupling of uniform weights on 20 and 21 points:
    # a staircase of 40 cells
    staircase = [
        IntervalParametrization(tuple(F(k, n) for k in range(n + 1)), tuple(range(n)))
        for n in (20, 21)
    ]
    assert len(parametrizations_to_cells(*staircase)) == 40
    cases.append((*staircase, line_space(rng, 20), line_space(rng, 21)))
    calls, fewer = [], 0
    consider = cut_checked(gromov._Incumbents.consider, calls)
    frozen = cut_checked(gromov._Incumbents.frozen, calls)
    for p1, p2, a, b in cases:
        for lam in LAMBDAS + (F(3, 7),):
            call = lambda: box_of_parametrizations(p1, p2, a, b, lam)
            with mock.patch.multiple(gromov._Incumbents, consider=consider, frozen=frozen):
                value, units = spent_units(call)
            with mock.patch.object(gromov._Incumbents, "search", unpruned_search):
                ref_value, ref_units = spent_units(call)
            assert value == ref_value == fraction_box_of_parametrizations(p1, p2, a, b, lam)
            assert units <= ref_units
            fewer += units < ref_units
    # many searches cut a node, and the cut is checked after many calls of each
    assert fewer >= 50
    assert calls.count("consider") >= 400 and calls.count("frozen") >= 1500


def test_box_of_parametrizations_raises_above_cell_cap():
    a = uniform(5, 1)
    b = uniform(5, F(1, 2))
    p1, p2 = coupling_to_parametrizations(product_coupling(a, b), a, b)
    try:
        box_of_parametrizations(p1, p2, a, b, F(1), budget=20)
        assert False
    except SizeError:
        pass


def test_lambda_must_be_positive():
    a = canonicalize(sample_mm_space(7, n_max=2))
    p1, p2 = coupling_to_parametrizations(product_coupling(a, a), a, a)
    try:
        box_of_parametrizations(p1, p2, a, a, F(0))
        assert False
    except ValidationError:
        pass


def test_an_invalid_space_is_refused_as_box_lambda_refuses_it():
    # d02 = 5 > d01 + d12 = 2: no metric, though every parametrization is fine
    dist = ((0, 1, 5), (1, 0, 1), (5, 1, 0))
    a = FiniteMMSpace(
        ("x", "y", "z"), tuple(tuple(F(x) for x in row) for row in dist), (F(1, 3),) * 3
    )
    p1, p2 = coupling_to_parametrizations(product_coupling(a, a), a, a)
    messages = []
    for call in (lambda: box_lambda(a, a, F(1)), lambda: box_of_parametrizations(p1, p2, a, a, F(1))):
        try:
            call()
            assert False
        except ValidationError as exc:
            messages.append(str(exc))
    assert messages[0] == messages[1]
    assert messages[0].startswith("invalid space: triangle violation: dist[0][2]")


def test_a_negative_budget_is_refused():
    a = canonicalize(sample_mm_space(7, n_max=3))
    p1, p2 = coupling_to_parametrizations(product_coupling(a, a), a, a)
    try:
        box_of_parametrizations(p1, p2, a, a, F(1), budget=-1)
        assert False
    except ValidationError as exc:
        assert str(exc) == "budget must be nonnegative"
