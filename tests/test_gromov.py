"""Box metric and Gromov-Prohorov distance against a subset-enumeration oracle."""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmdist import (
    FiniteMMSpace,
    SizeError,
    box_lambda,
    box_lambda_detail,
    canonicalize,
    code_excursion,
    comb,
    correspondence_info,
    distortion,
    glued_upper_bound,
    gromov_prohorov,
    gromov_prohorov_detail,
    optimal_correspondence,
    pl_excursion,
    run_counterexample,
    sample_mm_space,
)
from mmdist import gromov

F = Fraction

LAMBDAS = (F(1, 4), F(1, 2), F(1), F(2))


def min_cut_mass(mu, nu, allowed):
    n1 = len(mu)
    neigh = [set() for _ in range(n1)]
    for i, j in set(allowed):
        neigh[i].add(j)
    best = None
    for bits in range(1 << n1):
        cols = set()
        val = F(0)
        for i in range(n1):
            if bits >> i & 1:
                cols |= neigh[i]
            else:
                val += mu[i]
        val += sum((nu[j] for j in cols), F(0))
        if best is None or val < best:
            best = val
    return best


def oracle_box(a, b, lam):
    """Exact box value by enumerating every subset of the cell grid."""
    a = canonicalize(a)
    b = canonicalize(b)
    cells = [(i, j) for i in range(a.n) for j in range(b.n)]
    best, achievers = None, []
    for bits in range(1 << len(cells)):
        K = tuple(cells[k] for k in range(len(cells)) if bits >> k & 1)
        dis = F(0)
        for i1, j1 in K:
            for i2, j2 in K:
                gap = abs(a.dist[i1][i2] - b.dist[j1][j2])
                if gap > dis:
                    dis = gap
        mass = min_cut_mass(a.weights, b.weights, K)
        obj = max(dis, (1 - mass) / lam)
        if best is None or obj < best:
            best, achievers = obj, [K]
        elif obj == best:
            achievers.append(K)
    return best, achievers


def uniform(n):
    dist = tuple(tuple(F(0) if i == j else F(1) for j in range(n)) for i in range(n))
    return FiniteMMSpace(tuple(f"p{i}" for i in range(n)), dist, tuple(F(1, n) for _ in range(n)))


def point():
    return FiniteMMSpace(("x",), ((F(0),),), (F(1),))


def skewed_pair():
    return FiniteMMSpace(("y0", "y1"), ((F(0), F(1)), (F(1), F(0))), (F(3, 4), F(1, 4)))


def test_box_matches_subset_oracle():
    rng = random.Random(99)
    for t in range(40):
        a = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        b = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        lam = LAMBDAS[t % 4]
        val, _ = oracle_box(a, b, lam)
        det = box_lambda_detail(a, b, lam)
        assert det.exact
        assert det.value == val
        assert box_lambda(a, b, lam) == val


def test_pinned_closed_forms():
    assert gromov_prohorov(point(), skewed_pair()) == F(1, 4)
    assert box_lambda(point(), skewed_pair(), F(1, 2)) == F(1, 2)
    assert gromov_prohorov(uniform(2), uniform(3)) == F(1, 3)
    assert box_lambda(uniform(2), uniform(3), F(1)) == F(1, 3)


def test_gp_is_half_the_half_box():
    rng = random.Random(101)
    for _ in range(25):
        a = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        b = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        det = gromov_prohorov_detail(a, b)
        assert det.value == det.box_value / 2
        assert det.box_value == box_lambda(a, b, F(1, 2))


def test_symmetry_and_identity():
    rng = random.Random(103)
    for t in range(25):
        a = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        b = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        lam = LAMBDAS[t % 4]
        assert box_lambda(a, b, lam) == box_lambda(b, a, lam)
        assert box_lambda(a, a, lam) == 0
        perm = list(range(a.n))
        rng.shuffle(perm)
        pa = FiniteMMSpace(
            tuple(a.labels[i] for i in perm),
            tuple(tuple(a.dist[i][j] for j in perm) for i in perm),
            tuple(a.weights[i] for i in perm),
        )
        assert gromov_prohorov(a, pa) == 0


def test_gp_triangle_inequality():
    rng = random.Random(107)
    for _ in range(40):
        a = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        b = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        c = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        assert gromov_prohorov(a, c) <= gromov_prohorov(a, b) + gromov_prohorov(b, c)


def test_lambda_monotonicity_and_ratio():
    rng = random.Random(109)
    for _ in range(25):
        a = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        b = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        vals = [box_lambda(a, b, lam) for lam in LAMBDAS]
        for (l1, v1), (l2, v2) in zip(zip(LAMBDAS, vals), list(zip(LAMBDAS, vals))[1:]):
            assert v1 >= v2
            assert v1 <= (l2 / l1) * v2


def test_gp_box_sandwich():
    rng = random.Random(113)
    for _ in range(30):
        a = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        b = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        gp = gromov_prohorov(a, b)
        b1 = box_lambda(a, b, F(1))
        assert gp <= b1 <= 2 * gp


def test_split_point_invariance():
    # Splitting an atom into two colocated halves must not move any value.
    rng = random.Random(127)
    for t in range(20):
        a = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        b = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        i = rng.randrange(a.n)
        labels = a.labels + (a.labels[i] + "_twin",)
        dist = tuple(
            tuple(a.dist[p][q] for q in range(a.n)) + (a.dist[p][i],)
            for p in range(a.n)
        ) + (tuple(a.dist[i][q] for q in range(a.n)) + (F(0),),)
        half = a.weights[i] / 2
        weights = tuple(
            half if p == i else a.weights[p] for p in range(a.n)
        ) + (half,)
        split = FiniteMMSpace(labels, dist, weights)
        lam = LAMBDAS[t % 4]
        assert box_lambda(split, b, lam) == box_lambda(a, b, lam)
        assert gromov_prohorov(split, a) == 0


def test_optimal_correspondence_achieves_and_is_lex_min():
    rng = random.Random(131)
    for t in range(25):
        a = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        b = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        lam = LAMBDAS[t % 4]
        val, achievers = oracle_box(a, b, lam)
        pairs = optimal_correspondence(a, b, lam)
        assert tuple(sorted(pairs)) == min(tuple(sorted(K)) for K in achievers)
        ca = canonicalize(a)
        cb = canonicalize(b)
        info = correspondence_info(ca, cb, pairs)
        assert max(info.distortion, (1 - info.max_coupling_mass) / lam) == val


def test_optimal_correspondence_hand_cases():
    assert optimal_correspondence(point(), skewed_pair(), F(1, 2)) == ((0, 0),)
    assert optimal_correspondence(uniform(2), uniform(3), F(1)) == ((0, 0), (1, 1))


def test_distortion_and_info():
    a = uniform(2)
    b = uniform(3)
    assert distortion(((0, 0), (1, 1)), a, b) == 0
    assert distortion(((0, 0), (0, 1)), a, b) == 1
    info = correspondence_info(a, b, ((0, 0), (1, 1)))
    assert info.distortion == 0
    assert info.max_coupling_mass == F(2, 3)
    assert info.max_coupling_mass == min_cut_mass(a.weights, b.weights, [(0, 0), (1, 1)])


def test_seed_pairs_are_honored():
    a = uniform(2)
    b = uniform(3)
    det = box_lambda_detail(a, b, F(1), seeds=(((0, 0), (1, 1)),))
    assert det.value == F(1, 3)
    assert det.exact


def test_caps_raise_or_degrade_honestly():
    a = uniform(5)
    b = uniform(5)
    # 25 cells make 300 cell pairs, more than a budget of 299 can bucket
    try:
        optimal_correspondence(a, b, F(1), budget=299)
        assert False
    except SizeError:
        pass
    rough = box_lambda_detail(a, b, F(1), budget=299)
    sharp = box_lambda_detail(a, b, F(1))
    assert sharp.exact
    assert not rough.exact
    assert rough.value >= sharp.value
    assert sharp.value == 0


def test_sweep_threshold_is_each_new_cliques_distortion():
    rng = random.Random(151)
    spaces = [sample_mm_space(rng.randint(0, 10**9), n_max=5) for _ in range(24)]
    pairs = list(zip(spaces[::2], spaces[1::2]))
    stars = [code_excursion(comb(n)).space for n in (1, 2, 3, 4)]
    pairs += [(s, t) for k, s in enumerate(stars) for t in stars[k:]]
    for a, b in pairs:
        P = gromov._Pair(a, b)
        budget = gromov._Budget(gromov.DEFAULT_SEARCH_BUDGET)
        sweep = gromov._CliqueSweep(P.da, P.db, P.cells, budget)
        yielded = 0
        for t, mask in sweep.cliques(lambda t: False):
            assert distortion(sweep.pairs(mask), P.A, P.B) == F(t, P.D)
            yielded += 1
        assert yielded >= 1


def test_optimal_correspondence_passes_its_budget_on(monkeypatch):
    budgets = []
    real = gromov._max_cliques

    def recording(candidates, nbr, budget, *rest):
        budgets.append(budget)
        return real(candidates, nbr, budget, *rest)

    monkeypatch.setattr(gromov, "_max_cliques", recording)
    pairs = optimal_correspondence(uniform(2), uniform(3), F(1), budget=12345)
    assert pairs == ((0, 0), (1, 1))
    # the sweep inside the box search and the feasibility checks both ran,
    # all spending from one count
    assert len(budgets) > 1 and all(b is budgets[0] for b in budgets)
    assert budgets[0].units == 12345


# ---------------------------------------------------------------------------
# the lazy, twin-pruned sweep against the eager, unpruned one it replaced


def eager_max_cliques(candidates, nbr, budget):
    """Every maximal clique, listed before any is returned (Bron-Kerbosch
    with the sweep's pivot and order, no pruning)."""
    out = []

    def bk(r, p, x):
        budget.spend(1)
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot = max(gromov._bits(p | x), key=lambda u: ((p & nbr[u]).bit_count(), -u))
        for v in list(gromov._bits(p & ~nbr[pivot])):
            bk(r | 1 << v, p & nbr[v], x & nbr[v])
            p &= ~(1 << v)
            x |= 1 << v

    bk(0, candidates, 0)
    return out


def eager_cliques(sweep, stop):
    """The reference sweep: each threshold's maximal cliques listed in full,
    a clique yielded the first time it is listed."""
    nbr = [0] * len(sweep.cells)
    seen = set()
    for t in sweep.thresholds:
        if stop(t):
            return
        sweep._grow(nbr, t)
        for mask in eager_max_cliques((1 << len(nbr)) - 1, nbr, sweep.budget):
            if mask not in seen:
                if stop(t):
                    return
                seen.add(mask)
                yield t, mask


def space_of(dist, raw):
    return FiniteMMSpace(
        tuple(f"p{i}" for i in range(len(raw))),
        tuple(tuple(F(x) for x in row) for row in dist),
        tuple(F(r, sum(raw)) for r in raw),
    )


@st.composite
def twin_rich_spaces(draw):
    """Up to 5 points, distances 1 or 2 (always a metric), weights 1 or 2
    before normalizing: most such spaces have twins."""
    n = draw(st.integers(1, 5))
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = draw(st.sampled_from((1, 2)))
    return space_of(dist, draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))


@settings(max_examples=30)
@given(twin_rich_spaces(), twin_rich_spaces(), st.sampled_from(LAMBDAS))
# a pair on which the sweep with a `seen` set in place of the new-at-t rule
# yields a pruned-before clique later, at a threshold above its distortion
@example(
    space_of([[0, 2, 1, 2], [2, 0, 2, 2], [1, 2, 0, 2], [2, 2, 2, 0]], [1, 2, 2, 1]),
    space_of([[0, 2], [2, 0]], [1, 1]),
    F(1, 2),
)
def test_pruned_lazy_sweep_matches_the_eager_reference(a, b, lam):
    box = box_lambda_detail(a, b, lam)
    glue = glued_upper_bound(a, b)
    with mock.patch.object(gromov._CliqueSweep, "cliques", eager_cliques):
        ref_box = box_lambda_detail(a, b, lam)
        ref_glue = glued_upper_bound(a, b)
    assert (box.value, box.exact, box.pairs) == (ref_box.value, ref_box.exact, ref_box.pairs)
    assert (glue.value, glue.eps, glue.pairs, glue.source) == (
        ref_glue.value,
        ref_glue.eps,
        ref_glue.pairs,
        ref_glue.source,
    )
    assert glue.evaluations <= ref_glue.evaluations
    P = gromov._Pair(a, b)
    budget = gromov._Budget(gromov.DEFAULT_SEARCH_BUDGET)
    sweep = gromov._CliqueSweep(P.da, P.db, P.cells, budget, (P.wa, P.wb))
    never = lambda t: False
    pruned = list(sweep.cliques(never))
    for t, mask in pruned:
        assert distortion(sweep.pairs(mask), P.A, P.B) == F(t, P.D)
    # pruning only drops cliques: the rest come in the reference's order
    reference = iter(eager_cliques(sweep, never))
    assert all(clique in reference for clique in pruned)


def tree_star(n):
    """A center at distance 1 from n - 1 leaves, uniform weights."""
    dist = tuple(
        tuple(F(0) if i == j else F(1) if 0 in (i, j) else F(2) for j in range(n))
        for i in range(n)
    )
    return FiniteMMSpace(tuple(f"s{i}" for i in range(n)), dist, tuple(F(1, n) for _ in range(n)))


def test_symmetric_frontier_is_exact_past_the_guard():
    # eagerly listed, each pair's t = 0 matchings (9!, 10! and 10!/2) trip
    # the default clique guard; the lazy, twin-pruned sweep lists a handful
    star = {n: code_excursion(comb(n)).space for n in (8, 10)}
    for a, b, value in (
        (tree_star(10), tree_star(10), 0),
        (star[10], star[10], 0),
        (star[8], star[10], F(1, 5)),
    ):
        gp = gromov_prohorov_detail(a, b)
        assert (gp.value, gp.exact) == (value, True)
    assert run_counterexample(n_list=(2, 3, 4, 6, 8, 10)).passed


def test_full_grid_distortion_is_the_larger_diameter():
    # box_lambda_detail takes its first incumbent from this identity instead
    # of scoring the full grid
    rng = random.Random(157)
    for t in range(60):
        a = sample_mm_space(rng.randint(0, 10**9), n_max=1 + t % 6)
        b = sample_mm_space(rng.randint(0, 10**9), n_max=1 + t // 10)
        cells = [(i, j) for i in range(a.n) for j in range(b.n)]
        diam = max(max(map(max, a.dist)), max(map(max, b.dist)))
        assert distortion(cells, a, b) == diam
        lam = LAMBDAS[t % 4]
        det = box_lambda_detail(a, b, lam)
        wide = box_lambda_detail(a, b, lam, budget=10**9)
        assert det.exact
        assert (det.value, det.pairs) == (wide.value, wide.pairs)


def sawtooth(rng):
    """A four-piece pl excursion alternating between peaks and valleys at
    distinct levels; it codes to a tree of 5 or 6 points."""
    interior = sorted(rng.sample(range(1, 12), 3))
    breakpoints = [F(0)] + [F(k, 12) for k in interior] + [F(1)]
    peaks, valleys = rng.sample(range(5, 9), 2), rng.sample(range(1, 4), 2)
    values = [F(0)] + [F(peaks.pop() if k % 2 else valleys.pop(), 8) for k in range(1, 5)]
    return pl_excursion(breakpoints, values)


def star_of(lengths, raw):
    """A center joined to one leaf per length; `raw` weights, center first."""
    ends = [0, *lengths]
    n = len(ends)
    return space_of([[0 if i == j else ends[i] + ends[j] for j in range(n)] for i in range(n)], raw)


def grid_space(rng, n):
    """n distinct lattice points under the L1 metric over 10, weights 1..8."""
    pts = rng.sample([(x, y) for x in range(12) for y in range(12)], n)
    dist = [[F(abs(p[0] - q[0]) + abs(p[1] - q[1]), 10) for q in pts] for p in pts]
    return space_of(dist, [rng.randint(1, 8) for _ in range(n)])


def test_default_cap_frontier_is_exact_to_64_cells():
    rng = random.Random(163)
    pairs = []
    for _ in range(6):
        a, b = (code_excursion(sawtooth(rng)).space for _ in range(2))
        assert 25 <= canonicalize(a).n * canonicalize(b).n <= 36
        pairs.append((a, b))
    lengths = [1 + F(k, 16) for k in range(7)]
    pairs += [
        (tree_star(8), tree_star(8)),
        (star_of(lengths, range(1, 9)), star_of(lengths[::-1], range(1, 9))),
        (grid_space(rng, 8), grid_space(rng, 8)),
    ]
    for a, b in pairs:
        gp = gromov_prohorov_detail(a, b)
        wide = gromov_prohorov_detail(a, b, budget=10**9)
        assert (gp.value, gp.exact) == (wide.value, True)
    # an 81-cell lattice pair is exact within the default budget too
    a, b = grid_space(rng, 9), grid_space(rng, 9)
    gp = gromov_prohorov_detail(a, b)
    wide = gromov_prohorov_detail(a, b, budget=10**9)
    assert canonicalize(a).n * canonicalize(b).n == 81
    assert (gp.value, gp.exact) == (wide.value, True)


def test_budget_past_or_during_the_sweep_leaves_a_scored_upper_bound(monkeypatch):
    a, b = (grid_space(random.Random(seed), 5) for seed in (167, 173))
    spent = []
    real = gromov._Budget.spend

    def recording(budget, units):
        spent.append(units)
        real(budget, units)

    monkeypatch.setattr(gromov._Budget, "spend", recording)
    exact = gromov_prohorov_detail(a, b)
    monkeypatch.undo()
    # the first charge is the cell pairs, the rest one per clique-search node
    cell_pairs, total = spent[0], sum(spent)
    assert exact.exact and cell_pairs == 300
    # one budget trips before any bucket is built, the other mid-sweep
    tight, mid = cell_pairs - 1, (cell_pairs + total) // 2
    assert cell_pairs < mid < total
    A, B = canonicalize(a), canonicalize(b)
    for budget in (tight, mid):
        gp = gromov_prohorov_detail(a, b, budget)
        info = correspondence_info(A, B, gp.pairs)
        assert not gp.exact and gp.value >= exact.value
        assert max(info.distortion, 2 * (1 - info.max_coupling_mass)) == gp.box_value
    # the box search alone spends `total`, leaving the feasibility checks
    # nothing
    try:
        optimal_correspondence(a, b, F(1, 2), budget=total)
        assert False
    except SizeError:
        pass
    assert optimal_correspondence(a, b, F(1, 2), budget=total + cell_pairs + 10**4)


def test_optimal_correspondence_charges_the_cell_pairs_once():
    # the box search spends 501 units (300 cell pairs, 201 nodes) and the
    # feasibility checks reuse its sweep for 89 more; a second sweep over
    # the same cells would charge the 300 cell pairs again
    a, b = (grid_space(random.Random(seed), 5) for seed in (167, 173))
    wide = optimal_correspondence(a, b, F(1, 2), budget=10**9)
    assert optimal_correspondence(a, b, F(1, 2), budget=590) == wide
    try:
        optimal_correspondence(a, b, F(1, 2), budget=589)
        assert False
    except SizeError:
        pass
