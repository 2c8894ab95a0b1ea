"""Box metric and Gromov-Prohorov distance against a subset-enumeration oracle."""

import math
import random
import sys
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmdist import (
    FiniteMMSpace,
    ValidationError,
    box_ladder,
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
    pl_excursion,
    random_excursion,
    run_counterexample,
    sample_mm_space,
)
from mmdist import gromov
from mmdist.exact import scaled_rows
from mmdist.flow import max_subcoupling
from mmdist.parametrize import IntervalParametrization, parametrizations_to_cells
from mmdist.harness import LAMBDA_LADDER

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


def test_exact_witness_achieves_the_oracle_value():
    rng = random.Random(131)
    for t in range(25):
        a = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        b = sample_mm_space(rng.randint(0, 10**9), n_max=3)
        lam = LAMBDAS[t % 4]
        val, _ = oracle_box(a, b, lam)
        box = box_lambda_detail(a, b, lam)
        assert box.exact
        ca = canonicalize(a)
        cb = canonicalize(b)
        info = correspondence_info(ca, cb, box.pairs)
        assert max(info.distortion, (1 - info.max_coupling_mass) / lam) == val


def test_distortion_and_info():
    a = uniform(2)
    b = uniform(3)
    assert distortion(((0, 0), (1, 1)), a, b) == 0
    assert distortion(((0, 0), (0, 1)), a, b) == 1
    info = correspondence_info(a, b, ((0, 0), (1, 1)))
    assert info.distortion == 0
    assert info.max_coupling_mass == F(2, 3)
    assert info.max_coupling_mass == min_cut_mass(a.weights, b.weights, [(0, 0), (1, 1)])


def ref_distortion(pairs, a, b):
    """The double loop `distortion` ran in the matrices' own scalar type
    before it scored in ints, kept here as its oracle."""
    pairs = tuple(pairs)
    if not pairs:
        return F(0)
    i0, j0 = pairs[0]
    worst = abs(a.dist[i0][i0] - b.dist[j0][j0])
    for k, (i, j) in enumerate(pairs):
        for i2, j2 in pairs[k + 1 :]:
            diff = abs(a.dist[i][i2] - b.dist[j][j2])
            if diff > worst:
                worst = diff
    return worst


def line_space(rng, n, scalar):
    """n points on a line at random int positions, or at multiples of 1/8 as
    floats (dyadic, so the float loop's subtractions are exact)."""
    pos = [rng.randint(0, 12) for _ in range(n)]
    if scalar is float:
        pos = [p / 8 for p in pos]
    dist = tuple(tuple(abs(p - q) for q in pos) for p in pos)
    return FiniteMMSpace(tuple(f"p{i}" for i in range(n)), dist, tuple(F(1, n) for _ in range(n)))


def test_distortion_equals_the_fraction_loop():
    rng = random.Random(2207)
    sampled = [sample_mm_space(rng.randint(0, 10**9), n_max=5) for _ in range(20)]
    ints = [line_space(rng, rng.randint(1, 5), int) for _ in range(20)]
    floats = [line_space(rng, rng.randint(1, 5), float) for _ in range(20)]
    # the old loop rounds a float minus a Fraction to a float, so float
    # spaces meet int and float spaces only
    groups = (sampled + ints, ints + floats)
    for t in range(400):
        a, b = rng.choice(groups[t % 2]), rng.choice(groups[t % 2])
        cells = [(i, j) for i in range(a.n) for j in range(b.n)]
        pairs = rng.sample(cells, rng.randint(0, len(cells)))
        got = distortion(pairs, a, b)
        assert type(got) is F
        assert got == F(ref_distortion(pairs, a, b))


def test_out_of_range_cells_are_named():
    a = uniform(2)
    b = uniform(3)
    for cell in ((2, 0), (0, 3), (-1, 0), (0, -1)):
        try:
            correspondence_info(a, b, ((1, 1), cell))
            assert False
        except ValidationError as exc:
            assert str(exc) == f"cell {cell} out of range"
        # a negative index is refused, not read from the end of a row
        try:
            distortion(((1, 1), cell), a, b)
            assert False
        except ValidationError as exc:
            assert str(exc) == f"cell {cell} out of range"
        try:
            box_lambda_detail(a, b, F(1), seeds=(((1, 1), cell),))
            assert False
        except ValidationError as exc:
            assert str(exc) == f"seed cell {cell} out of range"


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
    rough = box_lambda_detail(a, b, F(1), budget=299)
    sharp = box_lambda_detail(a, b, F(1))
    assert sharp.exact
    assert rough.exact  # box >= 0, so an incumbent of 0 is optimal past the budget too
    assert rough.value >= sharp.value
    assert sharp.value == 0
    # the same 25 cells at distance 2 in b: a positive incumbent past the
    # budget is only a bound
    b = FiniteMMSpace(b.labels, tuple(tuple(2 * d for d in row) for row in b.dist), b.weights)
    rough = box_lambda_detail(a, b, F(1), budget=299)
    sharp = box_lambda_detail(a, b, F(1))
    assert sharp.exact
    assert not rough.exact
    assert rough.value >= sharp.value > 0


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
        for t, mask in sweep.cliques(lambda t: False, lambda mask: False):
            assert distortion(sweep.pairs(mask), P.A, P.B) == F(t, P.D)
            yielded += 1
        assert yielded >= 1


# ---------------------------------------------------------------------------
# the sweep's set-up against the bucket build it replaced


def listed_twins(da, db, wa, wb):
    """The twin check's per-cell lists: per cell v, the (bit of u, swap)
    pairs for each cell u < v that one A-row twin swap and/or one B-column
    twin swap maps to v, the swap given as `gromov._fixes` reads it; None
    without twins."""
    twins_a, twins_b = gromov._twins(da, wa), gromov._twins(db, wb)
    if not (twins_a or twins_b):
        return None
    n1, n2 = len(da), len(db)
    row_low = (1 << n2) - 1
    col_low = sum(1 << (i * n2) for i in range(n1))
    rows = [[(i, ())] for i in range(n1)]
    for i, i2 in twins_a:
        swap = ((row_low << (i * n2), (i2 - i) * n2),)
        rows[i].append((i2, swap))
        rows[i2].append((i, swap))
    cols = [[(j, ())] for j in range(n2)]
    for j, j2 in twins_b:
        swap = ((col_low << j, j2 - j),)
        cols[j].append((j2, swap))
        cols[j2].append((j, swap))
    return [
        [
            (1 << (i * n2 + j), rs + cs)
            for i, rs in rows[v // n2]
            for j, cs in cols[v % n2]
            if i * n2 + j < v
        ]
        for v in range(n1 * n2)
    ]


class ListedTwins:
    """`gromov._TwinOrbits` read off the per-cell lists."""

    def __init__(self, lists):
        self.lists = lists
        # v's orbit as the lists have it: the cells below v that map onto v
        self.orbits = [sum(ubit for ubit, _ in listed) for listed in lists]

    def maps_onto(self, v, cells, r, p):
        return any(
            cells & ubit and gromov._fixes(g, r) and gromov._fixes(g, p)
            for ubit, g in self.lists[v]
        )


def bucket_init(sweep, da, db, cells, budget, weights=None):
    """`gromov._CliqueSweep.__init__` built from every cell pair: each pair
    put in a bucket keyed by its mismatch, and per cell a list of its twin
    images."""
    budget.spend(len(cells) * (len(cells) - 1) // 2)
    sweep.budget, sweep.cells = budget, cells
    sweep.buckets = {}
    for c1, (i, j) in enumerate(cells):
        for c2 in range(c1 + 1, len(cells)):
            i2, j2 = cells[c2]
            sweep.buckets.setdefault(abs(da[i][i2] - db[j][j2]), []).append((c1, c2))
    diagonal = {abs(da[i][i] - db[j][j]) for i, j in cells}
    sweep.thresholds = sorted(diagonal.union(sweep.buckets))
    lists = None if weights is None else listed_twins(da, db, *weights)
    sweep.twins = None if lists is None else ListedTwins(lists)


def bucket_grow(sweep, nbr, t):
    """`gromov._CliqueSweep._grow` read off bucket t."""
    fresh = [0] * len(nbr)
    for c1, c2 in sweep.buckets.get(t, ()):
        fresh[c1] |= 1 << c2
        fresh[c2] |= 1 << c1
    for c, f in enumerate(fresh):
        nbr[c] |= f
    return fresh


def bucket_reference():
    """A context in which every `_CliqueSweep` is set up by the bucket build."""
    return mock.patch.multiple(gromov._CliqueSweep, __init__=bucket_init, _grow=bucket_grow)


def random_rows(rng, n, values):
    """A symmetric int matrix with a zero diagonal and entries drawn from
    `values`; with 0 among them it is a pseudometric's or no metric's."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.choice(values)
    return d


def set_up_cases():
    """(da, db, cells): seeded sampled, twin-rich and coded star pairs on
    the full grid and on sorted parts of it, as parametrize passes, and
    random int matrices (zero off the diagonal too) on both."""
    rng = random.Random(983)
    stars = [code_excursion(comb(n)).space for n in (1, 2, 3, 5)]
    pairs = ladder_pairs() + [(s, t) for k, s in enumerate(stars) for t in stars[k:]]
    grids = []
    for a, b in pairs:
        P = gromov._Pair(a, b)
        grids.append((P.da, P.db))
        # parametrize scales the spaces it is given, canonical or not
        (da, db), _ = scaled_rows(a.dist, b.dist)
        grids.append((da, db))
    for _ in range(30):
        values = rng.choice(((0, 1, 2), (1, 2), tuple(range(7))))
        grids.append(tuple(random_rows(rng, rng.randint(1, 5), values) for _ in range(2)))
    for da, db in grids:
        cells = [(i, j) for i in range(len(da)) for j in range(len(db))]
        yield da, db, cells
        for k in (0, 1, 2, len(cells) // 3, len(cells) - 1):
            yield da, db, sorted(rng.sample(cells, min(k, len(cells))))


def test_set_up_from_values_matches_the_bucket_build():
    sparse = 0
    for da, db, cells in set_up_cases():
        sweep = gromov._CliqueSweep(da, db, cells, gromov._Budget(10**9))
        ref = gromov._CliqueSweep.__new__(gromov._CliqueSweep)
        bucket_init(ref, da, db, cells, gromov._Budget(10**9))
        assert sweep.thresholds == ref.thresholds
        nbr, ref_nbr = [0] * len(cells), [0] * len(cells)
        for t in sweep.thresholds:
            assert sweep._grow(nbr, t) == bucket_grow(ref, ref_nbr, t)
            assert nbr == ref_nbr
        sparse += len(cells) < len(da) * len(db)
    assert sparse >= 300



def traced_lines(f):
    """The Python lines f() runs: a work count that no host or clock moves."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local)
    try:
        f()
    finally:
        sys.settrace(old)
    return count


def test_sweep_work_is_within_the_bucket_builds():
    # parametrize's cells for uniform parametrizations of 30 and 31 points
    # form a staircase of 60 cells, whose rows hold different columns: there
    # the set-up and the edges of every threshold cost the bucket build's
    # steps. On the full grid the set-up takes fewer steps than the bucket
    # build.
    rng = random.Random(1009)
    uniform = lambda n: IntervalParametrization(
        tuple(F(k, n) for k in range(n + 1)), tuple(range(n))
    )
    staircase = sorted(parametrizations_to_cells(uniform(30), uniform(31)))
    assert len(staircase) == 60
    full = [(i, j) for i in range(12) for j in range(13)]

    def work(init, grow, da, db, cells, every):
        def run():
            sweep = gromov._CliqueSweep.__new__(gromov._CliqueSweep)
            init(sweep, da, db, cells, gromov._Budget(10**6))
            nbr = [0] * len(cells)
            for t in sweep.thresholds if every else ():
                grow(sweep, nbr, t)

        return traced_lines(run)

    production = (gromov._CliqueSweep.__init__, gromov._CliqueSweep._grow)
    for values in (range(1000, 2001), (1, 2)):
        for (n1, n2), cells, every, factor in (
            ((30, 31), staircase, True, 1.25),
            ((12, 13), full, False, 1),
        ):
            da, db = random_rows(rng, n1, values), random_rows(rng, n2, values)
            bucket = work(bucket_init, bucket_grow, da, db, cells, every)
            assert work(*production, da, db, cells, every) < factor * bucket


def orbit_closed(rng, lists, n):
    """A random union of twin orbits: a mask every listed swap maps onto
    itself."""
    mask = 0
    for v in range(n):
        if rng.random() < 0.4:
            mask |= 1 << v
            for ubit, _ in lists[v]:
                mask |= ubit
    for v in range(n):  # close under the swaps from later cells
        if mask >> v & 1:
            continue
        if any(mask & ubit for ubit, _ in lists[v]):
            mask |= 1 << v
    return mask


def test_twin_orbits_agree_with_the_per_cell_lists():
    rng = random.Random(991)
    stars = [code_excursion(comb(n)).space for n in (2, 3, 4)]
    pairs = ladder_pairs()[20:] + [(s, t) for s in stars for t in stars]
    pairs.append((tree_star(4), tree_star(3)))
    answers = {True: 0, False: 0}
    for a, b in pairs:
        P = gromov._Pair(a, b)
        sweep = gromov._CliqueSweep(P.da, P.db, P.cells, gromov._Budget(10**9), (P.wa, P.wb))
        lists = listed_twins(P.da, P.db, P.wa, P.wb)
        if lists is None:
            assert sweep.twins is None
            continue
        listed, n = ListedTwins(lists), len(P.cells)
        masks = lambda: rng.choice(
            (0, (1 << n) - 1, rng.getrandbits(n), orbit_closed(rng, lists, n))
        )
        for _ in range(200):
            branch = rng.getrandbits(n) | orbit_closed(rng, lists, n)
            if not branch:
                continue
            v = rng.choice(list(gromov._bits(branch)))
            r, p = masks(), masks()
            below = branch & ((1 << v) - 1)
            earlier = below & sweep.twins.orbits[v]
            assert earlier == below & listed.orbits[v]
            answer = bool(earlier) and sweep.twins.maps_onto(v, earlier, r, p)
            assert answer == listed.maps_onto(v, below, r, p)
            answers[answer] += 1
    assert min(answers.values()) >= 500


def test_ladders_equal_the_bucket_reference_at_every_budget():
    rng = random.Random(997)
    stars = [code_excursion(comb(n)).space for n in (2, 3, 4, 6)]
    pairs = ladder_pairs() + [(s, t) for k, s in enumerate(stars) for t in stars[k:]]
    pairs += [tuple(code_excursion(sawtooth(rng)).space for _ in range(2)) for _ in range(2)]
    inexact = 0
    for a, b in pairs:
        cells = canonicalize(a).n * canonicalize(b).n
        base = cells * (cells - 1) // 2
        for units in (0, base + 5, base + 50, gromov.DEFAULT_SEARCH_BUDGET):
            for lams in (LAMBDA_LADDER, (F(1, 2),)):
                budget, ref_budget = gromov._Budget(units), gromov._Budget(units)
                boxes = gromov._ladder(a, b, lams, budget)[0]
                with bucket_reference():
                    refs = gromov._ladder(a, b, lams, ref_budget)[0]
                assert (boxes, budget.left) == (refs, ref_budget.left)
                inexact += sum(not box.exact for box in boxes)
    # runs past the budget are compared too
    assert inexact >= 100


def test_symmetric_frontier_of_the_readme_is_exact():
    # identical 18-point stars (324 cells) and coded comb(17) vs comb(19)
    # (323 cells), each spending as many units as the bucket reference
    coded = {n: code_excursion(comb(n)).space for n in (17, 19)}
    for a, b, value in ((tree_star(18), tree_star(18), 0), (coded[17], coded[19], F(2, 19))):
        budget, ref_budget = (gromov._Budget(gromov.DEFAULT_SEARCH_BUDGET) for _ in range(2))
        box = gromov._ladder(a, b, (F(1, 2),), budget)[0][0]
        with bucket_reference():
            ref = gromov._ladder(a, b, (F(1, 2),), ref_budget)[0][0]
        assert (box.value / 2, box.exact) == (value, True)
        assert (box, budget.left) == (ref, ref_budget.left)
        gp = gromov_prohorov_detail(a, b)
        assert (gp.value, gp.exact) == (value, True)


def test_a_zero_box_is_exact_past_the_budget():
    # identical 19- and 25-point stars spend the default budget on the
    # set-up charge, and the greedy fallback finds the identity, of box 0 at
    # every lam; box >= 0, so that incumbent is optimal
    for n in (19, 25):
        star = tree_star(n)
        budget = gromov._Budget(gromov.DEFAULT_SEARCH_BUDGET)
        boxes = gromov._ladder(star, star, LAMBDA_LADDER, budget)[0]
        assert [(box.value, box.exact) for box in boxes] == [(0, True)] * len(LAMBDA_LADDER)
        gp, glue = gromov_prohorov_detail(star, star), glued_upper_bound(star, star)
        assert (gp.value, gp.exact) == (glue.value, glue.exact) == (0, True)


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


def eager_cliques(sweep, stop, prune):
    """The reference sweep: each threshold's maximal cliques listed in full,
    a clique yielded the first time it is listed; it prunes no node."""
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
    with mock.patch.object(gromov._CliqueSweep, "cliques", eager_cliques), bucket_reference():
        ref_box = box_lambda_detail(a, b, lam)
        ref_glue = glued_upper_bound(a, b)
    assert (box.value, box.exact, box.pairs) == (ref_box.value, ref_box.exact, ref_box.pairs)
    assert (glue.value, glue.eps, glue.pairs, glue.source) == (
        ref_glue.value,
        ref_glue.eps,
        ref_glue.pairs,
        ref_glue.source,
    )
    P = gromov._Pair(a, b)
    units = gromov.DEFAULT_SEARCH_BUDGET
    sweep = gromov._CliqueSweep(P.da, P.db, P.cells, gromov._Budget(units), (P.wa, P.wb))
    never = lambda t: False
    pruned = list(sweep.cliques(never, lambda mask: False))
    for t, mask in pruned:
        assert distortion(sweep.pairs(mask), P.A, P.B) == F(t, P.D)
    # pruning only drops cliques: the rest come in the reference's order
    with bucket_reference():
        ref = gromov._CliqueSweep(P.da, P.db, P.cells, gromov._Budget(units))
        reference = iter(list(eager_cliques(ref, never, lambda mask: False)))
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
    # so is a 9-point star with distinct leaf lengths against its reverse,
    # whose value a search with a budget of 10**9 confirms
    lengths = [1 + F(k, 16) for k in range(8)]
    a, b = star_of(lengths, range(1, 10)), star_of(lengths[::-1], range(1, 10))
    gp = gromov_prohorov_detail(a, b)
    assert (gp.value, gp.exact) == (F(1, 5), True)


def test_lattice_frontier_is_exact_at_the_default_budget():
    """gp of the L1 lattice pairs `grid_space(random.Random(n), n)`, three
    consecutive pairs per n, is exact at the default budget: all three at
    10 points, and pairs #0 and #2 at 12 points.

    Today's first non-exact cases stay unasserted, so that a change that
    moves the frontier can add them here: lattice 12 pair #1 (262/1035),
    lattice 14, `star_of` at 10 points (14/55) and coded comb(19) vs
    comb(21) (2/21).
    """
    want = {10: [F(19, 82), F(1, 4), F(157, 702)], 12: [F(598, 2703), None, F(328, 1395)]}
    for n, values in want.items():
        rng = random.Random(n)
        for value in values:
            a, b = grid_space(rng, n), grid_space(rng, n)
            if value is not None:
                gp = gromov_prohorov_detail(a, b)
                assert (gp.value, gp.exact) == (value, True)


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


def test_fallback_never_scores_the_full_grid_again(monkeypatch):
    # a greedy threshold at the larger diameter accepts every cell, and the
    # ladder has scored the full grid before its search
    candidates = []
    real = gromov._heuristic_candidates

    def recording(*args):
        for cand, t in real(*args):
            candidates.append(cand)
            yield cand, t

    monkeypatch.setattr(gromov, "_heuristic_candidates", recording)
    star = tree_star(12)
    box = box_lambda_detail(star, star, F(1, 2), budget=0)
    assert (box.value, box.exact) == (0, True)  # a value of 0 is exact at any budget
    assert candidates and all(len(cand) < 12 * 12 for cand in candidates)


def full_scan_candidates(da, db, wa, wb, cells, diffs, diam):
    """`gromov._heuristic_candidates` with each greedy comparing a cell with
    every chosen one, the reference for its early rejection."""
    nw = gromov._northwest_support(wa, wb)
    yield nw, gromov._int_distortion(da, db, nw)
    picks = {diffs[max(0, len(diffs) * k // 12 - 1)] for k in range(1, 13)}
    order = sorted(range(len(cells)), key=lambda c: (-min(wa[cells[c][0]], wb[cells[c][1]]), c))
    for threshold in sorted(t for t in picks if t < diam):
        chosen, worst = [], 0
        for c in order:
            i, j = cells[c]
            gap = max((abs(da[i][i2] - db[j][j2]) for i2, j2 in chosen), default=0)
            if gap <= threshold:
                chosen.append((i, j))
                worst = max(worst, gap)
        yield tuple(sorted(chosen)), worst


def test_fallback_greedy_matches_the_full_scan():
    rng = random.Random(439)
    pairs = ladder_pairs()[:20] + [(grid_space(rng, 7), grid_space(rng, 8)) for _ in range(4)]
    for a, b in pairs:
        P = gromov._Pair(a, b)
        diffs = sorted(
            {abs(P.da[i][i2] - P.db[j][j2]) for i, j in P.cells for i2, j2 in P.cells}
        )
        args = (P.da, P.db, P.wa, P.wb, P.cells, diffs, P.diam)
        assert list(gromov._heuristic_candidates(*args)) == list(full_scan_candidates(*args))


def test_fallback_skip_changes_no_result():
    real = gromov._heuristic_candidates

    def unskipped(*args):  # no threshold reaches an infinite diameter
        return real(*args[:-1], math.inf)

    inexact = 0
    for a, b in ladder_pairs()[:20]:  # the seeded sampled pairs
        for budget in (0, 3, 20, 100):
            boxes = box_ladder(a, b, LAMBDAS, budget)
            with mock.patch.object(gromov, "_heuristic_candidates", unskipped):
                assert boxes == box_ladder(a, b, LAMBDAS, budget)
            inexact += sum(not box.exact for box in boxes)
    assert inexact >= 100


# ---------------------------------------------------------------------------
# one sweep for the whole lambda ladder


def ladder_pairs():
    """Seeded sampled pairs and twin-rich pairs (distances and weights 1 or 2)."""
    rng = random.Random(419)

    def twin_rich():
        n = rng.randint(1, 5)
        dist = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dist[i][j] = dist[j][i] = rng.choice((1, 2))
        return space_of(dist, [rng.randint(1, 2) for _ in range(n)])

    sampled = [sample_mm_space(rng.randint(0, 10**9), n_max=4) for _ in range(40)]
    return list(zip(sampled[::2], sampled[1::2])) + [(twin_rich(), twin_rich()) for _ in range(20)]


def test_ladder_equals_separate_calls_at_every_budget():
    mixed = 0
    for a, b in ladder_pairs():
        cells = canonicalize(a).n * canonicalize(b).n
        # a budget that buckets the cell pairs and then cuts the sweep
        cut = cells * (cells - 1) // 2 + 5
        for budget in (0, cut, gromov.DEFAULT_SEARCH_BUDGET):
            ladder = box_ladder(a, b, LAMBDAS, budget)
            assert ladder == tuple(box_lambda_detail(a, b, lam, budget) for lam in LAMBDAS)
            mixed += len({box.exact for box in ladder}) == 2
    # some ladders freeze a lam before the cut and run out on another
    assert mixed >= 5


def test_a_lambda_the_ladder_freezes_gets_its_own_search_result():
    # the ladder prunes only what no live lam can use, so it spends at least
    # the units of each lam's own search, which may be exact where the
    # ladder's result for that lam is not
    inexact = 0
    for a, b in ladder_pairs():
        cells = canonicalize(a).n * canonicalize(b).n
        for extra in (20, 50, 100):
            budget = cells * (cells - 1) // 2 + extra
            for box, lam in zip(box_ladder(a, b, LAMBDAS, budget), LAMBDAS):
                own = box_lambda_detail(a, b, lam, budget)
                if box.exact:
                    assert box == own
                else:
                    assert box.value >= own.value
                    inexact += 1
    assert inexact >= 40


def test_ladder_flows_only_what_some_one_lambda_search_flows(monkeypatch):
    # one flow per clique for every live lam, and none for a clique that
    # only a frozen lam's cut would let through
    flowed = []
    real = gromov.max_subcoupling
    monkeypatch.setattr(gromov, "max_subcoupling", lambda *x: flowed.append(x[2]) or real(*x))
    fewer = 0
    for a, b in ladder_pairs():
        flowed.clear()
        box_ladder(a, b, LAMBDAS)
        ladder = list(flowed)
        flowed.clear()
        for lam in LAMBDAS:
            box_lambda_detail(a, b, lam)
        assert set(ladder) <= set(flowed) and len(set(ladder)) == len(ladder)
        fewer += len(ladder) < len(flowed)
    assert fewer >= 30


def test_ladder_keeps_the_paper_inequalities():
    for a, b in ladder_pairs():
        boxes = box_ladder(a, b, LAMBDAS)
        assert all(box.exact for box in boxes)
        value = {box.lam: box.value for box in boxes}
        gp = gromov_prohorov(a, b)
        assert gp == value[F(1, 2)] / 2
        assert gp <= value[F(1)] <= 2 * gp
        for u, v in zip(LAMBDAS, LAMBDAS[1:]):
            assert value[u] >= value[v]
            assert value[u] <= (v / u) * value[v]


def test_ladder_checks_every_lambda_first():
    # as one lam's search does, the lams are checked before the spaces
    heavy = FiniteMMSpace(("x",), ((F(0),),), (F(2),))
    for lams in ((F(1), 0), (F(-1, 2),)):
        for a in (uniform(2), heavy):
            try:
                box_ladder(a, uniform(3), lams)
                assert False
            except ValidationError as exc:
                assert str(exc) == "lambda must be positive"
    try:
        box_ladder(heavy, uniform(3), LAMBDAS)
        assert False
    except ValidationError as exc:
        assert str(exc).startswith("invalid space: weights sum to 2")
    assert box_ladder(uniform(2), uniform(3), ()) == ()


def heaviest_by_threshold(a, b):
    """An independent Fraction route to the box values: for each mismatch
    threshold t in ascending order, the largest coupling mass on a
    correspondence of distortion <= t (the heaviest maximal clique of the
    compatibility graph, weighed by `min_cut_mass`), up to mass 1."""
    A, B = canonicalize(a), canonicalize(b)
    cells = [(i, j) for i in range(A.n) for j in range(B.n)]

    def gap(c1, c2):
        return abs(A.dist[c1[0]][c2[0]] - B.dist[c1[1]][c2[1]])

    for t in sorted({gap(c1, c2) for c1 in cells for c2 in cells}):
        nbr = [
            sum(1 << k for k, c2 in enumerate(cells) if c2 != c1 and gap(c1, c2) <= t)
            for c1 in cells
        ]
        cliques = eager_max_cliques((1 << len(cells)) - 1, nbr, gromov._Budget(10**9))
        mass = max(
            min_cut_mass(A.weights, B.weights, [cells[c] for c in gromov._bits(mask)])
            for mask in cliques
        )
        yield t, mass
        if mass == 1:
            return


def test_ladder_values_are_their_witnesses_scored_in_fractions():
    # each value is its witness's own score, and an exact one is the optimum
    inexact = 0
    for a, b in ladder_pairs():
        A, B = canonicalize(a), canonicalize(b)
        heaviest = list(heaviest_by_threshold(a, b))
        cells = A.n * B.n
        cut = cells * (cells - 1) // 2 + 5
        for budget in (0, cut, gromov.DEFAULT_SEARCH_BUDGET):
            for box in box_ladder(a, b, LAMBDAS, budget):
                assert type(box.value) is F
                if box.pairs:
                    info = correspondence_info(A, B, box.pairs)
                    score = max(info.distortion, (1 - info.max_coupling_mass) / box.lam)
                else:
                    score = 1 / box.lam
                assert box.value == score
                optimum = min([1 / box.lam] + [max(t, (1 - m) / box.lam) for t, m in heaviest])
                assert box.value == optimum if box.exact else box.value >= optimum
                inexact += not box.exact
    # the past-budget fallback scores its candidates too
    assert inexact >= 100


# ---------------------------------------------------------------------------
# the Hall bound: no flow for a clique that cannot beat an incumbent


def touched_weight(weights, pairs, side):
    return sum(weights[k] for k in {cell[side] for cell in pairs})


def test_hall_bound_sits_between_the_flow_and_the_touched_weights():
    rng = random.Random(431)
    tighter = 0
    for _ in range(400):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
        wa = [rng.randint(0, 6) for _ in range(n1)]
        wb = [rng.randint(0, 6) for _ in range(n2)]
        mask = rng.getrandbits(n1 * n2) & rng.getrandbits(n1 * n2)  # sparse cell sets
        pairs = [divmod(c, n2) for c in gromov._bits(mask)]
        bound = gromov._HallBound(wa, wb).rows(mask)
        # the rows sum can exceed the touched column weight: two rows that
        # meet one light column each ship up to its weight
        touched = touched_weight(wa, pairs, 0)
        assert max_subcoupling(wa, wb, pairs)[0] <= bound <= touched
        tighter += bound < touched
    # the bound often beats the touched row weight
    assert tighter >= 170


def ladder_runs(a, b, lams, units):
    """`gromov._ladder` with its Hall bound and with a bound that never cuts
    (no node pruned, every clique flowed): per run the BoxResults, the gp
    result, the budget units left and the flows made."""
    runs = []
    never = lambda hall, mask: math.inf
    for rows in (gromov._HallBound.rows, never):
        flows = []
        real = gromov.max_subcoupling
        with mock.patch.object(gromov._HallBound, "rows", rows), mock.patch.object(
            gromov, "max_subcoupling", lambda *x: flows.append(x) or real(*x)
        ):
            budget = gromov._Budget(units)
            boxes = gromov._ladder(a, b, lams, budget)[0]
            gp = gromov_prohorov_detail(a, b, units)
        runs.append((boxes, gp, budget.left, len(flows)))
    return runs


def test_hall_pruning_keeps_exact_results_and_spends_no_more_units():
    rng = random.Random(433)
    pairs = ladder_pairs()[::3]
    pairs += [tuple(code_excursion(sawtooth(rng)).space for _ in range(2)) for _ in range(4)]
    # a gp search that settles at a clique after which the pruned sweep lists
    # no other: were its stop test polled only before each yield, it would
    # spend 274 units, more than the unpruned sweep's 272; polled right after
    # each clique, the two spend 248 and 270
    pairs.append((sample_mm_space(948526166, n_max=5), sample_mm_space(147023327, n_max=5)))
    pruned = inexact = skipped = 0
    for a, b in pairs:
        cells = canonicalize(a).n * canonicalize(b).n
        # a budget that buckets the cell pairs and then cuts the sweep
        for units in (cells * (cells - 1) // 2 + 5, gromov.DEFAULT_SEARCH_BUDGET):
            for lams in (LAMBDA_LADDER, (F(1, 2),)):
                (boxes, gp, left, flows), (ref_boxes, ref_gp, ref_left, ref_flows) = ladder_runs(
                    a, b, lams, units
                )
                assert left >= ref_left
                pruned += left > ref_left
                for box, ref in zip(boxes + (gp,), ref_boxes + (ref_gp,)):
                    if ref.exact:  # value, exactness and witness
                        assert box == ref
                    else:
                        assert box.value <= ref.value
                        inexact += 1
                if all(ref.exact for ref in ref_boxes):
                    assert flows <= ref_flows
                    skipped += ref_flows - flows
    # some runs prune a node, many reference runs spend their budget, and
    # the bound skips flows
    assert pruned >= 10 and inexact >= 50 and skipped >= 100


# ---------------------------------------------------------------------------
# the stop rule: polled before each threshold and after each handled clique


def polling_max_cliques(nbr, budget, twins, prune):
    """`gromov._max_cliques` as it was when a node cut by mass yielded None in
    place of its subtree's cliques, so that its caller could poll there."""

    def bk(r, p, x):
        budget.spend(1)
        if p == 0:
            if x == 0:
                yield r
            return
        if prune(r | p):
            yield None
            return
        pivot = max(gromov._bits(p | x), key=lambda u: ((p & nbr[u]).bit_count(), -u))
        branch, p0 = p & ~nbr[pivot], p
        for v in gromov._bits(branch):
            earlier = 0 if twins is None else branch & ((1 << v) - 1) & twins.orbits[v]
            if not earlier or not twins.maps_onto(v, earlier, r, p0):
                yield from bk(r | 1 << v, p & nbr[v], x & nbr[v])
            p &= ~(1 << v)
            x |= 1 << v

    yield from bk(0, (1 << len(nbr)) - 1, 0)


def polling_cliques(sweep, stop, prune):
    """The reference sweep: `stop` polled before each threshold, before each
    yield and at each node cut by mass."""
    nbr = [0] * len(sweep.cells)
    for t in sweep.thresholds:
        if stop(t):
            return
        fresh = sweep._grow(nbr, t)
        for mask in polling_max_cliques(nbr, sweep.budget, sweep.twins, prune):
            if mask is None:  # a cut subtree, polled where its cliques would be
                if stop(t):
                    return
            elif t == sweep.thresholds[0] or any(fresh[c] & mask for c in gromov._bits(mask)):
                if stop(t):
                    return
                yield t, mask


def test_the_stop_rule_spends_no_more_units_than_polling_at_every_node():
    rng = random.Random(433)
    pairs = ladder_pairs()
    pairs += [tuple(code_excursion(sawtooth(rng)).space for _ in range(2)) for _ in range(4)]
    pairs.append((sample_mm_space(948526166, n_max=5), sample_mm_space(147023327, n_max=5)))
    fewer = inexact = 0
    for a, b in pairs:
        cells = canonicalize(a).n * canonicalize(b).n
        base = cells * (cells - 1) // 2
        for units in (base + 5, base + 50, gromov.DEFAULT_SEARCH_BUDGET):
            for lams in (LAMBDA_LADDER, (F(1, 2),)):
                budget, ref_budget = gromov._Budget(units), gromov._Budget(units)
                boxes = gromov._ladder(a, b, lams, budget)[0]
                with mock.patch.object(
                    gromov._CliqueSweep, "cliques", polling_cliques
                ), bucket_reference():
                    refs = gromov._ladder(a, b, lams, ref_budget)[0]
                assert budget.left >= ref_budget.left
                fewer += budget.left > ref_budget.left
                for box, ref in zip(boxes, refs):
                    if ref.exact:  # value, exactness and witness
                        assert box == ref
                    else:
                        assert box.value <= ref.value
                        inexact += 1
    # many searches stop sooner, and many reference runs spend their budget
    assert fewer >= 30 and inexact >= 50


# ---------------------------------------------------------------------------
# the clique-search kernel against the routes it replaced: a generator per
# node, a generator per newness test and a memo per row slice


class MemoHallBound:
    """`gromov._HallBound` with every column-subset weight memoized per
    slice as it is first asked for, at any width."""

    def __init__(self, wa, wb):
        self.wb, n2 = wb, len(wb)
        self.slices = [(w, i * n2) for i, w in enumerate(wa)]
        self.low = (1 << n2) - 1
        self.col_weight = {0: 0}

    def rows(self, mask):
        total, low, col_weight = 0, self.low, self.col_weight
        for w, shift in self.slices:
            cols = (mask >> shift) & low
            s = col_weight.get(cols)
            if s is None:
                s = col_weight[cols] = sum(self.wb[j] for j in gromov._bits(cols))
            total += w if w < s else s
        return total


def recursive_max_cliques(nbr, budget, twins, prune):
    """`gromov._max_cliques` with one generator frame per node, each node
    spending its own unit on entry."""

    def bk(r, p, x):
        budget.spend(1)
        if p == 0:
            if x == 0:
                yield r
            return
        if prune(r | p):
            return
        px = p | x
        pivot, best = -1, -1
        m = px
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            cnt = (p & nbr[u]).bit_count()
            if cnt > best:
                best, pivot = cnt, u
        branch = m = p & ~nbr[pivot]
        p0 = p
        while m:
            vbit = m & -m
            v = vbit.bit_length() - 1
            m &= m - 1
            earlier = branch & (vbit - 1) & orbits[v]
            if not earlier or not twins.maps_onto(v, earlier, r, p0):
                yield from bk(r | vbit, p & nbr[v], x & nbr[v])
            p &= ~vbit
            x |= vbit

    orbits = [0] * len(nbr) if twins is None else twins.orbits
    yield from bk(0, (1 << len(nbr)) - 1, 0)


def generator_cliques(sweep, stop, prune):
    """`gromov._CliqueSweep.cliques` testing newness with `any` over a
    generator, on `recursive_max_cliques`."""
    nbr = [0] * len(sweep.cells)
    for t in sweep.thresholds:
        if stop(t):
            return
        fresh = sweep._grow(nbr, t)
        touched = sum(1 << c for c, f in enumerate(fresh) if f)
        for mask in recursive_max_cliques(nbr, sweep.budget, sweep.twins, prune):
            if t == sweep.thresholds[0] or any(
                fresh[c] & mask for c in gromov._bits(mask & touched)
            ):
                yield t, mask
                if stop(t):
                    return


def kernel_trace(a, b, lams, units, reference):
    """`gromov._ladder` run with the kernel or with the replaced routes: the
    (t, mask) cliques its sweep yields, the units left (negative where
    SizeError was raised) and the BoxResults."""
    cliques = generator_cliques if reference else gromov._CliqueSweep.cliques
    listed = []

    def recording(sweep, stop, prune):
        for clique in cliques(sweep, stop, prune):
            listed.append(clique)
            yield clique

    hall = MemoHallBound if reference else gromov._HallBound
    with mock.patch.object(gromov._CliqueSweep, "cliques", recording), mock.patch.object(
        gromov, "_HallBound", hall
    ):
        budget = gromov._Budget(units)
        boxes = gromov._ladder(a, b, lams, budget)[0]
    return listed, budget.left, boxes


def plain_sweep_trace(a, b, units, cliques, prune):
    """The (t, mask) cliques of a sweep without twins, as parametrize runs
    one, up to its end or to SizeError, and the units left."""
    P = gromov._Pair(a, b)
    listed, budget = [], gromov._Budget(units)
    try:
        sweep = gromov._CliqueSweep(P.da, P.db, P.cells, budget)
        for clique in cliques(sweep, lambda t: False, prune):
            listed.append(clique)
    except gromov.SizeError:
        pass
    return listed, budget.left


def kernel_pairs():
    """Coded random and sawtooth excursions, sampled spaces of up to 6
    points, stars and coded combs (twin-rich), and pairs whose B side has 9
    to 12 points."""
    rng = random.Random(1187)
    pairs = [tuple(code_excursion(random_excursion(rng)).space for _ in range(2)) for _ in range(8)]
    pairs += [tuple(code_excursion(sawtooth(rng)).space for _ in range(2)) for _ in range(2)]
    pairs += [
        (sample_mm_space(rng.randint(0, 10**9), n_max=6), sample_mm_space(rng.randint(0, 10**9), 6))
        for _ in range(8)
    ]
    combs = {n: code_excursion(comb(n)).space for n in (2, 3, 5)}
    pairs += [(combs[2], combs[3]), (combs[3], combs[5]), (tree_star(4), tree_star(5))]
    pairs += [(tree_star(3), combs[3])]
    for n in (9, 10, 11, 12):
        a = grid_space(rng, 2 + n % 2)
        pairs.append((a, grid_space(rng, n) if n % 2 else tree_star(n)))
    return pairs


def counting_cuts(cuts):
    """Patch `gromov._max_cliques` to append to `cuts` each mask its prune
    holds, so a run shows the Hall bound cutting a node without a second,
    unpruned search."""
    real = gromov._max_cliques

    def max_cliques(nbr, budget, twins, prune):
        def held(mask):
            cut = prune(mask)
            if cut:
                cuts.append(mask)
            return cut

        return real(nbr, budget, twins, held)

    return mock.patch.object(gromov, "_max_cliques", max_cliques)


def test_kernel_lists_spends_and_fails_as_the_replaced_routes():
    raised = pruned = listed = 0
    for a, b in kernel_pairs():
        cells = canonicalize(a).n * canonicalize(b).n
        base = cells * (cells - 1) // 2
        cuts = []
        for units in (1, base + 1, base + 9, base + 60, base + 300, gromov.DEFAULT_SEARCH_BUDGET):
            for lams in (LAMBDA_LADDER, (F(1, 2),)):
                with counting_cuts(cuts):
                    run = kernel_trace(a, b, lams, units, reference=False)
                assert run == kernel_trace(a, b, lams, units, reference=True)
                raised += run[1] < 0
                listed += len(run[0])
            if units >= base + 1000:  # past that an unpruned sweep lists thousands
                continue
            # no prune, and a prune by cell count; with every cell it cuts the root
            for cut in (None, cells // 2, cells):
                prune = lambda mask: cut is not None and mask.bit_count() <= cut
                plain = plain_sweep_trace(a, b, units, gromov._CliqueSweep.cliques, prune)
                assert plain == plain_sweep_trace(a, b, units, generator_cliques, prune)
                assert cut != cells or plain[0] == []
        pruned += bool(cuts)  # the Hall bound cuts some node of a search
    # many runs stop at SizeError mid-sweep or in its set-up, the searches
    # of many pairs prune, and thousands of cliques are compared
    assert raised >= 120 and pruned >= 12 and listed >= 3000


def test_hall_table_and_memo_are_the_rows_sum():
    rng = random.Random(1193)
    for n2 in (8, 9):
        for _ in range(150):
            n1 = rng.randint(1, 5)
            wa = [rng.randint(0, 9) for _ in range(n1)]
            wb = [rng.randint(0, 9) for _ in range(n2)]
            hall, memo = gromov._HallBound(wa, wb), MemoHallBound(wa, wb)
            assert isinstance(hall.col_weight, list) == (n2 <= 8)
            for _ in range(6):
                mask = rng.getrandbits(n1 * n2) & rng.choice((-1, rng.getrandbits(n1 * n2)))
                rows = sum(
                    min(w, sum(wb[j] for j in range(n2) if mask >> (i * n2 + j) & 1))
                    for i, w in enumerate(wa)
                )
                assert hall.rows(mask) == memo.rows(mask) == rows


def test_search_counts_on_coded_random_excursions_are_pinned():
    # the gromov module docstring quotes these counts; a kernel change that
    # visits other nodes moves them
    rng = random.Random(1201)
    pairs = [tuple(code_excursion(random_excursion(rng)).space for _ in range(2)) for _ in range(100)]
    spent, flows, listed = [], [], []
    real_spend, real_flow, real_cliques = (
        gromov._Budget.spend,
        gromov.max_subcoupling,
        gromov._CliqueSweep.cliques,
    )

    def cliques(sweep, stop, prune):
        for clique in real_cliques(sweep, stop, prune):
            listed.append(clique)
            yield clique

    with mock.patch.object(
        gromov._Budget, "spend", lambda budget, units: spent.append(units) or real_spend(budget, units)
    ), mock.patch.object(
        gromov, "max_subcoupling", lambda *x: flows.append(x) or real_flow(*x)
    ), mock.patch.object(gromov._CliqueSweep, "cliques", cliques):
        assert all(gromov_prohorov_detail(a, b).exact for a, b in pairs)
    assert (sum(spent), len(flows), len(listed)) == (11_403, 510, 1_389)


def test_a_negative_budget_is_refused_and_zero_falls_back():
    a, b = code_excursion(comb(2)).space, code_excursion(comb(3)).space
    calls = (
        lambda budget: box_ladder(a, b, LAMBDAS, budget),
        lambda budget: box_lambda_detail(a, b, F(1), budget),
        lambda budget: gromov_prohorov_detail(a, b, budget),
        lambda budget: glued_upper_bound(a, b, budget),
    )
    for call in calls:
        try:
            call(-1)
            assert False
        except ValidationError as exc:
            assert str(exc) == "budget must be nonnegative"
    # budget 0 falls back at once, to the past-budget heuristic's bound
    gp = gromov_prohorov_detail(a, b, 0)
    assert not gp.exact and gp.value >= gromov_prohorov(a, b) > 0
