"""Box-type distances between metric measure spaces, exact within a work budget.

box_lambda(A, B, lam) is the minimum over correspondences K (subsets of the
cell grid points(A) x points(B)) of

    max( distortion(K), (1 - maxmass(K)) / lam )

where distortion is the worst distance mismatch over pairs of matched pairs
and maxmass is the largest total mass a subcoupling of the two weight
vectors can place on K. gromov_prohorov is half the lam = 1/2 value.

Search order: one sweep (`_CliqueSweep`, shared with glue and parametrize)
visits the achievable mismatch values t in ascending order. Correspondences
with distortion <= t are the cliques of a compatibility graph on cells, and
only maximal cliques can be optimal at t (mass is monotone under superset),
so each threshold's new maximal cliques are scored. A maximal clique is new
at t when it holds a cell pair that mismatches by exactly t; its distortion
is then exactly t. The sweep is lazy: Bron-Kerbosch hands each clique over
as it finds it, and the sweep stops at the first clique after which t alone
cannot beat the incumbent, so two isometric spaces stop at their first
clique. For box and glue it also lists one clique per orbit of twin
swaps (two points with equal weights and equal distances to every other
point are interchangeable), so a star's interchangeable leaves are matched
once, not in every order.

Box, gp, `optimal_correspondence` and the glue search start from one
prepared pair (`_Pair`): both spaces canonicalized once, distances over one
common denominator D and weights over another, W (`canonicalize` has made
every entry a Fraction). The full grid (distortion the larger diameter,
mass 1), each seed, each sweep clique and each heuristic candidate pass one
int test against the incumbent; the Fractions t / D and m / W are rebuilt
only for a new incumbent and at the API boundary. `optimal_correspondence`
reuses its box search's pair and sweep.

Exactness is bounded by one deterministic work count, `budget`: one unit
per cell pair the sweep buckets and one per Bron-Kerbosch node, never wall
time, so results reproduce on any host. Past it the search returns the best
correspondence found so far or by a deterministic heuristic, a certified
upper bound marked exact=False. At DEFAULT_SEARCH_BUDGET every bench
workload, an 8-point star with distinct leaf lengths against its reverse
and about fifty seeded L1 lattice pairs of 9 and 10 points came back exact,
each within 0.6 s on a 2-core host; symmetric instances, whose twin-pruned
sweeps visit a few dozen nodes, reach identical 18-point stars and coded
comb(17) vs comb(19) (over 320 cells). Spending all of it took 1-2 s for
the 9- to 11-point stars with distinct leaf lengths, and 4-7 s in the glue
search, which flow-scans each clique, on 12- and 14-point lattice pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import SizeError, ValidationError
from .exact import parse_scalar, scaled, scaled_rows
from .flow import max_subcoupling
from .spaces import FiniteMMSpace, canonicalize

# The smallest round budget at which every bench workload's search (at most
# 4 153 units), the 8-point star above (17 034) and each of about fifty
# seeded 9- and 10-point lattice pairs tried (up to 59 889) is exact.
DEFAULT_SEARCH_BUDGET = 60_000


class _Budget:
    """The work one public search may do, counted without a clock so that
    results and report bytes never depend on the host: one unit per cell
    pair a `_CliqueSweep` buckets, charged before the buckets are built, and
    one per Bron-Kerbosch node. Spending past it raises SizeError."""

    def __init__(self, units):
        self.units = self.left = units

    def spend(self, units):
        self.left -= units
        if self.left < 0:
            raise SizeError(f"search exceeds its budget of {self.units} work units")


@dataclass(frozen=True)
class Correspondence:
    """A cell set with its two scoring ingredients."""

    pairs: tuple
    distortion: object
    max_coupling_mass: object


@dataclass(frozen=True)
class BoxResult:
    value: object
    lam: object
    exact: bool
    pairs: tuple  # witness achieving value; indices refer to canonical forms


@dataclass(frozen=True)
class GPResult:
    value: object
    box_value: object
    exact: bool
    pairs: tuple


def distortion(pairs, a: FiniteMMSpace, b: FiniteMMSpace):
    """Worst |d_A(x, x') - d_B(y, y')| over pairs of matched pairs."""
    pairs = tuple(pairs)
    if not pairs:
        return Fraction(0)
    i0, j0 = pairs[0]
    # zero of the scalar type the matrices carry (Fraction stays Fraction)
    worst = abs(a.dist[i0][i0] - b.dist[j0][j0])
    for k, (i, j) in enumerate(pairs):
        for i2, j2 in pairs[k + 1 :]:
            diff = abs(a.dist[i][i2] - b.dist[j][j2])
            if diff > worst:
                worst = diff
    return worst


def correspondence_info(a: FiniteMMSpace, b: FiniteMMSpace, pairs) -> Correspondence:
    pairs = tuple(sorted(set(map(tuple, pairs))))
    for i, j in pairs:
        if not (0 <= i < a.n and 0 <= j < b.n):
            raise ValidationError(f"cell ({i}, {j}) out of range")
    mass, _ = max_subcoupling(a.weights, b.weights, pairs) if pairs else (0, {})
    return Correspondence(pairs, distortion(pairs, a, b), mass)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _twins(d, w):
    """Pairs i < i2 of twin points: equal weights, and equal distances to
    every other point, so that swapping them is a measure-preserving isometry."""
    n = len(d)
    return [
        (i, i2)
        for i in range(n)
        for i2 in range(i + 1, n)
        if w[i] == w[i2]
        and d[i][:i] == d[i2][:i]
        and d[i][i + 1 : i2] == d[i2][i + 1 : i2]
        and d[i][i2 + 1 :] == d[i2][i2 + 1 :]
    ]


def _fixes(swaps, mask):
    """Whether `swaps`, applied in turn, map `mask` onto itself; a swap
    (low, shift) exchanges the bits under `low` with those `shift` above."""
    image = mask
    for low, shift in swaps:
        d = ((image >> shift) ^ image) & low
        image ^= d ^ (d << shift)
    return image == mask


class _Pair:
    """Two spaces prepared once for a clique search: their canonical forms
    A and B, the row-major cell grid, distances as int rows over one common
    denominator D, weights as ints over another, W, and the full grid's
    distortion over D, the larger diameter (it matches every pair of rows
    against every pair of columns, and both diagonals are zero)."""

    def __init__(self, a: FiniteMMSpace, b: FiniteMMSpace):
        self.A, self.B = A, B = canonicalize(a), canonicalize(b)
        self.cells = [(i, j) for i in range(A.n) for j in range(B.n)]
        (self.da, self.db), self.D = scaled_rows(A.dist, B.dist)
        weights, self.W = scaled(A.weights + B.weights)
        self.wa, self.wb = weights[: A.n], weights[A.n :]
        self.diam = max(max(map(max, self.da)), max(map(max, self.db)))


def _int_distortion(da, db, pairs):
    """Distortion of `pairs` over int distance rows, over their denominator."""
    return max((abs(da[i][i2] - db[j][j2]) for i, j in pairs for i2, j2 in pairs), default=0)


class _CliqueSweep:
    """Maximal cliques of the cell compatibility graph, threshold by threshold.

    `da` and `db` are the two spaces' distances as int rows over one common
    denominator D. Cell pairs are bucketed once by their int mismatch, so
    each threshold's masks grow from the last ones. Building the buckets and
    every clique search spend from `budget`.

    `weights`, given as the two spaces' weight vectors and only together
    with the full row-major grid of cells, turns on twin pruning: a swap of
    two twin points of A and/or of B permutes the cells by an automorphism
    of every threshold's graph that keeps every clique's distortion, mass
    and glue value, so `_max_cliques` may skip a branch that such a swap
    maps onto an earlier branch of the same node.
    """

    def __init__(self, da, db, cells, budget, weights=None):
        budget.spend(len(cells) * (len(cells) - 1) // 2)
        self.budget = budget
        self.da, self.db = da, db
        self.cells = cells
        self.buckets = {}
        for c1, (i, j) in enumerate(cells):
            for c2 in range(c1 + 1, len(cells)):
                i2, j2 = cells[c2]
                self.buckets.setdefault(abs(da[i][i2] - db[j][j2]), []).append((c1, c2))
        diagonal = {abs(da[i][i] - db[j][j]) for i, j in cells}
        self.thresholds = sorted(diagonal.union(self.buckets))
        self.twins = None if weights is None else self._twin_swaps(*weights)

    def _twin_swaps(self, wa, wb):
        """Per cell v, the (bit of u, swap) pairs for each cell u < v that one
        A-row twin swap and/or one B-column twin swap maps to v, the swap
        given as `_fixes` reads it."""
        twins_a, twins_b = _twins(self.da, wa), _twins(self.db, wb)
        if not (twins_a or twins_b):
            return None
        n1, n2 = len(self.da), len(self.db)
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

    def pairs(self, mask):
        return tuple(self.cells[c] for c in _bits(mask))

    def _grow(self, nbr, t):
        """Add bucket t's edges to `nbr`; return them alone as neighbour masks."""
        fresh = [0] * len(nbr)
        for c1, c2 in self.buckets.get(t, ()):
            fresh[c1] |= 1 << c2
            fresh[c2] |= 1 << c1
        for c, f in enumerate(fresh):
            nbr[c] |= f
        return fresh

    def neighbor_masks(self, limit):
        """Neighbour masks of the graph whose edges mismatch by at most `limit`."""
        nbr = [0] * len(self.cells)
        for t in self.thresholds:
            if t <= limit:
                self._grow(nbr, t)
        return nbr

    def cliques(self, stop):
        """Yield (t, mask) for each maximal clique new at threshold t, in
        ascending t and, within t, in Bron-Kerbosch order; its distortion is
        t / D.

        Lazy: each clique is yielded as the search finds it, and the sweep
        ends as soon as `stop(t)` holds, checked before threshold t is
        searched and before each yield. Callers pass a test against an
        incumbent that only improves, so it stays true once true, and the
        sweep ends at the first clique that settles the incumbent.

        New at t: a maximal clique is yielded at t iff it holds an edge of
        bucket t (every clique is new at the first threshold, 0). Such a
        clique has distortion exactly t and was no clique before t. One
        without such an edge has distortion t' < t, is maximal at t' too
        (every outside cell conflicts with it by more than t > t'), and
        was yielded there.
        """
        nbr = [0] * len(self.cells)
        everything = (1 << len(nbr)) - 1
        first = True
        for t in self.thresholds:
            if stop(t):
                return
            fresh = self._grow(nbr, t)
            for mask in _max_cliques(everything, nbr, self.budget, self.twins):
                if first or any(fresh[c] & mask for c in _bits(mask)):
                    if stop(t):
                        return
                    yield t, mask
            first = False


def _max_cliques(candidates, nbr, budget, twins=None):
    """Yield the maximal cliques, as bitmasks, of the sub-graph of `nbr`
    induced by the `candidates` mask as Bron-Kerbosch (with pivoting) finds
    them, so a caller that has what it needs stops the search.

    Each node spends one unit of `budget`, which raises SizeError once it
    is spent; a search its caller stops early spends no more.

    `twins` (from `_CliqueSweep`, only with every cell a candidate) prunes
    by symmetry. At a node with entry masks R and P, branch vertex v is
    skipped, though still moved from P to X, when an earlier branch vertex u
    of the node maps to v under a twin swap g that fixes R and P. g maps
    every maximal clique K with R + v <= K <= R + P onto g(K), which holds
    u, lies between R and R + P, and so comes out of an earlier branch of
    the node; g(K) has the same threshold newness, distortion, mass and
    glue value as K, so a caller scanning for a strict improvement skips K
    anyway. A pruned g(K) has in turn an earlier image, down to one that
    comes out.
    """

    def bk(r, p, x):
        budget.spend(1)
        if p == 0 and x == 0:
            yield r
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
            if twins is None or not any(
                branch & ubit and _fixes(g, r) and _fixes(g, p0) for ubit, g in twins[v]
            ):
                yield from bk(r | vbit, p & nbr[v], x & nbr[v])
            p &= ~vbit
            x |= vbit

    yield from bk(0, candidates, 0)


def _northwest_support(mu, nu):
    """Support cells of the order-preserving (northwest corner) coupling."""
    cells = []
    i = j = 0
    ri, rj = mu[0], nu[0]
    while True:
        if ri > 0 and rj > 0:
            cells.append((i, j))
        step = min(ri, rj)
        ri -= step
        rj -= step
        if ri == 0 and i + 1 < len(mu):
            i += 1
            ri = mu[i]
        elif rj == 0 and j + 1 < len(nu):
            j += 1
            rj = nu[j]
        else:
            break
    return tuple(cells)


def _heuristic_candidates(da, db, wa, wb, cells, diffs):
    """Deterministic candidate correspondences, each with its distortion,
    for the upper bound past the budget; distances, weights, distortions and
    the sorted mismatch sample `diffs` are ints over common denominators."""
    nw = _northwest_support(wa, wb)
    yield nw, _int_distortion(da, db, nw)
    picks = sorted(set(diffs[max(0, len(diffs) * k // 12 - 1)] for k in range(1, 13)))
    order = sorted(range(len(cells)), key=lambda c: (-min(wa[cells[c][0]], wb[cells[c][1]]), c))
    for threshold in picks:
        chosen, worst = [], 0
        for c in order:
            i, j = cells[c]
            gap = max((abs(da[i][i2] - db[j][j2]) for i2, j2 in chosen), default=0)
            if gap <= threshold:
                chosen.append((i, j))
                worst = max(worst, gap)
        yield tuple(sorted(chosen)), worst


def box_lambda_detail(
    a: FiniteMMSpace,
    b: FiniteMMSpace,
    lam,
    budget: int = DEFAULT_SEARCH_BUDGET,
    seeds=(),
) -> BoxResult:
    """Full result for box_lambda: value, exactness flag, achieving cells.

    Inputs are canonicalized internally (the value is an isomorphism-class
    invariant, and merging zero-distance points never changes it); witness
    indices refer to the canonical forms. `seeds` are caller-supplied
    correspondences used as starting upper bounds. Once the search has
    spent `budget` work units (see `_Budget`) the result is the best
    correspondence found so far or by a deterministic heuristic: a certified
    upper bound, with exact=False.
    """
    return _box_lambda(a, b, lam, _Budget(budget), seeds)[0]


def _box_lambda(a, b, lam, budget, seeds=()):
    """The BoxResult, the prepared pair and its sweep (None past `budget`)."""
    lam = parse_scalar(lam)
    if lam <= 0:
        raise ValidationError("lambda must be positive")
    P = _Pair(a, b)
    cells, da, db, D, wa, wb, W = P.cells, P.da, P.db, P.D, P.wa, P.wb, P.W

    best = (1 - 0) / lam  # empty correspondence
    best_pairs = ()
    # a candidate of distortion t / D and mass m / W beats best iff
    # t < t_lim and m > m_cut
    t_lim, m_cut = math.ceil(best * D), 0

    def consider(pairs, t, m=None):
        nonlocal best, best_pairs, t_lim, m_cut
        if t < t_lim:
            if m is None:
                m = max_subcoupling(wa, wb, pairs)[0]
            if m > m_cut:
                best, best_pairs = max(Fraction(t, D), (1 - Fraction(m, W)) / lam), pairs
                t_lim, m_cut = math.ceil(best * D), math.floor(W * (1 - lam * best))

    consider(tuple(cells), P.diam, W)  # the full grid carries mass 1
    for seed in seeds:
        pairs = tuple(sorted(set(map(tuple, seed))))
        for i, j in pairs:
            if not (0 <= i < P.A.n and 0 <= j < P.B.n):
                raise ValidationError(f"seed cell ({i}, {j}) out of range")
        consider(pairs, _int_distortion(da, db, pairs))

    exact = True
    try:
        sweep = _CliqueSweep(da, db, cells, budget, (wa, wb))
        n2 = P.B.n
        row_masks = [((1 << n2) - 1) << (i * n2) for i in range(P.A.n)]
        col_masks = [sum(1 << (i * n2 + j) for i in range(P.A.n)) for j in range(n2)]
        for t, mask in sweep.cliques(lambda t: t >= t_lim):
            row_mass = sum(w for w, rm in zip(wa, row_masks) if mask & rm)
            col_mass = sum(w for w, cm in zip(wb, col_masks) if mask & cm)
            if min(row_mass, col_mass) > m_cut:
                consider(sweep.pairs(mask), t)
    except SizeError:
        exact, sweep = False, None
        nc = len(cells)
        # a strided sample bounds the mismatches taken; below 200 cells the
        # stride is 1 and the sample is the sweep's thresholds
        stride = max(1, nc * nc // 20000)
        every = ((u, v) for u in range(nc) for v in range(u, nc))
        sampled = sorted(
            {
                abs(da[cells[u][0]][cells[v][0]] - db[cells[u][1]][cells[v][1]])
                for u, v in islice(every, 0, None, stride)
            }
        )
        for cand, t in _heuristic_candidates(da, db, wa, wb, cells, sampled):
            consider(cand, t)
    return BoxResult(best, lam, exact, best_pairs), P, sweep


def box_lambda(a: FiniteMMSpace, b: FiniteMMSpace, lam):
    return box_lambda_detail(a, b, lam).value


def gromov_prohorov_detail(
    a: FiniteMMSpace,
    b: FiniteMMSpace,
    budget: int = DEFAULT_SEARCH_BUDGET,
    seeds=(),
) -> GPResult:
    box = box_lambda_detail(a, b, Fraction(1, 2), budget, seeds)
    return GPResult(box.value / 2, box.value, box.exact, box.pairs)


def gromov_prohorov(a: FiniteMMSpace, b: FiniteMMSpace):
    """Gromov-Prohorov distance: half the lam = 1/2 box value."""
    return gromov_prohorov_detail(a, b).value


def optimal_correspondence(
    a: FiniteMMSpace,
    b: FiniteMMSpace,
    lam,
    budget: int = DEFAULT_SEARCH_BUDGET,
):
    """Lexicographically smallest optimal correspondence (row-major cell order).

    Tie-break contract: among all K achieving box_lambda, return the one
    whose sorted cell-index sequence is lexicographically smallest, shorter
    prefixes winning. Built greedily; each extension is validated by a
    clique-feasibility check, so the result is exact. The box search and
    every feasibility check spend from one `budget`; past it this raises
    SizeError.
    """
    work = _Budget(budget)
    detail, P, sweep = _box_lambda(a, b, lam, work)
    if not detail.exact:
        raise SizeError(f"optimal correspondence undefined past a budget of {budget} work units")
    v = detail.value
    m_req = P.W * (1 - detail.lam * v)  # in units of 1 / W, like the flow masses
    if m_req <= 0:
        return ()
    cells = P.cells
    nc = len(cells)
    nbr = sweep.neighbor_masks(math.floor(v * P.D))

    mass_cache = {}

    def mass_of(idx_tuple):
        key = frozenset(idx_tuple)
        if key not in mass_cache:
            mass_cache[key] = max_subcoupling(P.wa, P.wb, [cells[c] for c in key])[0]
        return mass_cache[key]

    def feasible(prefix, prefix_mask, last):
        if mass_of(prefix) >= m_req:
            return True
        allowed = 0
        for c in range(last + 1, nc):
            if nbr[c] & prefix_mask == prefix_mask:
                allowed |= 1 << c
        if not allowed:
            return False
        for mask in _max_cliques(allowed, nbr, work):
            ext = prefix + tuple(_bits(mask))
            if mass_of(ext) >= m_req:
                return True
        return False

    chosen = ()
    chosen_mask = 0
    start = 0
    while not (chosen and mass_of(chosen) >= m_req):
        for c in range(start, nc):
            if nbr[c] & chosen_mask != chosen_mask:
                continue
            if feasible(chosen + (c,), chosen_mask | 1 << c, c):
                chosen = chosen + (c,)
                chosen_mask |= 1 << c
                start = c + 1
                break
        else:
            raise AssertionError("optimum certifies a feasible correspondence exists")
    return tuple(cells[c] for c in chosen)
