"""Box-type distances between metric measure spaces, exact within a work budget.

box_lambda(A, B, lam) is the minimum over correspondences K (subsets of the
cell grid points(A) x points(B)) of

    max( distortion(K), (1 - maxmass(K)) / lam )

where distortion is the worst distance mismatch over pairs of matched pairs
and maxmass is the largest total mass a subcoupling of the two weight
vectors can place on K. gromov_prohorov is half the lam = 1/2 value.

Search order: one sweep (`_CliqueSweep`, shared with parametrize)
visits the achievable mismatch values t in ascending order. Correspondences
with distortion <= t are the cliques of a compatibility graph on cells, and
only maximal cliques can be optimal at t (mass is monotone under superset),
so each threshold's new maximal cliques are scored. A maximal clique is new
at t when it holds a cell pair that mismatches by exactly t; its distortion
is then exactly t. The sweep is lazy: Bron-Kerbosch hands each clique over
as it finds it. For box it lists one clique per orbit of twin
swaps (two points with equal weights and equal distances to every other
point are interchangeable), so a star's interchangeable leaves are matched
once, not in every order.

Every box search is one ladder (`box_ladder`; box and gp run one lam): one
sweep, an incumbent per lam, and one max-flow per clique whose Hall bound
could beat some incumbent; an exact result's witness is an optimal
correspondence. The bound (`_HallBound`) caps the mass a subcoupling can
put on a clique: each row ships at most its weight and at most the weight
of the columns it meets in the clique. One loop, `_Incumbents.search`,
drives this sweep and parametrize's (whose bound is the exact sum of its
fixed cell masses): a clique whose bound is at most the live cut
`_Incumbents.cut`, min(m_cut) over the unfrozen lams, cannot change any
incumbent, so it is not scored. The same test prunes the search itself
(bounded clique search, Carraghan & Pardalos 1990, Östergård 2001): the
bound only grows with the mask, so a Bron-Kerbosch node whose R | P is at
most the cut roots only such cliques, and its subtree is cut. A lam
freezes at the first clique after which t alone cannot beat its
incumbent, and the sweep ends once all are frozen: it polls its stop test
before each threshold and right after each clique it hands over, the only
two events that can freeze a lam (t rises, or an incumbent improves).
Wherever the unpruned search is exact the pruned one is too, with the same
value and witness, and it never spends more units, so past the budget it
ends at an incumbent at least as good. On one pass of the excursion-pairs
bench's coded trees the sweep lists 3 121 cliques (13 549 unpruned) and
flows 733 of them, on 35 381 units (58 814). On the 100 coded
`random_excursion` pairs of `random.Random(1201)` gp lists 1 389 cliques
and flows 510 of them, on 11 403 units; tests/test_gromov.py pins these
three counts, so a kernel change that visits other nodes must restate
them. The clique order does not
depend on lam, and the ladder prunes only what no live lam can use, so it
spends at least the units of each lam's own search: a lam it freezes within
the budget gets its own search's result, one it does not an upper bound no
lower than its own search's.

The ladder starts from one prepared pair (`_Pair`), which the glue of its
lam = 1/2 witness reuses (`gluing.glued_upper_bound`): both spaces
canonicalized, and their int forms, which every canonical space carries,
put over one distance denominator D and one weight denominator W
(`spaces.paired_forms`), so nothing is scaled from Fractions. The search
runs in ints (see `_Incumbents`): each candidate passes one int test per
incumbent, and each lam's value becomes a Fraction once, when the ladder
returns.

Exactness is bounded by one deterministic work count, `budget`: one unit
per pair of cells the sweep is set up over and one per Bron-Kerbosch node,
pruned or not, never wall time, so results reproduce on any host. Past it
the search returns the best correspondence found so far or by a
deterministic heuristic, a certified upper bound marked exact=False, or
exact=True where that bound is 0, since no box value is negative. At
DEFAULT_SEARCH_BUDGET every bench workload, a 9-point star with distinct
leaf lengths against its reverse and 49 of fifty seeded L1 lattice pairs
of 9 and 10 points came back exact, each within 0.3 s on a 2-core host;
symmetric instances, whose twin-pruned sweeps visit a few dozen nodes,
reach identical 18-point stars and coded comb(17) vs comb(19) (over 320
cells, about 5 ms each, since the sweep is set up from distance values).
Spending all of it took 0.2-0.5 s for the 10- to 12-point stars with
distinct leaf lengths and 12- to 16-point lattice pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SizeError, ValidationError
from .exact import parse_scalar
from .flow import max_subcoupling
from .spaces import FiniteMMSpace, canonicalize, int_form, paired_forms

# The smallest round budget at which, before node pruning, every bench
# workload's search, the 8-point star above and each of about fifty seeded
# 9- and 10-point lattice pairs tried was exact. With pruning a bench search
# spends at most 2 025 units, the 8-point star 9 002 and the 9-point star
# 42 748; the lattice pairs `grid_space(random.Random(s), 9 + s % 2)` of
# tests/test_gromov.py for s < 50 spend up to 24 412 units, but for s = 47,
# which spends 64 174.
DEFAULT_SEARCH_BUDGET = 60_000


class _Budget:
    """The work one public search may do, counted without a clock so that
    results and report bytes never depend on the host: one unit per pair of
    cells a `_CliqueSweep` is set up over, charged before its set-up, and
    one per Bron-Kerbosch node. Spending past it raises SizeError. A
    negative budget is refused; 0 falls back at once."""

    def __init__(self, units):
        if units < 0:
            raise ValidationError("budget must be nonnegative")
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


def distortion(pairs, a: FiniteMMSpace, b: FiniteMMSpace) -> Fraction:
    """Worst |d_A(x, x') - d_B(y, y')| over pairs of matched pairs, exact.

    Both matrices, in their int forms (`spaces.int_form`, which scales a
    space that carries none, floats by their exact binary value), go over
    one denominator D, are scored by `_int_distortion`, and the worst
    mismatch comes back as one Fraction over D. A cell outside
    range(a.n) x range(b.n) raises ValidationError.
    """
    (da, db), D, _, _ = paired_forms(int_form(a), int_form(b))
    return Fraction(_int_distortion(da, db, _caller_cells(pairs, a.n, b.n, "cell")), D)


def correspondence_info(a: FiniteMMSpace, b: FiniteMMSpace, pairs) -> Correspondence:
    pairs = tuple(sorted(set(map(tuple, pairs))))
    # max_subcoupling rejects a cell out of range before distortion reads it
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
    A and B, the row-major cell grid, their carried int forms over one
    distance denominator D and one weight denominator W (`paired_forms`),
    and the full grid's distortion over D, the larger diameter (it matches
    every pair of rows against every pair of columns, and both diagonals
    are zero)."""

    def __init__(self, a: FiniteMMSpace, b: FiniteMMSpace):
        self.A, self.B = A, B = canonicalize(a), canonicalize(b)
        self.cells = [(i, j) for i in range(A.n) for j in range(B.n)]
        (self.da, self.db), self.D, (self.wa, self.wb), self.W = paired_forms(
            int_form(A), int_form(B)
        )
        self.diam = max(max(map(max, self.da)), max(map(max, self.db)))


class _HallBound:
    """An upper bound on the mass a subcoupling of the int weights `wa` and
    `wb` can put on a cell mask (cell i * len(wb) + j).

    Row i ships at most wa[i], and at most the weight of the columns it
    meets in the mask, so the mass is at most `rows`, the sum over rows of
    the smaller of the two (the deficiency form of Hall's theorem, taken
    one row at a time). It is never above the total row weight the mask
    touches, and it only grows with the mask. A row's column weight is
    read from its slice of the mask, one lookup per row in `col_weight`.
    With at most TABLE_COLUMNS columns that is a list of every column
    subset's weight, built once, column by column, in 2^n2 additions;
    wider, where a full table doubles with each column, a memo filled per
    slice as it is first asked for.
    """

    TABLE_COLUMNS = 8

    def __init__(self, wa, wb):
        n2 = len(wb)
        self.slices = [(w, i * n2) for i, w in enumerate(wa)]
        self.low = (1 << n2) - 1
        if n2 > self.TABLE_COLUMNS:
            self.col_weight = _ColumnMemo(wb)
            return
        self.col_weight = table = [0]
        for w in wb:  # a subset with column j weighs the subset without it, plus w
            table += [s + w for s in table]

    def rows(self, mask):
        total, low, col_weight = 0, self.low, self.col_weight
        for w, shift in self.slices:
            s = col_weight[(mask >> shift) & low]
            total += w if w < s else s
        return total


class _ColumnMemo(dict):
    """Column-subset weights of `wb`, each summed the first time it is read."""

    def __init__(self, wb):
        self.wb = wb

    def __missing__(self, cols):
        s = self[cols] = sum(self.wb[j] for j in _bits(cols))
        return s


def _int_distortion(da, db, pairs):
    """Distortion of `pairs` over int distance rows, over their denominator."""
    return max((abs(da[i][i2] - db[j][j2]) for i, j in pairs for i2, j2 in pairs), default=0)


class _TwinOrbits:
    """The twin swaps of a full row-major grid of n1 x n2 cells, as masks.

    Twin points (see `_twins`) form classes. The cells of the rows in row
    i's class (i's own included) and those of the columns in column j's
    class meet in cell v = (i, j)'s orbit under one A-row and/or one
    B-column twin swap, `orbits[v]`. The swap of each twin pair is kept
    once, as `_fixes` reads it, in `row_swap` and `col_swap` (the empty
    swap for a row or column with itself).
    """

    def __init__(self, twins_a, twins_b, n1, n2):
        row_low, col_low = (1 << n2) - 1, sum(1 << (i * n2) for i in range(n1))
        self.n2 = n2
        row_cls = [row_low << (i * n2) for i in range(n1)]
        col_cls = [col_low << j for j in range(n2)]
        self.row_swap = {(i, i): () for i in range(n1)}
        self.col_swap = {(j, j): () for j in range(n2)}
        for i, i2 in twins_a:
            row_cls[i] |= row_low << (i2 * n2)
            row_cls[i2] |= row_low << (i * n2)
            self.row_swap[i, i2] = self.row_swap[i2, i] = ((row_low << (i * n2), (i2 - i) * n2),)
        for j, j2 in twins_b:
            col_cls[j] |= col_low << j2
            col_cls[j2] |= col_low << j
            self.col_swap[j, j2] = self.col_swap[j2, j] = ((col_low << j, j2 - j),)
        self.orbits = [rows & cols for rows in row_cls for cols in col_cls]

    def maps_onto(self, v, cells, r, p):
        """Whether, for some cell u of `cells` (a part of v's orbit), the
        swap that maps u onto v fixes the masks `r` and `p`."""
        i, j = divmod(v, self.n2)
        for u in _bits(cells):
            i2, j2 = divmod(u, self.n2)
            g = self.row_swap[i, i2] + self.col_swap[j, j2]
            if _fixes(g, r) and _fixes(g, p):
                return True
        return False


def _value_masks(d, lines):
    """value x -> [(line k's cells, the cells on the lines k2 with
    d[k][k2] == x)] for each line k; `lines[k]` is line k's cell mask."""
    out = {}
    for row, line in zip(d, lines):
        masks = {}
        for x, line2 in zip(row, lines):
            masks[x] = masks.get(x, 0) | line2
        for x, mask in masks.items():
            out.setdefault(x, []).append((line, mask))
    return out


class _GridEdges:
    """The compatibility graph's edges on the full row-major grid of cells,
    by mismatch, from distance values.

    Two cells (i, j) and (i2, j2) mismatch by |a - b|, a = da[i][i2] and
    b = db[j][j2], and on the full grid every value a of A meets every
    value b of B in some two cells, so the thresholds are the |a - b|.
    Per value and row (column), `rows` (`cols`) hold the cells on the rows
    (columns) at that distance. The set-up takes a step per entry of da
    and db and one per value pair, none per cell pair.
    """

    def __init__(self, da, db):
        n1, n2 = len(da), len(db)
        row_low, col_low = (1 << n2) - 1, sum(1 << (i * n2) for i in range(n1))
        self.n = n1 * n2
        self.rows = _value_masks(da, [row_low << (i * n2) for i in range(n1)])
        self.cols = _value_masks(db, [col_low << j for j in range(n2)])
        self.value_pairs = {}  # mismatch t -> the value pairs (a, b) at t
        for a in self.rows:
            for b in self.cols:
                self.value_pairs.setdefault(abs(a - b), []).append((a, b))
        self.thresholds = sorted(self.value_pairs)

    def fresh(self, t):
        """Per cell, its neighbours at mismatch exactly t. Cell (i, j)'s are,
        for each value a of row i, those in the rows i2 with da[i][i2] == a
        and the columns j2 with db[j][j2] == a - t or a + t; at t = 0 that
        includes the cell itself, whose bit is cleared."""
        fresh = [0] * self.n
        rows, cols = self.rows, self.cols
        for a, b in self.value_pairs.get(t, ()):
            col_masks = cols[b]
            for row, row_mask in rows[a]:
                for col, col_mask in col_masks:
                    fresh[(row & col).bit_length() - 1] |= row_mask & col_mask
        if t == 0:
            fresh = [f & ~(1 << c) for c, f in enumerate(fresh)]
        return fresh


class _CellPairEdges:
    """The compatibility graph's edges on a part of the grid, by mismatch:
    each cell pair is put in a bucket keyed by its mismatch, one step per
    unit of the set-up's charge. Rows that hold different columns share no
    cell pair, so distance values spare no work here: on parametrize's
    staircases of 40 to 160 cells a value set-up took 3 to 6 times as long
    as this build on a 2-core host.
    """

    def __init__(self, da, db, cells):
        self.n = len(cells)
        self.buckets = {}
        for c1, (i, j) in enumerate(cells):
            for c2 in range(c1 + 1, len(cells)):
                i2, j2 = cells[c2]
                self.buckets.setdefault(abs(da[i][i2] - db[j][j2]), []).append((c1, c2))
        diagonal = {abs(da[i][i] - db[j][j]) for i, j in cells}
        self.thresholds = sorted(diagonal.union(self.buckets))

    def fresh(self, t):
        """Per cell, its neighbours at mismatch exactly t."""
        fresh = [0] * self.n
        for c1, c2 in self.buckets.get(t, ()):
            fresh[c1] |= 1 << c2
            fresh[c2] |= 1 << c1
        return fresh


class _CliqueSweep:
    """Maximal cliques of the cell compatibility graph, threshold by threshold.

    `da` and `db` are the two spaces' distances as int rows over one common
    denominator D; `cells` is a sorted list of (row, column) cells, the
    full row-major grid (the ladder's) or a part of it (parametrize's).
    The edges come by mismatch from `_GridEdges` on the full grid, where
    distance values spare the set-up any step per cell pair, and from
    `_CellPairEdges` on a part, whose cell pairs are few. Each threshold
    adds its fresh edges (`_grow`), so the masks grow from the last ones.
    Set-up spends len(cells) * (len(cells) - 1) / 2 units of `budget`
    first, and each clique search node one more.

    `weights`, given as the two spaces' weight vectors and only together
    with the full row-major grid of cells, turns on twin pruning: a swap of
    two twin points of A and/or of B permutes the cells by an automorphism
    of every threshold's graph that keeps every clique's distortion and
    mass, so `_max_cliques` may skip a branch that such a swap maps onto an
    earlier branch of the same node (see `_TwinOrbits`).

    One driver runs every sweep, `_Incumbents.search`, which hands
    `cliques` its stop test and its prune by mass.
    """

    def __init__(self, da, db, cells, budget, weights=None):
        budget.spend(len(cells) * (len(cells) - 1) // 2)
        self.budget = budget
        self.cells = cells
        n1, n2 = len(da), len(db)
        if len(cells) == n1 * n2:
            self.edges = _GridEdges(da, db)
        else:
            self.edges = _CellPairEdges(da, db, cells)
        self.thresholds = self.edges.thresholds
        self.twins = None
        if weights is not None:
            twins_a, twins_b = _twins(da, weights[0]), _twins(db, weights[1])
            if twins_a or twins_b:
                self.twins = _TwinOrbits(twins_a, twins_b, n1, n2)

    def pairs(self, mask):
        return tuple(self.cells[c] for c in _bits(mask))

    def _grow(self, nbr, t):
        """Add the edges of mismatch exactly t to `nbr`; return them alone as
        neighbour masks."""
        fresh = self.edges.fresh(t)
        for c, f in enumerate(fresh):
            nbr[c] |= f
        return fresh

    def cliques(self, stop, prune):
        """Yield (t, mask) for each maximal clique new at threshold t, in
        ascending t and, within t, in Bron-Kerbosch order; its distortion is
        t / D.

        Lazy: each clique is yielded as the search finds it. The sweep ends
        as soon as `stop(t)` holds, polled before threshold t is searched
        and right after the caller has handled each clique: callers pass a
        test against incumbents that only improve, and only a rise of t or
        a handled clique can make it hold. `prune`, a test on cell masks
        that holds for a mask only if no clique within it can change the
        caller's result, cuts search nodes (see `_max_cliques`); a cut
        node's cliques are never yielded.

        New at t: a maximal clique is yielded at t iff it holds an edge of
        mismatch exactly t (every clique is new at the first threshold, 0).
        Such a clique has distortion exactly t and was no clique before t.
        One without such an edge has distortion t' < t, is maximal at t' too
        (every outside cell conflicts with it by more than t > t'), and was
        yielded there. The test walks the bits of the clique's cells that
        have such an edge, `touched`, and stops at the first whose fresh
        neighbours meet the clique.
        """
        nbr = [0] * len(self.cells)
        for k, t in enumerate(self.thresholds):
            if stop(t):
                return
            fresh = self._grow(nbr, t)
            # the cells with an edge of mismatch exactly t
            touched = sum(1 << c for c, f in enumerate(fresh) if f)
            for mask in _max_cliques(nbr, self.budget, self.twins, prune):
                if k:  # past the first threshold, where every clique is new
                    m = mask & touched
                    while m:
                        low = m & -m
                        if fresh[low.bit_length() - 1] & mask:
                            break
                        m ^= low
                    else:
                        continue  # no edge of mismatch t: yielded at its own t
                yield t, mask
                if stop(t):
                    return


def _max_cliques(nbr, budget, twins, prune):
    """Yield the maximal cliques, as bitmasks, of the graph `nbr` as
    Bron-Kerbosch (with pivoting) finds them, so its caller may stop early.
    Each node spends one unit of `budget`, pruned or not, which raises
    SizeError once spent. A node's unit is spent where its parent branches
    to it (the root's before the search), and two kinds of node are settled
    right there: a leaf (P empty), which is a maximal clique iff X is
    empty, and a node the prune below holds. Only the rest, live internal
    nodes, get a generator frame, which enters with its unit spent; the
    units, their order and the cliques are those of a search that gave
    every node its own frame and spent its unit first.

    `prune` (from `_CliqueSweep.cliques`) cuts by mass: a node with entry
    masks R and P, P not empty, whose R | P it holds spends its unit and
    yields nothing. `_Incumbents.search` passes "the mass bound of the mask
    is at most the live cut"; the bound only grows with the mask and the
    cut only grows, so no clique below the node can change an incumbent.
    The surviving nodes come in the unpruned order with the same R, P and X.
    A prune that holds for no mask searches every node.

    `twins` (a `_TwinOrbits` from `_CliqueSweep`, or None) prunes by
    symmetry. At a node with entry masks R and P, branch vertex v is
    skipped, though still moved from P to X, when an earlier branch vertex u
    of the node maps to v under a twin swap g that fixes R and P; only the
    earlier branch vertices in v's orbit are tried. g maps every maximal
    clique K with R + v <= K <= R + P onto g(K), which holds u, lies between
    R and R + P, and so comes out of an earlier branch of the node; g(K) has
    the same threshold newness, distortion and mass as K, so a caller
    scanning for a strict improvement skips K anyway. A pruned g(K) has in
    turn an earlier image, down to one that comes out or lies in a subtree
    cut by mass; that image has K's mass, at most the cut, so K cannot
    change an incumbent.
    """

    def bk(r, p, x):
        """The cliques below a live internal node with entry masks R, P, X."""
        m = p | x
        pivot, best = -1, -1
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
                spend(1)  # the child's unit
                r2, nv = r | vbit, nbr[v]
                p2 = p & nv
                if not p2:
                    if not x & nv:
                        yield r2
                elif not prune(r2 | p2):
                    yield from bk(r2, p2, x & nv)
            p &= ~vbit
            x |= vbit

    orbits = [0] * len(nbr) if twins is None else twins.orbits
    spend = budget.spend
    spend(1)  # the root's unit
    p = (1 << len(nbr)) - 1
    if not p:
        yield 0
    elif not prune(p):
        yield from bk(0, p, 0)


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


def _heuristic_candidates(da, db, wa, wb, cells, diffs, diam):
    """Deterministic candidates, each with its distortion, for the upper
    bound past the budget; distances, weights, distortions and the sorted
    mismatch sample `diffs` are ints over common denominators. No threshold
    reaches `diam`, which accepts the full grid the ladder scored first."""
    nw = _northwest_support(wa, wb)
    yield nw, _int_distortion(da, db, nw)
    picks = {diffs[max(0, len(diffs) * k // 12 - 1)] for k in range(1, 13)}
    picks = sorted(t for t in picks if t < diam)
    order = sorted(range(len(cells)), key=lambda c: (-min(wa[cells[c][0]], wb[cells[c][1]]), c))
    for threshold in picks:
        chosen, worst = [], 0
        for c in order:
            i, j = cells[c]
            ra, rb, gap = da[i], db[j], 0
            for i2, j2 in chosen:
                g = abs(ra[i2] - rb[j2])
                if g > threshold:  # the first mismatch past it rejects the cell
                    break
                if g > gap:
                    gap = g
            else:
                chosen.append((i, j))
                worst = max(worst, gap)
        yield tuple(sorted(chosen)), worst


def box_ladder(a: FiniteMMSpace, b: FiniteMMSpace, lams, budget=DEFAULT_SEARCH_BUDGET, seeds=()):
    """One BoxResult (value, exactness flag, achieving cells) per lam in `lams`.

    Inputs are canonicalized internally (the value is an isomorphism-class
    invariant, and merging zero-distance points never changes it); witness
    indices refer to the canonical forms. `seeds` are caller-supplied
    correspondences used as starting upper bounds. One search serves every
    lam: once it has spent `budget` work units (see `_Budget`), each lam not
    yet frozen gets the best correspondence found so far or by a
    deterministic heuristic, a certified upper bound with exact=False. A lam
    frozen within the budget gets the result of its own search.
    """
    return _ladder(a, b, lams, _Budget(budget), seeds)[0]


def box_lambda_detail(
    a: FiniteMMSpace,
    b: FiniteMMSpace,
    lam,
    budget: int = DEFAULT_SEARCH_BUDGET,
    seeds=(),
) -> BoxResult:
    """Full result for box_lambda: `box_ladder` for the one `lam`."""
    return box_ladder(a, b, (lam,), budget, seeds)[0]


class _Incumbents:
    """The best cell set found so far for each lam of a search that scores
    a set of distortion t / D and mass m / W by max(t / D, (1 - m / W) / lam),
    D and W int denominators, and the one loop that drives a clique sweep
    against them (`search`). `mass(pairs)` gives m; it is asked only when t
    could beat a live incumbent. `bound(mask)` caps the m of every clique
    within a cell mask of the sweep and only grows with the mask: the box
    ladder's Hall rows bound (`_HallBound.rows`), or parametrize's exact sum
    of fixed cell masses.

    Each incumbent is an int pair (num, den) in `best`, its value num / den,
    at first the empty set's 1 / lam = q / p for lam = p / q, with its cells
    in `pairs`. A candidate beats it iff t < t_lim = ceil(num D / den) and
    m > m_cut = floor(W (1 - lam num / den)). A lam freezes the first time
    t >= its t_lim; `live` holds the rest, and a frozen lam's m_cut becomes
    W, which no mass beats, so that min(m_cut) skips it.
    `cut` is min(m_cut), the live cut: it is set again only when an
    incumbent improves or a lam freezes, the two events that move it, and
    a mask whose bound is at most `cut` holds nothing that beats any
    incumbent.
    """

    def __init__(self, lams, D, W, mass, bound):
        self.ratios = [lam.as_integer_ratio() for lam in lams]
        self.D, self.W, self.mass, self.bound = D, W, mass, bound
        self.best, self.pairs = [(q, p) for p, q in self.ratios], [()] * len(lams)
        self.t_lim, self.m_cut = [-(-q * D // p) for p, q in self.ratios], [0] * len(lams)
        self.live, self.cut = list(range(len(lams))), 0

    def consider(self, pairs, t, m=None):
        D, W, t_lim, m_cut = self.D, self.W, self.t_lim, self.m_cut
        for k in self.live:
            if t < t_lim[k]:
                if m is None:
                    m = self.mass(pairs)
                if m > m_cut[k]:
                    p, q = self.ratios[k]
                    # the larger of t / D and (1 - m / W) / lam = (W - m) q / (W p)
                    num, den = (t, D) if t * W * p >= (W - m) * q * D else ((W - m) * q, W * p)
                    self.best[k], self.pairs[k] = (num, den), pairs
                    t_lim[k] = -(-num * D // den)
                    m_cut[k] = W * (den * q - p * num) // (den * q)
                    self.cut = min(m_cut)

    def frozen(self, t):
        """Freeze the lams that t alone cannot beat; whether all are frozen."""
        for k in [j for j in self.live if t >= self.t_lim[j]]:
            self.live.remove(k)
            self.m_cut[k] = self.W
            self.cut = min(self.m_cut)
        return not self.live

    def search(self, sweep):
        """Run `sweep` (a `_CliqueSweep`) to its end or until every lam is
        frozen, and score each clique it yields whose bound beats the cut;
        the same test cuts a search node whose R | P bound is at most the
        cut (see the module docstring)."""
        prune = lambda mask: self.bound(mask) <= self.cut
        for t, mask in sweep.cliques(self.frozen, prune):
            if not prune(mask):
                self.consider(sweep.pairs(mask), t)


def _positive_lams(lams):
    """A caller's lams as Fractions, every one parsed before any is checked
    to be positive."""
    lams = [parse_scalar(lam) for lam in lams]
    if any(lam <= 0 for lam in lams):
        raise ValidationError("lambda must be positive")
    return lams


def _caller_cells(cells, n, m, noun):
    """A caller's cells (i, j), sorted and deduplicated, each checked to lie
    in range(n) x range(m); `noun` names a cell in the message."""
    cells = tuple(sorted(set(map(tuple, cells))))
    for i, j in cells:
        if not (0 <= i < n and 0 <= j < m):
            raise ValidationError(f"{noun} ({i}, {j}) out of range")
    return cells


def _ladder(a, b, lams, budget, seeds=()):
    """The BoxResults and the prepared pair."""
    lams = _positive_lams(lams)
    P = _Pair(a, b)
    cells, da, db, wa, wb = P.cells, P.da, P.db, P.wa, P.wb
    flow = lambda pairs: max_subcoupling(wa, wb, pairs)[0]
    inc = _Incumbents(lams, P.D, P.W, flow, _HallBound(wa, wb).rows)
    inc.consider(tuple(cells), P.diam, P.W)  # the full grid carries mass 1
    for seed in seeds:
        pairs = _caller_cells(seed, P.A.n, P.B.n, "seed cell")
        inc.consider(pairs, _int_distortion(da, db, pairs))

    try:
        inc.search(_CliqueSweep(da, db, cells, budget, (wa, wb)))
        inc.live.clear()  # the sweep ran out of thresholds: every lam is exact
    except SizeError:
        nc = len(cells)
        # every stride-th cell pair u <= v (row u starts at u * nc - u * (u - 1)
        # / 2) bounds the mismatches taken; below 200 cells the stride is 1
        stride = max(1, nc * nc // 20000)
        sampled = sorted(
            {
                abs(da[cells[u][0]][cells[v][0]] - db[cells[u][1]][cells[v][1]])
                for u in range(nc)
                for v in range(u + (u * (u - 1) // 2 - u * nc) % stride, nc, stride)
            }
        )
        for cand, t in _heuristic_candidates(da, db, wa, wb, cells, sampled, P.diam):
            inc.consider(cand, t)
    # box_lam >= 0, so an incumbent of 0 is optimal even past the budget
    exact = [k not in inc.live or num == 0 for k, (num, _) in enumerate(inc.best)]
    values = [Fraction(num, den) for num, den in inc.best]
    return tuple(map(BoxResult, values, lams, exact, inc.pairs)), P


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

