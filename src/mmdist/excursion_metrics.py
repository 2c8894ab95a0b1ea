"""Distances between excursions: level-measure part, epigraph part, their sum.

d_lambda(h, g) = inf { eps > 0 : Leb(|h - g| > eps) <= eps } is computed
exactly: |h - g| is piecewise linear on the union grid, so the level measure
m(eps) is piecewise affine between the finitely many piece-end values and
the infimum is the first interval where m(eps) <= eps has a solution.
h - g is read once on the union grid in ints (`excursions._int_diff`), each
interval's m(eps) is two int sums, and the first interval with a solution
is found by the scan the Prohorov metric uses (`prohorov._scan_infimum`).

d_gamma(h, g) is the Hausdorff distance between epigraphs in the plane. The
directed sup from an epigraph is attained on its lower boundary (distance to
a fixed closed set only grows when descending inside the epigraph), so the
sources are the graph pieces and, for the piecewise-constant kind, the
breakpoint bottoms. Two regimes:

* both piecewise constant: exact. For a horizontal source at height c every
  target feature contributes branches that are unit-leading-coefficient
  parabolas in the abscissa or constants. After subdividing the window at
  the target's breakpoints each feature is a single branch, the maximum of
  the lower envelope sits at a window end or at a parabola-parabola
  crossing, and those crossings are rational because the leading
  coefficients agree. Constants only cap the result, so no irrational
  parabola-constant crossing is ever needed. The squared optimum is an
  exact rational; the root is returned exactly whenever it is rational.
* any piecewise-linear side: certified branch-and-bound over source
  segments. Upper bounds combine the 1-Lipschitz property of the distance
  field with per-feature convexity (distance to one feature restricted to a
  segment is convex, hence maximal at an endpoint); segments that lie
  inside the target epigraph are discarded exactly beforehand. A popped
  segment splits where the features nearest its two ends, k and l, tie:
  along a line f_k^2 and f_l^2 are quadratics (within one projection
  regime each), so the root of the quadratic through f_k^2 - f_l^2 at the
  segment's start, midpoint and end puts one split on an interior maximum,
  which sits where the nearest feature changes (`_tie_split`; placing the
  split by the function, not at the midpoint, is the classical remedy in
  Lipschitz optimisation, Shubert 1972; the three-sample root is Muller's
  1956). Where k = l, or no root lies strictly inside, the split is the
  midpoint. Any split point keeps the children covering their parent, so
  the bounds, tol and the budget mean what they would with midpoint
  splits; only the visit order differs. Returns an enclosure [lo, hi],
  certified when hi - lo <= tol, and degrades to the current enclosure
  when the split budget runs out. Both directed searches are set up
  first; the one whose starting lo is larger runs to its end, (lo1, hi1),
  and the other runs with the floor lo1: it also stops at the first bound
  it pops that is <= lo1. Bounds only shrink down the heap, so every
  segment it leaves is <= lo1 <= hi1, and max(lo1, lo2), max(hi1, hi2),
  exactness and certification are those of two full runs, at any tol and
  budget. Only one search takes a floor: were each to stop at the other's
  lo, hi could change where the two sups tie. This is the incumbent cut
  of branch and bound (Lawler & Wood 1966).

Both regimes of d_gamma work in ints from start to finish, as d_lambda
does. d_gamma puts both excursions over one denominator once
(`excursions._int_excursions`), for both directed sups, and builds each
target's epigraph features over it (`_int_epi`); a point is an int
triple (x, y, d), and its squared distances to all features are one int
vector (`_dist_sq_vector`), computed once when the point is created; a
split also reads one at the segment's midpoint, without building a node.
Square roots come from `math.isqrt` (`isqrt_enclosure`, and the split's root);
bounds and heap keys are (num, den) pairs compared by cross-multiplication,
so every bound, split point and the visit order are those of the plain
Fraction computation: all of it for the search that runs to its end, a
prefix of it for the floored one.
What stays Fraction: only the returned enclosure, and d_lambda's one value.

d_excursion = d_gamma + d_lambda, with interval bookkeeping carried along.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .errors import ValidationError
from .exact import isqrt_enclosure, parse_scalar
from .excursions import Excursion, _int_diff, _int_excursions, normalize
from .prohorov import _scan_infimum

DEFAULT_GAMMA_TOL = Fraction(1, 10**9)
DEFAULT_GAMMA_BUDGET = 6000


@dataclass(frozen=True)
class IntervalResult:
    """A certified enclosure of a nonnegative real.

    exact means lo == hi == value; certified means hi - lo was brought below
    the requested tolerance (always true on the exact path).
    """

    value: object
    lo: object
    hi: object
    exact: bool
    certified: bool


# ---------------------------------------------------------------------------
# level-measure distance


def _abs_diff_pieces(h: Excursion, g: Excursion):
    """Pieces (length, lo, hi) of |h - g| as ints, and their scales (L, T, V).

    h - g is read once on the union of the breakpoints (`_int_diff`): the
    cuts are over T and every piece-end value over one V. |h - g| is linear
    from lo to hi or from hi to lo on each piece, lo and hi over V; a piece
    where h - g changes sign, from a to b, splits at its zero, a fraction
    |a| / (|a| + |b|) of the way. Lengths are over T L, L the lcm of the
    split pieces' |a| + |b|.
    """
    cuts, _, diffs, t_den, v_den = _int_diff(h, g)
    raw = []  # (length over t_den * split, split, lo, hi)
    for lo_t, hi_t, (a, b) in zip(cuts, cuts[1:], diffs):
        ln = hi_t - lo_t
        crosses = a * b < 0  # h - g changes sign inside the piece
        a, b = abs(a), abs(b)
        if crosses:
            raw += [(ln * a, a + b, 0, a), (ln * b, a + b, 0, b)]
        else:
            raw.append((ln, 1, min(a, b), max(a, b)))
    big_l = lcm(*(split for _, split, _, _ in raw))
    pieces = [(ln * (big_l // split), lo, hi) for ln, split, lo, hi in raw]
    return pieces, big_l, t_den, v_den


def d_lambda(h: Excursion, g: Excursion):
    """Exact level-measure distance; 0 iff h = g almost everywhere.

    Returned as the infimum of the eligible levels; the strict defining
    condition may fail at the value itself while holding just above it,
    matching the prohorov convention.

    Computed in ints (`_abs_diff_pieces`). Between two neighbouring levels
    of |h - g|, Leb(|h - g| > eps) = alpha - beta eps; a piece above the
    interval adds its length to alpha, and a linear piece across it adds
    length hi / (hi - lo) to alpha and length / (hi - lo) to beta. With
    lengths over T L, values over V and P the lcm of the pieces' hi - lo,
    alpha = A / (T L P) and beta = V B / (T L P) for two int sums A and B,
    so the root eps = alpha / (1 + beta) of Leb = eps is
    A / (T L P + V B). Prohorov's scan (`prohorov._scan_infimum`) compares
    the levels and roots by cross-multiplying and builds one Fraction.
    """
    pieces, big_l, t_den, v_den = _abs_diff_pieces(normalize(h), normalize(g))
    big_p = lcm(*{hi - lo for _, lo, hi in pieces if hi > lo})
    # per piece: lo, hi, its A term when above the interval, and its A and
    # B terms when across it
    terms = []
    for ln, lo, hi in pieces:
        step = big_p // (hi - lo) if hi > lo else 0
        terms.append((lo, hi, ln * big_p, ln * hi * step, ln * step))
    levels = sorted({0}.union(*((lo, hi) for _, lo, hi in pieces)))
    base = t_den * big_l * big_p

    def t_of_piece(j):  # (A, T L P + V B) on [levels[j], levels[j + 1])
        level, nxt = levels[j], levels[j + 1] if j + 1 < len(levels) else None
        big_a = big_b = 0
        for lo, hi, above, across, slope in terms:
            if hi <= level:
                continue
            if lo == hi or (nxt is not None and lo >= nxt):
                big_a += above  # the whole piece lies above eps on [level, nxt)
            else:  # linear piece across the interval: lo <= level < nxt <= hi
                big_a += across
                big_b += slope
        return big_a, base + v_den * big_b

    return _scan_infimum(levels, t_of_piece, v_den)


# ---------------------------------------------------------------------------
# epigraph geometry shared by both d_gamma regimes


def _pc_walls(h: Excursion):
    """Vertical boundary segments (x, y_bottom, y_top) of a pc epigraph."""
    v = h.values  # the top is the higher of the pieces on either side
    return [
        (t, bottom, max(v[max(k - 1, 0) : k + 1]))
        for k, (t, bottom) in enumerate(zip(h.breakpoints, h.breakpoint_values))
    ]


def _epi_features(h: Excursion):
    """Boundary of the epigraph as a list of closed segments ((ax, ay), (bx, by)).

    Outside the epigraph the distance to the epigraph equals the distance to
    this set; degenerate (zero-length) segments are fine.
    """
    feats = []
    bps = h.breakpoints
    if h.kind == "pl":
        for k in range(len(bps) - 1):
            feats.append(((bps[k], h.values[k]), (bps[k + 1], h.values[k + 1])))
        return feats
    for k in range(len(bps) - 1):
        feats.append(((bps[k], h.values[k]), (bps[k + 1], h.values[k])))
    for x, y1, y2 in _pc_walls(h):
        feats.append(((x, y1), (x, y2)))
    return feats


class _Epi(NamedTuple):
    """epi(h) over one denominator `den`, as ints (see `_int_epi`)."""

    h: Excursion  # int fields
    den: int
    big_v: int
    rows: list


def _int_epi(h: Excursion, den: int) -> _Epi:
    """The features of epi(h), for h with int fields over `den`.

    Each feature row is (ax, ay, bx, by, vx, vy, vv, big_v // vv) with
    v = b - a and vv = |v|^2; big_v is a common multiple of the nonzero vv,
    so every squared distance below is an int over one per-point denominator.
    """
    segs = [(ax, ay, bx, by, bx - ax, by - ay) for (ax, ay), (bx, by) in _epi_features(h)]
    vvs = [vx * vx + vy * vy for *_, vx, vy in segs]
    big_v = lcm(*filter(None, vvs))
    rows = [(*seg, vv, big_v // vv if vv else 0) for seg, vv in zip(segs, vvs)]
    return _Epi(h, den, big_v, rows)


def _dist_sq_vector(x, y, d, epi: _Epi):
    """Squared distances from the point (x/d, y/d) to every feature: (ints, l2).

    The ints are over the denominator l2 * big_v, where l2 = L^2 and L is
    the lcm of d and the feature denominator. The projection test picks the
    nearest point of each segment: an end when the projection falls
    outside, else the foot, at squared distance cross^2/vv.
    """
    big_l = lcm(d, epi.den)
    k = big_l // epi.den
    x *= big_l // d
    y *= big_l // d
    big_v = epi.big_v
    out = []
    for ax, ay, bx, by, vx, vy, vv, m in epi.rows:
        wx = x - ax * k
        wy = y - ay * k
        dot = wx * vx + wy * vy
        if dot <= 0:
            out.append((wx * wx + wy * wy) * big_v)
        elif dot >= vv * k:
            wx = x - bx * k
            wy = y - by * k
            out.append((wx * wx + wy * wy) * big_v)
        else:
            c = wx * vy - wy * vx
            out.append(c * c * m)
    return out, big_l * big_l


def _gap(x, y, d, epi: _Epi):
    """An int with the sign of y/d - h(x/d); >= 0 means inside epi(h)."""
    h, den = epi.h, epi.den
    bps, vals = h.breakpoints, h.values
    xt = x * den
    j = bisect_right(bps, xt // d) - 1
    if xt == bps[j] * d:
        return y * den - (h.breakpoint_values or vals)[j] * d
    b0, b1, v0 = bps[j], bps[j + 1], vals[j]
    v1 = vals[j + 1] if h.kind == "pl" else v0  # pc: constant on the open piece
    return (y * den - v0 * d) * (b1 - b0) - (v1 - v0) * (xt - b0 * d)


# rationals as (num, den) pairs, den > 0, compared by cross-multiplying;
# _qmax and _qmin return p on a tie
def _qle(p, q):
    return p[0] * q[1] <= q[0] * p[1]


def _qmax(p, q):
    return q if q[0] * p[1] > p[0] * q[1] else p


def _qmin(p, q):
    return q if q[0] * p[1] < p[0] * q[1] else p


# ---------------------------------------------------------------------------
# exact directed sup, pc source and pc target


def _horizontal_max_sq(x1, x2, c, tgt: Excursion, walls, incumbent):
    """Exact max over t in [x1, x2] of squared distance from (t, c) to epi(tgt).

    x1, x2, c, tgt and its `_pc_walls` are ints over one denominator D, so
    squared distances are over D^2, or (D * m)^2 at a parabola crossing.
    `incumbent`, the best (num, den) found so far, only prunes; the return
    value is exact for this window regardless.
    """
    tb = tgt.breakpoints
    bounds = sorted({x1, x2} | {t for t in tb if x1 < t < x2})
    dd = tb[-1] * tb[-1]  # D^2, as the last breakpoint is 1
    best = (0, 1)
    for s1, s2 in zip(bounds, bounds[1:]):
        if c >= tgt.values[bisect_right(tb, s1) - 1]:
            continue  # subwindow sits inside the epigraph, distance 0
        consts = []
        paras = set()
        for u1, u2, b in zip(tb, tb[1:], tgt.values):
            esq = (c - b) ** 2
            if u1 <= s1 and s2 <= u2:
                consts.append(esq)
            elif s2 <= u1:
                paras.add((u1, esq))
            elif s1 >= u2:
                paras.add((u2, esq))
            else:
                raise AssertionError("subdivision bounds must include piece ends")
        for a, y1, y2 in walls:
            if y1 <= c <= y2:
                paras.add((a, 0))
            else:
                e = min(abs(c - y1), abs(c - y2))
                paras.add((a, e * e))
        cap = (min(consts), dd) if consts else None
        if cap is not None and _qle(cap, best) and _qle(cap, incumbent):
            continue  # this subwindow cannot beat what we already have
        paras = sorted(paras)
        pmax = None
        if paras:
            pmax = (max(min((t - a) ** 2 + esq for a, esq in paras) for t in (s1, s2)), dd)
            for (a1, e1), (a2, e2) in combinations(paras, 2):
                if a1 == a2:
                    continue
                # the crossing tc = n / (D * m) of the two parabolas
                n, m = a2 * a2 + e2 - a1 * a1 - e1, 2 * (a2 - a1)
                if not (s1 * m < n < s2 * m):
                    continue
                vc = ((n - a1 * m) ** 2 + e1 * m * m, dd * m * m)
                if _qle(vc, pmax):
                    continue  # the full envelope at tc is <= vc already
                pmax = _qmax(pmax, (min((n - a * m) ** 2 + esq * m * m for a, esq in paras), vc[1]))
        sub = pmax if cap is None else (cap if pmax is None else _qmin(cap, pmax))
        best = _qmax(best, sub)
    return best


def _exact_sup_sq(s: Excursion, t: Excursion, den: int):
    """The squared directed sup from pc s to pc t, both int over den: (num, den)."""
    epi = _int_epi(t, den)
    best = (0, 1)
    for x, y in zip(s.breakpoints, s.breakpoint_values):
        if _gap(x, y, den, epi) < 0:
            vec, l2 = _dist_sq_vector(x, y, den, epi)
            best = _qmax(best, (min(vec), l2 * epi.big_v))
    walls = _pc_walls(t)
    for x1, x2, c in zip(s.breakpoints, s.breakpoints[1:], s.values):
        best = _qmax(best, _horizontal_max_sq(x1, x2, c, t, walls, best))
    return best


def directed_gamma_sq(src: Excursion, tgt: Excursion):
    """Exact squared one-sided epigraph sup, pc source and pc target only."""
    src, tgt = normalize(src), normalize(tgt)
    if src.kind != "pc" or tgt.kind != "pc":
        raise ValidationError("exact directed sup needs both excursions pc")
    (s, t), _, den = _int_excursions(src, tgt)
    return Fraction(*_exact_sup_sq(s, t, den))


# ---------------------------------------------------------------------------
# certified directed sup (any kinds) via branch and bound


def _outside_subsegments(p, q, epi: _Epi):
    """Closed subsegments of [p, q] whose interiors avoid epi(tgt), exact.

    p, q are int points (x, y, d) over one d, with p.x < q.x. The segment is
    cut at the target's breakpoints and at crossings with the target graph
    inside each piece, so each resulting subsegment is entirely inside or
    entirely outside; cut points come back in lowest terms. Between two
    cuts x1 < x2 (over c) the source's height above the target is g(x)
    times one positive scale, so the crossing is (x2 g1 - x1 g2) / (g1 - g2).
    """
    (px, py, d), (qx, qy, _) = p, q
    c = lcm(d, epi.den)
    k = c // epi.den
    px, py, qx, qy = (v * (c // d) for v in (px, py, qx, qy))
    w = qx - px
    bps, vals = epi.h.breakpoints, epi.h.values
    xs = sorted({px, qx} | {t * k for t in bps if px < t * k < qx})

    def point(x, m):  # the source point at abscissa x / (c * m)
        if m < 0:
            x, m = -x, -m
        y = py * w * m + (qy - py) * (x - px * m)
        g = gcd(x * w, y, c * w * m)
        return x * w // g, y // g, c * w * m // g

    out = []
    for x1, x2 in zip(xs, xs[1:]):
        j = bisect_right(bps, x1 // k) - 1
        b0, db, v0 = bps[j], bps[j + 1] - bps[j], vals[j]
        dv = vals[j + 1] - v0 if epi.h.kind == "pl" else 0  # pc: constant on the piece
        g1, g2 = (
            (py * w + (qy - py) * (x - px)) * db - (v0 * db * k + dv * (x - b0 * k)) * w
            for x in (x1, x2)
        )
        a, b = point(x1, 1), point(x2, 1)
        pieces = [(a, g1, b, g2)]  # g >= 0 means inside on that side
        if (g1 < 0 < g2) or (g2 < 0 < g1):
            m = point(x2 * g1 - x1 * g2, g1 - g2)
            pieces = [(a, g1, m, 0), (m, 0, b, g2)]
        out += [(s, t) for s, ga, t, gb in pieces if ga < 0 or gb < 0]
    return out


SPLIT_BITS = 48  # a segment splits at a tie no finer than 2^-48 of its length


def _tie_split(g0, gm, g1):
    """Where a segment splits, as p / 2^SPLIT_BITS of its length, or None.

    g0, gm and g1 are f_k^2 - f_l^2 at the segment's start, midpoint and
    end, ints on one scale, for k the feature nearest the start and l the
    one nearest the end. When g0 < 0 < g1 the quadratic through the three
    samples, A t^2 + B t + C, has one root r in (0, 1), where f_k and f_l
    tie; p is floor(2^SPLIT_BITS r), exact for any common scale of the
    samples, and None unless 0 < p < 2^SPLIT_BITS.
    """
    if not g0 < 0 < g1:
        return None
    a, b = 2 * (g0 + g1) - 4 * gm, 4 * gm - 3 * g0 - g1
    if a == 0:  # linear: b = g1 - g0 > 0
        p = (-g0 << SPLIT_BITS) // b
    else:  # r = (-B + sqrt(B^2 - 4 A C)) / 2A; floor of (n +- root) / m
        disc = (b * b - 4 * a * g0) << 2 * SPLIT_BITS
        root = isqrt(disc)
        if a > 0:
            p = ((-b << SPLIT_BITS) + root) // (2 * a)
        else:
            root += root * root != disc  # the ceiling, as the root is subtracted
            p = ((b << SPLIT_BITS) - root) // (-2 * a)
    return p if 0 < p < 1 << SPLIT_BITS else None


class _Seg:
    """A heap entry: segment (s, t) under the bound n / d. It pops first for
    a larger bound, then for an earlier push, as Fraction keys would."""

    __slots__ = ("n", "d", "count", "s", "t")

    def __init__(self, bound, count, s, t):
        (self.n, self.d), self.count, self.s, self.t = bound, count, s, t

    def __lt__(self, other):
        a, b = self.n * other.d, other.n * self.d
        return a > b or (a == b and self.count < other.count)


def _directed_bb(s: Excursion, t: Excursion, den: int):
    """The branch and bound for one directed sup, set up: (lo, run).

    s and t carry int fields over den. Setting up builds epi(t), cuts the
    source into the segments that avoid it and heaps them under their
    bounds, one node per distinct segment end; lo is the starting lower
    bound, (num, den), read at the segment ends and, for a pc source, at
    its breakpoint bottoms. `run(tol, budget, floor)` then pops the segment
    of largest bound and splits it, until the bound popped is at most
    lo + tol, or at most `floor`, or `budget` splits are spent; that bound
    caps every segment left, as bounds only shrink down the heap, and each
    child's bound is at most its parent's. The split point is where the
    features k and l nearest the two ends tie (`_tie_split` on
    f_k^2 - f_l^2 at the ends and the midpoint, k and l the first argmin
    of each end's vector), else the midpoint. It returns the enclosure
    (lo, hi) of the directed sup as (num, den) pairs, and runs once. A floor
    of 0 stops nothing that lo + tol would not; a higher one lets a search
    stop once it cannot beat another's lo (see `d_gamma_detail`). The visit
    order is that of the plain Fraction search, of which a floored run
    visits a prefix.

    Each point of the search is (x, y, d, lo, hi, vec, l2): its coordinates
    over d, the (num, den) enclosure of its distance to epi(t), and its
    squared distances to every target feature as ints over l2 * big_v
    (`_dist_sq_vector`), shared by its enclosure and the bounds of both
    segments it ends.
    """
    epi = _int_epi(t, den)
    big_v = epi.big_v

    def node(x, y, d):
        vec, l2 = _dist_sq_vector(x, y, d, epi)
        r0, r1, e = isqrt_enclosure(0 if _gap(x, y, d, epi) >= 0 else min(vec), l2 * big_v)
        return x, y, d, (r0, e), (r1, e), vec, l2

    def seg_ub(s, t):
        # per-feature convexity: max over the segment of the distance to one
        # feature is at an endpoint; any single feature caps the distance.
        # The two vectors are compared over l2_s * l2_t * big_v.
        x1, y1, d1, _, (h1, e1), v1, l1 = s
        x2, y2, d2, _, (h2, e2), v2, l2 = t
        cap_sq = min(map(max, [v * l2 for v in v1], [v * l1 for v in v2]))
        _, cap, ce = isqrt_enclosure(cap_sq, l1 * l2 * big_v)
        dx, dy, dd = x2 * d1 - x1 * d2, y2 * d1 - y1 * d2, d1 * d2
        _, ln, le = isqrt_enclosure(dx * dx + dy * dy, dd * dd)
        lip = ((h1 * e2 + h2 * e1) * le + ln * e1 * e2, 2 * e1 * e2 * le)
        return _qmin((cap, ce), lip)

    bps, vals = s.breakpoints, s.values
    start = hi_points = (0, 1)
    if s.kind == "pc":
        segments = [((x1, v, den), (x2, v, den)) for x1, x2, v in zip(bps, bps[1:], vals)]
        for x, y in zip(bps, s.breakpoint_values):
            _, _, _, plo, phi, _, _ = node(x, y, den)
            start, hi_points = _qmax(start, plo), _qmax(hi_points, phi)
    else:
        ends = [(x, v, den) for x, v in zip(bps, vals)]
        segments = list(zip(ends, ends[1:]))

    heap, nodes = [], {}  # consecutive subsegments share their end node
    for p, q in segments:
        for a, b in _outside_subsegments(p, q, epi):
            for end in (a, b):
                if end not in nodes:
                    nodes[end] = node(*end)
            na, nb = nodes[a], nodes[b]
            start = _qmax(_qmax(start, na[3]), nb[3])
            heapq.heappush(heap, _Seg(seg_ub(na, nb), len(heap), na, nb))

    def split(s, t):
        # the node where the features nearest the two ends tie, else the midpoint
        ax, ay, ad, _, _, va, la = s
        bx, by, bd, _, _, vb, lb = t
        m = lcm(ad, bd)
        ax, ay, bx, by = ax * (m // ad), ay * (m // ad), bx * (m // bd), by * (m // bd)
        k, l = va.index(min(va)), vb.index(min(vb))
        if k != l:
            # the midpoint's l2 is a multiple of both ends', as its d is of theirs
            vm, lm = _dist_sq_vector(ax + bx, ay + by, 2 * m, epi)
            g0, g1 = (va[k] - va[l]) * (lm // la), (vb[k] - vb[l]) * (lm // lb)
            p = _tie_split(g0, vm[k] - vm[l], g1)
            if p is not None:
                q = (1 << SPLIT_BITS) - p
                return node(ax * q + bx * p, ay * q + by * p, m << SPLIT_BITS)
        return node(ax + bx, ay + by, 2 * m)

    def run(tol, budget, floor=(0, 1)):
        lo, counter, spent, final_hi = start, len(heap), 0, hi_points
        tn, td = tol.as_integer_ratio()
        while heap:
            top = heapq.heappop(heap)
            ub = top.n, top.d
            # ub <= lo + tol, or ub <= floor
            if _qle(ub, (lo[0] * td + tn * lo[1], lo[1] * td)) or _qle(ub, floor) or spent >= budget:
                final_hi = _qmax(final_hi, ub)
                break
            spent += 1
            nm = split(top.s, top.t)
            lo = _qmax(lo, nm[3])
            for s, t in ((top.s, nm), (nm, top.t)):
                heapq.heappush(heap, _Seg(_qmin(ub, seg_ub(s, t)), counter, s, t))
                counter += 1
        return lo, _qmax(_qmax(final_hi, lo), hi_points)

    return start, run


# ---------------------------------------------------------------------------
# public distances


def d_gamma_detail(
    h: Excursion,
    g: Excursion,
    tol=DEFAULT_GAMMA_TOL,
    budget: int = DEFAULT_GAMMA_BUDGET,
) -> IntervalResult:
    """d_gamma's enclosure, certified when hi - lo <= tol. `tol` is read
    exactly by `parse_scalar`; a negative tol, which no enclosure meets,
    or a negative split budget is refused before any search runs."""
    tol = parse_scalar(tol)
    if tol < 0:
        raise ValidationError("tol must be nonnegative")
    if budget < 0:
        raise ValidationError("budget must be nonnegative")
    h, g = normalize(h), normalize(g)  # the one check of each input
    (s, t), _, den = _int_excursions(h, g)  # the one scaling, for both directed sups
    if s.kind == "pc" and t.kind == "pc":
        ssq = Fraction(*_qmax(_exact_sup_sq(s, t, den), _exact_sup_sq(t, s, den)))
        lo, hi, d = isqrt_enclosure(ssq.numerator, ssq.denominator)
        lo, hi = Fraction(lo, d), Fraction(hi, d)
        # the squared optimum is exact; only the root needs rounding, unless
        # it is a rational square (lo == hi)
        return IntervalResult((lo + hi) / 2, lo, hi, lo == hi, True)
    # the search that starts higher runs to its end; the other need only show
    # that it cannot beat that lo, so it stops at a bound <= lo1
    (start1, first), (start2, second) = _directed_bb(s, t, den), _directed_bb(t, s, den)
    if not _qle(start2, start1):
        first, second = second, first
    lo1, hi1 = first(tol, budget)
    lo2, hi2 = second(tol, budget, floor=lo1)
    lo, hi = Fraction(*_qmax(lo1, lo2)), Fraction(*_qmax(hi1, hi2))
    return IntervalResult((lo + hi) / 2, lo, hi, lo == hi, hi - lo <= tol)


def d_gamma(h: Excursion, g: Excursion, tol=DEFAULT_GAMMA_TOL, budget: int = DEFAULT_GAMMA_BUDGET):
    return d_gamma_detail(h, g, tol, budget).value


@dataclass(frozen=True)
class ExcursionDistanceResult:
    value: object
    lo: object
    hi: object
    certified: bool
    gamma: IntervalResult
    lam: object


def d_excursion_detail(
    h: Excursion,
    g: Excursion,
    tol=DEFAULT_GAMMA_TOL,
    budget: int = DEFAULT_GAMMA_BUDGET,
) -> ExcursionDistanceResult:
    h, g = normalize(h), normalize(g)  # checked once, for both halves
    gamma = d_gamma_detail(h, g, tol, budget)
    lam = d_lambda(h, g)
    return ExcursionDistanceResult(
        value=gamma.value + lam,
        lo=gamma.lo + lam,
        hi=gamma.hi + lam,
        certified=gamma.certified,
        gamma=gamma,
        lam=lam,
    )


def d_excursion(h: Excursion, g: Excursion, tol=DEFAULT_GAMMA_TOL, budget: int = DEFAULT_GAMMA_BUDGET):
    """Sum of the epigraph and level-measure distances."""
    return d_excursion_detail(h, g, tol, budget).value
