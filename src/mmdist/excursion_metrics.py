"""Distances between excursions: level-measure part, epigraph part, their sum.

d_lambda(h, g) = inf { eps > 0 : Leb(|h - g| > eps) <= eps } is computed
exactly: |h - g| is piecewise linear on the union grid, so the level measure
m(eps) is piecewise affine between the finitely many piece-end values and
the infimum is the first interval where m(eps) <= eps has a solution.

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
  inside the target epigraph are discarded exactly beforehand. Returns an
  enclosure [lo, hi], certified when hi - lo <= tol, and degrades to the
  current enclosure when the split budget runs out.

Where ints are used: the target's features go over one denominator once
per call (`_int_features`), and each point's squared distances to all of
them are one int vector over a per-point denominator (`_dist_sq_vector`),
computed once when the point is created. A point's enclosure is the
vector's minimum; a segment's convexity cap is min_i max(vp_i, vq_i) over
its two end vectors, compared by cross-multiplying their denominators.
What stays Fraction: the points themselves, the square-root enclosures,
the Lipschitz bound and the heap keys, so the visit order and every bound
are those of the plain Fraction computation.

d_excursion = d_gamma + d_lambda, with interval bookkeeping carried along.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import ValidationError
from .exact import scaled, sqrt_enclosure, sqrt_if_square
from .excursions import (
    Excursion,
    _piece_limits,
    evaluate,
    normalize,
    require_valid_excursion,
)

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
    """(length, lo, hi) pieces of |h - g|: linear from lo or hi, ends sorted."""
    cuts = sorted(set(h.breakpoints) | set(g.breakpoints))
    out = []
    for lo_t, hi_t in zip(cuts, cuts[1:]):
        ln = hi_t - lo_t
        h0, h1 = _piece_limits(h, lo_t, hi_t)
        g0, g1 = _piece_limits(g, lo_t, hi_t)
        a, b = h0 - g0, h1 - g1
        if (a < 0 < b) or (b < 0 < a):
            frac = a / (a - b)  # zero crossing
            out.append((ln * frac, Fraction(0), abs(a)))
            out.append((ln * (1 - frac), Fraction(0), abs(b)))
        else:
            a, b = abs(a), abs(b)
            out.append((ln, min(a, b), max(a, b)))
    return out


def d_lambda(h: Excursion, g: Excursion):
    """Exact level-measure distance; 0 iff h = g almost everywhere.

    Returned as the infimum of the eligible levels; the strict defining
    condition may fail at the value itself while holding just above it,
    matching the prohorov convention.
    """
    require_valid_excursion(h)
    require_valid_excursion(g)
    pieces = _abs_diff_pieces(h, g)
    levels = sorted({Fraction(0)} | {v for _, plo, phi in pieces for v in (plo, phi)})
    for idx, level in enumerate(levels):
        nxt = levels[idx + 1] if idx + 1 < len(levels) else None
        alpha = Fraction(0)
        beta = Fraction(0)
        for ln, plo, phi in pieces:
            if phi <= level:
                continue
            if plo == phi:
                alpha += ln  # constant value > eps throughout [level, nxt)
            elif nxt is not None and plo >= nxt:
                alpha += ln  # piece entirely above the interval
            else:
                # linear piece straddles the interval: plo <= level < nxt <= phi
                alpha += ln * phi / (phi - plo)
                beta += ln / (phi - plo)
        root = alpha / (1 + beta)
        if nxt is None or root < nxt:
            return max(level, root)
    raise AssertionError("unreachable: the last interval always has a solution")


# ---------------------------------------------------------------------------
# epigraph geometry shared by both d_gamma regimes


def _pc_walls(h: Excursion):
    """Vertical boundary segments (x, y_bottom, y_top) of a pc epigraph."""
    walls = []
    m = len(h.values)
    for k, t in enumerate(h.breakpoints):
        tops = []
        if k > 0:
            tops.append(h.values[k - 1])
        if k < m:
            tops.append(h.values[k])
        top = max(tops)
        bottom = h.breakpoint_values[k]
        walls.append((t, bottom, top))
    return walls


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


def _int_features(h: Excursion):
    """The features of epi(h) over one denominator `den`, as int rows.

    Each row is (ax, ay, bx, by, vx, vy, vv, big_v // vv) with v = b - a and
    vv = |v|^2; big_v is a common multiple of the nonzero vv, so every
    squared distance below is an int over one per-point denominator.
    """
    coords, den = scaled([c for seg in _epi_features(h) for pt in seg for c in pt])
    segs = [(ax, ay, bx, by, bx - ax, by - ay) for ax, ay, bx, by in zip(*[iter(coords)] * 4)]
    vvs = [vx * vx + vy * vy for *_, vx, vy in segs]
    big_v = lcm(*filter(None, vvs))
    return den, big_v, [(*seg, vv, big_v // vv if vv else 0) for seg, vv in zip(segs, vvs)]


def _dist_sq_vector(px, py, feats):
    """Squared distances from (px, py) to every feature: (ints, l2).

    The ints are over the denominator l2 * big_v, where l2 = L^2 and L is
    the lcm of the point's denominators and the feature denominator. The
    projection test picks the nearest point of each segment: an end when the
    projection falls outside, else the foot, at squared distance cross^2/vv.
    """
    den, big_v, rows = feats
    big_l = lcm(px.denominator, py.denominator, den)
    k = big_l // den
    x = px.numerator * (big_l // px.denominator)
    y = py.numerator * (big_l // py.denominator)
    out = []
    for ax, ay, bx, by, vx, vy, vv, m in rows:
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


def _epi_dist_sq(px, py, tgt: Excursion, feats):
    if py >= evaluate(tgt, px):
        return Fraction(0)
    vec, l2 = _dist_sq_vector(px, py, feats)
    return Fraction(min(vec), l2 * feats[1])


# ---------------------------------------------------------------------------
# exact directed sup, pc source and pc target


def _horizontal_max_sq(x1, x2, c, tgt: Excursion, incumbent):
    """Exact max over t in [x1, x2] of squared distance from (t, c) to epi(tgt).

    `incumbent` is the best squared value found so far (used only to prune);
    the return value is exact for this window regardless.
    """
    bounds = sorted({x1, x2} | {t for t in tgt.breakpoints if x1 < t < x2})
    horizontals = [
        (tgt.breakpoints[k], tgt.breakpoints[k + 1], tgt.values[k])
        for k in range(len(tgt.values))
    ]
    walls = _pc_walls(tgt)
    best = Fraction(0)
    for s1, s2 in zip(bounds, bounds[1:]):
        if c >= evaluate(tgt, (s1 + s2) / 2):
            continue  # subwindow sits inside the epigraph, distance 0
        consts = []
        paras = set()
        for u1, u2, b in horizontals:
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
                paras.add((a, Fraction(0)))
            else:
                e = min(abs(c - y1), abs(c - y2))
                paras.add((a, e * e))
        cap = min(consts) if consts else None
        if cap is not None and cap <= best and cap <= incumbent:
            continue  # this subwindow cannot beat what we already have
        paras = sorted(paras)

        def envelope(t):
            return min((t - a) ** 2 + esq for a, esq in paras)

        pmax = max(envelope(s1), envelope(s2)) if paras else None
        if paras:
            for (a1, e1), (a2, e2) in combinations(paras, 2):
                if a1 == a2:
                    continue
                tc = (a2 * a2 + e2 - a1 * a1 - e1) / (2 * (a2 - a1))
                if not (s1 < tc < s2):
                    continue
                vc = (tc - a1) ** 2 + e1
                if vc <= pmax:
                    continue  # the full envelope at tc is <= vc already
                pmax = max(pmax, envelope(tc))
        sub = pmax if cap is None else (cap if pmax is None else min(cap, pmax))
        if sub > best:
            best = sub
    return best


def directed_gamma_sq(src: Excursion, tgt: Excursion):
    """Exact squared one-sided epigraph sup, pc source and pc target only."""
    require_valid_excursion(src)
    require_valid_excursion(tgt)
    if src.kind != "pc" or tgt.kind != "pc":
        raise ValidationError("exact directed sup needs both excursions pc")
    src = normalize(src)
    tgt = normalize(tgt)
    tgt_features = _int_features(tgt)
    best = Fraction(0)
    for k, t in enumerate(src.breakpoints):
        v = _epi_dist_sq(t, src.breakpoint_values[k], tgt, tgt_features)
        if v > best:
            best = v
    for k in range(len(src.values)):
        v = _horizontal_max_sq(
            src.breakpoints[k], src.breakpoints[k + 1], src.values[k], tgt, best
        )
        if v > best:
            best = v
    return best


# ---------------------------------------------------------------------------
# certified directed sup (any kinds) via branch and bound


def _outside_subsegments(p, q, tgt: Excursion):
    """Closed subsegments of [p, q] whose interiors avoid epi(tgt), exact.

    p, q are plane points with p.x < q.x. The segment is cut at the target's
    breakpoints and at crossings with the target graph inside each piece, so
    each resulting subsegment is entirely inside or entirely outside.
    """
    (px, py), (qx, qy) = p, q
    xs = sorted({px, qx} | {t for t in tgt.breakpoints if px < t < qx})

    def src_y(x):
        return py + (qy - py) * (x - px) / (qx - px)

    out = []
    for x1, x2 in zip(xs, xs[1:]):
        y1, y2 = src_y(x1), src_y(x2)
        if tgt.kind == "pl":
            g1, g2 = evaluate(tgt, x1), evaluate(tgt, x2)
        else:
            gv = evaluate(tgt, (x1 + x2) / 2)
            g1 = g2 = gv
        d1, d2 = y1 - g1, y2 - g2  # >= 0 means inside on that side
        pieces = [(x1, y1, d1, x2, y2, d2)]
        if (d1 < 0 < d2) or (d2 < 0 < d1):
            frac = d1 / (d1 - d2)
            xm = x1 + (x2 - x1) * frac
            ym = src_y(xm)
            pieces = [
                (x1, y1, d1, xm, ym, Fraction(0)),
                (xm, ym, Fraction(0), x2, y2, d2),
            ]
        for ax, ay, da, bx, by, db in pieces:
            if da < 0 or db < 0:  # interior outside the epigraph
                out.append(((ax, ay), (bx, by)))
    return out


def _directed_bb(src: Excursion, tgt: Excursion, tol, budget):
    """Certified enclosure (lo, hi) of the one-sided epigraph sup.

    Each point of the search is (xy, lo, hi, vec, l2): its coordinates, the
    enclosure of its distance to epi(tgt), and its squared distances to
    every target feature as ints over l2 * big_v (`_dist_sq_vector`). The
    vector is computed once per point and shared by its enclosure and the
    upper bounds of both segments it ends.
    """
    src = normalize(src)
    tgt = normalize(tgt)
    feats = _int_features(tgt)
    big_v = feats[1]

    def node(xy):
        px, py = xy
        vec, l2 = _dist_sq_vector(px, py, feats)
        inside = py >= evaluate(tgt, px)
        d_sq = Fraction(0) if inside else Fraction(min(vec), l2 * big_v)
        return (xy, *sqrt_enclosure(d_sq), vec, l2)

    lo = Fraction(0)
    hi_points = Fraction(0)
    if src.kind == "pc":
        segments = [
            ((src.breakpoints[k], src.values[k]), (src.breakpoints[k + 1], src.values[k]))
            for k in range(len(src.values))
        ]
        points = [(t, src.breakpoint_values[k]) for k, t in enumerate(src.breakpoints)]
    else:
        segments = [
            ((src.breakpoints[k], src.values[k]), (src.breakpoints[k + 1], src.values[k + 1]))
            for k in range(len(src.values) - 1)
        ]
        points = []
    for px, py in points:
        plo, phi = sqrt_enclosure(_epi_dist_sq(px, py, tgt, feats))
        lo = max(lo, plo)
        hi_points = max(hi_points, phi)

    def seg_ub(s, t):
        # per-feature convexity: max over the segment of the distance to one
        # feature is at an endpoint; any single feature caps the distance.
        # The two vectors are compared over l2_s * l2_t * big_v.
        (p, _, dp_hi, vp, lp), (q, _, dq_hi, vq, lq) = s, t
        cap_sq = min(map(max, [v * lq for v in vp], [v * lp for v in vq]))
        cap = sqrt_enclosure(Fraction(cap_sq, lp * lq * big_v))[1]
        len_hi = sqrt_enclosure((q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2)[1]
        lip = (dp_hi + dq_hi + len_hi) / 2
        return min(cap, lip)

    heap = []
    counter = 0
    for p, q in segments:
        for a, b in _outside_subsegments(p, q, tgt):
            na, nb = node(a), node(b)
            lo = max(lo, na[1], nb[1])
            heapq.heappush(heap, (-seg_ub(na, nb), counter, na, nb))
            counter += 1

    spent = 0
    final_hi = hi_points
    while heap:
        neg_ub, _, na, nb = heapq.heappop(heap)
        ub = -neg_ub
        if ub <= lo + tol or spent >= budget:
            final_hi = max(final_hi, ub)
            break
        spent += 1
        a, b = na[0], nb[0]
        nm = node(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
        lo = max(lo, nm[1])
        for s, t in ((na, nm), (nm, nb)):
            ub2 = min(ub, seg_ub(s, t))
            heapq.heappush(heap, (-ub2, counter, s, t))
            counter += 1
    return lo, max(final_hi, lo, hi_points)


# ---------------------------------------------------------------------------
# public distances


def d_gamma_detail(
    h: Excursion,
    g: Excursion,
    tol=DEFAULT_GAMMA_TOL,
    budget: int = DEFAULT_GAMMA_BUDGET,
) -> IntervalResult:
    require_valid_excursion(h)
    require_valid_excursion(g)
    if h.kind == "pc" and g.kind == "pc":
        ssq = max(directed_gamma_sq(h, g), directed_gamma_sq(g, h))
        root = sqrt_if_square(ssq)
        if root is not None:
            return IntervalResult(root, root, root, True, True)
        lo, hi = sqrt_enclosure(ssq)
        # the squared optimum is exact; only the root needs rounding
        return IntervalResult((lo + hi) / 2, lo, hi, False, True)
    lo1, hi1 = _directed_bb(h, g, tol, budget)
    lo2, hi2 = _directed_bb(g, h, tol, budget)
    lo, hi = max(lo1, lo2), max(hi1, hi2)
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
