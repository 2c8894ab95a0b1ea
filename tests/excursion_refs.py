"""Independent readers of an excursion, kept as test oracles.

These are the bisecting point reader and the midpoint piece reader that the
package used before its one grid walk (`excursions._on_int_grid`), the cut set
that compared every pl piece with every level before the cuts bisected into
the sorted levels, and the Fraction level scan `d_lambda` ran before it
went over ints. Tests compare the package's readers against them, so they
must not call the package's own `evaluate`, `infimum`, grid reader or cut
set.
"""

from bisect import bisect_right
from fractions import Fraction

from mmdist import ValidationError
from mmdist.exact import parse_scalar


def ref_evaluate(h, t):
    """h(t); a pc excursion takes its breakpoint value at a breakpoint."""
    t = parse_scalar(t)
    if not (0 <= t <= 1):
        raise ValidationError(f"t = {t} outside [0, 1]")
    bps = h.breakpoints
    k = bisect_right(bps, t) - 1
    if k == len(bps) - 1:  # t == 1
        if h.kind == "pl":
            return h.values[-1]
        return h.breakpoint_values[-1]
    if h.kind == "pl":
        t0, t1 = bps[k], bps[k + 1]
        v0, v1 = h.values[k], h.values[k + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    if t == bps[k]:
        return h.breakpoint_values[k]
    return h.values[k]


def ref_piece_limits(h, lo, hi):
    """One-sided limits of h at the ends of (lo, hi), which must hold no
    breakpoint of h strictly inside."""
    if h.kind == "pl":
        return ref_evaluate(h, lo), ref_evaluate(h, hi)
    v = ref_evaluate(h, (lo + hi) / 2)
    return v, v


def ref_cuts(h, resolution=()):
    """Cut set for coding a normalized excursion: its breakpoints, for pl
    each crossing of a breakpoint value found by scanning every level, and
    the resolution points, checked in the order given."""
    bps, values = h.breakpoints, h.values
    cuts = set()
    if h.kind == "pl":
        levels = sorted(set(values))
        for k in range(len(bps) - 1):
            v0, v1 = values[k], values[k + 1]
            lo, hi = min(v0, v1), max(v0, v1)
            for level in levels:
                if lo < level < hi:
                    cuts.add(bps[k] + (level - v0) * (bps[k + 1] - bps[k]) / (v1 - v0))
    for r in resolution:
        r = parse_scalar(r)
        if not (0 <= r <= 1):
            raise ValidationError(f"resolution point {r} outside [0, 1]")
        cuts.add(r)
    return tuple(sorted(cuts.union(bps))) if cuts else bps


def ref_d_lambda(h, g):
    """inf{eps > 0 : Leb(|h - g| > eps) <= eps}, by a Fraction level scan.

    |h - g| is linear on each piece (length, lo, hi) of the union grid, a
    piece where h - g changes sign split at its zero, so between two
    neighbouring levels the measure is affine in eps and the first interval
    where it meets eps holds the infimum.
    """
    cuts = sorted(set(h.breakpoints) | set(g.breakpoints))
    pieces = []
    for lo_t, hi_t in zip(cuts, cuts[1:]):
        (h0, h1), (g0, g1) = ref_piece_limits(h, lo_t, hi_t), ref_piece_limits(g, lo_t, hi_t)
        ln = hi_t - lo_t
        a, b = h0 - g0, h1 - g1
        if (a < 0 < b) or (b < 0 < a):
            frac = a / (a - b)  # zero crossing
            pieces.append((ln * frac, Fraction(0), abs(a)))
            pieces.append((ln * (1 - frac), Fraction(0), abs(b)))
        else:
            a, b = abs(a), abs(b)
            pieces.append((ln, min(a, b), max(a, b)))
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
