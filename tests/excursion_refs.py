"""Independent readers of an excursion, kept as test oracles.

These are the bisecting point reader and the midpoint piece reader that the
package used before its one grid walk (`excursions._on_grid`), and the cut
set that compared every pl piece with every level before the cuts bisected
into the sorted levels. Tests compare the package's readers against them,
so they must not call the package's own `evaluate`, `infimum`, grid reader
or cut set.
"""

from bisect import bisect_right

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
