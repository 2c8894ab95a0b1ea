"""Coding an excursion into the finite weighted tree metric it spans.

The coded object is the quotient of [0, 1] by the excursion's tree
pseudometric d_h(s, t) = h(s) + h(t) - 2 inf h|[s, t], restricted to a
finite partition into segments and weighted by segment length. Segment
representatives are midpoints; because every segment is monotone (cuts sit
at all breakpoints and at every crossing of a breakpoint-value level), the
restriction of d_h to midpoints reduces to a finite min over the cut values
between them, so the output matrix is the exact d_h on those points.

For piecewise-constant excursions one point per open piece codes the tree
exactly (pieces are d_h-null in themselves, breakpoints carry no mass), and
the reported resolution certificate is 0. For piecewise-linear excursions
the certificate is the maximum height variation over a segment, which
bounds twice the sup-distance between h and its midpoint snap, hence the
distance to the full tree.

Both kinds are coded in ints, through `excursions`' int form: one
`_int_excursions` puts h and the resolution points over one denominator;
the cuts, pl level crossings included, then go over one multiple of it
(`_int_cuts`), and h is read once on them (`_on_int_grid`): the cut values
are h at the cuts, and a segment's height is the value at its midpoint,
which is the mean of h's limits at the segment's ends (pl, so heights are
over twice the values' denominator) or the piece value (pc). The running
minimum across the cuts runs on those ints, and Fractions are built only
for the coded tree: one per distinct distance, weight, cut and
representative. The coded space is the quotient of the int matrix by
distance 0, with the segment lengths summed per class (`spaces._quotient`,
which `canonicalize` shares), and it carries that int form, so the box
search reads it as it is.
Resolution points join the cuts of either kind, each checked to lie in
[0, 1] in the order given.

The distances over m segments form a dense m x m matrix, so coding
refuses, with SizeError, a cut set of more than MAX_CODING_SEGMENTS
segments, counted before h is read on the cuts. The cut count grows with
pieces times crossed levels: a pl excursion of 250 pieces at levels k/50
has about 4 300 segments and codes in seconds and half a gigabyte, one of
1 000 pieces about 17 000 and would need several gigabytes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import SizeError, ValidationError
from .exact import parse_scalar
from .excursions import Excursion, _int_excursions, _on_int_grid, normalize
from .spaces import FiniteMMSpace, _quotient, int_form

MAX_CODING_SEGMENTS = 5000


@dataclass(frozen=True)
class CodedTree:
    space: FiniteMMSpace  # canonical by construction
    segments: tuple  # (start, end) per segment, a partition of [0, 1]
    projection: tuple  # segment index -> point index in space
    representatives: tuple  # representative time per segment
    resolution_bound: object


def _int_cuts(h: Excursion, resolution=()):
    """The cut set of a normalized excursion in ints: (cuts, den, grid, value_den).

    The cuts are ascending ints over den, and grid is h with int fields, its
    breakpoints over den too and its values over value_den.
    `_int_excursions` puts h and the resolution points over one
    denominator, value_den; a pl level crossing
    b0 + (level - v0)(b1 - b0)/(v1 - v0) is then over value_den (v1 - v0),
    and den is value_den times the lcm of the crossings' denominators in
    lowest terms.
    """
    points = []
    for r in resolution:
        r = parse_scalar(r)
        if not (0 <= r <= 1):
            raise ValidationError(f"resolution point {r} outside [0, 1]")
        points.append(r)
    (h,), points, den = _int_excursions(h, extra=points)
    bps, vals = h.breakpoints, h.values
    crossings = []
    if h.kind == "pl":
        levels = sorted(set(vals))
        for b0, b1, v0, v1 in zip(bps, bps[1:], vals, vals[1:]):
            # the levels strictly between v0 and v1
            lo, hi = bisect_right(levels, min(v0, v1)), bisect_left(levels, max(v0, v1))
            for level in levels[lo:hi]:
                num, q = b0 * (v1 - v0) + (level - v0) * (b1 - b0), v1 - v0
                g = gcd(num, q)
                crossings.append((num // g, q // g))  # q may be negative; m // q keeps the sign
    m = lcm(*(q for _, q in crossings))
    bps = [b * m for b in bps]
    cuts = set(bps).union(r * m for r in points).union(num * (m // q) for num, q in crossings)
    return sorted(cuts), den * m, Excursion(h.kind, bps, vals, h.breakpoint_values), den


def pl_cut_points(h: Excursion, resolution=()) -> tuple:
    """Cut set for coding an excursion: breakpoints, pl level crossings, extras.

    Levels are the breakpoint values themselves; every pairwise path infimum
    of a pl function is attained at a breakpoint, so these are exactly the
    critical levels. Resolution points are checked in the order given.
    """
    cuts, den, _, _ = _int_cuts(normalize(h), resolution)
    return tuple(Fraction(c, den) for c in cuts)


def code_excursion(h: Excursion, resolution=()) -> CodedTree:
    h = normalize(h)
    cuts, cut_den, grid, den = _int_cuts(h, resolution)
    if len(cuts) - 1 > MAX_CODING_SEGMENTS:
        raise SizeError(
            f"{len(cuts) - 1} segments exceeds the coding cap {MAX_CODING_SEGMENTS}"
        )
    # cutvals[j], h at the cut between segments j - 1 and j, is the inf of h
    # across that cut: pl is continuous, and a valid pc breakpoint value is at
    # most both neighbouring pieces
    cutvals, pieces, scale = _on_int_grid(grid, cuts)
    den *= scale
    if h.kind == "pc":  # constant on each segment
        heights, bound = [left for left, _ in pieces], Fraction(0)
    else:  # at the midpoints, (left + right) / 2, so over 2 den
        heights = [left + right for left, right in pieces]
        bound = Fraction(max(abs(right - left) for left, right in pieces), den)
        cutvals, den = [2 * v for v in cutvals], 2 * den
    m = len(heights)
    d = [[0] * m for _ in range(m)]
    for i, hi in enumerate(heights):
        run_min = hi
        for j in range(i + 1, m):
            run_min = min(run_min, cutvals[j])  # cut between segment j-1 and j
            hj = heights[j]
            d[i][j] = d[j][i] = hi + hj - 2 * min(run_min, hj)
    lengths = [b - a for a, b in zip(cuts, cuts[1:])]
    # d is d_h on the midpoints, a pseudometric, and the lengths are positive
    space, roots, reps = _quotient([f"s{i}" for i in range(m)], d, den, lengths, cut_den)
    index_of = {r: k for k, r in enumerate(reps)}
    times = [Fraction(c, cut_den) for c in cuts]
    return CodedTree(
        space=space,
        segments=tuple(zip(times, times[1:])),
        projection=tuple(index_of[r] for r in roots),
        representatives=tuple(Fraction(a + b, 2 * cut_den) for a, b in zip(cuts, cuts[1:])),
        resolution_bound=bound,
    )


def four_point_check(space: FiniteMMSpace) -> list:
    """Quadruples (i, j, k, l) violating the four-point condition, exact.

    Of the three pairing sums d(ij)+d(kl), d(ik)+d(jl), d(il)+d(jk) the two
    largest must coincide. Quadruples with repeated indices reduce to the
    triangle inequality, which space validation covers, so only distinct
    quadruples are scanned; spaces with fewer than 4 points return [].
    """
    n = space.n
    d = int_form(space)[0]
    violations = []
    for i, j, k, l in combinations(range(n), 4):
        s1 = d[i][j] + d[k][l]
        s2 = d[i][k] + d[j][l]
        s3 = d[i][l] + d[j][k]
        top = max(s1, s2, s3)
        if (s1 == top) + (s2 == top) + (s3 == top) < 2:
            violations.append((i, j, k, l))
    return violations
