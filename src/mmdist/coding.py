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

Both kinds read h once on the cut set (`excursions._on_grid`): the cut
values are h at the cuts, and a segment's height is the value at its
midpoint, which is the mean of h's limits at the segment's ends (pl) or the
piece value (pc). Resolution points join the cuts of either kind, each
checked to lie in [0, 1] in the order given.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ValidationError
from .exact import parse_scalar, scaled_rows
from .excursions import Excursion, _on_grid, normalize
from .spaces import FiniteMMSpace, _class_roots, _mark_canonical


@dataclass(frozen=True)
class CodedTree:
    space: FiniteMMSpace  # canonical by construction
    segments: tuple  # (start, end) per segment, a partition of [0, 1]
    projection: tuple  # segment index -> point index in space
    representatives: tuple  # representative time per segment
    resolution_bound: object


def pl_cut_points(h: Excursion, resolution=()) -> tuple:
    """Cut set for coding an excursion: breakpoints, pl level crossings, extras.

    Levels are the breakpoint values themselves; every pairwise path infimum
    of a pl function is attained at a breakpoint, so these are exactly the
    critical levels. Resolution points are checked in the order given.
    """
    h = normalize(h)
    bps = h.breakpoints
    values = h.values
    cuts = set()
    if h.kind == "pl":
        levels = sorted(set(values))
        for k in range(len(bps) - 1):
            v0, v1 = values[k], values[k + 1]
            # the levels strictly between v0 and v1
            lo, hi = bisect_right(levels, min(v0, v1)), bisect_left(levels, max(v0, v1))
            for level in levels[lo:hi]:
                cuts.add(bps[k] + (level - v0) * (bps[k + 1] - bps[k]) / (v1 - v0))
    for r in resolution:
        r = parse_scalar(r)
        if not (0 <= r <= 1):
            raise ValidationError(f"resolution point {r} outside [0, 1]")
        cuts.add(r)
    return tuple(sorted(cuts.union(bps))) if cuts else bps


def _merge_to_space(d, lengths):
    """Quotient by d == 0 (leftmost representative), weights summed.

    Marked canonical, as it is by construction when d is d_h on segment
    midpoints (a pseudometric, in Fractions) and `lengths` partition [0, 1]:
    the merged matrix is a metric with no zero off the diagonal, and the
    weights are positive and sum to 1.
    """
    m = len(lengths)
    roots = _class_roots(m, ((i, j) for i in range(m) for j in range(i + 1, m) if d[i][j] == 0))
    classes = sorted(set(roots))
    index_of = {r: k for k, r in enumerate(classes)}
    projection = tuple(index_of[r] for r in roots)
    weights = [Fraction(0)] * len(classes)
    for k, length in zip(projection, lengths):
        weights[k] += length
    space = FiniteMMSpace(
        labels=tuple(f"s{r}" for r in classes),
        dist=tuple(tuple(d[a][b] for b in classes) for a in classes),
        weights=tuple(weights),
    )
    return _mark_canonical(space), projection


def code_excursion(h: Excursion, resolution=()) -> CodedTree:
    h = normalize(h)
    cuts = pl_cut_points(h, resolution)
    # cutvals[j], h at the cut between segments j - 1 and j, is the inf of h
    # across that cut: pl is continuous, and a valid pc breakpoint value is at
    # most both neighbouring pieces
    cutvals, pieces = _on_grid(h, cuts)
    if h.kind == "pc":  # constant on each segment
        heights, bound = [left for left, _ in pieces], Fraction(0)
    else:
        heights = [(left + right) / 2 for left, right in pieces]  # at the midpoints
        bound = max((abs(right - left) for left, right in pieces), default=Fraction(0))
    m = len(heights)
    d = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        run_min = heights[i]
        for j in range(i + 1, m):
            run_min = min(run_min, cutvals[j])  # cut between segment j-1 and j
            inf_ij = min(run_min, heights[j])
            d[i][j] = d[j][i] = heights[i] + heights[j] - 2 * inf_ij
    lengths = [cuts[k + 1] - cuts[k] for k in range(m)]
    space, projection = _merge_to_space(d, lengths)
    return CodedTree(
        space=space,
        segments=tuple((cuts[k], cuts[k + 1]) for k in range(m)),
        projection=projection,
        representatives=tuple((cuts[k] + cuts[k + 1]) / 2 for k in range(m)),
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
    (d,), _ = scaled_rows(space.dist)
    violations = []
    for i, j, k, l in combinations(range(n), 4):
        s1 = d[i][j] + d[k][l]
        s2 = d[i][k] + d[j][l]
        s3 = d[i][l] + d[j][k]
        top = max(s1, s2, s3)
        if (s1 == top) + (s2 == top) + (s3 == top) < 2:
            violations.append((i, j, k, l))
    return violations
