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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ValidationError
from .exact import parse_scalar, scaled_rows
from .excursions import Excursion, evaluate, normalize
from .spaces import FiniteMMSpace, _class_roots


@dataclass(frozen=True)
class CodedTree:
    space: FiniteMMSpace  # canonical by construction
    segments: tuple  # (start, end) per segment, a partition of [0, 1]
    projection: tuple  # segment index -> point index in space
    representatives: tuple  # representative time per segment
    resolution_bound: object


def pl_cut_points(h: Excursion, resolution=()) -> tuple:
    """Cut set for coding a pl excursion: breakpoints, level crossings, extras.

    Levels are the breakpoint values themselves; every pairwise path infimum
    of a pl function is attained at a breakpoint, so these are exactly the
    critical levels.
    """
    h = normalize(h)
    bps = h.breakpoints
    values = h.values
    cuts = set(bps)
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
    return tuple(sorted(cuts))


def _merge_to_space(d, lengths):
    """Quotient by d == 0 (leftmost representative), weights summed."""
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
    return space, projection


def code_excursion(h: Excursion, resolution=()) -> CodedTree:
    h = normalize(h)
    if h.kind == "pc":
        return _code_pc(h, resolution)
    return _code_pl(h, resolution)


def _code_pc(h: Excursion, resolution) -> CodedTree:
    bps = list(h.breakpoints)
    pvals = list(h.values)
    bvals = list(h.breakpoint_values)
    extras = set(map(parse_scalar, resolution))
    for r in sorted(extras):
        if not (0 <= r <= 1):
            raise ValidationError(f"resolution point {r} outside [0, 1]")
        if r in bps:
            continue
        k = next(i for i in range(len(bps) - 1) if bps[i] < r < bps[i + 1])
        bps.insert(k + 1, r)
        pvals.insert(k + 1, pvals[k])  # split piece, same value both sides
        bvals.insert(k + 1, pvals[k])  # function unchanged at the new cut

    # pieces are the segments; a valid breakpoint value is at most both
    # neighbouring pieces, so it alone is the inf across its cut
    return _coded_tree(bps, bvals, pvals, Fraction(0))


def _code_pl(h: Excursion, resolution) -> CodedTree:
    cuts = pl_cut_points(h, resolution)
    cutvals = [evaluate(h, c) for c in cuts]
    heights = [evaluate(h, (cuts[k] + cuts[k + 1]) / 2) for k in range(len(cuts) - 1)]
    bound = max(
        (abs(cutvals[k + 1] - cutvals[k]) for k in range(len(heights))), default=Fraction(0)
    )
    return _coded_tree(cuts, cutvals, heights, bound)


def _coded_tree(cuts, cutvals, heights, bound) -> CodedTree:
    """The coded tree of the segments [cuts[k], cuts[k + 1]], given the
    height of each segment's midpoint and, as cutvals[j], the inf of h
    across the cut between segments j - 1 and j."""
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
