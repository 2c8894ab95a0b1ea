"""Gluing two mm-spaces along a correspondence and the induced upper bound.

A correspondence K with distortion(K) <= 2*eps defines a pseudometric on the
disjoint union that keeps both originals isometrically embedded and sets

    w(x, y) = min over (x', y') in K of  d_A(x, x') + eps + d_B(y', y).

The Prohorov distance between the two pushed-forward measures inside the
glued space depends only on the cross block (any coupling of the two
block-supported measures lives on A x B), and glued_upper_bound minimizes
that value over a finite family: each maximal clique from the sweep shared
with box_lambda, at two eps values. A clique first yielded at threshold t
has distortion exactly t (were it t' < t, the clique would be maximal at the
earlier threshold t' and yielded there), so it is glued at eps1 = t/2 with
no distortion recomputed, and at eps2 = max(eps1, 1 - maxmass), maxmass
flowed on int-scaled weights; both eps are rebuilt as Fractions. This
reproduces the Gromov-Prohorov value exactly; seeded random glues (repaired
to triangle validity) can only lower the reported minimum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .exact import parse_scalar
from .flow import max_subcoupling
from .gromov import DEFAULT_CLIQUE_LIMIT, _CliqueSweep, _exact, _scaled, distortion
from .prohorov import CommonSpaceMeasures, _scan_infimum
from .spaces import FiniteMMSpace, canonicalize, require_valid


@dataclass(frozen=True)
class GluedSpace:
    """Pseudometric on the disjoint union of two spaces with both measures.

    dist is the full (n1 + n2) square matrix; points 0..n1-1 carry mu_ext
    (the first measure), points n1.. carry nu_ext. eps and pairs record the
    construction when the glue came from a correspondence.
    """

    n1: int
    n2: int
    dist: tuple
    mu_ext: tuple
    nu_ext: tuple
    eps: object = None
    pairs: tuple = None

    def cross(self):
        return tuple(row[self.n1 :] for row in self.dist[: self.n1])


@dataclass(frozen=True)
class GlueSearchResult:
    value: object
    eps: object
    pairs: tuple  # None when the witness is a repaired random glue
    source: str
    evaluations: int


def _cross_from_pairs(a: FiniteMMSpace, b: FiniteMMSpace, pairs, eps):
    return tuple(
        tuple(
            min(a.dist[x][p] + eps + b.dist[q][y] for p, q in pairs)
            for y in range(b.n)
        )
        for x in range(a.n)
    )


def _assemble(a, b, cross, eps=None, pairs=None) -> GluedSpace:
    n1, n2 = a.n, b.n
    rows = []
    for x in range(n1):
        rows.append(tuple(a.dist[x]) + tuple(cross[x]))
    for y in range(n2):
        rows.append(tuple(cross[x][y] for x in range(n1)) + tuple(b.dist[y]))
    zero = Fraction(0)
    return GluedSpace(
        n1=n1,
        n2=n2,
        dist=tuple(rows),
        mu_ext=tuple(a.weights) + (zero,) * n2,
        nu_ext=(zero,) * n1 + tuple(b.weights),
        eps=eps,
        pairs=tuple(pairs) if pairs is not None else None,
    )


def build_glued_space(a: FiniteMMSpace, b: FiniteMMSpace, pairs, eps) -> GluedSpace:
    """Glue along `pairs` at width `eps`; requires distortion(pairs) <= 2*eps."""
    require_valid(a)
    require_valid(b)
    if isinstance(eps, (str, int)):
        eps = parse_scalar(eps)
    if eps < 0:
        raise ValidationError("eps must be nonnegative")
    pairs = tuple(sorted(set(map(tuple, pairs))))
    if not pairs:
        raise ValidationError("need at least one pair to glue along")
    for i, j in pairs:
        if not (0 <= i < a.n and 0 <= j < b.n):
            raise ValidationError(f"pair ({i}, {j}) out of range")
    dis = distortion(pairs, a, b)
    if dis > 2 * eps:
        raise ValidationError(
            f"correspondence distortion {dis} exceeds 2*eps = {2 * eps}"
        )
    return _assemble(a, b, _cross_from_pairs(a, b, pairs, eps), eps, pairs)


def check_triangle(glued: GluedSpace) -> list:
    """All (i, j, k) with dist[i][j] > dist[i][k] + dist[k][j], exact."""
    d = glued.dist
    n = len(d)
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][j] > d[i][k] + d[k][j]:
                    out.append((i, j, k))
    return out


def prohorov_of_glue(glued: GluedSpace):
    """Prohorov distance of the two embedded measures inside the glued space."""
    return _prohorov_cross(glued.cross(), glued.mu_ext[: glued.n1], glued.nu_ext[glued.n1 :])


def glued_common_space(glued: GluedSpace) -> CommonSpaceMeasures:
    """The same data as a generic common-space instance (for cross-checks)."""
    return CommonSpaceMeasures(glued.dist, glued.mu_ext, glued.nu_ext)


def _prohorov_cross(cross, mu, nu):
    """Prohorov via couplings that only ever charge cross cells.

    Equals the generic flow route on the full glued matrix: a coupling of
    the two block-supported measures is supported on cross cells, so only
    cross distances decide feasibility at each threshold.
    """
    n1, n2 = len(mu), len(nu)
    values = sorted({cross[i][j] for i in range(n1) for j in range(n2)})
    zero = Fraction(0)
    boundaries = values if values and values[0] == 0 else [zero] + values

    flow_cache = {}

    def t_of_piece(j):
        if j not in flow_cache:
            u = boundaries[j]
            allowed = [
                (i, k) for i in range(n1) for k in range(n2) if cross[i][k] <= u
            ]
            flow_cache[j], _ = max_subcoupling(mu, nu, allowed)
        return 1 - flow_cache[j]

    return _scan_infimum(boundaries, t_of_piece)


def repaired_random_cross(a: FiniteMMSpace, b: FiniteMMSpace, rng: random.Random):
    """Random cross matrix made triangle-valid in two exact steps.

    Tighten each entry through one cross hop (w <- min d_A + w + d_B), which
    settles every triangle with the cross edge on the long side; then add
    half the worst remaining within-block violation uniformly to all cross
    entries, which fixes the reverse pattern without breaking the first.
    """
    n1, n2 = a.n, b.n
    diam = max(
        [x for row in a.dist for x in row] + [x for row in b.dist for x in row] + [1]
    )
    grid = 8
    w0 = [
        [diam * Fraction(rng.randint(1, 2 * grid), grid) for _ in range(n2)]
        for _ in range(n1)
    ]
    w1 = [
        [
            min(
                a.dist[x][p] + w0[p][q] + b.dist[q][y]
                for p in range(n1)
                for q in range(n2)
            )
            for y in range(n2)
        ]
        for x in range(n1)
    ]
    bump = Fraction(0)
    for x in range(n1):
        for x2 in range(n1):
            for y in range(n2):
                gap = a.dist[x][x2] - w1[x][y] - w1[x2][y]
                if gap > 2 * bump:
                    bump = gap / 2
    for y in range(n2):
        for y2 in range(n2):
            for x in range(n1):
                gap = b.dist[y][y2] - w1[x][y] - w1[x][y2]
                if gap > 2 * bump:
                    bump = gap / 2
    if bump > 0:
        w1 = [[w + bump for w in row] for row in w1]
    return tuple(tuple(row) for row in w1)


def glued_upper_bound(
    a: FiniteMMSpace,
    b: FiniteMMSpace,
    search_budget: int = 32,
    seed: int = 0,
    clique_limit: int = DEFAULT_CLIQUE_LIMIT,
) -> GlueSearchResult:
    """Minimum embedded-Prohorov value over the searched family of glues.

    Deterministic for fixed arguments. The search walks distortion
    thresholds t in ascending order and stops once eps = t/2 alone can no
    longer beat the incumbent (the glue's Prohorov value is never below its
    eps); each maximal clique is glued at eps = t/2 and at the
    mass-balancing eps = max(t/2, 1 - maxmass). `search_budget` counts the
    extra seeded random glues.
    """
    A = _exact(canonicalize(a))
    B = _exact(canonicalize(b))
    cells = [(i, j) for i in range(A.n) for j in range(B.n)]
    sweep = _CliqueSweep(A, B, cells)
    weights, W = _scaled(A.weights + B.weights)

    best = None
    best_eps = None
    best_pairs = None
    best_source = None
    evaluations = 0

    def try_glue(pairs, eps, source):
        nonlocal best, best_eps, best_pairs, best_source, evaluations
        cross = _cross_from_pairs(A, B, pairs, eps)
        value = _prohorov_cross(cross, A.weights, B.weights)
        evaluations += 1
        if best is None or value < best:
            best, best_eps, best_pairs, best_source = value, eps, tuple(pairs), source

    # the full grid's distortion is the largest threshold
    try_glue(tuple(cells), Fraction(sweep.thresholds[-1], 2 * sweep.D), "full")

    # a clique glue's value is never below its eps1 = t / (2 D)
    for t, mask in sweep.cliques(clique_limit, lambda t: t >= 2 * sweep.D * best):
        pairs = sweep.pairs(mask)
        eps1 = Fraction(t, 2 * sweep.D)
        mass = max_subcoupling(weights[: A.n], weights[A.n :], pairs)[0]
        eps2 = max(eps1, 1 - Fraction(mass, W))
        try_glue(pairs, eps1, "clique")
        if eps2 != eps1 and eps2 < best:
            try_glue(pairs, eps2, "clique")

    rng = random.Random(seed)
    for _ in range(search_budget):
        cross = repaired_random_cross(A, B, rng)
        value = _prohorov_cross(cross, A.weights, B.weights)
        evaluations += 1
        if value < best:
            best, best_eps, best_pairs, best_source = value, None, None, "random"

    return GlueSearchResult(best, best_eps, best_pairs, best_source, evaluations)
