"""Gluing two mm-spaces along a correspondence and the induced upper bound.

A correspondence K with distortion(K) <= 2*eps defines a pseudometric on the
disjoint union that keeps both originals isometrically embedded and sets

    w(x, y) = min over (x', y') in K of  d_A(x, x') + eps + d_B(y', y).

The Prohorov distance between the two pushed-forward measures inside the
glued space depends only on the cross block (any coupling of the two
block-supported measures lives on A x B), and glued_upper_bound minimizes
that value over a finite family: each maximal clique from the sweep shared
with box_lambda, glued at eps = t/2. A clique yielded at threshold t has
distortion exactly t (see `gromov._CliqueSweep.cliques`), so no distortion
is recomputed. This reproduces the Gromov-Prohorov value exactly, and no
other glue can do better: gp is the infimum over all embeddings, so every
glue's value is at least gp, and gluing a maximal clique K at
eps = max(dis(K)/2, 1 - maxmass(K)) attains gp = box_{1/2} / 2. That glue
is never needed: K glued at dis(K)/2 already has a value at most that eps
(its clique cells sit at cross distance dis(K)/2 and carry maxmass). The
sweep skips a clique that a swap of twin points maps onto an earlier one,
whose glue is isometric to it.

The search starts from the prepared pair gp's search uses (`gromov._Pair`):
both spaces canonicalized once, distances as int rows over one denominator
D and weights over another, W. Every glue it values is built on those rows
and valued by the shared int scan `prohorov._flow_scan`; Fractions are
rebuilt only for eps, for each value and at the public functions' boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import ValidationError
from .exact import parse_scalar, scaled_rows
from .gromov import DEFAULT_SEARCH_BUDGET, _Budget, _CliqueSweep, _Pair, distortion
from .prohorov import CommonSpaceMeasures, _flow_scan, _prohorov_block
from .spaces import FiniteMMSpace, metric_violations, require_valid


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
    pairs: tuple
    source: str  # "full" or "clique"
    evaluations: int


def _cross_from_pairs(da, db, pairs):
    """Int cross block min over (p, q) in pairs of da[x][p] + db[q][y].

    On distances over a common denominator D this is the glue's cross block
    less its eps, over D; `_shifted` adds the eps.
    """
    cols = [[row[q] for p, q in pairs] for row in db]  # db is symmetric
    out = []
    for row in da:
        ax = [row[p] for p, q in pairs]
        out.append([min(map(add, ax, col)) for col in cols])
    return out


def _shifted(base, D, eps):
    """Int rows of base / D + eps, and their denominator D * eps.denominator."""
    p, q = eps.numerator, eps.denominator
    shift = p * D
    return [[x * q + shift for x in row] for row in base], D * q


def build_glued_space(a: FiniteMMSpace, b: FiniteMMSpace, pairs, eps) -> GluedSpace:
    """Glue along `pairs` at width `eps`; requires distortion(pairs) <= 2*eps."""
    require_valid(a)
    require_valid(b)
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
    (da, db), D = scaled_rows(a.dist, b.dist)
    cross, den = _shifted(_cross_from_pairs(da, db, pairs), D, eps)
    cross = [[Fraction(x, den) for x in row] for row in cross]
    rows = [tuple(a.dist[x]) + tuple(cross[x]) for x in range(a.n)]
    rows += [tuple(row[y] for row in cross) + tuple(b.dist[y]) for y in range(b.n)]
    zero = Fraction(0)
    return GluedSpace(
        n1=a.n,
        n2=b.n,
        dist=tuple(rows),
        mu_ext=tuple(a.weights) + (zero,) * b.n,
        nu_ext=(zero,) * a.n + tuple(b.weights),
        eps=eps,
        pairs=pairs,
    )


def check_triangle(glued: GluedSpace) -> list:
    """All (i, j, k) with dist[i][j] > dist[i][k] + dist[k][j], exact."""
    return [(i, j, k) for kind, i, j, k in metric_violations(glued.dist) if kind == "triangle"]


def prohorov_of_glue(glued: GluedSpace):
    """Prohorov distance of the two embedded measures inside the glued space.

    Computed on the cross block alone: a coupling of the two block-supported
    measures is supported on cross cells, so only cross distances decide
    feasibility at each threshold (tested against the generic flow route on
    the full glued matrix).
    """
    return _prohorov_block(glued.cross(), glued.mu_ext[: glued.n1], glued.nu_ext[glued.n1 :])


def glued_common_space(glued: GluedSpace) -> CommonSpaceMeasures:
    """The same data as a generic common-space instance (for cross-checks)."""
    return CommonSpaceMeasures(glued.dist, glued.mu_ext, glued.nu_ext)


def glued_upper_bound(
    a: FiniteMMSpace,
    b: FiniteMMSpace,
    budget: int = DEFAULT_SEARCH_BUDGET,
    *,
    search_budget: int = 0,
) -> GlueSearchResult:
    """Minimum embedded-Prohorov value over the searched family of glues.

    Deterministic. The search walks distortion thresholds t in ascending
    order and stops once eps = t/2 alone can no longer beat the incumbent
    (the glue's Prohorov value is never below its eps); each maximal clique
    is glued at eps = t/2. It spends from `budget` as gp's search does (see
    `gromov._Budget`) and never needs more: a clique's glue value is at most
    half its box_{1/2} value, so it stops the shared sweep no later. Past
    the budget it raises SizeError. `search_budget` is accepted only as 0.
    """
    # bench/workloads.py (excursion-pairs check) still passes search_budget=0
    if search_budget != 0:
        raise ValidationError(f"search_budget: expected 0, got {search_budget!r}")
    P = _Pair(a, b)
    mu, nu, D, W = P.wa, P.wb, P.D, P.W
    sweep = _CliqueSweep(P.da, P.db, P.cells, _Budget(budget), (mu, nu))

    best = None  # (value, eps, pairs, source)
    evaluations = 0

    def try_glue(pairs, eps, source):
        nonlocal best, evaluations
        value = _flow_scan(*_shifted(_cross_from_pairs(P.da, P.db, pairs), D, eps), mu, nu, W)
        evaluations += 1
        if best is None or value < best[0]:
            best = (value, eps, pairs, source)

    # the full grid's distortion is the larger diameter
    try_glue(tuple(P.cells), Fraction(P.diam, 2 * D), "full")

    # a clique glue's value is never below its eps = t / (2 D)
    for t, mask in sweep.cliques(lambda t: t >= 2 * D * best[0]):
        try_glue(sweep.pairs(mask), Fraction(t, 2 * D), "clique")

    return GlueSearchResult(*best, evaluations)
