"""Gluing two mm-spaces along a correspondence and the induced upper bound.

A correspondence K with distortion(K) <= 2*eps defines a pseudometric on the
disjoint union that keeps both originals isometrically embedded and sets

    w(x, y) = min over (x', y') in K of  d_A(x, x') + eps + d_B(y', y).

The Prohorov distance between the two pushed-forward measures inside the
glued space depends only on the cross block (any coupling of the two
block-supported measures lives on A x B). Glued at eps = dis(K)/2, K's own
cells sit at cross distance eps and carry maxmass(K), so the glue's value is
at most max(eps, 1 - maxmass(K)) = box_{1/2}(K) / 2. Every glue's value is
at least gp, the infimum over all embeddings. So glued_upper_bound needs no
search: the glue of gp's own witness, the lam = 1/2 correspondence
`gromov.box_ladder` returns, attains gp = box_{1/2} / 2 exactly. Past the
search budget it is a glue of the ladder's incumbent, or of the full grid
when no candidate beat the empty correspondence: a certified upper bound on
gp, but no longer equal to it. The glue reuses the ladder's prepared pair
(`gromov._Pair`: the carried int forms, distances over D and weights over
W) and is valued by the int scan `prohorov._flow_scan`. `build_glued_space`
reads the int forms that `spaces.require_valid` returns and puts them over
one D with `spaces.paired_forms`, so no space is scaled from Fractions.
`build_glued_space` and the witness glue both build the int cross block
with `_cross_block`. The GluedSpace `build_glued_space` returns carries
that block and both spaces' int weights, which `prohorov_of_glue` scans as
they are; a hand-built glue is scanned from `prohorov._block` of its
entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .errors import ValidationError
from .exact import parse_scalar
from .gromov import DEFAULT_SEARCH_BUDGET, _Budget, _caller_cells, _int_distortion, _ladder
from .prohorov import CommonSpaceMeasures, _block, _flow_scan
from .spaces import FiniteMMSpace, metric_violations, paired_forms, require_valid


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
    # the cross block's `prohorov._flow_scan` arguments (rows, D, mu, nu, W)
    # of a glue `build_glued_space` made, else None
    _block: tuple = field(default=None, init=False, compare=False, repr=False)

    def cross(self):
        return tuple(row[self.n1 :] for row in self.dist[: self.n1])


@dataclass(frozen=True)
class GlueSearchResult:
    value: object
    eps: object
    pairs: tuple
    source: str  # "full" when pairs is the whole cell grid, else "clique"
    evaluations: int  # always 1, one glue valued; kept for callers that count it
    exact: bool  # False past the search budget, where value only bounds gp; 0 is exact


def _cross_block(da, db, D, pairs, eps):
    """The glue's cross block, min over (i, j) in pairs of
    da[x][i] + eps + db[j][y], as int rows over D * eps.denominator, and that
    denominator; da and db are int distances over D."""
    q = eps.denominator
    shift = eps.numerator * D
    cols = [[row[j] * q for i, j in pairs] for row in db]  # db is symmetric
    out = []
    for row in da:
        ax = [row[i] * q + shift for i, j in pairs]
        out.append([min(map(add, ax, col)) for col in cols])
    return out, D * q


def build_glued_space(a: FiniteMMSpace, b: FiniteMMSpace, pairs, eps) -> GluedSpace:
    """Glue along `pairs` at width `eps`; requires distortion(pairs) <= 2*eps."""
    forms = require_valid(a), require_valid(b)
    eps = parse_scalar(eps)
    if eps < 0:
        raise ValidationError("eps must be nonnegative")
    # an empty list passes the range check, so its own message still wins
    pairs = _caller_cells(pairs, a.n, b.n, "pair")
    if not pairs:
        raise ValidationError("need at least one pair to glue along")
    (da, db), D, (wa, wb), W = paired_forms(*forms)
    dis = _int_distortion(da, db, pairs)  # over D
    if dis * eps.denominator > 2 * eps.numerator * D:
        raise ValidationError(
            f"correspondence distortion {Fraction(dis, D)} exceeds 2*eps = {2 * eps}"
        )
    block, den = _cross_block(da, db, D, pairs, eps)
    cross = [[Fraction(x, den) for x in row] for row in block]
    rows = [tuple(a.dist[x]) + tuple(cross[x]) for x in range(a.n)]
    rows += [tuple(row[y] for row in cross) + tuple(b.dist[y]) for y in range(b.n)]
    zero = Fraction(0)
    glued = GluedSpace(
        n1=a.n,
        n2=b.n,
        dist=tuple(rows),
        mu_ext=tuple(a.weights) + (zero,) * b.n,
        nu_ext=(zero,) * a.n + tuple(b.weights),
        eps=eps,
        pairs=pairs,
    )
    object.__setattr__(glued, "_block", (block, den, wa, wb, W))  # frozen
    return glued


def check_triangle(glued: GluedSpace) -> list:
    """All (i, j, k) with dist[i][j] > dist[i][k] + dist[k][j], exact."""
    return [(i, j, k) for kind, i, j, k in metric_violations(glued.dist) if kind == "triangle"]


def prohorov_of_glue(glued: GluedSpace):
    """Prohorov distance of the two embedded measures inside the glued space.

    Computed on the cross block alone: a coupling of the two block-supported
    measures is supported on cross cells, so only cross distances decide
    feasibility at each threshold (tested against the generic flow route on
    the full glued matrix). A glue `build_glued_space` made is scanned from
    the int block it carries; a hand-built one has its entries scaled.
    """
    block = glued._block
    if block is None:
        block = _block(glued.cross(), glued.mu_ext[: glued.n1], glued.nu_ext[glued.n1 :])
    return _flow_scan(*block)


def glued_common_space(glued: GluedSpace) -> CommonSpaceMeasures:
    """The same data as a generic common-space instance (for cross-checks)."""
    return CommonSpaceMeasures(glued.dist, glued.mu_ext, glued.nu_ext)


def _glued_ladder(a, b, lams, budget):
    """`gromov.box_ladder(a, b, lams, budget)` and the GlueSearchResult of its
    lam = 1/2 witness K, glued at eps = dis(K) / 2; `lams` must hold 1/2."""
    boxes, P = _ladder(a, b, lams, _Budget(budget))
    half = next(box for box in boxes if box.lam == Fraction(1, 2))
    # an exact search's witness is nonempty (a single cell of positive mass
    # beats the empty correspondence), but past the budget no candidate may
    # have beaten it; then glue the full grid, whose value is at most 1
    pairs = half.pairs or tuple(P.cells)
    eps = Fraction(_int_distortion(P.da, P.db, pairs), 2 * P.D)
    value = _flow_scan(*_cross_block(P.da, P.db, P.D, pairs, eps), P.wa, P.wb, P.W)
    source = "full" if len(pairs) == len(P.cells) else "clique"
    return boxes, GlueSearchResult(value, eps, pairs, source, 1, half.exact)


def glued_upper_bound(
    a: FiniteMMSpace,
    b: FiniteMMSpace,
    budget: int = DEFAULT_SEARCH_BUDGET,
    *,
    search_budget: int = 0,
) -> GlueSearchResult:
    """The glue of the Gromov-Prohorov witness and its embedded-Prohorov value.

    Deterministic. One lam = 1/2 search, gp's own (see `gromov.box_ladder`,
    which spends `budget`), then one glue of its witness K at eps = dis(K)/2,
    whose value equals gp when the search is exact. Past the budget K is
    the search's incumbent (the full grid, source "full", if that is still
    the empty correspondence), and the result, marked exact=False, is a
    certified upper bound on gp; an incumbent of box 0 is optimal all the
    same, and its glue is marked exact=True. `evaluations` is always 1 and
    `search_budget` is accepted only as 0; both stay for callers written
    when the glue was searched (the bench counts one and passes the other).
    """
    if search_budget != 0:
        raise ValidationError(f"search_budget: expected 0, got {search_budget!r}")
    return _glued_ladder(a, b, (Fraction(1, 2),), budget)[1]
