"""Prohorov distance between two measures on one finite (pseudo)metric space.

Two independent routes are provided and kept intentionally separate:

* `prohorov_bruteforce` works straight from the definition
  inf { eps > 0 : mu(A) <= nu(A^eps) + eps for all A }, with the strict
  enlargement A^eps = { x : d(A, x) < eps }, enumerating all 2^n subsets.
* `prohorov_flow` uses the coupling characterization
  inf { eps : some coupling puts mass >= 1 - eps on { d < eps } }. It walks
  the distance thresholds in ascending order with one incremental max-flow
  (`flow.Transport`): each threshold opens the cells at its distance and
  augments the previous threshold's flow, so the coupling mass at every
  threshold is exact and no flow restarts from zero.

Both return the exact infimum; the defining condition may fail at the
returned value itself (it holds for every strictly larger eps). Their
agreement on every instance is one of the package's tested invariants, not
an assumption.

Both routes run on distances as ints over their common denominator and on
weights as ints over theirs, and share one cross-multiplied scan; a Fraction
is built only for the value returned. Distances and weights are parsed once,
into one block (`_block`), which the input checks, both routes and the
definition check all read. The flow scan takes any rectangular int block,
which is how `gluing` values its cross blocks.

The one-sided subset condition already implies its mirror image for
probability measures (apply it to the complement of an enlargement), so the
brute force does not need a symmetrized pass; the flow route is symmetric
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import SizeError, ValidationError
from .exact import parse_ratio, scaled, scaled_rows
from .flow import Transport
from .spaces import _row_violations

BRUTEFORCE_CAP = 12


@dataclass(frozen=True)
class CommonSpaceMeasures:
    """Two probability weight vectors on one shared distance matrix.

    The matrix may be a pseudometric (zero off-diagonal entries are fine);
    symmetry, zero diagonal, nonnegativity and the triangle inequality are
    required.
    """

    dist: tuple
    mu: tuple
    nu: tuple

    @property
    def n(self) -> int:
        return len(self.dist)


_COMMON_MESSAGES = {
    "diagonal": "dist[{i}][{i}] != 0",
    "negative": "dist[{i}][{j}] is negative",
    "asymmetric": "dist[{i}][{j}] != dist[{j}][{i}]",
    "triangle": "triangle violation at ({i}, {j}) via {k}",
}


def validate_common(cm: CommonSpaceMeasures) -> list:
    return _checked(cm)[0]


def _block(dist, mu, nu):
    """`_flow_scan`'s arguments (rows, D, mu, nu, W) for mu and nu over the
    distance block `dist` (rows index mu, columns nu): every entry parsed
    exactly, the distances as int rows over one denominator D and the two
    weight vectors as ints over one W."""
    (rows,), D = scaled_rows(dist)
    weights, W = scaled([*mu, *nu])
    return rows, D, weights[: len(mu)], weights[len(mu) :], W


def _checked(cm: CommonSpaceMeasures):
    """(violations, block): `validate_common`'s list, and cm's `_block`,
    parsed once for both the checks and the scan; block is None when the
    matrix is not square."""
    n = cm.n
    if any(len(row) != n for row in cm.dist):
        return ["dist is not square"], None
    block = _block(cm.dist, cm.mu, cm.nu)
    rows, _, mu, nu, W = block
    violations = []
    for name, vec in (("mu", mu), ("nu", nu)):
        if len(vec) != n:
            violations.append(f"{name} length {len(vec)} != {n}")
            continue
        if any(w < 0 for w in vec):
            violations.append(f"{name} has a negative entry")
        if sum(vec) != W:
            violations.append(f"{name} sums to {Fraction(sum(vec), W)}, expected 1")
    violations += [
        _COMMON_MESSAGES[kind].format(i=i, j=j, k=k)
        for kind, i, j, k in _row_violations(rows)
    ]
    return violations, block


def _require_valid(cm: CommonSpaceMeasures):
    """cm's `_block`, (rows, D, mu, nu, W), once cm is valid."""
    violations, block = _checked(cm)
    if violations:
        raise ValidationError(
            f"invalid common-space input: {violations[0]}", violations
        )
    return block


def _scan_infimum(boundaries, t_of_piece, D):
    """Exact infimum of an up-set of feasible eps described piecewise.

    `boundaries` are ascending values u / D, the first one 0. Piece j runs
    from u_j / D to u_{j+1} / D (the last piece is unbounded); eps in it is
    feasible iff eps >= t / W for (t, W) = t_of_piece(j), each piece with
    its own W > 0. Feasibility is monotone, so the first piece with a
    solution decides. Prohorov's pieces are (u_j, u_{j+1}], `d_lambda`'s
    [u_j, u_{j+1}); the infimum is the same either way, since if t / W is
    a closing end, the next piece is feasible from its start. Pieces are
    asked for in ascending order, once each, which `_flow_scan`'s
    incremental flow relies on. Comparisons are cross-multiplied; only
    the value returned is built as a Fraction.
    """
    K = len(boundaries)
    for j, u in enumerate(boundaries):
        t, W = t_of_piece(j)
        if t * D <= u * W:
            return Fraction(u, D)
        if j + 1 == K or t * D <= boundaries[j + 1] * W:
            return Fraction(t, W)
    raise AssertionError("unreachable: last piece is always feasible")


def _flow_scan(rows, D, mu, nu, W):
    """Prohorov value of int weights mu, nu (over W) whose cell (i, k) lies at
    int distance rows[i][k] / D, rows indexing mu and columns nu: the block
    `_block` builds, or one a glue carries.

    Each distance threshold u allows the cells at distance <= u; the eps of
    its piece must cover the mass W - maxflow that no coupling puts there.
    The allowed cells only grow with u, so one `Transport` serves the whole
    scan. The cells are opened in order of distance, row-major within a
    value, and each threshold the scan visits opens its own run of them and
    augments from the previous threshold's flow (`_scan_infimum` asks for
    pieces in ascending order, once each); a scan that stops early never
    opens the cells past its last threshold. The first threshold is 0, whose
    run is listed directly; the other cells are sorted only once the scan
    goes past it.
    """
    flat = list(chain.from_iterable(rows))
    values = sorted(set(flat))
    boundaries = values if values[0] == 0 else [0] + values
    order = [p for p, u in enumerate(flat) if u == 0]
    m = len(rows[0])
    transport = Transport(mu, nu)
    opened = 0

    def t_of_piece(j):
        nonlocal opened
        if j == 1:  # past d = 0: a stable sort keeps each run row-major
            order.extend(sorted((p for p, u in enumerate(flat) if u), key=flat.__getitem__))
        u, end = boundaries[j], opened
        while end < len(order) and flat[order[end]] == u:
            end += 1
        for p in order[opened:end]:
            transport.allow(*divmod(p, m))
        opened = end
        return W - transport.augment(), W

    return _scan_infimum(boundaries, t_of_piece, D)


def prohorov_bruteforce(cm: CommonSpaceMeasures, cap: int = BRUTEFORCE_CAP):
    """Subset-enumeration route; exact, exponential, capped at `cap` points."""
    d, D, mu, nu, W = _require_valid(cm)
    n = cm.n
    if n > cap:
        raise SizeError(f"{n} points exceeds brute-force cap {cap}; use prohorov_flow")
    worst = Fraction(0)
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        mu_a = sum(mu[i] for i in members)
        dist_to_a = [min(d[a][x] for a in members) for x in range(n)]
        boundaries = sorted(set(dist_to_a))  # always starts at 0 (members)

        def t_of_piece(j):
            return mu_a - sum(v for v, da in zip(nu, dist_to_a) if da <= boundaries[j]), W

        worst = max(worst, _scan_infimum(boundaries, t_of_piece, D))
    return worst


def prohorov_condition_holds(cm: CommonSpaceMeasures, eps, cap: int = BRUTEFORCE_CAP) -> bool:
    """Whether mu(A) <= nu(A^eps) + eps for every subset A, strict enlargement."""
    d, D, mu, nu, W = _require_valid(cm)
    n = cm.n
    if n > cap:
        raise SizeError(f"{n} points exceeds brute-force cap {cap}")
    p, q = parse_ratio(eps)
    # the definition's comparisons, cross-multiplied: d / D < eps = p / q
    # and mu_a / W > nu_enl / W + p / q
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        mu_a = sum(mu[i] for i in members)
        nu_enl = sum(nu[x] for x in range(n) if min(d[a][x] for a in members) * q < p * D)
        if mu_a * q > nu_enl * q + p * W:
            return False
    return True


def prohorov_flow(cm: CommonSpaceMeasures):
    """Coupling route: one max-flow grown threshold by threshold (`_flow_scan`)."""
    return _flow_scan(*_require_valid(cm))


def prohorov(cm: CommonSpaceMeasures):
    """Default route (flow)."""
    return prohorov_flow(cm)
