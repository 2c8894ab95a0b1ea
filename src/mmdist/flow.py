"""Exact transport primitives: bipartite max-flow, subcouplings, couplings.

`Transport` holds one bipartite flow from row supplies mu to column demands
nu over the cells opened so far: residual supplies and demands as lists,
each row's allowed columns as a list, each column's positive cell flows as a
dict from row to flow. `allow` opens a cell and at once pushes
min(residual supply, residual demand) onto it, a one-cell augmenting path,
so the flow stays feasible and most of the mass never needs a search.
`augment` then runs multi-source BFS augmenting paths (row -> allowed
column -> back along a positive flow to its row) for the longer paths
until none is left; its last BFS proves that. Residuals only fall, so a
cell that was filled, or found its row or column spent, never carries a
one-cell path later. A caller whose cells only grow augments from the flow
it has: the Prohorov scan (`prohorov._flow_scan`) keeps one `Transport`
for all its distance thresholds, the monotone case of parametric max-flow
(Gallo, Grigoriadis & Tarjan 1989). `max_subcoupling` is the one-shot form.
Every mass is exact in the weights' own type, int or Fraction.

The clique sweeps and the Prohorov scan (glues included) pass int-scaled
weights (over a common denominator W) and rebuild the Fraction mass m / W
themselves; coupling construction (`complete_subcoupling`) and
`correspondence_info` work on Fractions. The routines here are the single
source of coupling mass used by the distance computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError

__all__ = ["Coupling", "Transport", "max_subcoupling", "complete_subcoupling", "validate_coupling"]


@dataclass(frozen=True)
class Coupling:
    """Joint weight matrix with prescribed row marginal mu and column marginal nu."""

    matrix: tuple

    @property
    def shape(self):
        return (len(self.matrix), len(self.matrix[0]) if self.matrix else 0)

    def row_marginal(self):
        return tuple(sum(row) for row in self.matrix)

    def col_marginal(self):
        n2 = self.shape[1]
        return tuple(sum(row[j] for row in self.matrix) for j in range(n2))

    def mass_where(self, predicate):
        """Total mass on cells (i, j) with predicate(i, j) true."""
        return sum(
            x
            for i, row in enumerate(self.matrix)
            for j, x in enumerate(row)
            if predicate(i, j)
        )


def validate_coupling(coupling: Coupling, mu, nu) -> list:
    violations = []
    n1, n2 = coupling.shape
    if n1 != len(mu) or n2 != len(nu):
        violations.append(f"coupling shape {n1}x{n2} does not match marginals")
        return violations
    for i, row in enumerate(coupling.matrix):
        for j, x in enumerate(row):
            if x < 0:
                violations.append(f"coupling[{i}][{j}] is negative: {x}")
    for i, s in enumerate(coupling.row_marginal()):
        if s != mu[i]:
            violations.append(f"row {i} marginal {s} != mu[{i}] = {mu[i]}")
    for j, s in enumerate(coupling.col_marginal()):
        if s != nu[j]:
            violations.append(f"column {j} marginal {s} != nu[{j}] = {nu[j]}")
    return violations


class Transport:
    """Maximum subcoupling of row supplies `mu` and column demands `nu` on
    the cells opened so far (see the module docstring).

    A cell has no capacity of its own: its flow is bounded by mu[i] and
    nu[j] already, so a path is limited only by its end points' residuals
    and the flows it cancels.
    """

    def __init__(self, mu, nu):
        self.supply = list(mu)  # residual supply of each row
        self.demand = list(nu)  # residual demand of each column
        self.cols = [[] for _ in self.supply]  # allowed columns of each row
        self.flow = [{} for _ in self.demand]  # column -> {row: positive flow}
        self.mass = 0

    def allow(self, i, j):
        """Open cell (i, j) and fill it directly: push min(supply[i],
        demand[j]) onto it when both are positive. That is a one-cell
        augmenting path, so the flow stays feasible."""
        self.cols[i].append(j)
        s, d = self.supply[i], self.demand[j]
        if s > 0 and d > 0:
            f = min(s, d)
            self.supply[i], self.demand[j] = s - f, d - f
            col = self.flow[j]
            col[i] = col.get(i, 0) + f
            self.mass += f

    def augment(self):
        """Augment along longer paths (`allow` took every one-cell path) until
        a BFS finds none; the total mass of the flow."""
        supply, demand, cols, flow = self.supply, self.demand, self.cols, self.flow
        while True:
            # multi-source BFS: rows with supply -> allowed column -> back
            # along a positive flow to its row, until a column with demand
            row_from = {i: None for i, s in enumerate(supply) if s > 0}
            col_from = {}
            frontier = list(row_from)
            end = None
            while frontier and end is None:
                reached = []
                for i in frontier:
                    for j in cols[i]:
                        if j in col_from:
                            continue
                        col_from[j] = i
                        if demand[j] > 0:
                            end = j
                            break
                        for k in flow[j]:
                            if k not in row_from:
                                row_from[k] = j
                                reached.append(k)
                    if end is not None:
                        break
                frontier = reached
            if end is None:
                return self.mass
            path = []
            j = end
            while j is not None:
                i = col_from[j]
                path.append((i, j))
                j = row_from[i]
            aug = min(demand[end], supply[i])
            for k, _ in path[:-1]:
                aug = min(aug, flow[row_from[k]][k])
            demand[end] -= aug
            supply[i] -= aug
            for i, j in path:
                f = flow[j].get(i, 0) + aug
                flow[j][i] = f
                back = row_from[i]
                if back is not None:
                    f = flow[back][i] - aug
                    if f:
                        flow[back][i] = f
                    else:
                        del flow[back][i]
            self.mass += aug

    def cells(self):
        """Positive cell flows as {(i, j): flow}."""
        return {(i, j): f for j, col in enumerate(self.flow) for i, f in col.items()}


def max_subcoupling(mu, nu, allowed):
    """Maximum mass of a sub-probability coupling supported on `allowed` cells.

    `allowed` is an iterable of (i, j) index pairs. Returns (mass, cells)
    where cells maps (i, j) -> positive mass realizing the optimum, both in
    the weights' type.
    """
    n1, n2 = len(mu), len(nu)
    transport = Transport(mu, nu)
    seen = set()
    for i, j in allowed:
        if not (0 <= i < n1 and 0 <= j < n2):
            raise ValidationError(f"cell ({i}, {j}) out of range")
        if (i, j) not in seen:
            seen.add((i, j))
            transport.allow(i, j)
    return transport.augment(), transport.cells()


def complete_subcoupling(cells, mu, nu) -> Coupling:
    """Extend a subcoupling to a full coupling of (mu, nu).

    The defect is filled with the product of the residual marginals scaled by
    the residual mass, which keeps every existing cell untouched. A cell
    outside range(len(mu)) x range(len(nu)) or a negative mass raises
    ValidationError.
    """
    n1, n2 = len(mu), len(nu)
    xi = [[Fraction(0)] * n2 for _ in range(n1)]
    for (i, j), x in cells.items():
        if not (0 <= i < n1 and 0 <= j < n2):
            raise ValidationError(f"cell ({i}, {j}) out of range")
        if x < 0:
            raise ValidationError(f"cell ({i}, {j}) has negative mass {x}")
        xi[i][j] = x
    mass = sum(sum(row) for row in xi)
    if mass > 1 or any(sum(row) > m for row, m in zip(xi, mu)):
        raise ValidationError("cells do not form a subcoupling of (mu, nu)")
    rest = 1 - mass
    if rest > 0:
        du = [mu[i] - sum(xi[i]) for i in range(n1)]
        dv = [nu[j] - sum(xi[i][j] for i in range(n1)) for j in range(n2)]
        if any(x < 0 for x in du) or any(x < 0 for x in dv):
            raise ValidationError("cells do not form a subcoupling of (mu, nu)")
        for i in range(n1):
            for j in range(n2):
                xi[i][j] += du[i] * dv[j] / rest
    return Coupling(tuple(tuple(row) for row in xi))
