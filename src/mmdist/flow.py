"""Exact transport primitives: bipartite max-flow, subcouplings, couplings.

Max-flow is Edmonds-Karp, exact over int or Fraction capacities, so every
value it returns is exact in the capacities' own type. The clique sweeps,
the Prohorov scan and the glue search pass int-scaled weights (over a common
denominator W) and rebuild the Fraction mass m / W themselves; coupling
construction (`complete_subcoupling`) and `correspondence_info` work on
Fractions. The routines here are the single source of coupling mass used by
the distance computations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError

__all__ = ["Coupling", "max_subcoupling", "complete_subcoupling", "validate_coupling"]


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


def max_subcoupling(mu, nu, allowed):
    """Maximum mass of a sub-probability coupling supported on `allowed` cells.

    `allowed` is an iterable of (i, j) index pairs. Returns (mass, cells)
    where cells maps (i, j) -> positive mass realizing the optimum, both in
    the weights' type.
    """
    n1, n2 = len(mu), len(nu)
    S, T = 0, 1
    left = lambda i: 2 + i
    right = lambda j: 2 + n1 + j
    cap = {}
    adj = [set() for _ in range(2 + n1 + n2)]

    def add_edge(u, v, c):
        cap[(u, v)] = cap.get((u, v), 0) + c
        adj[u].add(v)
        adj[v].add(u)

    for i in range(n1):
        if mu[i] > 0:
            add_edge(S, left(i), mu[i])
    for j in range(n2):
        if nu[j] > 0:
            add_edge(right(j), T, nu[j])
    edge_set = set()
    for i, j in allowed:
        if not (0 <= i < n1 and 0 <= j < n2):
            raise ValidationError(f"cell ({i}, {j}) out of range")
        if (i, j) not in edge_set:
            edge_set.add((i, j))
            add_edge(left(i), right(j), min(mu[i], nu[j]))

    total = 0
    while True:
        pred = {S: None}
        queue = deque([S])
        while queue:
            u = queue.popleft()
            if u == T:
                break
            for v in adj[u]:
                if v not in pred and cap.get((u, v), 0) > 0:
                    pred[v] = u
                    queue.append(v)
        if T not in pred:
            break
        path = []
        v = T
        while pred[v] is not None:
            path.append((pred[v], v))
            v = pred[v]
        aug = min(cap[(u, w)] for u, w in path)
        for u, w in path:
            cap[(u, w)] -= aug
            cap[(w, u)] = cap.get((w, u), 0) + aug
        total += aug

    cells = {}
    for i, j in edge_set:
        f = cap.get((right(j), left(i)), 0)
        if f > 0:
            cells[(i, j)] = f
    return total, cells


def complete_subcoupling(cells, mu, nu) -> Coupling:
    """Extend a subcoupling to a full coupling of (mu, nu).

    The defect is filled with the product of the residual marginals scaled by
    the residual mass, which keeps every existing cell untouched.
    """
    n1, n2 = len(mu), len(nu)
    xi = [[Fraction(0)] * n2 for _ in range(n1)]
    for (i, j), x in cells.items():
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
