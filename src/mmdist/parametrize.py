"""Interval parametrizations of couplings and the box value they induce.

A coupling of two finite weight vectors can be laid out on [0, 1): list its
positive cells in row-major order and give each a subinterval of its mass.
Reading off the two point indices piece by piece yields a pair of
parametrizations with the coupling as their joint push-forward. The induced
box value minimizes over subsets of the occupied cells, with each cell
carrying its fixed laid-out mass; at a mass-optimal coupling of an optimal
correspondence it reproduces box_lambda exactly, and it can never go below
it (tested invariants, not assumptions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .exact import parse_scalar, scaled, scaled_rows
from .flow import Coupling, validate_coupling
from .gromov import DEFAULT_SEARCH_BUDGET, _Budget, _CliqueSweep
from .spaces import FiniteMMSpace


@dataclass(frozen=True)
class IntervalParametrization:
    """Piecewise-constant map [0, 1) -> point indices.

    Piece k is [breakpoints[k], breakpoints[k+1]) with value values[k].
    """

    breakpoints: tuple
    values: tuple

    @property
    def pieces(self) -> int:
        return len(self.values)


def validate_parametrization(p: IntervalParametrization, n_points: int) -> list:
    violations = []
    bps = p.breakpoints
    if len(bps) != len(p.values) + 1:
        violations.append("breakpoints must have one more entry than values")
        return violations
    if not bps or bps[0] != 0 or bps[-1] != 1:
        violations.append("breakpoints must start at 0 and end at 1")
    if any(bps[k] >= bps[k + 1] for k in range(len(bps) - 1)):
        violations.append("breakpoints must be strictly increasing")
    if any(not (0 <= v < n_points) for v in p.values):
        violations.append(f"values must be point indices below {n_points}")
    return violations


def coupling_to_parametrizations(coupling: Coupling, a: FiniteMMSpace, b: FiniteMMSpace):
    """Lay the coupling's positive cells on [0, 1) in row-major order."""
    problems = validate_coupling(coupling, a.weights, b.weights)
    if problems:
        raise ValidationError(f"not a coupling of the two spaces: {problems[0]}", problems)
    breakpoints = [Fraction(0)]
    v1, v2 = [], []
    acc = Fraction(0)
    for i, row in enumerate(coupling.matrix):
        for j, mass in enumerate(row):
            if mass > 0:
                acc += mass
                breakpoints.append(acc)
                v1.append(i)
                v2.append(j)
    if breakpoints[-1] != 1:
        raise ValidationError("coupling mass does not total 1")
    return (
        IntervalParametrization(tuple(breakpoints), tuple(v1)),
        IntervalParametrization(tuple(breakpoints), tuple(v2)),
    )


def parametrizations_to_cells(p1: IntervalParametrization, p2: IntervalParametrization):
    """Common refinement of two parametrizations: dict (i, j) -> mass."""
    cuts = sorted(set(p1.breakpoints) | set(p2.breakpoints))
    if cuts[0] != 0 or cuts[-1] != 1:
        raise ValidationError("parametrizations must cover [0, 1]")

    def value_at(p, lo):
        for k in range(p.pieces):
            if p.breakpoints[k] <= lo < p.breakpoints[k + 1]:
                return p.values[k]
        raise ValidationError("parametrization does not cover [0, 1]")

    masses = {}
    for lo, hi in zip(cuts, cuts[1:]):
        cell = (value_at(p1, lo), value_at(p2, lo))
        masses[cell] = masses.get(cell, Fraction(0)) + (hi - lo)
    return masses


def box_of_parametrizations(
    p1: IntervalParametrization,
    p2: IntervalParametrization,
    a: FiniteMMSpace,
    b: FiniteMMSpace,
    lam,
    budget: int = DEFAULT_SEARCH_BUDGET,
):
    """Box value of the specific coupling carried by (p1, p2).

    Minimizes max(distortion(K), (1 - mass(K)) / lam) over subsets K of the
    occupied cells, mass(K) being the summed cell masses (no re-optimization
    of the coupling). Since the mass term is additive, only maximal cliques
    per distortion threshold matter; the sweep is exact and raises SizeError
    once it spends more than `budget` work units (see `gromov._Budget`).
    """
    lam = parse_scalar(lam)
    if lam <= 0:
        raise ValidationError("lambda must be positive")
    for p, space in ((p1, a), (p2, b)):
        problems = validate_parametrization(p, space.n)
        if problems:
            raise ValidationError(f"bad parametrization: {problems[0]}", problems)
    masses = parametrizations_to_cells(p1, p2)
    cells = sorted(masses)
    (da, db), D = scaled_rows(a.dist, b.dist)
    sweep = _CliqueSweep(da, db, cells, _Budget(budget))
    int_masses, M = scaled(masses[c] for c in cells)
    int_mass = dict(zip(cells, int_masses))
    # the empty subset, and the full set, which carries mass 1
    best = min((1 - 0) / lam, Fraction(sweep.thresholds[-1], D))

    for t, mask in sweep.cliques(lambda t: t >= D * best):
        mass = sum(int_mass[c] for c in sweep.pairs(mask))
        best = min(best, max(Fraction(t, D), (1 - Fraction(mass, M)) / lam))
    return best
