"""Distance-matrix polynomials: exact expectations.

A test function looks at the pairwise-distance matrix of an i.i.d. sample of
points and returns a bounded value; its expectation is a sampling invariant
of the space (invariant under measure-preserving isometry). The bounded
continuous family provided is the truncated monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import SizeError, ValidationError
from .exact import parse_scalar
from .spaces import FiniteMMSpace, canonicalize

EXACT_TERM_CAP = 10**6


@dataclass(frozen=True)
class DistanceMatrixSample:
    """Pairwise distances of one sampled tuple of points."""

    entries: tuple

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


@dataclass(frozen=True)
class TruncatedMonomial:
    """prod over (i, j, exp) of min(r_ij, cap) ** exp; the cap is exact."""

    factors: tuple  # of (i, j, exponent)
    cap: Fraction = Fraction(1)

    def __post_init__(self):
        for i, j, _ in self.factors:
            if i < 0 or j < 0:
                raise ValidationError(f"factor position ({i}, {j}) must be nonnegative")
        object.__setattr__(self, "cap", parse_scalar(self.cap))

    def order(self) -> int:
        return 1 + max((max(i, j) for i, j, _ in self.factors), default=0)

    def __call__(self, sample: DistanceMatrixSample):
        out = Fraction(1)
        for i, j, e in self.factors:
            out *= min(sample[i, j], self.cap) ** e
        return out


def _sample_matrix(space: FiniteMMSpace, idx) -> DistanceMatrixSample:
    return DistanceMatrixSample(
        tuple(tuple(space.dist[a][b] for b in idx) for a in idx)
    )


def evaluate_polynomial(space: FiniteMMSpace, n: int, phi, cap: int = EXACT_TERM_CAP):
    """Exact expectation of phi over n i.i.d. points from the space's weights.

    Enumerates all s**n index tuples of the canonical form (the expectation
    is an invariant of it, and its entries are exact); raises SizeError above
    `cap` terms.
    """
    space = canonicalize(space)
    if n < 1:
        raise ValidationError("sample order must be >= 1")
    if hasattr(phi, "order") and phi.order() > n:
        raise ValidationError(f"phi reads entry positions up to {phi.order() - 1}, sample order is {n}")
    s = space.n
    if s**n > cap:
        raise SizeError(f"{s}**{n} terms exceeds exact cap {cap}")
    total = Fraction(0)
    for idx in product(range(s), repeat=n):
        w = Fraction(1)
        for k in idx:
            w *= space.weights[k]
        total += w * phi(_sample_matrix(space, idx))
    return total
