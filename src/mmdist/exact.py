"""Exact rational scalars: parsing, formatting, int scaling, square roots.

Values are `fractions.Fraction` at every API boundary. Hot loops put a batch
of them over one common denominator (`scaled`, `scaled_rows`) and compare,
add and flow plain ints, which is exact because the scale is positive. Float
mode is opt-in at the I/O boundary; nothing in here ever rounds silently.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "parse_scalar",
    "format_scalar",
    "scaled",
    "scaled_rows",
    "decimal_str",
    "sqrt_if_square",
    "sqrt_enclosure",
]


def parse_scalar(value, exact: bool = True):
    """Convert a JSON-level scalar to Fraction (exact mode) or float.

    Accepts ints, "p/q" strings, decimal strings, and floats. Decimal
    strings convert exactly ("0.1" -> 1/10, not the binary float). Floats
    in exact mode convert via Fraction(float), i.e. to the exact binary
    value, which only happens when a caller already holds a float.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a scalar: {value!r}")
    if exact:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value.strip())
        if isinstance(value, float):
            return Fraction(value)
        raise ValueError(f"cannot parse scalar: {value!r}")
    if isinstance(value, str):
        value = Fraction(value.strip())
    if isinstance(value, (int, float, Fraction)) and math.isfinite(value):
        return float(value)
    raise ValueError(f"cannot parse scalar: {value!r}")


def scaled(values):
    """Exact values over their least common denominator: (ints, denominator).

    Ints and Fractions are read as they are; anything else converts exactly
    through Fraction (a float to its binary value).
    """
    values = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def scaled_rows(*matrices):
    """Matrices over one common denominator: ([int rows of each], denominator)."""
    flat, den = scaled([x for m in matrices for row in m for x in row])
    out, pos = [], 0
    for m in matrices:
        rows = []
        for row in m:
            rows.append(flat[pos : pos + len(row)])
            pos += len(row)
        out.append(rows)
    return out, den


def format_scalar(value) -> str:
    """Render a scalar for serialization: "p/q" (or "n") for rationals."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    raise ValueError(f"cannot format scalar: {value!r}")


def decimal_str(value, digits: int = 12) -> str:
    """Decimal rendering of a rational, round-half-even at `digits` places."""
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    q = Fraction(value)
    scaled = round(q * 10**digits)  # round() on Fraction is half-even
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def sqrt_if_square(q: Fraction):
    """Exact square root when `q` is the square of a rational, else None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_enclosure(q: Fraction, scale: int = 10**15):
    """Rational enclosure [lo, hi] of sqrt(q) with hi - lo <= 1/scale.

    Returns (lo, lo) exactly when q is a perfect rational square.
    """
    if q < 0:
        raise ValueError("sqrt of negative value")
    exact_root = sqrt_if_square(q)
    if exact_root is not None:
        return exact_root, exact_root
    n = (q.numerator * scale * scale) // q.denominator
    r = math.isqrt(n)
    return Fraction(r, scale), Fraction(r + 1, scale)
