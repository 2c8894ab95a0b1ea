"""Exact rational scalars: parsing, formatting, int scaling, square roots.

Every scalar enters through `parse_ratio`, which reads it as a reduced int
pair (num, den); `parse_scalar` is the Fraction of that pair, so the
grammar is written once. A float converts to its exact binary value, so
nothing here ever rounds. The literals documents are made of, ASCII ints
and "p/q" strings, become pairs with `int` and one `gcd`, without
`Fraction`'s string regex; every other string goes to `Fraction(str)`,
whose grammar and errors are the interpreter's own. A document reader that
parses each distinct literal once to a pair can put a whole matrix over one
denominator without building a Fraction per entry (`spaces.read_ints`).
Hot loops put a batch of values over one common denominator (`scaled`,
`scaled_rows`) and compare, add and flow plain ints, which is exact because
the scale is positive. `decimal_str` rounds in ints too, from one `divmod`
of the scaled numerator. Floats come out only where the CLI's `--float`
flag asks for them.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

__all__ = [
    "parse_scalar",
    "parse_ratio",
    "format_scalar",
    "scaled",
    "scaled_rows",
    "decimal_str",
    "sqrt_if_square",
    "sqrt_enclosure",
    "isqrt_enclosure",
]


def parse_scalar(value) -> Fraction:
    """Convert a scalar to Fraction, exactly: `Fraction` of `parse_ratio`.

    Accepts ints, "p/q" strings, decimal strings, floats and Fractions (a
    Fraction comes back as it is), with `parse_ratio`'s grammar and
    exceptions.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(*parse_ratio(value))


def parse_ratio(value):
    """A scalar as its reduced ratio (num, den), den > 0, exactly.

    Accepts ints, "p/q" strings, decimal strings, floats and Fractions.
    An ASCII int string ("-12", "007") or a "p/q" of two ("-3/4") is read
    with `int` alone, skipping `Fraction`'s string regex; every other string
    (whitespace, "+", "_", decimals, exponents, non-ASCII digits) goes to
    `Fraction(value.strip())`, and the two give the same value or raise the
    same exception type. Decimal strings convert exactly ("0.1" -> 1/10, not
    the binary float); a float converts to its exact binary value (0.1 ->
    3602879701896397 / 2**55). Anything else, including bools, NaN and the
    infinities, raises ValueError; "1/0" raises ZeroDivisionError. A decimal
    string raises ValueError too when its exponent is larger in magnitude
    than the interpreter's limit on int string digits
    (`sys.get_int_max_str_digits()`): "1e400000000" is 12 characters, but
    its power of ten would take hours to build.
    """
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
            if not slash:
                return int(num), 1
            p, q = int(num), int(den)
            if not q:
                raise ZeroDivisionError(f"Fraction({p}, 0)")
            g = math.gcd(p, q)
            return p // g, q // g
        _, e, exponent = value.upper().partition("E")
        # 0 means no limit, as on interpreters older than 3.10.7 (no such call)
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if e and limit and abs(int(exponent)) > limit:
            raise ValueError(f"exponent beyond {limit} digits: {value!r}")
        return Fraction(value.strip()).as_integer_ratio()
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, bool):
        raise ValueError(f"not a scalar: {value!r}")
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, float) and math.isfinite(value):
        return value.as_integer_ratio()
    raise ValueError(f"cannot parse scalar: {value!r}")


def scaled(values):
    """Exact values over their least common denominator: (ints, denominator).

    Ints and Fractions are read as they are; anything else goes through
    `parse_scalar` (a float to its exact binary value).
    """
    values = [x if isinstance(x, (int, Fraction)) else parse_scalar(x) for x in values]
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
    """Render a rational for serialization: "p/q", or "n" when whole."""
    if isinstance(value, (int, Fraction)):
        return str(value)
    raise ValueError(f"cannot format scalar: {value!r}")


def decimal_str(value, digits: int = 12) -> str:
    """Decimal rendering of a rational, round-half-even at `digits` places.

    Computed in ints: |value| * 10**digits is split by `divmod` into a
    quotient and a remainder, and the remainder alone decides the rounding.
    A negative value that rounds to zero prints without its sign.
    """
    q = value if isinstance(value, (int, Fraction)) else Fraction(value)
    num, den = q.as_integer_ratio()
    scaled, rem = divmod(abs(num) * 10**digits, den)
    if 2 * rem > den or 2 * rem == den and scaled & 1:  # past half, or half to even
        scaled += 1
    sign = "-" if num < 0 and scaled else ""
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def sqrt_if_square(q: Fraction):
    """Exact square root when `q` is the square of a rational, else None."""
    if q < 0:
        return None
    lo, hi, d = isqrt_enclosure(q.numerator, q.denominator)
    return Fraction(lo, d) if lo == hi else None


SQRT_SCALE = 10**15  # a square-root enclosure is [r, r + 1] / SQRT_SCALE unless exact


def sqrt_enclosure(q: Fraction, scale: int = SQRT_SCALE):
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


def isqrt_enclosure(num: int, den: int):
    """`sqrt_enclosure(Fraction(num, den))` in ints: (lo, hi, d) for [lo/d, hi/d].

    num >= 0 and den > 0 need not be coprime: num/den is a rational square
    exactly when num * den is an int square (an unreduced 2/8 is one), and
    then the root is isqrt(num * den) / den with lo == hi. Otherwise d is
    SQRT_SCALE and the bounds are those of `sqrt_enclosure`.
    """
    root = math.isqrt(num * den)
    if root * root == num * den:
        return root, root, den
    r = math.isqrt(num * SQRT_SCALE * SQRT_SCALE // den)
    return r, r + 1, SQRT_SCALE
