"""Scalar parsing at the one exact boundary, decimal rendering, square roots."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mmdist import (
    box_lambda,
    code_excursion,
    comb,
    decimal_str,
    dh,
    evaluate,
    format_scalar,
    infimum,
    mm_space,
    parse_scalar,
    pl_cut_points,
    sqrt_if_square,
    tent,
)
from mmdist.exact import parse_ratio, sqrt_enclosure

F = Fraction


def test_parse_exact_forms():
    assert parse_scalar(3) == Fraction(3)
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar(" -7/2 ") == Fraction(-7, 2)
    assert parse_scalar("0.1") == Fraction(1, 10)
    assert parse_scalar("0.1") != Fraction(0.1)
    assert parse_scalar(0.5) == Fraction(1, 2)
    assert parse_scalar(Fraction(2, 6)) == Fraction(1, 3)


@settings(max_examples=200)
@given(st.floats())
def test_parse_float_is_its_exact_binary_value(x):
    # every float, NaN and the infinities included: the exact Fraction of its
    # binary value, or ValueError
    try:
        q = parse_scalar(x)
    except ValueError:
        assert not math.isfinite(x)
    else:
        assert type(q) is Fraction and q == Fraction(x)


def test_parse_rejects_non_scalars():
    for bad in (True, False, None, [1], {"a": 1}, math.nan, math.inf, -math.inf):
        try:
            parse_scalar(bad)
            assert False, bad
        except ValueError:
            pass


def test_parse_rejects_exponents_past_the_int_digit_limit():
    # the limit Python applies to int strings (4300 digits by default) also
    # bounds a decimal exponent, so a short literal cannot ask for 10**(10**8)
    for bad in ("1e5000", "1e-5000", "2.5E+5000", "1e1_000_000"):
        try:
            parse_scalar(bad)
            assert False, bad
        except ValueError:
            pass
    assert parse_scalar("1e4000") == 10**4000
    assert parse_scalar("1e-4000") == Fraction(1, 10**4000)


BIG = "1" * 5001  # one digit past the interpreter's limit on int strings
LITERALS = ("1/0", "0/0", "3/-4", "3 / 4", "١٢", "²", BIG, f"1/{BIG}", " -007/0012 ", "-0")


SPLICES = (" ", "+", "-", "--", "_", "/", "/-", " / ", ".", "0", "١٢", "²", "x", "\u2212", "\t", BIG)


def random_literal(rng):
    """An ASCII int or "p/q", half of them with one more piece spliced in; an
    exponent, if any, ends the string and is small, so `Fraction` never
    builds a huge power of ten."""

    def digits():
        return "".join(rng.choices("0123456789", k=rng.randint(1, 4)))

    s = rng.choice(("", "-")) + digits() + rng.choice(("", "/" + digits()))
    if rng.random() < 0.5:
        k = rng.randint(0, len(s))
        s = s[:k] + rng.choice(SPLICES) + s[k:]
    return s + rng.choice(("",) * 6 + ("e3", "E-2", "e", " "))


def test_parse_string_matches_fraction_of_the_stripped_string():
    # ints and "p/q" skip Fraction's regex; every string must still give
    # Fraction(s.strip())'s value or raise its exception type
    rng = random.Random(19)
    for s in LITERALS + tuple(random_literal(rng) for _ in range(3000)):
        try:
            expected = Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            expected = type(exc)
        try:
            got = parse_scalar(s)
        except (ValueError, ZeroDivisionError) as exc:
            got = type(exc)
        assert got == expected and type(got) is type(expected), s[:40]
        # the ratio is the reduced pair of the same value, with den > 0
        try:
            ratio = parse_ratio(s)
        except (ValueError, ZeroDivisionError) as exc:
            ratio = type(exc)
        want = expected if isinstance(expected, type) else expected.as_integer_ratio()
        assert ratio == want, s[:40]


def test_parse_ratio_is_the_reduced_pair_of_parse_scalar():
    values = (3, -7, 0, True, None, [1], 0.1, -2.5, math.nan, math.inf, F(6, -4), "6/-4", "-0/5")
    for x in values:
        try:
            want = parse_scalar(x).as_integer_ratio()
        except (ValueError, ZeroDivisionError) as exc:
            want = type(exc)
        try:
            got = parse_ratio(x)
        except (ValueError, ZeroDivisionError) as exc:
            got = type(exc)
        assert got == want and (isinstance(got, type) or math.gcd(*got) == 1), x
    assert parse_ratio("-12/18") == (-2, 3) and parse_ratio("-0/5") == (0, 1)


def test_format_round_trips_through_parse():
    rng = random.Random(1)
    for _ in range(300):
        q = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
        assert parse_scalar(format_scalar(q)) == q


def test_format_whole_rationals_have_no_slash():
    assert format_scalar(Fraction(4, 2)) == "2"
    assert format_scalar(5) == "5"
    assert format_scalar(Fraction(-3, 1)) == "-3"


def test_decimal_str_known_values():
    assert decimal_str(Fraction(1, 3)) == "0.333333333333"
    assert decimal_str(Fraction(2, 3)) == "0.666666666667"
    assert decimal_str(Fraction(1, 100), digits=4) == "0.0100"
    assert decimal_str(Fraction(25, 2), digits=1) == "12.5"
    assert decimal_str(0.25, digits=2) == "0.25"


def test_decimal_str_rounds_half_even():
    # 0.125 and 0.375 both sit exactly on the midpoint at two digits.
    assert decimal_str(Fraction(1, 8), digits=2) == "0.12"
    assert decimal_str(Fraction(3, 8), digits=2) == "0.38"
    assert decimal_str(Fraction(-1, 8), digits=2) == "-0.12"


def decimal_str_reference(value, digits=12):
    """The Fraction formula `decimal_str` replaced: round() of a Fraction is half-even."""
    scaled = round(Fraction(value) * 10**digits)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def test_decimal_str_matches_the_fraction_rounding():
    rng = random.Random(1009)
    # exact halves at d digits, of both parities and both signs
    values = [Fraction(k, 2 * 10**d) for d in range(4) for k in range(-9, 10, 2)]
    values += [Fraction(-1, 10**13), Fraction(-4, 10**13), Fraction(-1, 3 * 10**12), 0, -0.5]
    for _ in range(3000):
        den = rng.choice((1, 2, 3, 7, 8, 10**12, 2 * 10**12, rng.randint(1, 10**15)))
        values.append(Fraction(rng.randint(-(10**15), 10**15), den))
    for value in values:
        for digits in (0, 1, 2, 3, 12):
            expected = decimal_str_reference(value, digits)
            assert decimal_str(value, digits) == expected, (value, digits)
    # a small negative that rounds to zero prints no sign
    assert decimal_str(Fraction(-1, 10**13)) == "0.000000000000"
    assert decimal_str(Fraction(-1, 4), digits=0) == "0.0"


def test_sqrt_if_square_detects_squares():
    assert sqrt_if_square(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_if_square(Fraction(0)) == Fraction(0)
    assert sqrt_if_square(Fraction(2)) is None
    assert sqrt_if_square(Fraction(4, 9) + Fraction(1, 9**2)) is None
    assert sqrt_if_square(Fraction(-1)) is None
    rng = random.Random(7)
    for _ in range(200):
        r = Fraction(rng.randint(0, 40), rng.randint(1, 40))
        assert sqrt_if_square(r * r) == r


def test_sqrt_if_square_matches_the_separate_roots():
    # a reduced p/q is a rational square exactly when p and q both are
    for num in range(60):
        for den in range(1, 40):
            q = Fraction(num, den)
            rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
            square = rn * rn == q.numerator and rd * rd == q.denominator
            assert sqrt_if_square(q) == (Fraction(rn, rd) if square else None)


def test_sqrt_enclosure_brackets_the_root():
    rng = random.Random(11)
    scale = 10**6
    for _ in range(200):
        q = Fraction(rng.randint(0, 500), rng.randint(1, 500))
        lo, hi = sqrt_enclosure(q, scale=scale)
        assert lo * lo <= q <= hi * hi
        assert hi - lo <= Fraction(1, scale)
    lo, hi = sqrt_enclosure(Fraction(49, 16))
    assert lo == hi == Fraction(7, 4)
    try:
        sqrt_enclosure(Fraction(-1, 2))
        assert False
    except ValueError:
        pass


def test_float_inputs_equal_their_decimal_twins():
    # dyadic floats, so each one's exact binary value is its decimal twin
    h = tent()
    a = mm_space(("x", "y"), (("0", "1/2"), ("1/2", "0")), ("1/4", "3/4"))
    b = mm_space(("u",), (("0",),), ("1",))
    pairs = [
        (evaluate(h, 0.375), evaluate(h, "0.375")),
        (dh(h, 0.125, 0.75), dh(h, "0.125", "0.75")),
        (infimum(h, 0.25, 0.875), infimum(h, "0.25", "0.875")),
        (box_lambda(a, b, 0.5), box_lambda(a, b, "0.5")),
    ]
    for got, want in pairs:
        assert type(got) is Fraction and got == want
    cuts = pl_cut_points(h, (0.375, 0.625))
    assert cuts == pl_cut_points(h, ("0.375", "0.625"))
    assert all(type(t) is Fraction for t in cuts)
    coded = code_excursion(comb(2), resolution=(0.25,))
    assert coded == code_excursion(comb(2), resolution=("0.25",))
    assert all(type(t) is Fraction for t in coded.representatives)
