"""Distance-matrix test functions: exact expectations."""

from fractions import Fraction

from mmdist import (
    FiniteMMSpace,
    SizeError,
    TruncatedMonomial,
    ValidationError,
    evaluate_polynomial,
)

F = Fraction


def uniform(n, d=1):
    dist = tuple(tuple(F(0) if i == j else F(d) for j in range(n)) for i in range(n))
    return FiniteMMSpace(tuple(f"p{i}" for i in range(n)), dist, tuple(F(1, n) for _ in range(n)))


def test_mean_distance_on_uniform_pairs():
    # E d(U, V) = d * P(U != V).
    phi = TruncatedMonomial(factors=((0, 1, 1),), cap=F(2))
    assert evaluate_polynomial(uniform(2), 2, phi) == F(1, 2)
    assert evaluate_polynomial(uniform(3), 2, phi) == F(2, 3)
    assert evaluate_polynomial(uniform(3, d=2), 2, phi) == F(4, 3)


def test_cap_truncates_the_distance():
    phi = TruncatedMonomial(factors=((0, 1, 1),), cap=F(1))
    assert evaluate_polynomial(uniform(3, d=2), 2, phi) == F(2, 3)


def test_multi_factor_monomial():
    # d(x0,x1) * d(x1,x2) over three i.i.d. points of the two-point space:
    # both factors are 1 exactly when neighbours differ, probability 1/4.
    phi = TruncatedMonomial(factors=((0, 1, 1), (1, 2, 1)), cap=F(2))
    assert phi.order() == 3
    assert evaluate_polynomial(uniform(2), 3, phi) == F(1, 4)


def test_exponents_apply():
    phi = TruncatedMonomial(factors=((0, 1, 3),), cap=F(4))
    assert evaluate_polynomial(uniform(2, d=2), 2, phi) == F(4)


def test_order_is_checked_against_sample_size():
    phi = TruncatedMonomial(factors=((0, 1, 1),), cap=F(1))
    try:
        evaluate_polynomial(uniform(2), 1, phi)
        assert False
    except ValidationError:
        pass


def test_exact_cap_raises_size_error():
    phi = TruncatedMonomial(factors=((0, 1, 1),), cap=F(1))
    try:
        evaluate_polynomial(uniform(10), 7, phi)
        assert False
    except SizeError as e:
        assert "10**7 terms exceeds exact cap" in str(e)


def test_float_cap_converts_exactly():
    # 2.0 and 0.5 are dyadic, so each float is exactly its Fraction twin
    for cap, twin in ((2.0, F(2)), (0.5, F(1, 2))):
        float_phi = TruncatedMonomial(factors=((0, 1, 1),), cap=cap)
        assert float_phi.cap == twin and isinstance(float_phi.cap, Fraction)
        value = evaluate_polynomial(uniform(2), 2, float_phi)
        assert isinstance(value, Fraction)
        assert value == evaluate_polynomial(uniform(2), 2, TruncatedMonomial(((0, 1, 1),), twin))


def test_float_space_gives_the_fraction_twins_expectation():
    phi = TruncatedMonomial(factors=((0, 1, 2),), cap=F(2))
    floats = FiniteMMSpace(("a", "b"), ((0.0, 1.5), (1.5, 0.0)), (0.25, 0.75))
    twin = FiniteMMSpace(("a", "b"), ((F(0), F(3, 2)), (F(3, 2), F(0))), (F(1, 4), F(3, 4)))
    value = evaluate_polynomial(floats, 2, phi)
    assert isinstance(value, Fraction)
    assert value == evaluate_polynomial(twin, 2, phi) == 2 * F(3, 16) * F(9, 4)


def test_positions_must_be_nonnegative():
    try:
        TruncatedMonomial(factors=((-1, 0, 1),), cap=F(1))
        assert False
    except ValidationError:
        pass
