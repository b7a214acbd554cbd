"""Laurent arithmetic: exactness, division refusal, serialization round trips."""

import random
from fractions import Fraction

import pytest

from clustercones.laurent import LaurentPolynomial, NotDivisible


def P(nvars, text):
    return LaurentPolynomial.parse(nvars, text)


def test_construction_and_terms_order():
    p = LaurentPolynomial.from_terms(2, [((1, 0), 1), ((0, 1), 1), ((0, 0), 3)])
    assert p.n_terms == 3
    # graded lex, highest first
    assert list(p.terms()) == [((1, 0), 1), ((0, 1), 1), ((0, 0), 3)]


def test_zero_terms_are_dropped():
    p = LaurentPolynomial.from_terms(1, [((1,), 2), ((1,), -2)])
    assert p.is_zero()
    assert p.serialize() == "0"


def test_add_and_mul_agree_with_evaluation():
    rng = random.Random(7)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        a = _random_poly(rng, nvars)
        b = _random_poly(rng, nvars)
        point = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(nvars)]
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


def _random_poly(rng, nvars, nterms=5, span=3):
    items = []
    for _ in range(rng.randint(1, nterms)):
        exps = [rng.randint(-span, span) for _ in range(nvars)]
        items.append((exps, rng.randint(-4, 4)))
    return LaurentPolynomial.from_terms(nvars, items)


def test_divide_exact_recovers_factor():
    rng = random.Random(11)
    for _ in range(60):
        nvars = rng.randint(1, 3)
        a = _random_poly(rng, nvars)
        b = _random_poly(rng, nvars)
        if a.is_zero() or b.is_zero():
            continue
        prod = a * b
        assert prod.divide_exact(b) == a
        assert prod.divide_exact(a) == b


def test_divide_exact_quotient_with_common_monomial():
    # (x1*x3 + x2*x3 + x3) / (1 + x1 + x2) = x3: the quotient is a plain
    # monomial even though the divisor is a genuine trinomial.
    a = P(3, "x1*x3 + x2*x3 + x3")
    b = P(3, "1 + x1 + x2")
    assert a.divide_exact(b) == P(3, "x3")


def test_divide_exact_refuses_non_quotient():
    # Same dividend with the constant term broken: any quotient would have
    # to be x3 (by the leading and trailing boxes) but x3*(1+x1+x2) does
    # not match, e.g. at x1 = x2 = -1/2 the candidate values differ.
    a = P(3, "x1*x3 + x2*x3 + 1")
    b = P(3, "1 + x1 + x2")
    with pytest.raises(NotDivisible):
        a.divide_exact(b)


def test_divide_exact_laurent_shift():
    a = P(2, "x1^-2*x2 + x1^-1")
    b = P(2, "x2 + x1")
    assert a.divide_exact(b) == P(2, "x1^-2")


def test_divide_by_zero_and_coefficient_refusal():
    a = P(1, "2*x1")
    with pytest.raises(ZeroDivisionError):
        a.divide_exact(LaurentPolynomial.zero(1))
    with pytest.raises(NotDivisible):
        P(1, "3*x1 + 2").divide_exact(P(1, "2"))
    mono = LaurentPolynomial.monomial(1, 2, [1])
    assert P(1, "2*x1 + 4").divide_exact(mono) == P(1, "1 + 2*x1^-1")


def test_pow_including_monomial_negative():
    x = LaurentPolynomial.variable(2, 0)
    assert x**-3 == P(2, "x1^-3")
    p = P(2, "x1 + x2")
    assert p**0 == LaurentPolynomial.one(2)
    assert p**3 == P(2, "x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3")
    with pytest.raises(NotDivisible):
        _ = p**-1


def test_eval_exact():
    p = P(2, "x1^-1*x2 + x1^-1")
    assert p.evaluate([Fraction(1, 2), Fraction(3)]) == Fraction(8)
    assert p.has_nonnegative_coefficients()
    assert not P(2, "x1 - x2").has_nonnegative_coefficients()


def test_min_max_exponents():
    p = P(2, "x1^-2*x2 + x1^3*x2^-1")
    assert p.min_exponents() == (-2, -1)
    assert p.max_exponents() == (3, 1)
    assert LaurentPolynomial.zero(2).min_exponents() == (0, 0)


def test_serialize_forms():
    assert P(2, "x1 - x2").serialize() == "x1 - x2"
    assert P(2, "-x1 + x2").serialize() == "-x1 + x2"
    assert P(1, "5").serialize() == "5"
    assert P(2, "2*x1^-1*x2^2 + 1").serialize() == "2*x1^-1*x2^2 + 1"
    # graded order puts higher total degree first, ties broken lexicographically
    assert P(2, "x2 + x1 + x1*x2").serialize() == "x1*x2 + x1 + x2"


def test_serialize_with_names():
    p = P(2, "2*x1^-1*x2^2 - x1 + 1")
    assert p.serialize(["a", "b"]) == "-a + 2*a^-1*b^2 + 1"
    assert p.serialize() == "-x1 + 2*x1^-1*x2^2 + 1"
    assert LaurentPolynomial.zero(2).serialize(["a", "b"]) == "0"


def test_products_refuse_exponents_that_would_wrap():
    # packed 16-bit exponent fields used to wrap silently: x2**40000 came
    # out as x1*x2^-25536
    x = LaurentPolynomial.variable(2, 1)
    with pytest.raises(OverflowError):
        x**40000
    # in-range operands still multiply, even when the product leaves the
    # construction range; the next product refuses it as an operand
    for e in (8191, -8191):
        big = (x**e) * (x**e)
        assert big.max_exponents() == (0, 2 * e)
        with pytest.raises(OverflowError):
            big * x


def test_serialize_parse_round_trip():
    rng = random.Random(23)
    for _ in range(80):
        nvars = rng.randint(1, 5)
        p = _random_poly(rng, nvars, nterms=7, span=4)
        s = p.serialize()
        assert LaurentPolynomial.parse(nvars, s) == p
        assert LaurentPolynomial.parse(nvars, s).serialize() == s


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        LaurentPolynomial.parse(2, "x3 + 1")
    with pytest.raises(ValueError):
        LaurentPolynomial.parse(2, "x1 $ x2")
    with pytest.raises(ValueError):
        LaurentPolynomial.parse(2, "")


def test_exponent_range_guard():
    with pytest.raises(OverflowError):
        LaurentPolynomial.monomial(1, 1, [1 << 14])


def test_hash_consistency():
    a = P(2, "x1 + x2")
    b = P(2, "x2 + x1")
    assert a == b and hash(a) == hash(b)
    d = {a: 1}
    assert d[b] == 1
