"""Laurent arithmetic: exactness, division refusal, serialization round trips."""

import heapq
import random
from fractions import Fraction

import pytest

from conftest import laurent_from_terms, laurent_value, parse_laurent as P, reference_serialize

from clustercones.laurent import (
    EXP_LIMIT,
    LaurentPolynomial,
    NotDivisible,
    _box_guards,
    _zero_key,
    factor_texts,
    render,
    unpack_exponents,
)


def test_construction_and_terms_order():
    p = laurent_from_terms(2, [((1, 0), 1), ((0, 1), 1), ((0, 0), 3)])
    assert p.n_terms == 3
    # graded lex, highest first
    assert list(p.terms()) == [((1, 0), 1), ((0, 1), 1), ((0, 0), 3)]


def test_zero_terms_are_dropped():
    p = laurent_from_terms(1, [((1,), 2), ((1,), -2)])
    assert not p
    assert p.serialize() == "0"


def test_add_and_mul_agree_with_evaluation():
    rng = random.Random(7)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        a = _random_poly(rng, nvars)
        b = _random_poly(rng, nvars)
        point = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(nvars)]
        assert laurent_value(a + b, point) == laurent_value(a, point) + laurent_value(b, point)
        assert laurent_value(a * b, point) == laurent_value(a, point) * laurent_value(b, point)


def _random_poly(rng, nvars, nterms=5, span=3):
    items = []
    for _ in range(rng.randint(1, nterms)):
        exps = [rng.randint(-span, span) for _ in range(nvars)]
        items.append((exps, rng.randint(-4, 4)))
    return laurent_from_terms(nvars, items)


def test_divide_exact_recovers_factor():
    rng = random.Random(11)
    for _ in range(60):
        nvars = rng.randint(1, 3)
        a = _random_poly(rng, nvars)
        b = _random_poly(rng, nvars)
        if not a or not b:
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
        a.divide_exact(LaurentPolynomial.constant(1, 0))
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


def test_powers_equal_repeated_products_and_carry_exact_corners():
    rng = random.Random(59)
    for trial in range(30):
        nvars = rng.randint(1, 4)
        # half the bases know their corners (a product), half do not
        p = _random_poly(rng, nvars, nterms=3, span=2)
        if trial % 2:
            p = p * LaurentPolynomial.variable(nvars, 0)
        want = LaurentPolynomial.one(nvars)
        for n in range(10):
            got = p**n
            assert got == want, (p, n)
            _assert_exact_corners(got)
            want = want * p
    x = LaurentPolynomial.variable(3, 1)
    assert x**0 == LaurentPolynomial.one(3)
    assert (x**0).min_exponents() == (0, 0, 0) == (x**0).max_exponents()
    assert LaurentPolynomial.constant(3, 0)**0 == LaurentPolynomial.one(3)
    assert not LaurentPolynomial.constant(3, 0)**5


def test_eval_exact():
    p = P(2, "x1^-1*x2 + x1^-1")
    assert laurent_value(p, [Fraction(1, 2), Fraction(3)]) == Fraction(8)


def test_min_max_exponents():
    p = P(2, "x1^-2*x2 + x1^3*x2^-1")
    assert p.min_exponents() == (-2, -1)
    assert p.max_exponents() == (3, 1)
    assert LaurentPolynomial.constant(2, 0).min_exponents() == (0, 0)


def test_min_max_exponents_match_a_per_term_loop():
    rng = random.Random(31)
    span = EXP_LIMIT - 1
    for trial in range(300):
        nvars = rng.randint(1, 14)
        nterms = trial if trial < 2 else rng.choice((1, 2, 5, 20))
        items = [
            ([rng.choice((-span, span, 0, rng.randint(-span, span)))
              for _ in range(nvars)], rng.choice((-3, 1, 2)))
            for _ in range(nterms)
        ]
        p = laurent_from_terms(nvars, items)
        exps = [e for e, _ in p.terms()]
        if not exps:
            assert p.min_exponents() == p.max_exponents() == (0,) * nvars
            continue
        lo, hi = list(exps[0]), list(exps[0])
        for e in exps[1:]:
            for i in range(nvars):
                lo[i] = min(lo[i], e[i])
                hi[i] = max(hi[i], e[i])
        assert p.min_exponents() == tuple(lo)
        assert p.max_exponents() == tuple(hi)


def _assert_exact_corners(p):
    # min_exponents/max_exponents return the cached corner when there is
    # one; _corner reads the corner from the terms afresh
    assert p.min_exponents() == p._corner(min), p
    assert p.max_exponents() == p._corner(max), p


def test_cached_corners_of_cancelling_sums_and_zeros():
    x1, x2 = (LaurentPolynomial.variable(2, i) for i in range(2))
    one = LaurentPolynomial.one(2)
    cases = [
        (x1 + x2) - x1,
        (x1**-2 + one) + (-(x1**-2)),
        (x1 * x2 + x2**-1) - x2**-1,
        x1 - x1,
        (x1 + x2) + LaurentPolynomial.constant(2, 0),
        LaurentPolynomial.constant(2, 0) - (x1 + x2**3),
        (x1 + x2) * LaurentPolynomial.constant(2, 0),
        LaurentPolynomial.constant(2, 0).divide_exact(x1 + x2),
        (x1**3 - x1 * x2**2).divide_exact(x1 + x2),
        (x1 + x2).divide_exact(LaurentPolynomial.monomial(2, -1, [2, -3])),
    ]
    for p in cases:
        _assert_exact_corners(p)
    assert cases[0].min_exponents() == (0, 1) == cases[0].max_exponents()
    assert cases[1].min_exponents() == (0, 0)
    assert cases[5].min_exponents() == (0, 0) and cases[5].max_exponents() == (1, 3)
    assert cases[8].min_exponents() == (1, 0) and cases[8].max_exponents() == (2, 1)


def test_cached_corners_match_the_terms_under_random_arithmetic():
    # grow a pool from variables, constants and monomials (which know their
    # corners) and from term dicts (which do not), and check every result's
    # corners against the ones read from its terms
    rng = random.Random(73)
    carried = total = zeros = 0
    for trial in range(40):
        nvars = rng.randint(1, 4)
        pool = [LaurentPolynomial.variable(nvars, i) for i in range(nvars)]
        pool.append(LaurentPolynomial.constant(nvars, rng.choice((-2, 1, 3))))
        pool.append(_random_poly(rng, nvars, nterms=4, span=2))
        for _ in range(30):
            a, b = rng.choice(pool), rng.choice(pool)
            op = rng.randrange(8)
            if op == 0:
                p = a + b
            elif op == 1:
                p = a - b
            elif op == 2:
                p = -a
            elif op == 3:
                p = a * b
            elif op == 4:
                p = a ** rng.randint(0, 3)
            elif op == 5:
                # a sum whose extreme terms cancel
                p = (a + b) - b
            elif op == 6:
                mono = LaurentPolynomial.monomial(
                    nvars, rng.choice((-1, 1, 2)), [rng.randint(-2, 2) for _ in range(nvars)])
                p = (a * mono).divide_exact(mono)
                assert p == a
            else:
                if not b:
                    continue
                p = (a * b).divide_exact(b)
                assert p == a
            carried += p._min is not None and p._max is not None
            _assert_exact_corners(p)
            total += 1
            zeros += not p
            if p.n_terms <= 40:
                pool.append(p)
    # most results got their corners from their operands'; sums in which
    # a key cancelled, and results built from term dicts, read them later
    assert total // 2 < carried < total and zeros > 10


def test_divide_exact_box_refusals():
    # the dividend spans no x1 degree but the divisor spans one: no
    # quotient fits, whatever the coefficients
    with pytest.raises(NotDivisible, match="exponent box is empty"):
        P(2, "1 + x2").divide_exact(P(2, "1 + x1"))
    # (x1^2 + 1) / (x1 + 1): the quotient box in x1 is [0, 1], and long
    # division reaches the remainder 2, whose quotient term x1^-1 lies
    # outside it
    with pytest.raises(NotDivisible, match="leading term outside quotient box"):
        P(1, "x1^2 + 1").divide_exact(P(1, "x1 + 1"))


def _reference_divide(a, b):
    """Exact Laurent division as the package did it before the box test
    ran on packed keys: every leading term is unpacked and compared with
    the quotient box field by field, and every remainder update pushes
    its key onto the heap again. The oracle for divide_exact."""
    n = a.nvars
    base = _zero_key(n)
    amin, amax = a.min_exponents(), a.max_exponents()
    bmin, bmax = b.min_exponents(), b.max_exponents()
    qmin = [amin[i] - bmin[i] for i in range(n)]
    qmax = [amax[i] - bmax[i] for i in range(n)]
    if any(qmin[i] > qmax[i] for i in range(n)):
        raise NotDivisible("exponent box is empty")
    bterms = b._terms
    bkey = max(bterms)
    bc = bterms[bkey]
    rem = dict(a._terms)
    quot = {}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    while rem:
        k = -heap[0]
        if k not in rem:
            heapq.heappop(heap)
            continue
        qkey = k - bkey + base
        qexps = unpack_exponents(qkey, n)
        if not all(lo <= q <= hi for lo, q, hi in zip(qmin, qexps, qmax)):
            raise NotDivisible("leading term outside quotient box")
        qc, r = divmod(rem[k], bc)
        if r:
            raise NotDivisible("leading coefficient not divisible")
        quot[qkey] = qc
        off = qkey - base
        for kb, cb in bterms.items():
            kk = kb + off
            nc = rem.get(kk, 0) - qc * cb
            if nc:
                rem[kk] = nc
                heapq.heappush(heap, -kk)
            elif kk in rem:
                del rem[kk]
    return LaurentPolynomial(n, quot)


def _edge_poly(rng, nvars, nterms):
    """Random polynomial whose exponents include 0, small values, and the
    extremes +-(EXP_LIMIT - 1) of the construction range."""
    span = EXP_LIMIT - 1
    items = [
        ([rng.choice((-span, span, 0, rng.randint(-3, 3), rng.randint(-span, span)))
          for _ in range(nvars)], rng.choice((-3, -1, 1, 2, 5)))
        for _ in range(nterms)
    ]
    return laurent_from_terms(nvars, items)


def _refusal(divide, a, b):
    with pytest.raises(NotDivisible) as info:
        divide(a, b)
    return str(info.value)


def _outcome(divide, a, b):
    """The quotient's terms, or the type and message of the refusal."""
    try:
        return "quotient", divide(a, b)._terms
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _leaves_support(a, b, q):
    """Whether some quotient term times some divisor term lies outside the
    dividend's support: long division of a by b then meets a remainder key
    that a does not hold, the case the division sweep keeps a heap for."""
    shift = _zero_key(a.nvars)
    return any(kq + kb - shift not in a._terms for kq in q._terms for kb in b._terms)


def _belt_divisions(monkeypatch, contexts):
    """The (dividend, divisor) pair of every exact division that proves
    the expansions of the belts of the given (type, frozen count) contexts."""
    from clustercones.finite_type import BipartiteBelt, DynkinType, catalog_exchange

    pairs = []
    divide = LaurentPolynomial.divide_exact

    def spy(a, b):
        pairs.append((a, b))
        return divide(a, b)

    monkeypatch.setattr(LaurentPolynomial, "divide_exact", spy)
    for name, frozen in contexts:
        BipartiteBelt(catalog_exchange(DynkinType.from_name(name), frozen)).poly(0)
    monkeypatch.undo()
    return pairs


def test_divide_exact_matches_reference_long_division(monkeypatch):
    # every exchange division of these belts' expansions: the divisor and the
    # quotient are cluster variables, positive (positivity), so nothing
    # cancels in q * b and no remainder key leaves the dividend's support
    belt = _belt_divisions(monkeypatch, [
        ("A3", 0), ("B3", 0), ("C3", 0), ("D4", 0), ("F4", 0), ("G2", 0), ("E6", 6)])
    for a, b in belt:
        q = a.divide_exact(b)
        assert min(q._terms.values()) > 0 and min(b._terms.values()) > 0
        assert q == _reference_divide(a, b) and q * b == a
        assert not _leaves_support(a, b, q)
    assert len(belt) > 60 and max(b.n_terms for _, b in belt) > 20
    # signed quotients whose remainder leaves the dividend's support:
    # (x^3 + 1) / (x + 1) has positive operands, yet its quotient is
    # signed and it meets -x^2 + 1 after its first quotient term
    signed = [(P(1, "x1^3 + 1"), P(1, "x1 + 1")),
              (P(2, "x1^4 - x2^4"), P(2, "x1 - x2")),
              (P(2, "x1^2*x2^-1 - x2^3"), P(2, "x1*x2^-1 + x2"))]
    for a, b in signed:
        q = a.divide_exact(b)
        assert q == _reference_divide(a, b) and q * b == a
        assert _leaves_support(a, b, q)
    assert P(1, "x1^3 + 1").divide_exact(P(1, "x1 + 1")) == P(1, "x1^2 - x1 + 1")
    # refusals by type and message, among them a remainder key outside
    # the dividend's support that lands outside the quotient box
    for a, b in [(P(1, "x1^3 + 2"), P(1, "x1 + 1")), (P(1, "x1^2 + 1"), P(1, "x1 + 1")),
                 (P(1, "2*x1^2 - 1"), P(1, "2*x1 + 2")), (P(2, "1 + x2"), P(2, "1 + x1")),
                 (P(2, "x1^4 + x2^4"), P(2, "x1 - x2"))]:
        got = _outcome(LaurentPolynomial.divide_exact, a, b)
        assert got[0] == "NotDivisible" and got == _outcome(_reference_divide, a, b)

    # dense operands in one or two variables with coefficients +-1, whose
    # products often cancel
    rng = random.Random(62)

    def dense(nvars, nterms, span):
        return laurent_from_terms(nvars, [
            ([rng.randint(0, span) for _ in range(nvars)], rng.choice((-1, 1)))
            for _ in range(nterms)])

    outside = 0
    for _ in range(300):
        nvars = rng.randint(1, 2)
        q = dense(nvars, rng.randint(2, 6), 4 - nvars)
        b = dense(nvars, rng.randint(2, 4), 3 - nvars)
        if not q or b.n_terms < 2:
            continue
        a = q * b
        assert a.divide_exact(b) == _reference_divide(a, b) == q
        outside += _leaves_support(a, b, q)
        # an arbitrary signed dividend: divisible or refused, the outcome
        # and its message are the oracle's
        other = dense(nvars, rng.randint(1, 8), 5 - nvars)
        if other:
            assert _outcome(LaurentPolynomial.divide_exact, other, b) == _outcome(
                _reference_divide, other, b)
    assert outside > 40

    rng = random.Random(61)
    checked = refused = 0
    for trial in range(400):
        nvars = rng.randint(1, 5)
        edge = trial % 2
        make = _edge_poly if edge else (lambda r, n, t: _random_poly(r, n, t, span=4))
        q = make(rng, nvars, rng.randint(1, 6))
        b = make(rng, nvars, rng.randint(2, 5))
        if not q or b.n_terms < 2:
            continue
        a = q * b
        assert a.divide_exact(b) == _reference_divide(a, b) == q
        checked += 1
        # q*b + c*x^e is never divisible by b: b would divide a monomial,
        # a unit, so b would be a unit, i.e. a monomial
        exps = [rng.choice((-3, 0, 2, EXP_LIMIT - 1, 1 - EXP_LIMIT)) for _ in range(nvars)]
        bad = a + LaurentPolynomial.monomial(nvars, rng.choice((-1, 1, 7)), exps)
        assert _refusal(LaurentPolynomial.divide_exact, bad, b) == _refusal(
            _reference_divide, bad, b)
        refused += 1
    assert checked > 300 and refused == checked


def test_packed_box_test_matches_unpack_and_compare():
    # key and box corners span up to 2 * (EXP_LIMIT - 1) on either side of
    # zero, as the operands of one product do, so a key's distance to a
    # corner reaches past 2**14 (a guard with only that much headroom would
    # borrow from the next field) but stays below 2**15
    rng = random.Random(67)
    reach = 2 * (EXP_LIMIT - 1)
    far = 0
    for _ in range(3000):
        nvars = rng.randint(1, 6)
        lo, hi, exps = [], [], []
        for _ in range(nvars):
            a, b = sorted(rng.choice((-reach, reach, 0, rng.randint(-reach, reach)))
                          for _ in range(2))
            pick = rng.random()
            if pick < 0.3:
                e = rng.choice((a, b, a - 1, b + 1))
            elif pick < 0.5:
                e = rng.choice((-reach, reach, EXP_LIMIT - 1, 1 - EXP_LIMIT))
            else:
                e = rng.randint(-reach, reach)
            e = max(-reach, min(reach, e))
            lo.append(a)
            hi.append(b)
            exps.append(e)
            far += abs(e - a) > 1 << 14 or abs(b - e) > 1 << 14
        key = _zero_key(nvars)
        for i, e in enumerate(reversed(exps)):
            key += e << (16 * i)
        assert unpack_exponents(key, nvars) == tuple(exps)
        add, sub, top = _box_guards(lo, hi)
        inside = all(a <= e <= b for a, e, b in zip(lo, exps, hi))
        assert ((key + add) & (sub - key) & top == top) == inside, (lo, exps, hi)
    assert far > 100


def test_quotients_refuse_dividends_too_wide_to_pack():
    # x^24573 + x^-24573 is reachable through products and monomial
    # quotients but spans more than 2**15 in x1, too wide for the packed
    # box test: refused, as products of out-of-range operands are
    x = LaurentPolynomial.variable(1, 0)
    top = (x**8191 * x**8191).divide_exact(x**-8191)
    bottom = (x**-8191 * x**-8191).divide_exact(x**8191)
    assert top.max_exponents() == (24573,) and bottom.min_exponents() == (-24573,)
    with pytest.raises(OverflowError):
        (top + bottom).divide_exact(x + LaurentPolynomial.one(1))


def test_quotients_refuse_exponents_that_would_wrap():
    # chained quotients by x2^-8191 push x2's exponent past 2**15, where
    # its field would carry into x1's: x2^40955 used to come out as
    # x1*x2^-24581, from a monomial divisor and from the heap alike
    x = LaurentPolynomial.variable(2, 1)
    top = (x**8191 * x**8191).divide_exact(x**-8191)
    near = top.divide_exact(x**-8191)
    assert near.max_exponents() == (0, 32764) == near._corner(max)
    with pytest.raises(OverflowError, match="in a quotient"):
        near.divide_exact(x**-8191)
    with pytest.raises(OverflowError, match="in a quotient"):
        (near + top.divide_exact(x**-8190)).divide_exact(x**-8191 + x**-8190)


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
    assert LaurentPolynomial.constant(2, 0).serialize(["a", "b"]) == "0"


def test_serialize_matches_the_reference_rendering():
    # signed terms, coefficients above 1, a constant, a monomial and zero,
    # then random signed polynomials; with default and given names
    rng = random.Random(41)
    cases = [
        P(2, "x1 - x2"),
        P(3, "-3*x1^2*x3^-1 + x2 - 7"),
        P(2, "12*x1^-4*x2^3 - 5*x1 + 2"),
        P(2, "-4"),
        P(1, "9"),
        P(3, "-x1^-2*x2*x3^5"),
        P(2, "6*x2^-1"),
        LaurentPolynomial.constant(2, 0),
    ]
    cases += [_random_poly(rng, rng.randint(1, 5), nterms=9, span=6) for _ in range(60)]
    for p in cases:
        names = [f"v{i}" for i in range(p.nvars)]
        assert p.serialize() == reference_serialize(p)
        assert p.serialize(names) == reference_serialize(p, names)
        # a shift is rendered as the product by its monomial
        shift = [rng.randint(-3, 9) for _ in range(p.nvars)]
        shifted = p * LaurentPolynomial.monomial(p.nvars, 1, shift)
        assert render(p, factor_texts(names), shift) == reference_serialize(shifted, names)


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
        assert P(nvars, s) == p
        assert P(nvars, s).serialize() == s


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        P(2, "x3 + 1")
    with pytest.raises(ValueError):
        P(2, "x1 $ x2")
    with pytest.raises(ValueError):
        P(2, "")


def test_exponent_range_guard():
    with pytest.raises(OverflowError):
        LaurentPolynomial.monomial(1, 1, [1 << 14])


def test_hash_consistency():
    a = P(2, "x1 + x2")
    b = P(2, "x2 + x1")
    assert a == b and hash(a) == hash(b)
    d = {a: 1}
    assert d[b] == 1
