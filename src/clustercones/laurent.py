"""Sparse Laurent polynomials with exact integer coefficients.

A term's exponent vector is packed into a single Python int, 16 bits per
variable with a bias of 2**15, most significant field first. Multiplying two
monomials is then one integer addition, term keys hash fast, and comparing
packed keys of nonnegative-exponent monomials agrees with lexicographic
order on exponent vectors. Exponents must stay below 2**13 in absolute
value; the belt computations this module serves never get near that, and
the bound is checked on construction and on the operands of every
product (a product of in-range operands still fits its 16-bit fields, so
out-of-range exponents raise OverflowError instead of wrapping).

Coefficients are arbitrary-precision ints. There is no coefficient field:
division is exact division over the integer Laurent ring, and refuses
(raises NotDivisible) when the quotient does not exist there.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

__all__ = [
    "LaurentPolynomial",
    "NotDivisible",
]

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
BIAS = 1 << (FIELD_BITS - 1)
EXP_LIMIT = 1 << 13

_zero_key_cache: dict[int, int] = {}
_range_cache: dict[int, tuple[int, int]] = {}


def _zero_key(nvars: int) -> int:
    key = _zero_key_cache.get(nvars)
    if key is None:
        key = 0
        for _ in range(nvars):
            key = (key << FIELD_BITS) | BIAS
        _zero_key_cache[nvars] = key
    return key


def _range_check(nvars: int) -> tuple[int, int]:
    """(low, mask) with (key - low) & mask == 0 iff every exponent e of
    the packed key has -EXP_LIMIT <= e < EXP_LIMIT.

    Subtracting BIAS - EXP_LIMIT from each field leaves e + EXP_LIMIT,
    which lies in [0, 2 * EXP_LIMIT) exactly when e is in range; a field
    below that borrows and sets its top bits, one above sets them itself.
    """
    got = _range_cache.get(nvars)
    if got is None:
        low = mask = 0
        for _ in range(nvars):
            low = (low << FIELD_BITS) | (BIAS - EXP_LIMIT)
            mask = (mask << FIELD_BITS) | (FIELD_MASK & -(2 * EXP_LIMIT))
        got = _range_cache[nvars] = (low, mask)
    return got


def pack_exponents(exps: Sequence[int]) -> int:
    """Pack an exponent vector into a single int key."""
    key = 0
    for e in exps:
        if not -EXP_LIMIT < e < EXP_LIMIT:
            raise OverflowError(f"exponent {e} out of supported range")
        key = (key << FIELD_BITS) | (e + BIAS)
    return key


def unpack_exponents(key: int, nvars: int) -> tuple[int, ...]:
    """Inverse of pack_exponents."""
    out = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        out[i] = (key & FIELD_MASK) - BIAS
        key >>= FIELD_BITS
    return tuple(out)


class NotDivisible(ArithmeticError):
    """Raised when an exact Laurent quotient does not exist over the integers."""


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial in a fixed number of variables.

    Do not mutate the term dict of an existing instance; all arithmetic
    returns new objects. Construct with the factory classmethods unless you
    already hold packed keys.
    """

    __slots__ = ("nvars", "_terms", "_hash")

    def __init__(self, nvars: int, terms: dict[int, int]):
        self.nvars = nvars
        self._terms = terms
        self._hash: int | None = None

    # construction

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPolynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: int) -> "LaurentPolynomial":
        if c == 0:
            return cls(nvars, {})
        return cls(nvars, {_zero_key(nvars): c})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPolynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "LaurentPolynomial":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {pack_exponents(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, coeff: int, exps: Sequence[int]) -> "LaurentPolynomial":
        if len(exps) != nvars:
            raise ValueError("exponent vector length mismatch")
        if coeff == 0:
            return cls(nvars, {})
        return cls(nvars, {pack_exponents(exps): coeff})

    @classmethod
    def from_terms(
        cls, nvars: int, items: Iterable[tuple[Sequence[int], int]]
    ) -> "LaurentPolynomial":
        terms: dict[int, int] = {}
        for exps, coeff in items:
            if len(exps) != nvars:
                raise ValueError("exponent vector length mismatch")
            key = pack_exponents(exps)
            c = terms.get(key, 0) + coeff
            if c:
                terms[key] = c
            elif key in terms:
                del terms[key]
        return cls(nvars, terms)

    # inspection

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Yield (exponents, coefficient) pairs in canonical order.

        Canonical order is graded lexicographic, highest first: total degree
        descending, ties broken by the exponent tuple descending.
        """
        n = self.nvars
        decorated = []
        for key, coeff in self._terms.items():
            exps = unpack_exponents(key, n)
            decorated.append((sum(exps), exps, coeff))
        decorated.sort(reverse=True)
        for _, exps, coeff in decorated:
            yield exps, coeff

    def min_exponents(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms (zero poly: zeros).

        The negatives of these are the denominator exponents when the
        polynomial is written over a common monomial denominator.
        """
        return self._corner(min)

    def max_exponents(self) -> tuple[int, ...]:
        return self._corner(max)

    def _corner(self, pick) -> tuple[int, ...]:
        n = self.nvars
        if not self._terms:
            return (0,) * n
        it = iter(self._terms)
        best = list(unpack_exponents(next(it), n))
        for key in it:
            exps = unpack_exponents(key, n)
            for i in range(n):
                best[i] = pick(best[i], exps[i])
        return tuple(best)

    def has_nonnegative_coefficients(self) -> bool:
        return all(c > 0 for c in self._terms.values())

    # comparison and hashing

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self._terms.items())))
            self._hash = h
        return h

    # arithmetic

    def _check_compat(self, other: "LaurentPolynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("operands live in different variable sets")

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check_compat(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            c = out.get(key, 0) + coeff
            if c:
                out[key] = c
            elif key in out:
                del out[key]
        return LaurentPolynomial(self.nvars, out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.nvars, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check_compat(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            c = out.get(key, 0) - coeff
            if c:
                out[key] = c
            elif key in out:
                del out[key]
        return LaurentPolynomial(self.nvars, out)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check_compat(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return LaurentPolynomial(self.nvars, {})
        if len(a) > len(b):
            a, b = b, a
        base = _zero_key(self.nvars)
        low, mask = _range_check(self.nvars)
        for kb in b:
            if (kb - low) & mask:
                raise OverflowError("exponent out of supported range in a product")
        out: dict[int, int] = {}
        get = out.get
        for ka, ca in a.items():
            if (ka - low) & mask:
                raise OverflowError("exponent out of supported range in a product")
            off = ka - base
            for kb, cb in b.items():
                k = kb + off
                c = get(k)
                if c is None:
                    out[k] = ca * cb
                else:
                    c += ca * cb
                    if c:
                        out[k] = c
                    else:
                        del out[k]
        return LaurentPolynomial(self.nvars, out)

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            if self.is_monomial():
                ((key, coeff),) = self._terms.items()
                if coeff in (1, -1):
                    exps = unpack_exponents(key, self.nvars)
                    sign = -1 if (coeff == -1 and n % 2) else 1
                    return LaurentPolynomial.monomial(
                        self.nvars, sign, [e * n for e in exps]
                    )
            raise NotDivisible("negative power of a non-unit")
        result = LaurentPolynomial.one(self.nvars)
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def divide_exact(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient self / other over the integer Laurent ring.

        Raises NotDivisible when no such quotient exists. Long division is
        driven by the lexicographic leading term, with two fast refusals:
        the quotient's exponents are confined to the box pinned down by the
        componentwise min/max exponents of the operands (these are additive
        under multiplication over a domain), and each emitted coefficient
        must divide exactly over the integers.
        """
        self._check_compat(other)
        if not other._terms:
            raise ZeroDivisionError("Laurent division by zero")
        if not self._terms:
            return LaurentPolynomial(self.nvars, {})
        n = self.nvars
        base = _zero_key(n)

        if len(other._terms) == 1:
            ((bkey, bc),) = other._terms.items()
            off = bkey - base
            out = {}
            for k, c in self._terms.items():
                q, r = divmod(c, bc)
                if r:
                    raise NotDivisible("coefficient not divisible")
                out[k - off] = q
            return LaurentPolynomial(n, out)

        amin, amax = self.min_exponents(), self.max_exponents()
        bmin, bmax = other.min_exponents(), other.max_exponents()
        qmin = [amin[i] - bmin[i] for i in range(n)]
        qmax = [amax[i] - bmax[i] for i in range(n)]
        if any(qmin[i] > qmax[i] for i in range(n)):
            raise NotDivisible("exponent box is empty")

        bterms = other._terms
        bkey = max(bterms)
        bc = bterms[bkey]
        rem = dict(self._terms)
        quot: dict[int, int] = {}
        heap = [-k for k in rem]
        heapq.heapify(heap)
        while rem:
            k = -heap[0]
            if k not in rem:
                heapq.heappop(heap)
                continue
            qkey = k - bkey + base
            qexps = unpack_exponents(qkey, n)
            if any(not (qmin[i] <= qexps[i] <= qmax[i]) for i in range(n)):
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

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        """Evaluate at a point with nonzero coordinates, exactly."""
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        powcache: list[dict[int, Fraction]] = [dict() for _ in range(self.nvars)]
        total = Fraction(0)
        for exps, coeff in self._terms_raw():
            term = Fraction(coeff)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                cache = powcache[i]
                p = cache.get(e)
                if p is None:
                    p = Fraction(point[i]) ** e
                    cache[e] = p
                term *= p
            total += term
        return total

    def _terms_raw(self) -> Iterator[tuple[tuple[int, ...], int]]:
        n = self.nvars
        for key, coeff in self._terms.items():
            yield unpack_exponents(key, n), coeff

    # serialization

    def serialize(self, names: Sequence[str] | None = None) -> str:
        """Canonical string form, byte-stable across runs.

        Terms in graded lex order (highest first), variables 1-based:
        "x1^2*x2 - 3*x1*x3^-1 + 2". The zero polynomial is "0". names,
        when given, replaces x1, x2, ... in the output; parse() reads
        only the default names.
        """
        if not self._terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        pieces: list[str] = []
        for exps, coeff in self.terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                factors.append(names[i] if e == 1 else f"{names[i]}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    _TOKEN = re.compile(r"\s*(x(\d+)(\^(-?\d+))?|(-?\d+)|([+*-]))")

    @classmethod
    def parse(cls, nvars: int, text: str) -> "LaurentPolynomial":
        """Parse the serialize() format (whitespace-tolerant)."""
        terms: list[tuple[list[int], int]] = []
        sign = 1
        coeff: int | None = None
        exps: list[int] | None = None
        pos = 0

        def flush():
            nonlocal sign, coeff, exps
            if exps is None and coeff is None:
                raise ValueError(f"dangling operator in {text!r}")
            c = sign * (1 if coeff is None else coeff)
            terms.append((exps if exps is not None else [0] * nvars, c))
            sign, coeff, exps = 1, None, None

        expect_factor = True
        while pos < len(text):
            m = cls._TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError(f"bad token at offset {pos} in {text!r}")
                break
            pos = m.end()
            if m.group(6):
                op = m.group(6)
                if op == "*":
                    expect_factor = True
                    continue
                if expect_factor and op == "-":
                    sign = -sign
                    continue
                if expect_factor:
                    continue
                flush()
                if op == "-":
                    sign = -1
                expect_factor = True
            elif m.group(5) is not None:
                value = int(m.group(5))
                if not expect_factor:
                    flush()
                if value < 0:
                    sign *= -1
                    value = -value
                coeff = value if coeff is None else coeff * value
                expect_factor = False
            else:
                if not expect_factor:
                    flush()
                idx = int(m.group(2)) - 1
                if not 0 <= idx < nvars:
                    raise ValueError(f"variable x{idx + 1} out of range in {text!r}")
                e = int(m.group(4)) if m.group(4) else 1
                if exps is None:
                    exps = [0] * nvars
                exps[idx] += e
                expect_factor = False
        if exps is not None or coeff is not None:
            flush()
        elif not terms:
            raise ValueError(f"empty polynomial string {text!r}")
        return cls.from_terms(nvars, terms)

    def __repr__(self) -> str:
        s = self.serialize()
        if len(s) > 60:
            s = s[:57] + "..."
        return f"<Laurent {self.nvars}v {s}>"
