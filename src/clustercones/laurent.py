"""Sparse Laurent polynomials with exact integer coefficients.

A term's exponent vector is packed into a single Python int, 16 bits per
variable with a bias of 2**15, most significant field first. Multiplying two
monomials is then one integer addition, term keys hash fast, and comparing
packed keys of nonnegative-exponent monomials agrees with lexicographic
order on exponent vectors. Exponents must stay below 2**13 in absolute
value; the belt computations this module serves never get near that, and
the bound is checked on construction and on the operands of every
product (a product of in-range operands still fits its 16-bit fields, so
out-of-range exponents raise OverflowError instead of wrapping). A
quotient whose exponents would leave the 16-bit fields raises
OverflowError as well.

Each polynomial caches its componentwise min and max exponent vectors
(its corners). A cached corner is always exact, never an estimate: it is
set only where the corner follows from the operands' corners with no
cancellation to account for. Z[x^+-1] is an integral domain, so the
lowest (and highest) x_i-parts of two factors multiply to something
nonzero, and the corners of a product are the sums of its factors'
corners; the corners of an exact quotient q = a / b are a's minus b's,
since q * b = a; a sum or difference in which no key cancelled has the
union of its operands' supports, so its corners are their componentwise
min and max; negation keeps them; variables, constants and monomials
know theirs. Any other polynomial (a sum in which a key cancelled, one
built from a term dict) reads its corners on first request, in one
unpacking pass per corner: every key goes to bytes, a cached struct
splits it into its biased fields, and min or max runs over the columns at
C level. The product's range check and the quotient box read the corners.

Coefficients are arbitrary-precision ints. There is no coefficient field:
division is exact division over the integer Laurent ring, and refuses
(raises NotDivisible) when the quotient does not exist there. It is long
division by the leading term in one sweep over the remainder: the
dividend's keys are sorted once and walked in descending order while
each quotient term's products are subtracted from the remainder in
place, and only keys that enter the remainder outside the dividend's
support wait in a heap, merged into the sweep by key. When the quotient
q and the divisor b both have nonnegative coefficients, nothing cancels
in q * b, so every product of a quotient term and a divisor term is a
key of the dividend and the heap stays empty. That is the case in every
exchange relation of a cluster algebra: the divisor is a cluster
variable and the quotient the exchanged one, both positive Laurent
polynomials (positivity; Gross, Hacking, Keel and Kontsevich 2018).
Nonnegative operands alone do not suffice: (x^3 + 1) / (x + 1) has the
signed quotient x^2 - x + 1, and its remainder leaves the dividend's
support. The quotient box test runs on packed keys, one addition, one
subtraction and two ANDs per leading term against guard constants
computed once per division.
"""

from __future__ import annotations

import heapq
import struct
from operator import add, gt, sub
from typing import Callable, Iterator, Sequence

__all__ = [
    "LaurentPolynomial",
    "NotDivisible",
]

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
BIAS = 1 << (FIELD_BITS - 1)
EXP_LIMIT = 1 << 13

_zero_key_cache: dict[int, int] = {}
_fields_cache: dict[int, Callable] = {}


def _zero_key(nvars: int) -> int:
    key = _zero_key_cache.get(nvars)
    if key is None:
        key = 0
        for _ in range(nvars):
            key = (key << FIELD_BITS) | BIAS
        _zero_key_cache[nvars] = key
    return key


def _fields(nvars: int) -> Callable:
    """Unpacker of a packed key's to_bytes(2 * nvars, "big") into its
    nvars biased 16-bit fields, most significant first."""
    unpack = _fields_cache.get(nvars)
    if unpack is None:
        unpack = _fields_cache[nvars] = struct.Struct(f">{nvars}H").unpack
    return unpack


def _box_guards(lo: Sequence[int], hi: Sequence[int]) -> tuple[int, int, int]:
    """(add, sub, top) with (key + add) & (sub - key) & top == top iff
    lo[i] <= e[i] <= hi[i] for every exponent e[i] of the packed key.

    Field i of key + add is e[i] - lo[i] + 2**15 and field i of sub - key
    is hi[i] - e[i] + 2**15; top holds bit 15 of every field, which is
    set exactly when the difference is nonnegative. The test is exact
    whenever both differences lie in [-2**15, 2**15) for every field, so
    that no field borrows from or carries into its neighbour: for
    instance when lo and hi, like e, lie in a box narrower than 2**15.
    """
    add = sub = top = 0
    for low, high in zip(lo, hi):
        add = (add << FIELD_BITS) - low
        sub = (sub << FIELD_BITS) + high + (1 << FIELD_BITS)
        top = (top << FIELD_BITS) | BIAS
    return add, sub, top


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

    __slots__ = ("nvars", "_terms", "_hash", "_min", "_max")

    def __init__(self, nvars: int, terms: dict[int, int]):
        self.nvars = nvars
        self._terms = terms
        self._hash: int | None = None
        # the exact corners, or None until first requested; set directly
        # only where they are known exactly (see the module docstring)
        self._min: tuple[int, ...] | None = None
        self._max: tuple[int, ...] | None = None

    # construction

    @classmethod
    def constant(cls, nvars: int, c: int) -> "LaurentPolynomial":
        if c == 0:
            return cls(nvars, {})
        zeros = (0,) * nvars
        return _exactly(nvars, {_zero_key(nvars): c}, zeros, zeros)

    @classmethod
    def one(cls, nvars: int) -> "LaurentPolynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "LaurentPolynomial":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range")
        exps = [0] * nvars
        exps[index] = 1
        exps = tuple(exps)
        return _exactly(nvars, {pack_exponents(exps): 1}, exps, exps)

    @classmethod
    def monomial(cls, nvars: int, coeff: int, exps: Sequence[int]) -> "LaurentPolynomial":
        if len(exps) != nvars:
            raise ValueError("exponent vector length mismatch")
        if coeff == 0:
            return cls(nvars, {})
        exps = tuple(exps)
        return _exactly(nvars, {pack_exponents(exps): coeff}, exps, exps)

    # inspection

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Yield (exponents, coefficient) pairs in canonical order.

        Canonical order is graded lexicographic, highest first: total degree
        descending, ties broken by the exponent tuple descending.

        A cached struct splits each key into its biased fields. Every
        field is its exponent plus the same bias, so the fields' sum and
        the packed key order the terms as the exponents' degree and tuple
        do, and the bias comes off only as a term is yielded.
        """
        unpack, size = _fields(self.nvars), 2 * self.nvars
        decorated = []
        for key, coeff in self._terms.items():
            fields = unpack(key.to_bytes(size, "big"))
            decorated.append((sum(fields), key, fields, coeff))
        decorated.sort(reverse=True)
        for _, _, fields, coeff in decorated:
            yield tuple([f - BIAS for f in fields]), coeff

    def min_exponents(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms (zero poly: zeros).

        The negatives of these are the denominator exponents when the
        polynomial is written over a common monomial denominator.
        """
        lo = self._min
        if lo is None:
            lo = self._min = self._corner(min)
        return lo

    def max_exponents(self) -> tuple[int, ...]:
        hi = self._max
        if hi is None:
            hi = self._max = self._corner(max)
        return hi

    def _corner(self, pick) -> tuple[int, ...]:
        """One corner read from the terms (pick is min or max)."""
        # Biased fields are unsigned and in range, so their order is the
        # exponents' order: pick over the raw fields, unbias once.
        n = self.nvars
        if not self._terms:
            return (0,) * n
        unpack, size = _fields(n), 2 * n
        fields = [unpack(key.to_bytes(size, "big")) for key in self._terms]
        return tuple(c - BIAS for c in map(pick, zip(*fields)))

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
        """When no key cancels, the support of the sum is the union of the
        operands' supports, so it gets the componentwise min and max of
        their corners where both carry them (a zero operand contributes
        no terms, and no corner)."""
        self._check_compat(other)
        out = dict(self._terms)
        cancelled = False
        for key, coeff in other._terms.items():
            c = out.get(key, 0) + coeff
            if c:
                out[key] = c
            elif key in out:
                del out[key]
                cancelled = True
        total = LaurentPolynomial(self.nvars, out)
        if cancelled:
            return total
        if not other._terms:
            total._min, total._max = self._min, self._max
        elif not self._terms:
            total._min, total._max = other._min, other._max
        else:
            lo, hi, olo, ohi = self._min, self._max, other._min, other._max
            if lo is not None and olo is not None:
                total._min = tuple([x if x < y else y for x, y in zip(lo, olo)])
            if hi is not None and ohi is not None:
                total._max = tuple([x if x > y else y for x, y in zip(hi, ohi)])
        return total

    def __neg__(self) -> "LaurentPolynomial":
        neg = LaurentPolynomial(self.nvars, {k: -c for k, c in self._terms.items()})
        neg._min, neg._max = self._min, self._max
        return neg

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        # negation keeps the corners, so the sum's terms and corners are
        # the difference's
        return self + -other

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check_compat(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return LaurentPolynomial(self.nvars, {})
        alo, ahi = self.min_exponents(), self.max_exponents()
        blo, bhi = other.min_exponents(), other.max_exponents()
        # every exponent of both factors in [-EXP_LIMIT, EXP_LIMIT), the
        # range in which the product still fits its 16-bit fields (a
        # polynomial in no variables has no exponents to check)
        if alo and (min(alo + blo) < -EXP_LIMIT or max(ahi + bhi) >= EXP_LIMIT):
            raise OverflowError("exponent out of supported range in a product")
        if len(a) > len(b):
            a, b = b, a
        base = _zero_key(self.nvars)
        out: dict[int, int] = {}
        get = out.get
        for ka, ca in a.items():
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
        return _exactly(self.nvars, out, tuple(map(add, alo, blo)),
                        tuple(map(add, ahi, bhi)))

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
        if n == 0:
            return LaurentPolynomial.one(self.nvars)
        # square up to the lowest set bit of n and start there, so that no
        # product is spent on the constant one
        square = self
        while not n & 1:
            square = square * square
            n >>= 1
        result = square
        n >>= 1
        while n:
            square = square * square
            if n & 1:
                result = result * square
            n >>= 1
        return result

    def divide_exact(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient self / other over the integer Laurent ring.

        Raises NotDivisible when no such quotient exists. Long division is
        driven by the lexicographic leading term, with two fast refusals:
        the quotient's exponents are confined to the box pinned down by the
        componentwise min/max exponents of the operands (these are additive
        under multiplication over a domain), and each emitted coefficient
        must divide exactly over the integers. The operands' corners are
        read from their caches, and the quotient leaves with the corners
        of that box, a's minus b's: q * b = a in a domain, so they are
        exact. A quotient whose box leaves the 16-bit exponent fields is
        refused with OverflowError, on both the monomial and the
        multi-term branch, so that no quotient key wraps.

        The remainder starts as a copy of the dividend, whose keys are
        sorted once and swept in descending order. Each quotient term's
        products with the divisor's other terms go to keys below the
        current one, so the sweep never revisits a key: they are
        subtracted in place, a cancelled key keeps a 0 and is skipped when
        the sweep reaches it, and a key outside the dividend's support
        enters a heap that the sweep merges in by key (_merge_descending).
        Keys are taken in the order a max-heap of the whole remainder
        would give, so the quotient, and the first refusal, are those of
        heap long division (Monagan and Pearce 2007).

        A remainder term with key k gives the quotient term k - b, b the
        divisor's leading key, so the quotient box shifted by b is a box
        for k, tested on the packed key by _box_guards. Every remainder
        key lies in the dividend's corner box (the shifted quotient box
        plus the divisor's exponent spread is exactly that box), which is
        what keeps the packed test exact; a dividend spanning 2**15 or
        more in some exponent is refused with OverflowError.
        """
        self._check_compat(other)
        if not other._terms:
            raise ZeroDivisionError("Laurent division by zero")
        if not self._terms:
            return LaurentPolynomial(self.nvars, {})
        n = self.nvars
        base = _zero_key(n)
        amin, amax = self.min_exponents(), self.max_exponents()
        qmin = tuple(map(sub, amin, other.min_exponents()))
        qmax = tuple(map(sub, amax, other.max_exponents()))
        if any(map(gt, qmin, qmax)):
            raise NotDivisible("exponent box is empty")
        if min(qmin, default=0) < -BIAS or max(qmax, default=0) >= BIAS:
            raise OverflowError("exponent out of supported range in a quotient")

        if len(other._terms) == 1:
            ((bkey, bc),) = other._terms.items()
            off = bkey - base
            out = {}
            for k, c in self._terms.items():
                q, r = divmod(c, bc)
                if r:
                    raise NotDivisible("coefficient not divisible")
                out[k - off] = q
            return _exactly(n, out, qmin, qmax)

        bterms = other._terms
        bkey = max(bterms)
        bc = bterms[bkey]
        lead = unpack_exponents(bkey, n)
        if any(b - a >= BIAS for a, b in zip(amin, amax)):
            raise OverflowError("exponent out of supported range in a quotient")
        plus, minus, top = _box_guards([q + e for q, e in zip(qmin, lead)],
                                       [q + e for q, e in zip(qmax, lead)])

        shift = bkey - base
        rest = [(kb - bkey, cb) for kb, cb in bterms.items() if kb != bkey]
        rem = dict(self._terms)
        # keys entering the remainder outside the dividend's support, as
        # negatives: a min-heap of them is a max-heap of the keys
        extra: list[int] = []
        push = heapq.heappush
        quot: dict[int, int] = {}
        for k in _merge_descending(sorted(rem, reverse=True), extra):
            c = rem[k]
            if not c:
                continue
            if (k + plus) & (minus - k) & top != top:
                raise NotDivisible("leading term outside quotient box")
            qc, r = divmod(c, bc)
            if r:
                raise NotDivisible("leading coefficient not divisible")
            quot[k - shift] = qc
            for d, cb in rest:
                kk = k + d
                try:
                    rem[kk] -= qc * cb
                except KeyError:
                    rem[kk] = -qc * cb
                    push(extra, -kk)
        return _exactly(n, quot, qmin, qmax)

    # serialization

    def serialize(self, names: Sequence[str] | None = None) -> str:
        """Canonical string form, byte-stable across runs.

        Terms in graded lex order (highest first), variables 1-based:
        "x1^2*x2 - 3*x1*x3^-1 + 2". The zero polynomial is "0". names,
        when given, replaces x1, x2, ... in the output; the tests'
        parse_laurent reads back only the default names.
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

    def __repr__(self) -> str:
        s = self.serialize()
        if len(s) > 60:
            s = s[:57] + "..."
        return f"<Laurent {self.nvars}v {s}>"


def _merge_descending(keys: list[int], extra: list[int]) -> Iterator[int]:
    """keys (descending) and the keys of the heap extra (negated), which
    may grow while this runs, in one descending sequence."""
    popmax = heapq.heappop
    for k in keys:
        while extra and -extra[0] > k:
            yield -popmax(extra)
        yield k
    while extra:
        yield -popmax(extra)


def _exactly(nvars: int, terms: dict[int, int], lo: tuple[int, ...],
             hi: tuple[int, ...]) -> LaurentPolynomial:
    """A polynomial whose corners lo and hi are known exactly (never pass
    a bound that is merely valid)."""
    p = LaurentPolynomial(nvars, terms)
    p._min, p._max = lo, hi
    return p
