"""Seeds, exchange matrices, and mutation.

An ExchangeData holds the full (n+m) x (n+m) skew-symmetrizable exchange
matrix with the n mutable indices first, positive integer weights (the
symmetrizer diagonal), and display names. Entries between two frozen
indices are carried along untouched; mutation never reads them.

A Seed pairs an ExchangeData with a cluster of Laurent polynomials in the
initial variables. Mutation performs the exchange substitution with exact
Laurent division, which doubles as a proof that the new variable is again
a Laurent polynomial; a division failure here means the input matrix was
not what it claimed to be.

The exchange relation x' = (prod out^b + prod in^b) / x is written once,
in _exchange, over a _Ring: Laurent polynomials, exact Fractions, min-plus
exponent vectors, min-plus valuations, or additive torus weights. Every
cluster mutation and belt walk in the package goes through it.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .laurent import EXP_LIMIT, LaurentPolynomial
from .linalg import rank, right_kernel_basis

__all__ = [
    "ExchangeData",
    "Seed",
    "YSeed",
    "mutate_matrix",
    "y_seed_from_cluster",
    "load_seed_file",
    "dump_seed_data",
]


# the exchange relation over a ring
#
# Everything here is private on purpose: one unbounded membership check
# calls _exchange over a thousand times, so it must not pick up per-call
# tracing or wrapping (the benchmark's tracer wraps public names).


class _Ring(NamedTuple):
    """The operations an exchange walk needs, as plain callables."""

    one: Callable[[], object]
    mul: Callable[[object, object], object]
    pow: Callable[[object, int], object]
    add: Callable[[object, object], object]
    div: Callable[[object, object], object]


def _laurent_ring(nvars: int) -> _Ring:
    # operators and lambdas look the methods up at call time, so wrappers
    # installed on LaurentPolynomial later still see every call
    return _Ring(
        lambda: LaurentPolynomial.one(nvars),
        operator.mul,
        operator.pow,
        operator.add,
        lambda a, b: a.divide_exact(b),
    )


_FRACTIONS = _Ring(
    lambda: Fraction(1), operator.mul, operator.pow, operator.add, operator.truediv
)


def _minplus_ring(nvars: int) -> _Ring:
    """Componentwise minimum exponents: additive under products, and the
    minimum under sums of positive-coefficient polynomials."""
    return _Ring(
        lambda: (0,) * nvars,
        lambda a, b: tuple(map(operator.add, a, b)),
        lambda a, e: tuple(e * x for x in a),
        lambda a, b: tuple(map(min, a, b)),
        lambda a, b: tuple(map(operator.sub, a, b)),
    )


# valuations at t -> 0 along x = t^beta: a sum of positive-coefficient
# terms c * t^a + d * t^b has valuation min(a, b), and nothing cancels
_VALUATIONS = _Ring(lambda: 0, operator.add, operator.mul, min, operator.sub)


def _balanced(a, b):
    if a != b:
        raise ValueError(f"exchange relation is not homogeneous ({a} != {b})")
    return a


# torus weights: a sum is defined only between equal weights, so walking
# a weight vector checks that every exchange relation is homogeneous
_WEIGHTS = _Ring(lambda: 0, operator.add, operator.mul, _balanced, operator.sub)


def _split(pairs: Iterable[tuple[int, int]]) -> tuple[tuple, tuple]:
    """Positive and (negated) negative (key, exponent) pairs; zeros dropped."""
    pos, neg = [], []
    for j, b in pairs:
        if b > 0:
            pos.append((j, b))
        elif b < 0:
            neg.append((j, -b))
    return tuple(pos), tuple(neg)


def _monomial(ring: _Ring, values, terms) -> object:
    """Product of values[j] ** b over the (j, b) pairs of terms."""
    acc = None
    for j, b in terms:
        f = values[j] if b == 1 else ring.pow(values[j], b)
        acc = f if acc is None else ring.mul(acc, f)
    return ring.one() if acc is None else acc


def _exchange(ring: _Ring, values, pos, neg, old) -> object:
    """The exchange relation: (prod values^pos + prod values^neg) / old."""
    return ring.div(
        ring.add(_monomial(ring, values, pos), _monomial(ring, values, neg)), old
    )


def mutate_matrix(
    matrix: Sequence[Sequence[int]], k: int, n: int
) -> tuple[tuple[int, ...], ...]:
    """Matrix mutation at mutable index k (k < n). Frozen-frozen entries kept.

    b'_ij = -b_ij if i or j is k; otherwise b'_ij = b_ij + |b_ik| b_kj when
    b_ik and b_kj have the same sign, and b_ij when they do not. A row
    with b_ik = 0 does not change and is reused as it is.
    """
    if not 0 <= k < n:
        raise IndexError(f"mutation index {k} is not mutable")
    # (j, |b_kj|) for the positive and the negative entries of row k: a row
    # with b_ik != 0 gains b_ik * |b_kj| at the entries of b_ik's sign, and
    # a frozen row only in mutable columns
    pos, neg = _split(enumerate(matrix[k]))
    frozen_terms = (pos, neg) if len(matrix) == n else (
        tuple(t for t in pos if t[0] < n), tuple(t for t in neg if t[0] < n))
    out = []
    for i, row in enumerate(matrix):
        bik = row[k]
        if i == k:
            out.append(tuple(map(operator.neg, row)))
        elif not bik:
            out.append(tuple(row))
        else:
            row = list(row)
            row[k] = -bik
            terms = (pos, neg) if i < n else frozen_terms
            for j, b in terms[bik < 0]:
                row[j] += bik * b
            out.append(tuple(row))
    return tuple(out)


class ExchangeData:
    """Immutable exchange matrix with weights and names.

    matrix: full (n+m) x (n+m), mutable indices 0..n-1.
    weights: positive ints with w[i] * B[i][j] == -w[j] * B[j][i] whenever
    i or j is mutable.
    """

    __slots__ = ("n", "m", "matrix", "weights", "names")

    def __init__(
        self,
        n: int,
        m: int,
        matrix: Sequence[Sequence[int]],
        weights: Sequence[int] | None = None,
        names: Sequence[str] | None = None,
    ):
        size = n + m
        if len(matrix) != size or any(len(row) != size for row in matrix):
            raise ValueError("exchange matrix has wrong shape")
        self.n = n
        self.m = m
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        self.weights = tuple(int(w) for w in (weights or [1] * size))
        if len(self.weights) != size or any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive, one per index")
        self.names = tuple(names) if names else tuple(
            [f"x{i + 1}" for i in range(n)] + [f"f{i + 1}" for i in range(m)]
        )
        if len(self.names) != size:
            raise ValueError("names length mismatch")
        for i in range(size):
            for j in range(size):
                if i >= n and j >= n:
                    continue
                if self.weights[i] * self.matrix[i][j] != -self.weights[j] * self.matrix[j][i]:
                    raise ValueError(
                        f"matrix is not skew-symmetrizable at ({i}, {j}) "
                        f"with the given weights"
                    )

    @property
    def size(self) -> int:
        return self.n + self.m

    def mutable_matrix(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        return tuple(tuple(row[:n]) for row in self.matrix[:n])

    def extended_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Mutable rows, all columns: the part that drives the dynamics."""
        return self.matrix[: self.n]

    def mutate(self, k: int) -> "ExchangeData":
        return ExchangeData(
            self.n,
            self.m,
            mutate_matrix(self.matrix, k, self.n),
            self.weights,
            self.names,
        )

    def extended_rank(self) -> int:
        return rank(self.extended_matrix())

    def is_full_rank(self) -> bool:
        return self.extended_rank() == self.n

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Primitive integral basis of the right kernel of the extended matrix.

        Each kernel vector is a torus weight under which every exchange
        relation is homogeneous, so every cluster variable is homogeneous
        of some weight.
        """
        return right_kernel_basis(self.extended_matrix())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExchangeData):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.matrix))

    def __repr__(self) -> str:
        return f"<ExchangeData n={self.n} m={self.m}>"


class Seed:
    """Exchange data plus a cluster of Laurent polynomials."""

    __slots__ = ("exchange", "cluster", "history")

    def __init__(
        self,
        exchange: ExchangeData,
        cluster: Sequence[LaurentPolynomial],
        history: tuple[int, ...] = (),
    ):
        if len(cluster) != exchange.size:
            raise ValueError("cluster length mismatch")
        self.exchange = exchange
        self.cluster = tuple(cluster)
        self.history = history

    @classmethod
    def initial(cls, exchange: ExchangeData) -> "Seed":
        size = exchange.size
        cluster = [LaurentPolynomial.variable(size, i) for i in range(size)]
        return cls(exchange, cluster)

    def mutate(self, k: int) -> "Seed":
        """Exchange substitution at mutable index k."""
        ex = self.exchange
        if not 0 <= k < ex.n:
            raise IndexError(f"mutation index {k} is not mutable")
        pos, neg = _split(enumerate(ex.matrix[k]))
        cluster = list(self.cluster)
        cluster[k] = _exchange(
            _laurent_ring(ex.size), self.cluster, pos, neg, self.cluster[k]
        )
        return Seed(ex.mutate(k), cluster, self.history + (k,))

    def __repr__(self) -> str:
        return f"<Seed n={self.exchange.n} m={self.exchange.m} depth={len(self.history)}>"


class YSeed:
    """Y-dynamics seed: one subtraction-free rational pair per mutable index.

    Values are (numerator, denominator) pairs of Laurent polynomials in
    whatever ambient variables the caller chose; equality of values is
    decided by cross-multiplication, so pairs need not be reduced.
    """

    __slots__ = ("exchange", "values", "history")

    def __init__(
        self,
        exchange: ExchangeData,
        values: Sequence[tuple[LaurentPolynomial, LaurentPolynomial]],
        history: tuple[int, ...] = (),
    ):
        if len(values) != exchange.n:
            raise ValueError("one y-value per mutable index required")
        self.exchange = exchange
        self.values = tuple(values)
        self.history = history

    def mutate(self, k: int) -> "YSeed":
        ex = self.exchange
        if not 0 <= k < ex.n:
            raise IndexError(f"mutation index {k} is not mutable")
        yk_num, yk_den = self.values[k]
        new_values = []
        for i in range(ex.n):
            if i == k:
                new_values.append((yk_den, yk_num))
                continue
            num, den = self.values[i]
            b = ex.matrix[i][k]
            if b:
                # b > 0: y_i * (y_k / (1 + y_k))^b; b < 0: y_i * (1 + y_k)^|b|
                total = yk_num + yk_den
                gain, loss = (yk_num, total) if b > 0 else (total, yk_den)
                num, den = num * gain ** abs(b), den * loss ** abs(b)
            new_values.append((num, den))
        return YSeed(ex.mutate(k), new_values, self.history + (k,))

    def value_equal(self, i: int, other: tuple[LaurentPolynomial, LaurentPolynomial]) -> bool:
        num, den = self.values[i]
        onum, oden = other
        return num * oden == onum * den


def y_seed_from_cluster(seed: Seed) -> YSeed:
    """The y-values attached to a seed: y_i = prod_j cluster_j ^ B[i][j]."""
    ex = seed.exchange
    ring = _laurent_ring(ex.size)
    values = []
    for i in range(ex.n):
        pos, neg = _split(enumerate(ex.matrix[i]))
        values.append(
            (_monomial(ring, seed.cluster, pos), _monomial(ring, seed.cluster, neg))
        )
    return YSeed(ex, values)


def load_seed_file(source: str | dict) -> ExchangeData:
    """Read exchange data from a JSON seed description.

    Format: {"nodes": [{"name": str, "frozen": bool, "weight": int}, ...],
    "arrows": [{"from": name, "to": name, "mult": int}, ...]}. Arrows point
    from i to j with B[i][j] = mult > 0; the opposite entry is filled in
    from the weights and must come out integral. Entries of magnitude
    laurent.EXP_LIMIT or more are rejected, naming the arrow: exchange
    polynomials could not hold such exponents. Mutable nodes are
    reordered before frozen ones, preserving relative order.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    nodes = data["nodes"]
    names_in = [nd["name"] for nd in nodes]
    if len(set(names_in)) != len(names_in):
        raise ValueError("duplicate node names in seed file")
    order = [i for i, nd in enumerate(nodes) if not nd.get("frozen")] + [
        i for i, nd in enumerate(nodes) if nd.get("frozen")
    ]
    n = sum(1 for nd in nodes if not nd.get("frozen"))
    m = len(nodes) - n
    index = {nodes[old]["name"]: new for new, old in enumerate(order)}
    weights = [int(nodes[old].get("weight", 1)) for old in order]
    names = [nodes[old]["name"] for old in order]
    size = n + m
    mat = [[0] * size for _ in range(size)]
    seen: set[tuple[int, int]] = set()
    for arrow in data.get("arrows", []):
        try:
            i, j = index[arrow["from"]], index[arrow["to"]]
        except KeyError as exc:
            raise ValueError(f"arrow references unknown node {exc}") from None
        mult = int(arrow.get("mult", 1))
        if mult <= 0:
            raise ValueError("arrow multiplicity must be positive")
        if i == j:
            raise ValueError("loops are not allowed")
        mat[i][j] += mult
        seen.add((i, j))
    for i, j in list(seen):
        arrow = f"arrow {names[i]} -> {names[j]}"
        if (j, i) in seen:
            raise ValueError(
                f"two-cycle between {names[i]} and {names[j]} in seed file"
            )
        if mat[i][j] >= EXP_LIMIT:
            raise ValueError(
                f"{arrow}: multiplicity {mat[i][j]} is above the limit {EXP_LIMIT - 1}"
            )
        if i >= n and j >= n:
            mat[j][i] = -mat[i][j]
            continue
        back = Fraction(mat[i][j] * weights[i], weights[j])
        if back.denominator != 1:
            raise ValueError(f"{arrow}: weights do not symmetrize")
        if back >= EXP_LIMIT:
            raise ValueError(
                f"{arrow}: opposite entry -{back} is below the limit -{EXP_LIMIT - 1}"
            )
        mat[j][i] = -int(back)
    return ExchangeData(n, m, mat, weights, names)


def dump_seed_data(exchange: ExchangeData) -> dict:
    """Inverse of load_seed_file, for certificates and caching."""
    nodes = [
        {
            "name": exchange.names[i],
            "frozen": i >= exchange.n,
            "weight": exchange.weights[i],
        }
        for i in range(exchange.size)
    ]
    arrows = []
    for i in range(exchange.size):
        for j in range(exchange.size):
            if exchange.matrix[i][j] > 0:
                arrows.append(
                    {"from": exchange.names[i], "to": exchange.names[j],
                     "mult": exchange.matrix[i][j]}
                )
    return {"nodes": nodes, "arrows": arrows}
