"""Seeds, exchange matrices, and mutation.

An ExchangeData holds the full (n+m) x (n+m) skew-symmetrizable exchange
matrix with the n mutable indices first, positive integer weights (the
symmetrizer diagonal), and display names. Entries between two frozen
indices are carried along untouched; mutation never reads them.

The exchange relation x' = (prod out^b + prod in^b) / x is written once
per kind of value, as exchange(values, pos, neg, old): min-plus valuations
(one at a time, or many packed into one int), min-exponent tuples, and
exact quotients of products (Laurent polynomials; grassmannian's exact
integers). The belt's walks, and its re-basing path, call one once per
exchange. _mutate_sources is the one matrix mutation rule: the belt
mutates all sources of a step with one call, and mutate_matrix is its
single-node form. Torus weights are the valuations along a grading
(ExchangeData.grading_defect).
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .laurent import EXP_LIMIT
from .linalg import rank, right_kernel_basis

__all__ = [
    "ExchangeData",
    "mutate_matrix",
    "load_seed_file",
    "dump_seed_data",
]


# one exchange(values, pos, neg, old) per kind of value: x' = (prod
# values^pos + prod values^neg) / old, pos and neg the (node, exponent)
# pairs of the out- and in-monomial. Private, so that the thousand calls of
# an unbounded check pick up no tracing (the tracer wraps public names).


def _valuation_exchange(values, pos, neg, old):
    """Valuations at t -> 0 along x = t^beta, ints or Fractions: a sum of
    positive-coefficient terms c * t^a + d * t^b has valuation min(a, b),
    and nothing cancels. (The builtin min would cost a call.)"""
    a = c = 0
    for j, b in pos:
        a += values[j] * b
    for j, b in neg:
        c += values[j] * b
    return (c if c < a else a) - old


def _minexp_exchange(values, pos, neg, old):
    """Componentwise minimum exponents, as tuples: additive under products,
    the minimum under sums of positive-coefficient polynomials."""
    a = c = None
    for j, b in pos:
        v = values[j] if b == 1 else [b * x for x in values[j]]
        a = v if a is None else tuple(map(operator.add, a, v))
    for j, b in neg:
        v = values[j] if b == 1 else [b * x for x in values[j]]
        c = v if c is None else tuple(map(operator.add, c, v))
    zero = (0,) * len(old)  # the empty product
    return tuple(map(operator.sub, map(min, a or zero, c or zero), old))


class _LaneOverflow(ArithmeticError):
    """A lane of a packed valuation walk left its checked range."""


def _packed_exchange(width: int, lanes: int, headroom: int):
    """_valuation_exchange on `lanes` valuations at once, packed into one int.

    The int is sum v_r * 2**(width * r) over the lanes r, each v_r a
    signed valuation, so sums, differences and multiples by an exponent
    are plain int ones. The lane-wise min reads signs off x = a - c +
    tops, tops the top bit 2**(width-1) of every lane: lane r of x is
    a_r - c_r + 2**(width-1), a field in [0, 2**width) while |a_r - c_r|
    < 2**(width-1), with its top bit set iff a_r >= c_r. below = tops & ~x
    keeps the top bits of the lanes where a_r < c_r, and there the min
    adds x's field to c and takes below off again, leaving a_r.

    No lane may wrap. Every exchange checks with one addition and one AND
    that every lane of its result lies in [-M, M), M =
    2**(width-2-headroom), and raises _LaneOverflow if one does not. If
    every input lane lies in that range and 2**headroom exceeds the total
    exponent of the exchange relation (its out- and in-exponents summed),
    the two monomials differ by less than 2**(width-2) in every lane, so
    the min is exact, and every lane of the result lies in
    [-2**(width-2), 2**(width-2)], where a lane outside [-M, M) cannot
    hide behind a borrow from the lane below it.
    """
    field = (1 << width) - 1
    low = 1 << (width - 2 - headroom)  # M
    tops = half = guards = 0
    for _ in range(lanes):
        tops = (tops << width) | (1 << (width - 1))
        half = (half << width) | low
        guards = (guards << width) | (field ^ (2 * low - 1))
    shift = width - 1

    def exchange(values, pos, neg, old):
        a = c = 0
        for j, b in pos:
            a += values[j] * b
        for j, b in neg:
            c += values[j] * b
        x = a - c + tops
        below = tops & ~x
        new = c + (x & ((below >> shift) * field)) - below - old
        if (new + half) & guards:
            raise _LaneOverflow(f"a valuation left its {width}-bit lane")
        return new

    return exchange


def _split(pairs: Iterable[tuple[int, int]]) -> tuple[tuple, tuple]:
    """Positive and (negated) negative (key, exponent) pairs; zeros dropped."""
    pos, neg = [], []
    for j, b in pairs:
        if b > 0:
            pos.append((j, b))
        elif b < 0:
            neg.append((j, -b))
    return tuple(pos), tuple(neg)


def _monomial(values, terms, one=1):
    """Product of values[j] ** b over the (j, b) pairs of terms (one if none)."""
    acc = None
    for j, b in terms:
        f = values[j] if b == 1 else values[j] ** b
        acc = f if acc is None else acc * f
    return one if acc is None else acc


def _product_exchange(div, one=1):
    """The exchange relation over products (Laurent polynomials, exact
    integers), div(prod values^pos + prod values^neg, old) the quotient."""

    def exchange(values, pos, neg, old):
        return div(_monomial(values, pos, one) + _monomial(values, neg, one), old)

    return exchange


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
    return _mutate_sources(matrix, ((k, *_split(enumerate(matrix[k]))),), n)


def _mutate_sources(matrix: Sequence[Sequence[int]],
                    moves: Sequence[tuple],
                    n: int) -> tuple[tuple[int, ...], ...]:
    """matrix mutated at every node k of moves, each (k, out-terms,
    in-terms, ...) with k's row split as _split gives it and any further
    fields unread, for nodes that are pairwise unlinked (b_kl = 0), as the
    sources of one belt step are.

    Mutating at k changes neither row l nor column l of another such node,
    so the mutations commute and their changes add up: row k is negated,
    and a row i with b_ik != 0 gets -b_ik at k and b_ik * |b_kj| added at
    the entries of row k that have b_ik's sign, a frozen row in mutable
    columns only; frozen-frozen entries stay as they are. The matrix is
    skew-symmetrizable, so the rows with b_ik != 0 are those of the nodes
    in row k's split, and every other row is reused as it is.
    """
    out = list(map(tuple, matrix))
    rows: dict[int, list[int]] = {}
    for k, pos, neg, *_ in moves:
        out[k] = tuple([-b for b in matrix[k]])
        frozen_terms = (pos, neg) if len(matrix) == n else (
            tuple([t for t in pos if t[0] < n]), tuple([t for t in neg if t[0] < n]))
        for terms in (pos, neg):
            for i, _ in terms:
                row = rows.get(i)
                if row is None:
                    row = rows[i] = list(matrix[i])
                bik = row[k]
                row[k] = -bik
                for j, b in (frozen_terms if i >= n else (pos, neg))[bik < 0]:
                    row[j] += bik * b
    for i, row in rows.items():
        out[i] = tuple(row)
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

    def extended_rank(self) -> int:
        return rank(self.extended_matrix())

    def is_full_rank(self) -> bool:
        return self.extended_rank() == self.n

    def grading_defect(self, alpha: Sequence[int | Fraction]) -> str | None:
        """None if alpha, one degree per node, is a grading: B alpha = 0 for
        the extended matrix B. Otherwise the reason it is not, naming the
        first mutable node whose exchange relation is not homogeneous.

        (B alpha)_k is the out-monomial's degree minus the in-monomial's at
        node k, so B alpha = 0 says every exchange relation of this seed is
        homogeneous. Mutation at k carries a grading to a grading, alpha_k
        becoming the relation's degree minus alpha_k (Grabowski, Graded
        cluster algebras, 2015), so this one check covers every seed
        mutation reaches from here: every cluster variable is homogeneous,
        of the degree the exchange relations carry along.
        """
        if len(alpha) != self.size:
            return "need one weight per node"
        for k, row in enumerate(self.extended_matrix()):
            gap = sum(b * a for b, a in zip(row, alpha) if b)
            if gap:
                return (f"exchange relation is not homogeneous at "
                        f"{self.names[k]} (degree gap {gap})")
        return None

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


def _positive_int(value, what: str) -> int:
    """value itself if it is a positive int; ValueError otherwise (JSON
    floats and booleans included: int() would truncate 1.9 and true to 1)."""
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ValueError(f"{what} must be a positive integer, got {json.dumps(value)}")
    return value


def _objects(data: dict, field: str, what: str) -> list[dict]:
    """data[field] (empty if absent) if it is a list of JSON objects;
    ValueError naming the field, or the first item that is no object."""
    items = data.get(field, [])
    if not isinstance(items, list):
        raise ValueError(f'"{field}" must be a list of {what} objects')
    for k, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f"{what} {k} is not an object")
    return items


def _known_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    """ValueError naming where and the first key of obj outside allowed: a
    misspelt key ("frozn", "mul") would otherwise read as its default."""
    for key in obj:
        if key not in allowed:
            raise ValueError(
                f"{where}: unknown key {json.dumps(key)} "
                f"(allowed: {', '.join(allowed)})")


def load_seed_file(data: dict) -> ExchangeData:
    """Exchange data from a seed description, a dict decoded from JSON.

    Format: {"nodes": [{"name": str, "frozen": bool, "weight": int}, ...],
    "arrows": [{"from": name, "to": name, "mult": int}, ...]}. Arrows point
    from i to j with B[i][j] = mult > 0; the opposite entry is filled in
    from the weights and must come out integral. A name must be a
    non-empty string, "frozen" (default false) a boolean, and "weight" and
    "mult" (default 1) positive integers; anything else is rejected,
    naming the node or arrow. "nodes" and "arrows" (default empty) must be
    lists of objects, a node needs a name, an arrow needs both ends, each
    the name of a node, and a seed needs a mutable node; a breach is
    rejected naming the field, or the node or arrow by its index. A key
    outside those listed is rejected, naming it and its node, its arrow or
    the top level. Entries of magnitude laurent.EXP_LIMIT or more are
    rejected, naming the arrow: exchange polynomials could not hold such
    exponents. Mutable nodes are reordered before frozen ones, preserving
    relative order.
    """
    _known_keys(data, ("nodes", "arrows"), "top level")
    nodes = _objects(data, "nodes", "node")
    for k, nd in enumerate(nodes):
        if "name" not in nd:
            raise ValueError(f"node {k} has no name")
        name = nd["name"]
        if not isinstance(name, str) or not name:
            raise ValueError(f"node name {json.dumps(name)} is not a non-empty string")
        if not isinstance(nd.get("frozen", False), bool):
            raise ValueError(
                f"node {name}: frozen must be true or false, got {json.dumps(nd['frozen'])}"
            )
        _positive_int(nd.get("weight", 1), f"node {name}: weight")
        _known_keys(nd, ("name", "frozen", "weight"), f"node {name}")
    names_in = [nd["name"] for nd in nodes]
    if len(set(names_in)) != len(names_in):
        raise ValueError("duplicate node names in seed file")
    order = [i for i, nd in enumerate(nodes) if not nd.get("frozen")] + [
        i for i, nd in enumerate(nodes) if nd.get("frozen")
    ]
    n = sum(1 for nd in nodes if not nd.get("frozen"))
    if not n:
        raise ValueError("seed has no mutable node")
    m = len(nodes) - n
    index = {nodes[old]["name"]: new for new, old in enumerate(order)}
    weights = [nodes[old].get("weight", 1) for old in order]
    names = [nodes[old]["name"] for old in order]
    size = n + m
    mat = [[0] * size for _ in range(size)]
    seen: set[tuple[int, int]] = set()
    for k, arrow in enumerate(_objects(data, "arrows", "arrow")):
        ends = []
        for end in ("from", "to"):
            if end not in arrow:
                raise ValueError(f'arrow {k} has no "{end}" node')
            name = arrow[end]
            if not isinstance(name, str) or name not in index:
                raise ValueError(
                    f"arrow {k} references unknown node {json.dumps(name)}")
            ends.append(index[name])
        i, j = ends
        where = f"arrow {arrow['from']} -> {arrow['to']}"
        mult = _positive_int(arrow.get("mult", 1), f"{where}: multiplicity")
        _known_keys(arrow, ("from", "to", "mult"), where)
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
