"""Dynkin catalog, recognition, and the bipartite belt.

The belt starts from any seed of finite type. A seed that is not
bipartite is first taken to a bipartite seed of its mutation class by
find_bipartite_seed_path, and the belt keeps that re-basing path, so
that any value system on the given seed can be walked to the belt's
start (BipartiteBelt._rebase).

The belt mutates all sources of a bipartite seed at once, repeatedly,
until the labeled seed comes back (after h+2 or 2(h+2) steps, h the
Coxeter number), registering every distinct cluster variable it meets.
A step applies the exchange relation x' = (prod out^b + prod in^b) / x
at each source; the build writes each exchange into a schedule of
(node, out-terms, in-terms, produced id) tuples as it registers the
produced variable, and one private walker runs any range of steps of
that schedule, calling an exchange function of `seeds` once per
exchange: min-plus valuations along a curve x = t^beta, over ints or
Fractions, for valuation_walk, and many of them packed into one int, for
valuation_columns along many curves in one walk (compatibility degrees
are read off the valuations along the mutable unit rays of steps 0 and 1,
see BipartiteBelt._unit_valuations).
Along a grading alpha (see seeds.ExchangeData.grading_defect) every
exchange relation is homogeneous, so the valuations along alpha are the
torus weights. Building the belt calls the min-exponent exchange alone,
for the registry's deduplication key; the product exchange on Laurent
polynomials runs once expansions are requested (BipartiteBelt.poly), and
`grassmannian` walks values at positive points with products of exact
integers.

Variables are deduplicated by their componentwise minimum exponent vector
in the initial frame: min exponents are additive under multiplication
over a domain and take componentwise minima under sums with positive
coefficients, so the min-plus walk computes them exactly. In finite type
the mutable part of that vector (the negated denominator vector) is a
complete invariant, so the registry, the steps and the schedule, and
everything downstream of them (ratio cones, identification at totally
positive points, weight tables), come from that walk with no Laurent
arithmetic.

Laurent expansions serve the enumerate display, the u-equation
identities and the subtraction-free check of a non-integral lambda. Belts
of at most 50 cluster variables offer them; the deepest variables of an
E8-size belt have too many terms to multiply comfortably in pure Python.
The first request proves every distinct exchange relation once, each by
one exact division; where an exchange revisits a variable already
proved, its quotient must equal the stored expansion. Where the seed
comes back relabeled before the belt closes (A_n, D_odd and E6, at step
h+2), the rest of the belt repeats those relations relabeled, so the
proof stops there. Every expansion's min exponents must equal its
registry vector.
The expansion's corners come out of the Laurent arithmetic itself, which
carries them exactly through products, sums in which nothing cancels and
exact quotients (see `laurent`), so no expansion is rescanned for them;
they are never taken from the min-plus walk, so the comparison still
tests that walk against the expansions.
"""

from __future__ import annotations

import heapq
import struct
from collections import deque
from fractions import Fraction
from functools import cache, cached_property
from math import gcd
from typing import NamedTuple, Sequence

from .laurent import LaurentPolynomial
from .linalg import rref
from .seeds import (
    ExchangeData,
    _LaneOverflow,
    _minexp_exchange,
    _mutate_sources,
    _packed_exchange,
    _product_exchange,
    _split,
    _valuation_exchange,
    mutate_matrix,
)

__all__ = [
    "DynkinType",
    "NotFiniteTypeError",
    "catalog_exchange",
    "recognize_dynkin",
    "sources_of",
    "is_bipartite_orientation",
    "find_bipartite_seed_path",
    "BipartiteBelt",
]


class NotFiniteTypeError(ValueError):
    """The given exchange data is not of finite cluster type (or not supported)."""


class DynkinType(NamedTuple):
    family: str
    rank: int

    @classmethod
    def from_name(cls, name: str) -> "DynkinType":
        name = name.strip().upper()
        if len(name) < 2 or name[0] not in "ABCDEFG" or not name[1:].isdigit():
            raise ValueError(f"cannot parse Dynkin type {name!r}")
        family, rank = name[0], int(name[1:])
        t = cls(family, rank)
        t.validate()
        return t

    def validate(self) -> None:
        family, rank = self
        ok = (
            (family == "A" and rank >= 1)
            or (family in ("B", "C") and rank >= 2)
            or (family == "D" and rank >= 4)
            or (family == "E" and rank in (6, 7, 8))
            or (family == "F" and rank == 4)
            or (family == "G" and rank == 2)
        )
        if not ok:
            raise ValueError(f"no finite type {family}{rank}")

    @property
    def coxeter_number(self) -> int:
        family, n = self
        if family == "A":
            return n + 1
        if family in ("B", "C"):
            return 2 * n
        if family == "D":
            return 2 * n - 2
        if family == "E":
            return {6: 12, 7: 18, 8: 30}[n]
        if family == "F":
            return 12
        return 6  # G2

    @property
    def num_belt_variables(self) -> int:
        """Mutable cluster variables in finite type: n(h+2)/2."""
        return self.rank * (self.coxeter_number + 2) // 2

    def tree_edges(self) -> list[tuple[int, int]]:
        family, n = self
        if family in ("A", "B", "C", "F", "G"):
            return [(i, i + 1) for i in range(n - 1)]
        if family == "D":
            return [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
        # E types: path 0..n-2, extra node n-1 hanging off node 2
        return [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]

    def node_weights(self) -> tuple[int, ...]:
        family, n = self
        if family == "B":
            return (1,) * (n - 1) + (2,)
        if family == "C":
            return (2,) * (n - 1) + (1,)
        if family == "F":
            return (1, 1, 2, 2)
        if family == "G":
            return (3, 1)
        return (1,) * n

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def catalog_exchange(dynkin: DynkinType, frozen_count: int = 0) -> ExchangeData:
    """Bipartite seed for a Dynkin type, optionally with frozen attachments.

    Nodes are 2-colored with node 0 a source; an edge (i, j) with source s
    and sink d gets B[s][d] = w_d/g and B[d][s] = -w_s/g, g = gcd(w_s, w_d).
    Each of the first frozen_count mutable nodes x_i gets one frozen
    neighbor f_i with an arrow f_i -> x_i of strength 1.
    """
    dynkin.validate()
    n = dynkin.rank
    if not 0 <= frozen_count <= n:
        raise ValueError("frozen_count must be between 0 and the rank")
    weights = dynkin.node_weights()
    edges = dynkin.tree_edges()
    color = [-1] * n
    color[0] = 0
    queue = deque([0])
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if color[j] == -1:
                color[j] = 1 - color[i]
                queue.append(j)
    size = n + frozen_count
    mat = [[0] * size for _ in range(size)]
    for i, j in edges:
        s, d = (i, j) if color[i] == 0 else (j, i)
        g = gcd(weights[s], weights[d])
        mat[s][d] = weights[d] // g
        mat[d][s] = -(weights[s] // g)
    full_weights = list(weights)
    names = [f"x{i + 1}" for i in range(n)]
    for t in range(frozen_count):
        f = n + t
        mat[f][t] = 1
        mat[t][f] = -1
        full_weights.append(weights[t])
        names.append(f"f{t + 1}")
    return ExchangeData(n, frozen_count, mat, full_weights, names)


def _arms_from(adj: dict[int, list[int]], start: int, branch: int) -> int:
    length = 0
    prev, cur = branch, start
    while True:
        length += 1
        nxt = [x for x in adj[cur] if x != prev]
        if not nxt:
            return length
        prev, cur = cur, nxt[0]


def recognize_dynkin(
    mutable_matrix: Sequence[Sequence[int]], weights: Sequence[int]
) -> DynkinType | None:
    """Classify the underlying weighted diagram, or None if not Dynkin.

    Only the undirected diagram matters, so this works on any orientation.
    The rank-2 double-edge type is reported as C2.
    """
    n = len(mutable_matrix)
    if n == 0:
        return None
    if n == 1:
        return DynkinType("A", 1)
    edges: list[tuple[int, int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = mutable_matrix[i][j], mutable_matrix[j][i]
            if (a == 0) != (b == 0):
                return None
            if a:
                if a * b >= 0:
                    return None
                m = -a * b
                if m not in (1, 2, 3):
                    return None
                edges.append((i, j, m))
    if len(edges) != n - 1:
        return None
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != n:
        return None
    mults = sorted(m for _, _, m in edges)
    degrees = [len(adj[i]) for i in range(n)]
    if mults and mults[-1] == 3:
        if n == 2 and mults == [3]:
            return DynkinType("G", 2)
        return None
    if mults and mults[-1] == 2:
        if mults.count(2) != 1 or max(degrees) > 2:
            return None
        if n == 2:
            return DynkinType("C", 2)
        wmin = min(weights[i] for i in range(n))
        heavy = sum(1 for i in range(n) if weights[i] > wmin)
        (di, dj, _) = next(e for e in edges if e[2] == 2)
        end_edge = min(degrees[di], degrees[dj]) == 1
        if n == 4 and not end_edge:
            return DynkinType("F", 4)
        if not end_edge:
            return None
        if heavy == 1:
            return DynkinType("B", n)
        if heavy == n - 1:
            return DynkinType("C", n)
        return None
    # simply laced
    branch_nodes = [i for i in range(n) if degrees[i] >= 3]
    if not branch_nodes:
        return DynkinType("A", n)
    if len(branch_nodes) > 1 or degrees[branch_nodes[0]] > 3:
        return None
    b = branch_nodes[0]
    arms = sorted(_arms_from(adj, x, b) for x in adj[b])
    if arms[0] == 1 and arms[1] == 1:
        return DynkinType("D", n)
    if arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4):
        return DynkinType("E", n) if n in (6, 7, 8) else None
    return None


def _components(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """The node sets of the connected components of a square matrix's
    diagram (i ~ j when b_ij != 0), each sorted, ordered by first node."""
    parts: list[list[int]] = []
    seen: set[int] = set()
    for root in range(len(matrix)):
        if root in seen:
            continue
        seen.add(root)
        part, stack = [], [root]
        while stack:
            i = stack.pop()
            part.append(i)
            for j, b in enumerate(matrix[i]):
                if b and j not in seen:
                    seen.add(j)
                    stack.append(j)
        parts.append(sorted(part))
    return parts


def _dynkin_type(mutable_matrix: Sequence[Sequence[int]], exchange: ExchangeData,
                 message: str) -> DynkinType:
    """recognize_dynkin on a bipartite mutable matrix of the exchange
    data's nodes, or NotFiniteTypeError. A diagram in several components
    is a product of Dynkin types, which is not supported; the error names
    each component's nodes, and its type where it has one. Any other
    diagram raises with message."""
    weights = exchange.weights[:exchange.n]
    dynkin = recognize_dynkin(mutable_matrix, weights)
    if dynkin is not None:
        return dynkin
    parts = _components(mutable_matrix)
    if len(parts) == 1:
        raise NotFiniteTypeError(message)
    described = []
    for part in parts:
        sub = recognize_dynkin([[mutable_matrix[i][j] for j in part] for i in part],
                               [weights[i] for i in part])
        nodes = "{" + ", ".join(exchange.names[i] for i in part) + "}"
        described.append(nodes if sub is None else f"{nodes} ({sub})")
    raise NotFiniteTypeError(
        f"the mutable nodes form {len(parts)} components, {', '.join(described)}; "
        "products of Dynkin types are not supported"
    )


def sources_of(matrix: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """Mutable nodes with no incoming arrows from mutable nodes.

    Isolated mutable nodes qualify, every step; arrows to or from frozen
    nodes are ignored on purpose.
    """
    out = []
    for i in range(n):
        row = matrix[i]
        if all(row[j] >= 0 for j in range(n)):
            out.append(i)
    return tuple(out)


def _mixed_nodes(matrix: Sequence[Sequence[int]], n: int) -> int:
    """Number of mutable nodes that are neither a source nor a sink of the
    mutable subquiver."""
    mixed = 0
    for row in matrix[:n]:
        mutable = row[:n]
        if max(mutable) > 0 > min(mutable):
            mixed += 1
    return mixed


def is_bipartite_orientation(matrix: Sequence[Sequence[int]], n: int) -> bool:
    """Every mutable node is a source or a sink of the mutable subquiver."""
    return _mixed_nodes(matrix, n) == 0


def _not_2_finite(matrix: Sequence[Sequence[int]]) -> tuple[int, int] | None:
    """A pair (i, j) with |b_ij * b_ji| > 3, or None if the matrix is
    2-finite. Entries in {-1, 0, 1} pass without the pairwise test."""
    if max(map(max, matrix)) <= 1 and min(map(min, matrix)) >= -1:
        return None
    for i, row in enumerate(matrix):
        for j in range(i + 1, len(row)):
            if abs(row[j] * matrix[j][i]) > 3:
                return i, j
    return None


def find_bipartite_seed_path(exchange: ExchangeData) -> tuple[int, ...]:
    """Mutation sequence from the given seed to a bipartite Dynkin seed.

    Best-first search on mutable exchange matrices, ordered by the number
    of nodes that are neither source nor sink; ties by path length, then
    discovery order, so the result is deterministic.

    Finite type is decided exactly, by the criterion of Fomin and
    Zelevinsky (Cluster algebras II, 2003): the seed is of finite type iff
    every matrix in its mutation class is 2-finite, |b_ij * b_ji| <= 3
    for all i, j. Each matrix is tested when it is popped, and one that
    fails raises NotFiniteTypeError. The search only expands matrices
    that pass, and a 2-finite matrix has entries of magnitude at most 3,
    so there are finitely many of them and the search ends. A bipartite
    orientation that recognize_dynkin does not read as one Dynkin diagram
    raises too: it is of infinite type, or a disjoint union of types,
    which is not supported and is named component by component (see
    _dynkin_type). The final raise, a class exhausted with no bipartite
    seed, cannot happen: a class that passed the test throughout is of
    finite type and so has a bipartite orientation.
    """
    n = exchange.n
    start = exchange.mutable_matrix()
    visited = {start}
    counter = 0
    heap: list[tuple[int, int, int, tuple, tuple[int, ...]]] = [
        (_mixed_nodes(start, n), 0, counter, start, ())
    ]
    while heap:
        d, depth, _, mat, path = heapq.heappop(heap)
        bad = _not_2_finite(mat)
        if bad is not None:
            i, j = bad
            raise NotFiniteTypeError(
                f"not of finite type: after mutations {list(path)} the "
                f"exchange matrix is not 2-finite, |b_ij * b_ji| = "
                f"{abs(mat[i][j] * mat[j][i])} > 3 at nodes "
                f"{exchange.names[i]}, {exchange.names[j]}"
            )
        if d == 0:
            _dynkin_type(mat, exchange,
                         "reached a bipartite orientation that is not a Dynkin diagram")
            return path
        for k in range(n):
            nxt = mutate_matrix(mat, k, n)
            if nxt in visited:
                continue
            visited.add(nxt)
            counter += 1
            heapq.heappush(
                heap, (_mixed_nodes(nxt, n), depth + 1, counter, nxt, path + (k,)))
    raise NotFiniteTypeError("mutation class exhausted without a bipartite seed")


@cache
def _lane_unpacker(width: int, lanes: int):
    """Splitter of a packed int sum v_r * 2**(width * (lanes - 1 - r)),
    every v_r in [-2**(width-1), 2**(width-1)), into the tuple of its
    lanes v_r in lane order r. Adding 2**(width-1) to every lane makes it
    the field v_r + 2**(width-1) in [0, 2**width), and flipping that
    field's top bit makes it v_r's two's complement, which a cached
    struct splits for 16, 32 and 64 bits, as laurent._fields."""
    tops = ((1 << width * lanes) - 1) // ((1 << width) - 1) << (width - 1)
    nbytes, step = width * lanes // 8, width // 8
    code = {16: "h", 32: "i", 64: "q"}.get(width)
    split = struct.Struct(f">{lanes}{code}").unpack if code else lambda raw: tuple(
        int.from_bytes(raw[i:i + step], "big", signed=True) for i in range(0, nbytes, step))
    return lambda packed: split(((packed + tops) ^ tops).to_bytes(nbytes, "big"))


def _degeneration_rays(matrix: tuple[tuple[int, ...], ...], n: int,
                       size: int) -> tuple[list[tuple[int, ...] | None], int]:
    """The betas of BipartiteBelt._degenerations from one elimination of
    [matrix | I_n], padded with zeros to size entries, and the rank of
    matrix."""
    width = len(matrix[0])
    rows, pivots, d, _ = rref([
        row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(matrix)
    ])
    rank = sum(pc < width for pc in pivots)
    rays = []
    for j in range(width, width + n):
        if any(row[j] for row in rows[rank:]):
            rays.append(None)
            continue
        v = [0] * size
        for row, pc in zip(rows, pivots[:rank]):
            v[pc] = row[j]
        g = gcd(d, *v)
        if d < 0:
            g = -g
        rays.append(tuple(x // g for x in v))
    return rays, rank


class BeltStep(NamedTuple):
    matrix: tuple[tuple[int, ...], ...]
    cluster_ids: tuple[int, ...]
    sources: tuple[int, ...]


class SourceRecord(NamedTuple):
    """The exchange at one source position of the belt, by registry id:
    gamma * partner = prod numerator + prod frozen_in, the out-terms and
    (frozen) in-terms of the source's matrix row, and vector, the
    exponents of the u-variable numerator / (gamma * partner)."""

    gamma: int
    partner: int
    numerator: dict[int, int]
    frozen_in: dict[int, int]
    vector: dict[int, int]


class RegistryEntry:
    """One cluster variable met on the belt."""

    __slots__ = ("id", "minexp", "frozen", "source_pos")

    def __init__(self, id: int, minexp: tuple[int, ...], frozen: bool):
        self.id = id
        self.minexp = minexp
        self.frozen = frozen
        self.source_pos: tuple[int, int] | None = None


class BeltError(RuntimeError):
    """The belt failed to close or revisited inconsistent state, its
    expansions failed their proof, or it offers none."""


def _relabeling(state: tuple, state0: tuple, n: int) -> tuple[int, ...] | None:
    """The position permutation pi under which state is state0 relabeled,
    or None if there is none.

    A state is (extended matrix, cluster ids by node). pi sends each node
    to the node of state0 that holds the same id, so it fixes the frozen
    nodes; it is a relabeling when the frozen ids are unchanged, the
    mutable ids are a permutation of state0's, and matrix[i][j] ==
    matrix0[pi[i]][pi[j]] on the whole matrix, frozen rows included.
    """
    matrix, ids = state
    matrix0, ids0 = state0
    if ids[n:] != ids0[n:] or sorted(ids[:n]) != sorted(ids0[:n]):
        return None
    node0 = {id: i for i, id in enumerate(ids0)}
    pi = tuple(node0[id] for id in ids)
    if matrix != tuple(tuple(matrix0[p][q] for q in pi) for p in pi):
        return None
    return pi


class BipartiteBelt:
    """The source-mutation orbit of a finite-type seed, from its bipartite base.

    Any seed of finite type is accepted. One that is not bipartite is
    first mutated to a bipartite seed along find_bipartite_seed_path; the
    belt keeps that path (path, the nodes; _path_moves, the exchange terms
    of each move, which _rebase walks) and starts from the base seed it
    reaches, whose names are the given ones with each move's node primed,
    as often as it takes to give it a name no other node has.
    exchange is that base seed, step 0 of the belt.

    Every belt is built by one min-plus walk of min exponent vectors,
    with no Laurent arithmetic. Belts of at most 50 cluster variables
    offer Laurent expansions (offers_expansions); the first call of poly
    proves them all (_expansions).

    Compatibility degrees come from the valuations along the mutable unit
    rays of steps 0 and 1 alone, one packed walk: frozen valuations stay 0
    along those rays and the mutable block repeats every two steps, so the
    frame of any other step is one of those two, read at positions moved
    back along the belt (see _unit_valuations).
    """

    def __init__(self, exchange: ExchangeData):
        n, size = exchange.n, exchange.size
        # the re-basing path: (node, out-terms, in-terms) per move from the
        # given seed to its bipartite base, each move priming its node's
        # name until no other node has it; mutation keeps the matrix
        # skew-symmetrizable, so only the base is checked
        self.path: tuple[int, ...] = ()
        self._path_moves: list[tuple[int, tuple, tuple]] = []
        if not is_bipartite_orientation(exchange.mutable_matrix(), n):
            self.path = find_bipartite_seed_path(exchange)
            matrix, names = exchange.matrix, list(exchange.names)
            for k in self.path:
                self._path_moves.append((k, *_split(enumerate(matrix[k]))))
                matrix = mutate_matrix(matrix, k, n)
                name = names[k] + "'"
                while name in names:
                    name += "'"
                names[k] = name
            exchange = ExchangeData(n, exchange.m, matrix, exchange.weights, names)
        mut = exchange.mutable_matrix()
        dynkin = _dynkin_type(mut, exchange, "bipartite seed is not a Dynkin orientation")
        self.exchange = exchange
        self.dynkin = dynkin
        self.h = dynkin.coxeter_number

        self.entries: list[RegistryEntry] = []
        self._by_minexp: dict[tuple[int, ...], int] = {}

        minexps = [tuple(int(j == i) for j in range(size)) for i in range(size)]
        ids = [self._register(minexps[i], i >= n) for i in range(size)]

        # Types whose longest Weyl element is not -1 (A_n, D_odd, E6) come
        # back to the start seed after h+2 steps only up to the diagram
        # involution, so the strict labeled period can be 2(h+2).
        matrix = exchange.matrix
        state0 = (matrix, tuple(ids))
        steps: list[BeltStep] = []
        # the walk schedule: per step, (node, out-terms, in-terms, id of
        # the variable the exchange produces), nonzero exponents only
        self._schedule: list[tuple[tuple[int, tuple, tuple, int], ...]] = []
        total = 2 * (self.h + 2)
        s = 0
        while True:
            state = (matrix, tuple(ids))
            if s > 0 and state == state0:
                self.period = s
                break
            if s >= total:
                raise BeltError(
                    f"belt did not close after {total} steps; "
                    "input is not finite type"
                )
            # mutating every source of a bipartite block negates it, so the
            # blocks, and with them the sources, alternate from step to step
            srcs = steps[s - 2].sources if s >= 2 else sources_of(matrix, n)
            steps.append(BeltStep(matrix, tuple(ids), srcs))
            # sources are pairwise unlinked, so every exchange of the step
            # reads its row in this step's matrix, and one pass mutates
            # them all once they are done
            moves = []
            for k in srcs:
                pos, neg = _split(enumerate(matrix[k]))
                entry = self.entries[ids[k]]
                if entry.source_pos is None:
                    entry.source_pos = (s, k)
                minexps[k] = _minexp_exchange(minexps, pos, neg, minexps[k])
                ids[k] = self._register(minexps[k], False)
                moves.append((k, pos, neg, ids[k]))
            self._schedule.append(tuple(moves))
            matrix = _mutate_sources(matrix, moves, n)
            s += 1
        if total % self.period != 0:
            raise BeltError(
                f"belt period {self.period} does not divide 2(h+2) = {total}"
            )
        self.steps = steps
        self.seed_count = len({frozenset(st.cluster_ids) for st in steps})

        self.mutable_ids = [e.id for e in self.entries if not e.frozen]
        self.frozen_ids = [e.id for e in self.entries if e.frozen]
        expected = dynkin.num_belt_variables
        if len(self.mutable_ids) != expected:
            raise BeltError(
                f"registry holds {len(self.mutable_ids)} mutable variables, "
                f"expected {expected} for type {dynkin}"
            )
        for mid in self.mutable_ids:
            if self.entries[mid].source_pos is None:
                raise BeltError(f"variable {mid} never sat at a source")
        self._names = dict(enumerate(exchange.names))
        # degeneration rays by belt step, and by nonsingular mutable block
        # (see _degenerations)
        self._rays: dict[int | tuple, list[tuple[int, ...] | None]] = {}

    # registry helpers

    def _register(self, minexp: tuple[int, ...], frozen: bool) -> int:
        known = self._by_minexp.get(minexp)
        if known is not None:
            return known
        new_id = len(self.entries)
        self.entries.append(RegistryEntry(new_id, minexp, frozen))
        self._by_minexp[minexp] = new_id
        return new_id

    @property
    def n(self) -> int:
        return self.exchange.n

    @property
    def row_order(self) -> list[int]:
        """Registry ids in U-matrix row order: mutable first, then frozen."""
        return self.mutable_ids + self.frozen_ids

    def step(self, s: int) -> BeltStep:
        return self.steps[s % self.period]

    @property
    def offers_expansions(self) -> bool:
        """Whether poly gives Laurent expansions: on belts of at most 50
        cluster variables."""
        return len(self.mutable_ids) <= 50

    def poly(self, id: int) -> LaurentPolynomial:
        """The Laurent expansion of registry variable id in the cluster of
        step 0, all of them proved on the first call (_expansions);
        BeltError on a belt that does not offer expansions."""
        return self._expansions[id]

    @cached_property
    def _expansions(self) -> list[LaurentPolynomial]:
        """Every registry variable's Laurent expansion, by id, each
        distinct exchange relation of the belt proved exactly once.

        The proof walks the schedule from step 0 and divides every
        exchange relation exactly. A quotient that exists is the Laurent
        expansion of the variable the exchange produces; where that
        variable was proved before (the initial cluster, met again near
        the end of the walk), the two must be equal, or two distinct
        variables share a denominator vector. The quotient in a domain is
        unique, so that is the same proof.

        A 2(h+2) belt meets state0 relabeled at step s0 = h+2: same frozen
        ids, mutable ids permuted, and the matrix conjugated by that
        position permutation (see _relabeling). The walk is a function of
        the labeled seed, so step s0 + t is step t relabeled and the same
        variables meet in the same, already proved, exchange relations:
        the proof stops at s0. Each expansion's min exponents, which come
        out of the Laurent arithmetic, must then equal its registry vector.
        """
        if not self.offers_expansions:
            raise BeltError(
                "Laurent expansions are offered on belts of at most 50 "
                "cluster variables")
        n, size = self.exchange.n, self.exchange.size
        laurent = _product_exchange(LaurentPolynomial.divide_exact,
                                    LaurentPolynomial.one(size))
        values = [LaurentPolynomial.variable(size, i) for i in range(size)]
        proved = dict(zip(self.steps[0].cluster_ids, values))
        state0 = self.steps[0][:2]
        for s, moves in enumerate(self._schedule):
            if s > 0 and _relabeling(self.steps[s][:2], state0, n) is not None:
                break
            for k, pos, neg, target in moves:
                values[k] = quotient = laurent(values, pos, neg, values[k])
                if proved.setdefault(target, quotient) != quotient:
                    raise BeltError("two distinct variables share a denominator vector")
        expansions = [proved[e.id] for e in self.entries]
        if any(p.min_exponents() != e.minexp for p, e in zip(expansions, self.entries)):
            raise BeltError("tropical min-exponent bookkeeping diverged")
        return expansions

    def dvector(self, id: int) -> tuple[int, ...]:
        """Negated min exponents over the initial mutable coordinates."""
        return tuple(-v for v in self.entries[id].minexp[: self.n])

    def root_label(self, id: int) -> str:
        return "x[" + ",".join(str(d) for d in self.dvector(id)) + "]"

    def name(self, id: int) -> str:
        got = self._names.get(id)
        if got is not None:
            return got
        return self.root_label(id)

    def rename(self, names: dict[int, str]) -> None:
        """Give the ids in names these display names, keeping the others."""
        self._names.update(names)
        self.__dict__.pop("_ids_by_name", None)  # rebuilt on the next lookup

    @cached_property
    def _ids_by_name(self) -> dict[str, int]:
        # read backwards, so that the first id of a repeated name wins
        return {nm: id for id, nm in reversed(self._names.items())}

    @cached_property
    def _ids_by_root_label(self) -> dict[str, int]:
        return {self.root_label(e.id): e.id for e in self.entries if not e.frozen}

    def id_by_name(self, name: str) -> int | None:
        """First id of that display name, else the mutable variable of that root label."""
        id = self._ids_by_name.get(name)
        return self._ids_by_root_label.get(name) if id is None else id

    # walks

    def _rebase(self, exchange, values: list) -> list:
        """Walk a value system, indexed by node of the seed the belt was
        given, along the re-basing path in place, calling exchange (see
        seeds) once per move: it then holds the cluster of step 0."""
        for node, pos, neg in self._path_moves:
            values[node] = exchange(values, pos, neg, values[node])
        return values

    def _walk(self, exchange, values: list, start: int, stop: int) -> dict:
        """Walk the belt over steps start to stop - 1, calling
        exchange(values, pos, neg, old) (see seeds) once per exchange.

        values holds the cluster of step start by node and is updated in
        place; returns the value of every variable met: the cluster of
        step start and each exchange's product. A walk of one period
        meets every registry variable.
        """
        out = dict(zip(self.step(start).cluster_ids, values))
        p = self.period
        for r in range(start, stop):
            for k, pos, neg, target in self._schedule[r % p]:
                values[k] = out[target] = exchange(values, pos, neg, values[k])
        return out

    def _degenerations(self, s: int) -> list[tuple[int, ...] | None]:
        """Per mutable node j of belt step s, the primitive integer beta
        with B beta = c * e_j for some c > 0, B the step's extended
        exchange matrix (its n mutable rows); None where e_j is outside
        the column span of B.

        One fraction-free elimination of [B | I_n] serves every node: its
        rows are d * [E B | E] with E B in reduced echelon form, so e_j is
        in the span iff column j of the E part vanishes on the rows
        without a pivot in B, and then the solution x with free entries
        zero has x * d = that column at the pivot columns of B. beta is
        the primitive integer multiple of (x * d, d) with positive last
        entry, stripped of that entry.

        The frozen columns of B come after its mutable block B_mut, and
        rref works column by column, so on the columns of [B_mut | I_n]
        it does exactly what it does on them inside [B | I_n]. When B_mut
        is nonsingular, its n columns take all n pivots, the frozen
        columns are free and beta is zero there: the rays depend on B_mut
        alone, and the elimination of [B_mut | I_n] is cached by the
        block. A bipartite belt alternates B_mut between two blocks, B0
        and -B0, so a nonsingular type (E8 = Gr(3,8): 32 steps) needs two
        eliminations. Only a singular block (A_n, B_n and C_n for odd n,
        every D_n, and E7) takes the elimination of the whole [B | I_n],
        once per step.
        """
        s %= self.period
        rays = self._rays.get(s)
        if rays is None:
            n, size = self.exchange.n, self.exchange.size
            matrix = self.step(s).matrix[:n]
            block = tuple(row[:n] for row in matrix)
            rays = self._rays.get(block)
            if rays is None:
                rays, rank = _degeneration_rays(block, n, size)
                if rank < n < size:
                    rays = _degeneration_rays(matrix, n, size)[0]
                elif rank == n:
                    self._rays[block] = rays
            self._rays[s] = rays
        return rays

    def valuation_walk(
        self, beta: Sequence[int | Fraction], start_step: int = 0
    ) -> dict[int, int | Fraction]:
        """Valuations at t -> 0 of every registry variable when the cluster
        of belt step start_step is x_j = t^beta_j (indexed by node).

        Every variable is a Laurent polynomial with positive coefficients
        in that cluster, so along the curve it is C * t^val * (1 + o(1))
        with C > 0, and the min-plus walk computes val exactly: over ints
        for an integral beta, over Fractions for any other.
        """
        if len(beta) != self.exchange.size:
            raise ValueError("need one exponent per node")
        return self._walk(_valuation_exchange, list(beta), start_step,
                          start_step + self.period)

    def valuation_columns(
        self, rays: Sequence[tuple[Sequence[int], int]]
    ) -> list[list[int]]:
        """valuation_walk along many rays (beta, start_step) in one walk:
        entry r of column id is valuation_walk(*rays[r])[id], one column
        per registry id. These are the lanes of _packed_columns."""
        width, packed = self._packed_columns(rays)
        unpack = _lane_unpacker(width, len(rays))
        return [list(unpack(p)) for p in packed]

    def _packed_columns(
        self, rays: Sequence[tuple[Sequence[int], int]]
    ) -> tuple[int, list[int]]:
        """The lane width, and per registry id one int packing the
        variable's valuations along the rays, lane r at bit width * (lanes
        - 1 - r) (seeds._packed_exchange), so that the big-endian bytes
        of a packed int list its lanes in ray order.

        A lane is 0 until the walk reaches its ray's start step, where its
        beta is added; zeros stay zero under min-plus, so one walk from
        the first start step to one period past the last serves every ray,
        and its last period, where every lane has started, produces every
        mutable variable. Lanes are 16 bits wide to begin with, wider if a
        beta needs it, and the walk reruns at twice the width whenever a
        lane leaves its checked range, so no lane ever wraps.
        """
        size, p, lanes = self.exchange.size, self.period, len(rays)
        if any(len(beta) != size for beta, _ in rays):
            raise ValueError("need one exponent per node")
        if not rays:
            return 16, [0] * len(self.entries)
        headroom = self._headroom
        largest = max(max(map(abs, beta)) for beta, _ in rays)
        width = 16
        while largest >= 1 << (width - 2 - headroom):
            width *= 2
        while True:
            # per start step, (node, packed betas) of the rays starting there
            added: dict[int, dict[int, int]] = {}
            for r, (beta, s) in enumerate(rays):
                at = added.setdefault(s % p, {})
                shift = width * (lanes - 1 - r)
                for j, b in enumerate(beta):
                    if b:
                        at[j] = at.get(j, 0) + (b << shift)
            exchange = _packed_exchange(width, lanes, headroom)
            values = [0] * size
            order = sorted(added)
            try:
                # add each start step's betas, then walk to the next start
                # step, the last start step for one period
                for s, stop in zip(order, order[1:] + [order[-1] + p]):
                    for j, b in added[s].items():
                        values[j] += b
                    out = self._walk(exchange, values, s, stop)
                return width, [out[e.id] for e in self.entries]
            except _LaneOverflow:
                width *= 2

    @cached_property
    def _source_records(self) -> list[dict[int, SourceRecord]]:
        """Per step of the period, the SourceRecord of each source node,
        read off the schedule's split of that node's row: the variable at
        the node, and the one the exchange there produces as its partner.
        Built on first use; callers copy the dicts they hand out."""
        records = []
        for st, moves in zip(self.steps, self._schedule):
            ids = st.cluster_ids
            records.append(at := {})
            for k, pos, neg, partner in moves:
                gamma = ids[k]
                numerator = {ids[j]: b for j, b in pos}
                vector = dict(numerator)
                for id in (gamma, partner):
                    vector[id] = vector.get(id, 0) - 1
                at[k] = SourceRecord(gamma, partner, numerator,
                                     {ids[j]: b for j, b in neg}, vector)
        return records

    @cached_property
    def _headroom(self) -> int:
        """Bits of the largest total exponent of an exchange relation: the
        headroom every packed walk leaves in its lanes."""
        return max(sum(b for _, b in pos + neg)
                   for moves in self._schedule for _, pos, neg, _ in moves
                   ).bit_length()

    # compatibility

    @cached_property
    def _unit_frames(self) -> list[list[int]]:
        """Per registry id, its valuations along the mutable unit rays of
        step 0 (lanes 0 to n - 1), then of step 1 (lanes n to 2n - 1):
        lane q * n + j is its min exponent in the variable at node j of
        step q, the others of that cluster set to 1. One packed walk,
        built on first use."""
        n, size = self.exchange.n, self.exchange.size
        return self.valuation_columns([
            (tuple(int(i == j) for i in range(size)), q) for q in (0, 1) for j in range(n)])

    def _unit_valuations(self, omega: int, gammas: Sequence[int]) -> list[int]:
        """The valuation of omega along the unit ray at each gamma's source
        position, in the order of gammas (mutable ids): with gamma at node
        j of step s, the ray x_j = t, every other entry of step s's cluster
        1. Its negative part, max(-val, 0), is the compatibility degree of
        omega with gamma: the exponent of gamma in the denominator of
        omega written in the cluster at gamma's source seed, zero when the
        two share a cluster and for omega == gamma. It needs no Laurent
        expansion and works on tropical belts as well.

        Every such valuation is read off the walk of _unit_frames, which
        starts only at steps 0 and 1, by a shift of position:

        - Along a mutable unit ray every frozen valuation stays 0, so the
          walk from step s sees only the mutable block of each matrix.
        - Mutating every source of a bipartite seed negates its mutable
          block, so the blocks, and the sources, repeat every two steps.

        So the walk from step s, r steps in, holds node by node what the
        walk from step q = s mod 2 holds r steps in. omega sits at node k
        of step t, its source position; taking r = t - s modulo the
        period, its valuation from step s is that, from step q, of the
        variable at node k of step t - (s - q), read at lane q * n + j.
        """
        t, k = self.entries[omega].source_pos
        entries, frames, steps, period, n = (
            self.entries, self._unit_frames, self.steps, self.period, self.exchange.n)
        out = []
        for gamma in gammas:
            s, j = entries[gamma].source_pos
            q = s % 2
            out.append(frames[steps[(t - s + q) % period].cluster_ids[k]][q * n + j])
        return out

    def __repr__(self) -> str:
        return (
            f"<BipartiteBelt {self.dynkin} h={self.h} period={self.period} "
            f"vars={len(self.mutable_ids)}+{len(self.frozen_ids)}>"
        )
