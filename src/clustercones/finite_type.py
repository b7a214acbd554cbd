"""Dynkin catalog, recognition, and the bipartite belt.

The belt mutates all sources of a bipartite seed at once, repeatedly,
until the labeled seed comes back (after h+2 or 2(h+2) steps, h the
Coxeter number), registering every distinct cluster variable it meets.
A step applies the exchange relation x' = (prod out^b + prod in^b) / x
at each source; the belt compiles its steps once into a schedule of
(node, out-terms, in-terms, produced id) tuples, and one private walker
runs that schedule over any of the rings in `seeds`:

- Laurent polynomials, for the registry expansions;
- exact Fractions, for value_walk at positive points;
- min-plus exponent vectors, for the deduplication key and for the
  frames that compatibility degrees are read from;
- min-plus integers, for valuation_walk along a curve x = t^beta;
- additive torus weights, for weight_walk, where an inhomogeneous
  exchange relation raises.

Variables are deduplicated by their componentwise minimum exponent vector
in the initial frame: min exponents are additive under multiplication
over a domain and take componentwise minima under sums with positive
coefficients, so the min-plus walk computes them exactly. In finite type
the mutable part of that vector (the negated denominator vector) is a
complete invariant, which is what makes the tropical mode sound; symbolic
mode also carries the full Laurent expansions and cross-checks the
deduplication against them: a new variable is proved Laurent by exact
division, and a revisited one by a single product with the stored
expansion. Every exchange then compares the expansion's min exponents
with the min-plus vector. The expansion's corners come out of the Laurent
arithmetic itself, which carries them exactly through products, sums in
which nothing cancels and exact quotients (see `laurent`), so no
expansion is rescanned for them; they are never taken from the min-plus
walk, so the comparison still tests that walk against the expansions.

Tropical mode exists because the deepest variables of an E8-size belt have
Laurent expansions with too many terms to multiply comfortably in pure
Python, while everything downstream (ratio cones, identification at
totally positive points, weight tables) only needs matrices, id schedules
and numeric walks.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

from .laurent import LaurentPolynomial
from .linalg import rref
from .seeds import (
    _FRACTIONS,
    _VALUATIONS,
    _WEIGHTS,
    ExchangeData,
    _exchange,
    _laurent_ring,
    _minplus_ring,
    _Ring,
    _split,
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


def find_bipartite_seed_path(
    exchange: ExchangeData, cap: int = 500_000
) -> tuple[int, ...]:
    """Mutation sequence from the given seed to a bipartite Dynkin seed.

    Best-first search on mutable exchange matrices, ordered by the number
    of nodes that are neither source nor sink; ties by path length, then
    discovery order, so the result is deterministic. Raises
    NotFiniteTypeError when the search space is exhausted or the cap is
    hit without finding one.
    """
    n = exchange.n
    weights = exchange.weights[:n]
    start = exchange.mutable_matrix()
    visited = {start}
    counter = 0
    heap: list[tuple[int, int, int, tuple, tuple[int, ...]]] = [
        (_mixed_nodes(start, n), 0, counter, start, ())
    ]
    while heap:
        d, depth, _, mat, path = heapq.heappop(heap)
        if d == 0:
            if recognize_dynkin(mat, weights) is None:
                raise NotFiniteTypeError(
                    "reached a bipartite orientation that is not a Dynkin diagram"
                )
            return path
        for k in range(n):
            nxt = mutate_matrix(mat, k, n)
            if nxt in visited:
                continue
            visited.add(nxt)
            if len(visited) > cap:
                raise NotFiniteTypeError(
                    f"no bipartite seed within {cap} matrices; "
                    "the mutation class looks infinite"
                )
            counter += 1
            heapq.heappush(
                heap, (_mixed_nodes(nxt, n), depth + 1, counter, nxt, path + (k,)))
    raise NotFiniteTypeError("mutation class exhausted without a bipartite seed")


class BeltStep(NamedTuple):
    matrix: tuple[tuple[int, ...], ...]
    cluster_ids: tuple[int, ...]
    sources: tuple[int, ...]


class RegistryEntry:
    """One cluster variable met on the belt."""

    __slots__ = ("id", "poly", "minexp", "frozen", "first_pos", "source_pos", "partner")

    def __init__(self, id: int, poly: LaurentPolynomial | None, minexp: tuple[int, ...], frozen: bool, first_pos: tuple[int, int]):
        self.id = id
        self.poly = poly
        self.minexp = minexp
        self.frozen = frozen
        self.first_pos = first_pos
        self.source_pos: tuple[int, int] | None = None
        self.partner: int | None = None


class BeltError(RuntimeError):
    """The belt failed to close or revisited inconsistent state."""


def _confirm_quotient(quotient: LaurentPolynomial, numerator: LaurentPolynomial,
                      denominator: LaurentPolynomial) -> LaurentPolynomial:
    """Division for an exchange that revisits a registered variable: the
    stored expansion is the quotient iff one product gives the numerator
    back, since the quotient in a domain is unique."""
    if quotient * denominator != numerator:
        raise BeltError("two distinct variables share a denominator vector")
    return quotient


class BipartiteBelt:
    """The source-mutation orbit of a bipartite finite-type seed.

    symbolic=None picks symbolic Laurent bookkeeping for small types
    (at most 50 belt variables) and tropical bookkeeping beyond that.

    In symbolic mode every exchange is checked exactly. When the min-plus
    walk lands on a variable not yet registered, its expansion is the
    exact quotient of the exchange relation. When it lands on a registered
    one (the second half of a 2(h+2) belt, and the initial cluster at the
    end of every belt), the stored expansion P is confirmed by testing
    P * old == numerator, one product in place of a division; the quotient
    in a domain is unique, so this is the same proof.
    """

    def __init__(self, exchange: ExchangeData, symbolic: bool | None = None):
        n, size = exchange.n, exchange.size
        mut = exchange.mutable_matrix()
        if not is_bipartite_orientation(mut, n):
            raise NotFiniteTypeError(
                "seed is not bipartite; mutate to a bipartite seed first"
            )
        dynkin = recognize_dynkin(mut, exchange.weights[:n])
        if dynkin is None:
            raise NotFiniteTypeError("bipartite seed is not a Dynkin orientation")
        self.exchange = exchange
        self.dynkin = dynkin
        self.h = dynkin.coxeter_number
        if symbolic is None:
            symbolic = dynkin.num_belt_variables <= 50
        self.symbolic = symbolic

        self.entries: list[RegistryEntry] = []
        self._by_minexp: dict[tuple[int, ...], int] = {}
        self.steps: list[BeltStep] = []
        self.period = 0

        minplus = _minplus_ring(size)
        laurent = _laurent_ring(size)
        polys = [LaurentPolynomial.variable(size, i) for i in range(size)]
        minexps = [tuple(int(j == i) for j in range(size)) for i in range(size)]
        ids = [
            self._register(polys[i] if symbolic else None, minexps[i], i >= n, (0, i))
            for i in range(size)
        ]

        # Types whose longest Weyl element is not -1 (A_n, D_odd, E6) come
        # back to the start seed after h+2 steps only up to the diagram
        # involution, so the strict labeled period can be 2(h+2).
        matrix = exchange.matrix
        state0 = (matrix, tuple(ids))
        steps: list[BeltStep] = []
        moves: list[list[tuple[int, tuple, tuple]]] = []
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
            srcs = sources_of(matrix, n)
            steps.append(BeltStep(matrix, tuple(ids), srcs))
            # sources are pairwise unlinked, so mutating one leaves the
            # rows of the others as they are in this step's matrix
            moves.append([(k, *_split(enumerate(matrix[k]))) for k in srcs])
            for k, pos, neg in moves[-1]:
                new_minexp = _exchange(minplus, minexps, pos, neg, minexps[k])
                new_poly = None
                if symbolic:
                    known = self._by_minexp.get(new_minexp)
                    ring = laurent if known is None else laurent._replace(
                        div=partial(_confirm_quotient, self.entries[known].poly))
                    new_poly = _exchange(ring, polys, pos, neg, polys[k])
                    if new_poly.min_exponents() != new_minexp:
                        raise BeltError("tropical min-exponent bookkeeping diverged")
                gamma = ids[k]
                new_id = self._register(new_poly, new_minexp, False, (s + 1, k))
                entry = self.entries[gamma]
                if entry.source_pos is None:
                    entry.source_pos = (s, k)
                    entry.partner = new_id
                ids[k] = new_id
                minexps[k] = new_minexp
                polys[k] = new_poly
                matrix = mutate_matrix(matrix, k, n)
            s += 1
        if total % self.period != 0:
            raise BeltError(
                f"belt period {self.period} does not divide 2(h+2) = {total}"
            )
        self.steps = steps
        # the walk schedule: per step, (node, out-terms, in-terms, id of
        # the variable the exchange produces), nonzero exponents only
        self._schedule = [
            tuple((k, pos, neg, steps[(r + 1) % self.period].cluster_ids[k])
                  for k, pos, neg in step_moves)
            for r, step_moves in enumerate(moves)
        ]
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
        self.display_names: dict[int, str] = {}
        for i in range(size):
            self.display_names[i] = exchange.names[i]
        self._frames: dict[int, dict[int, tuple[int, ...]]] = {}
        self._rays: dict[int, list[tuple[int, ...] | None]] = {}

    # registry helpers

    def _register(
        self,
        poly: LaurentPolynomial | None,
        minexp: tuple[int, ...],
        frozen: bool,
        pos: tuple[int, int],
    ) -> int:
        known = self._by_minexp.get(minexp)
        if known is not None:
            return known
        new_id = len(self.entries)
        self.entries.append(RegistryEntry(new_id, poly, minexp, frozen, pos))
        self._by_minexp[minexp] = new_id
        return new_id

    @property
    def n(self) -> int:
        return self.exchange.n

    @property
    def m(self) -> int:
        return self.exchange.m

    @property
    def row_order(self) -> list[int]:
        """Registry ids in U-matrix row order: mutable first, then frozen."""
        return self.mutable_ids + self.frozen_ids

    def step(self, s: int) -> BeltStep:
        return self.steps[s % self.period]

    def poly(self, id: int) -> LaurentPolynomial:
        p = self.entries[id].poly
        if p is None:
            raise BeltError("symbolic expansions disabled for this belt")
        return p

    def dvector(self, id: int) -> tuple[int, ...]:
        """Negated min exponents over the initial mutable coordinates."""
        return tuple(-v for v in self.entries[id].minexp[: self.n])

    def root_label(self, id: int) -> str:
        return "x[" + ",".join(str(d) for d in self.dvector(id)) + "]"

    def name(self, id: int) -> str:
        got = self.display_names.get(id)
        if got is not None:
            return got
        return self.root_label(id)

    def id_by_name(self, name: str) -> int | None:
        for id, nm in self.display_names.items():
            if nm == name:
                return id
        for e in self.entries:
            if not e.frozen and self.root_label(e.id) == name:
                return e.id
        return None

    # walks

    def _walk(self, ring: _Ring, values: list, start: int) -> dict:
        """Walk one period of the belt from step start over a ring.

        values holds the cluster of step start by node and is updated in
        place; returns the value of every registry variable.
        """
        out = dict(zip(self.step(start).cluster_ids, values))
        p = self.period
        for r in range(start, start + p):
            for k, pos, neg, target in self._schedule[r % p]:
                values[k] = out[target] = _exchange(ring, values, pos, neg, values[k])
        return out

    def _frame(self, s: int) -> dict[int, tuple[int, ...]]:
        """Min exponents of every registry variable in the cluster of belt
        step s, by one min-plus walk from unit vectors (cached per step).

        The frame's variable j is the cluster entry at node j of step s.
        Every registry variable is a Laurent polynomial with positive
        coefficients in that cluster, so nothing cancels and the min-plus
        walk gives its componentwise minimum exponents exactly.
        """
        s %= self.period
        cached = self._frames.get(s)
        if cached is None:
            size = self.exchange.size
            units = [tuple(int(i == j) for i in range(size)) for j in range(size)]
            cached = self._frames[s] = self._walk(_minplus_ring(size), units, s)
        return cached

    def _degenerations(self, s: int) -> list[tuple[int, ...] | None]:
        """Per mutable node j of belt step s, the primitive integer beta
        with B beta = c * e_j for some c > 0, B the step's extended
        exchange matrix (its n mutable rows); None where e_j is outside
        the column span of B. Cached per step.

        One fraction-free elimination of [B | I_n] serves every node: its
        rows are d * [E B | E] with E B in reduced echelon form, so e_j is
        in the span iff column j of the E part vanishes on the rows
        without a pivot in B, and then the solution x with free entries
        zero has x * d = that column at the pivot columns of B. beta is
        the primitive integer multiple of (x * d, d) with positive last
        entry, stripped of that entry.
        """
        s %= self.period
        cached = self._rays.get(s)
        if cached is None:
            n, size = self.exchange.n, self.exchange.size
            rows, pivots, d, _ = rref([
                row + tuple(int(i == j) for j in range(n))
                for i, row in enumerate(self.step(s).matrix[:n])
            ])
            rank = sum(pc < size for pc in pivots)
            cached = []
            for j in range(size, size + n):
                if any(row[j] for row in rows[rank:]):
                    cached.append(None)
                    continue
                v = [0] * size
                for row, pc in zip(rows, pivots[:rank]):
                    v[pc] = row[j]
                g = gcd(d, *v)
                if d < 0:
                    g = -g
                cached.append(tuple(x // g for x in v))
            self._rays[s] = cached
        return cached

    def value_walk(
        self, point: Sequence[Fraction | int], start_step: int = 0
    ) -> dict[int, Fraction]:
        """Exact values of every registry variable, given positive values
        for the cluster of belt step start_step (indexed by node)."""
        if len(point) != self.exchange.size:
            raise ValueError("need one value per node")
        return self._walk(_FRACTIONS, [Fraction(v) for v in point], start_step)

    def valuation_walk(
        self, beta: Sequence[int], start_step: int = 0
    ) -> dict[int, int]:
        """Valuations at t -> 0 of every registry variable when the cluster
        of belt step start_step is x_j = t^beta_j (indexed by node).

        Every variable is a Laurent polynomial with positive coefficients
        in that cluster, so along the curve it is C * t^val * (1 + o(1))
        with C > 0, and the min-plus walk computes val exactly.
        """
        if len(beta) != self.exchange.size:
            raise ValueError("need one exponent per node")
        return self._walk(_VALUATIONS, list(beta), start_step)

    def weight_walk(
        self, alpha: Sequence[int | Fraction]
    ) -> dict[int, int | Fraction]:
        """Torus weights of every registry variable for a kernel functional.

        alpha assigns weights to the initial cluster (by node). Raises
        ValueError if some exchange relation is not homogeneous, i.e. alpha
        is not in the kernel of the extended exchange matrix.

        An integral alpha (kernel vectors and column contents are) is
        walked over ints and gives int weights; any other alpha, such as
        one read from a certificate, is walked over Fractions. Both are
        exact, so the weights are equal as numbers either way.
        """
        if len(alpha) != self.exchange.size:
            raise ValueError("need one weight per node")
        values = [Fraction(a) for a in alpha]
        if all(v.denominator == 1 for v in values):
            values = [v.numerator for v in values]
        return self._walk(_WEIGHTS, values, 0)

    # compatibility

    def compatibility_degree(self, gamma: int, omega: int) -> int:
        """Exponent of the gamma-variable in the denominator of omega,
        written in the cluster at gamma's source seed. Zero when the two
        share a cluster, and for omega == gamma.

        The exponent is read off the min-plus frame of that step (see
        _frame), so it needs no Laurent expansion and works on tropical
        belts as well.
        """
        entry = self.entries[gamma]
        if entry.frozen or self.entries[omega].frozen:
            raise ValueError("compatibility degrees are between mutable variables")
        assert entry.source_pos is not None
        s, node = entry.source_pos
        return max(-self._frame(s)[omega][node], 0)

    def __repr__(self) -> str:
        return (
            f"<BipartiteBelt {self.dynkin} h={self.h} period={self.period} "
            f"vars={len(self.mutable_ids)}+{len(self.frozen_ids)}>"
        )
