"""Plucker cluster structures on Grassmannians of finite cluster type.

Everything is exact and value-based. The initial seed is a quiver on
Plucker coordinates (a rectangular grid for k >= 3, a zig-zag polygon
triangulation for k = 2). The mutation belt starts from it, first taking
it to a bipartite seed along a short mutation path where it is not one,
and enumerates every cluster variable tropically. Belt variables are
then identified against actual minors by combining two exact
invariants: the torus content (one weight per matrix column, transported
along the belt) and evaluation at three totally positive points, where
each minor is a Vandermonde product. The points have integer parameters,
so every minor is an integer, and so is every cluster variable (a
polynomial in the minors, Scott 2006): the values are walked over ints,
and an exchange that does not divide exactly raises IdentificationError.
Variables that are not minors are named by their content multiset.

On top of the identification sit the cone computations: the bounded-ratio
cone restricted to Plucker coordinates or to variables of bounded degree,
the cyclic rotation acting on extreme rays, factorization of bounded
Plucker ratios into primitive crossing ratios, and checkers for stored
ratio tables, including the 4x8 table whose cluster structure is not of
finite type.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from importlib.resources import files as _resource_files
from typing import TYPE_CHECKING, Iterable, Sequence

from .cones import ConeDescription, UMatrix, build_u_matrix, membership, subset_cone
from .expressions import parse_ratio
from .finite_type import BipartiteBelt, NotFiniteTypeError
from .linalg import rank, solve
from .seeds import (
    ExchangeData,
    _product_exchange,
    _valuation_exchange,
)
from .uvars import build_u_variables

if TYPE_CHECKING:
    from . import gr48

__all__ = [
    "GrassmannianCluster",
    "IdentificationError",
    "PrimitiveRatio",
    "RatioTableError",
    "TotallyPositivePoint",
    "UnboundedRatioError",
    "check_ray_table",
    "grid_seed",
    "load_gr48_ratios",
    "load_ray_table",
    "packaged_table",
    "tp_sample",
    "verify_gr48_table",
]


class IdentificationError(RuntimeError):
    """A belt variable could not be matched to the Plucker data it claims."""


class UnboundedRatioError(ValueError):
    """Raised with the refuting certificate when a ratio is not bounded."""

    def __init__(self, certificate):
        super().__init__(f"ratio is {certificate.verdict}")
        self.certificate = certificate


class RatioTableError(RuntimeError):
    """A stored ratio table row failed verification."""


def _pl_name(cols: Sequence[int]) -> str:
    if all(c <= 9 for c in cols):
        return "p[" + "".join(str(c) for c in cols) + "]"
    return "p[" + ",".join(str(c) for c in cols) + "]"


# initial seeds


def _zigzag_diagonals(n: int) -> list[tuple[int, int]]:
    """Diagonals of a zig-zag triangulation whose quiver is bipartite.

    A fan triangulation gives a path quiver oriented head to tail, which
    is not bipartite; alternating the ear between the low and high side
    of the polygon flips every other arrow.
    """
    if n == 4:
        return [(2, 4)]
    if n == 5:
        return [(2, 4), (1, 4)]
    diags = [(2, 4), (1, 4), (1, 5)]
    lo, hi, step_lo = 5, n, True
    while len(diags) < n - 3:
        diags.append((lo, hi))
        if step_lo:
            lo += 1
        else:
            hi -= 1
        step_lo = not step_lo
    return diags


def _grid_layout(k: int, n: int) -> tuple[list[tuple[int, ...]], list[bool], list[tuple[int, int]]]:
    """Node contents, frozen flags, and arrows of the initial seed.

    Nodes are ordered mutable first, frozen second; arrows are index
    pairs into that order.
    """
    if k == 2:
        diagonals = _zigzag_diagonals(n)
        sides = [(i, i + 1) for i in range(1, n)] + [(1, n)]
        edges = diagonals + sides
        index = {e: i for i, e in enumerate(edges)}
        edge_set = set(edges)
        triangles = [
            t for t in itertools.combinations(range(1, n + 1), 3)
            if ((t[0], t[1]) in edge_set and (t[1], t[2]) in edge_set
                and (t[0], t[2]) in edge_set)
        ]
        if len(triangles) != n - 2:
            raise RuntimeError(f"zig-zag diagonals for n={n} are not a triangulation")
        arrows = []
        for a, b, c in triangles:
            arrows.append((index[(a, b)], index[(b, c)]))
            arrows.append((index[(b, c)], index[(a, c)]))
            arrows.append((index[(a, c)], index[(a, b)]))
        contents = [j for j in edges]
        frozen = [False] * len(diagonals) + [True] * len(sides)
        return [tuple(j) for j in contents], frozen, arrows

    width = n - k - 1

    def var(a: int, b: int) -> tuple[int, ...]:
        return tuple(range(b + 1, b + a + 1)) + tuple(range(n - k + a + 1, n + 1))

    mutable = [(a, b) for a in range(1, k) for b in range(1, width + 1)]
    frozen_nodes = (
        [(a, 0) for a in range(1, k)]
        + [(k, b) for b in range(0, width + 1)]
        + ["corner"]
    )
    order = mutable + frozen_nodes
    pos = {nd: i for i, nd in enumerate(order)}
    contents = [
        var(*nd) if nd != "corner" else tuple(range(n - k + 1, n + 1))
        for nd in order
    ]
    arrows = []
    for a in range(1, k):
        for b in range(1, width + 1):
            arrows.append((pos[(a, b)], pos[(a, b - 1)]))
    for a in range(1, k):
        for b in range(0, width + 1):
            arrows.append((pos[(a, b)], pos[(a + 1, b)]))
    for a in range(2, k + 1):
        for b in range(0, width):
            arrows.append((pos[(a, b)], pos[(a - 1, b + 1)]))
    arrows.append((pos["corner"], pos[(1, width)]))
    arrows.append((pos[(k, width)], pos["corner"]))
    return contents, [False] * len(mutable) + [True] * len(frozen_nodes), arrows


def grid_seed(k: int, n: int) -> tuple[ExchangeData, list[tuple[int, ...]]]:
    """Initial exchange data for the Plucker cluster structure on Gr(k, n),
    and the column subset of each of its nodes.

    Mutable nodes come first; node names are the Plucker labels. Every
    arrow i -> j of _grid_layout adds 1 to B[i][j] and -1 to B[j][i]. The
    extended matrix has full rank (the n frozen coordinates see every
    column), which downstream cone computations rely on.
    """
    if not 2 <= k <= n - 2:
        raise ValueError("need 2 <= k <= n-2")
    contents, frozen, arrows = _grid_layout(k, n)
    size, n_mutable = len(contents), frozen.count(False)
    matrix = [[0] * size for _ in range(size)]
    for i, j in arrows:
        matrix[i][j] += 1
        matrix[j][i] -= 1
    exchange = ExchangeData(n_mutable, size - n_mutable, matrix,
                            names=[_pl_name(J) for J in contents])
    if not exchange.is_full_rank():
        raise RuntimeError(f"grid seed for Gr({k},{n}) lost full rank")
    return exchange, contents


# totally positive evaluation


class TotallyPositivePoint:
    """Point of the totally positive Grassmannian with product-form minors.

    Column j of the underlying k x n matrix is (1, t_j, ..., t_j^{k-1}),
    so the minor on columns J is prod_{a<b in J} (t_b - t_a): positive
    whenever the parameters increase strictly, and computed without any
    determinant expansion. Integer parameters give integer minors.

    Minors are not cached: only cluster set-up calls `minor`, a few hundred
    times. The 4x8 table check never asks for a minor; it evaluates
    monomials in the differences t_b - t_a directly (see
    `verify_gr48_table`).
    """

    __slots__ = ("k", "ts")

    def __init__(self, k: int, ts: Sequence[Fraction | int]):
        self.k = k
        self.ts = tuple(ts)
        if any(t <= 0 for t in self.ts):
            raise ValueError("parameters must be positive")
        if any(a >= b for a, b in zip(self.ts, self.ts[1:])):
            raise ValueError("parameters must increase strictly")

    @property
    def n(self) -> int:
        return len(self.ts)

    def minor(self, cols: Sequence[int]) -> Fraction | int:
        J = tuple(cols)
        if len(J) != self.k:
            raise ValueError(f"need {self.k} columns, got {J}")
        if any(a >= b for a, b in zip(J, J[1:])) or J[0] < 1 or J[-1] > self.n:
            raise ValueError(f"columns {J} not strictly increasing in range")
        return math.prod(
            self.ts[b - 1] - self.ts[a - 1]
            for a, b in itertools.combinations(J, 2)
        )


def tp_sample(k: int, n: int, seed: int = 7) -> TotallyPositivePoint:
    """Deterministic totally positive point with distinct rational parameters."""
    rng = random.Random(seed)
    acc = Fraction(0)
    ts = []
    for _ in range(n):
        acc += Fraction(rng.randint(1, 48), rng.randint(1, 48))
        ts.append(acc)
    return TotallyPositivePoint(k, ts)


def _integral(point: TotallyPositivePoint) -> TotallyPositivePoint:
    """The same point of Gr(k, n) with integer parameters: the parameters
    times the lcm D of their denominators. That multiplies the matrix's
    row i by D**i, so every minor by D**(k(k-1)/2), a common factor."""
    scale = math.lcm(*(Fraction(t).denominator for t in point.ts))
    return TotallyPositivePoint(point.k, [int(t * scale) for t in point.ts])


def _divide_exactly(a: int, b: int) -> int:
    quotient, remainder = divmod(a, b)
    if remainder:
        raise IdentificationError(
            f"an exchange relation does not divide at an integral point ({a} / {b})")
    return quotient


# exact values at an integral point of the cone over Gr(k, n), where every
# cluster variable is an integer, so each exchange must divide exactly
_INTEGERS = _product_exchange(_divide_exactly)


# the cluster structure


def _finite_shape(k: int, n: int) -> bool:
    a, b = sorted((k - 1, n - k - 1))
    return a == 1 or (a, b) in ((2, 2), (2, 3), (2, 4))


class PrimitiveRatio:
    """Crossing ratio P_{i,j+1,S} P_{j,i+1,S} / (P_{i,j,S} P_{i+1,j+1,S}).

    Indices are cyclic; i, i+1, j, j+1 must be four distinct columns and
    S a disjoint (k-2)-subset. These are exactly the extreme rays of the
    Plucker-supported bounded cone in the finite type cases.
    """

    __slots__ = ("i", "j", "extra", "vector")

    def __init__(self, i: int, j: int, extra: tuple[int, ...], vector: dict[int, int]):
        self.i = i
        self.j = j
        self.extra = extra
        self.vector = vector

    def __repr__(self) -> str:
        return f"<PrimitiveRatio ({self.i},{self.j}) S={self.extra}>"


def _ratio_product(factors: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Exponent vector of a product of (id, exponent) factors, zeros dropped."""
    vec: dict[int, int] = {}
    for id, e in factors:
        vec[id] = vec.get(id, 0) + e
    return {id: e for id, e in vec.items() if e}


class GrassmannianCluster:
    """All exact data of the cluster structure on a finite type Gr(k, n).

    Exposes the mutation belt, per-variable column contents and degrees,
    the minor identification, u-variables and their exponent matrix, the
    restricted cones, the rotation action, and primitive factorizations.
    """

    def __init__(self, k: int, n: int):
        if not 2 <= k <= n - 2:
            raise ValueError("need 2 <= k <= n-2")
        if not _finite_shape(k, n):
            raise NotFiniteTypeError(
                f"Gr({k},{n}) does not carry a finite type cluster structure"
            )
        self.k = k
        self.n = n
        self.grid, contents = grid_seed(k, n)
        self._grid_sets = contents  # column subsets, node order of self.grid
        self.points = tuple(_integral(tp_sample(k, n, s)) for s in (11, 12, 13))
        self.belt = BipartiteBelt(self.grid)

        # the content of each column is a grading of the grid seed, and
        # mutation carries it to a grading of every seed after (see
        # ExchangeData.grading_defect): checked once at the grid, it is
        # carried along the belt's re-basing path as valuations, and its
        # valuations on the belt, walked for all columns at once, are the
        # contents
        columns = [[int(c in J) for J in contents] for c in range(1, n + 1)]
        for c, alpha in enumerate(columns, 1):
            reason = self.grid.grading_defect(alpha)
            if reason is not None:
                raise IdentificationError(
                    f"column {c} content is not an exchange weight: {reason}")
        functionals = [self.belt._rebase(_valuation_exchange, a) for a in columns]
        per_column = self.belt.valuation_columns([(a, 0) for a in functionals])
        if rank(functionals) != n:
            raise IdentificationError("column functionals do not have full rank")
        self.content: dict[int, tuple[int, ...]] = {}
        for id in self.belt.row_order:
            vec = self.content[id] = tuple(per_column[id])
            if min(vec) < 0:
                c = next(c for c, w in enumerate(vec) if w < 0)
                raise IdentificationError(
                    f"variable {id} has negative content {vec[c]} in column {c + 1}")
        self.degree: dict[int, int] = {}
        for id, vec in self.content.items():
            total = sum(vec)
            if total % k:
                raise IdentificationError(
                    f"variable {id} has content size {total}, not a multiple of {k}"
                )
            self.degree[id] = total // k

        self.values = self._walk_values(self.points, TotallyPositivePoint.minor)
        self._identify()
        self._name_registry()

        self._cones: dict[frozenset, ConeDescription] = {}

    # plumbing

    def _walk_values(self, points, minor_of) -> list[dict[int, int]]:
        """Registry values when each grid node J is seeded with the integer
        minor_of(pt, J), walked over ints along the path and the belt."""
        belt = self.belt
        return [
            belt._walk(_INTEGERS, belt._rebase(
                _INTEGERS, [minor_of(pt, J) for J in self._grid_sets]), 0, belt.period)
            for pt in points
        ]

    def _identify(self) -> None:
        self.minor_id: dict[tuple[int, ...], int] = {}
        anomalies = []
        for id in self.belt.row_order:
            if self.degree[id] != 1:
                continue
            vec = self.content[id]
            if any(e > 1 for e in vec):
                anomalies.append((id, "degree one with a repeated column"))
                continue
            J = tuple(c + 1 for c, e in enumerate(vec) if e)
            if all(
                self.values[p][id] == self.points[p].minor(J)
                for p in range(len(self.points))
            ):
                other = self.minor_id.get(J)
                if other is not None:
                    raise IdentificationError(
                        f"variables {other} and {id} both evaluate as minor {J}"
                    )
                self.minor_id[J] = id
            else:
                anomalies.append((id, f"does not evaluate as minor {J}"))
        if anomalies:
            raise IdentificationError(f"identification anomalies: {anomalies}")
        if len(self.minor_id) != math.comb(self.n, self.k):
            raise IdentificationError(
                f"found {len(self.minor_id)} minors, expected {math.comb(self.n, self.k)}"
            )
        for fid in self.belt.frozen_ids:
            J = tuple(c + 1 for c, e in enumerate(self.content[fid]) if e)
            if self.minor_id.get(J) != fid:
                raise IdentificationError(f"frozen variable {fid} is not minor {J}")

    def _name_registry(self) -> None:
        names: dict[int, str] = {}
        for J, id in self.minor_id.items():
            names[id] = _pl_name(J)
        if (self.k, self.n) == (3, 6):
            names.update(self._pin_gr36_exotics())
        by_class: dict[tuple[int, ...], list[int]] = {}
        for id in self.belt.row_order:
            if id in names:
                continue
            by_class.setdefault(self.content[id], []).append(id)
        for content, ids in sorted(by_class.items()):
            digits = "".join(str(c + 1) * e for c, e in enumerate(content))
            for t, id in enumerate(sorted(ids)):
                suffix = "" if len(ids) == 1 else "abcdefgh"[t]
                names[id] = f"q[{digits}{suffix}]"
        if len(names) != len(self.belt.entries) or len(set(names.values())) != len(names):
            raise IdentificationError("registry naming is not a bijection")
        self.belt.rename(names)

    def _pin_gr36_exotics(self) -> dict[int, str]:
        """Name the two quadratic variables by their leading tableau.

        The weight (1,...,1) degree 2 part of the Plucker algebra has the
        five standard products P_A P_B (complementary triples with
        a_i <= b_i) as a basis, so each quadratic variable has a unique
        exact expansion there; its name is the lexicographically largest
        standard pair appearing, which carries coefficient 1.
        """
        exotic = [id for id in self.belt.row_order if self.degree[id] == 2]
        if len(exotic) != 2:
            raise IdentificationError(f"expected 2 quadratic variables, found {len(exotic)}")
        standard = []
        for A in itertools.combinations(range(1, 7), 3):
            B = tuple(sorted(set(range(1, 7)) - set(A)))
            if all(a <= b for a, b in zip(A, B)):
                standard.append((A, B))
        pts = [_integral(tp_sample(3, 6, s)) for s in range(21, 29)]
        walked = self._walk_values(pts, TotallyPositivePoint.minor)
        matrix = [[pt.minor(A) * pt.minor(B) for A, B in standard] for pt in pts]
        out = {}
        for id in exotic:
            rhs = [walked[p][id] for p in range(len(pts))]
            sol = solve(matrix, rhs)
            if sol is None:
                raise IdentificationError(
                    f"quadratic variable {id} has no standard monomial expansion"
                )
            lead = None
            for (A, B), c in zip(standard, sol):
                if c:
                    lead = (A, B, c)
            if lead is None or lead[2] != 1:
                raise IdentificationError(
                    f"quadratic variable {id} has leading standard coefficient {lead}"
                )
            digits = lambda J: "".join(str(c) for c in J)
            out[id] = f"q[{digits(lead[0])}|{digits(lead[1])}]"
        if len(set(out.values())) != 2:
            raise IdentificationError("both quadratic variables lead with the same tableau")
        return out

    # naming and lookup

    def name(self, id: int) -> str:
        return self.belt.name(id)

    @functools.cached_property
    def uvars(self):
        return build_u_variables(self.belt)

    @functools.cached_property
    def U(self) -> UMatrix:
        return build_u_matrix(self.belt, self.uvars)

    # cones

    def degree_one_ids(self) -> list[int]:
        return [id for id in self.belt.row_order if self.degree[id] == 1]

    def ids_with_degree_at_most(self, dmax: int) -> list[int]:
        return [id for id in self.belt.row_order if self.degree[id] <= dmax]

    def _cone(self, ids: Iterable[int]) -> ConeDescription:
        key = frozenset(ids)
        got = self._cones.get(key)
        if got is None:
            got = subset_cone(key, self.U)
            self._cones[key] = got
        return got

    def pluecker_cone(self) -> ConeDescription:
        """Extreme rays of the bounded ratios supported on minors only."""
        return self._cone(self.degree_one_ids())

    def degree_filtered_cone(self, dmax: int) -> ConeDescription:
        return self._cone(self.ids_with_degree_at_most(dmax))

    def full_cone(self) -> ConeDescription:
        return self._cone(self.belt.row_order)

    # rotation

    def rotation(self) -> dict[int, int]:
        """Registry permutation induced by relabeling columns i -> i-1 (1 -> n).

        Rotating the point rather than the variable: the belt is walked
        again with every grid node seeded by the minor on the rotated
        column set, and the resulting value triples are matched against
        the stored ones. Sign bookkeeping drops out because each minor is
        evaluated through the Vandermonde product on sorted columns.
        """
        return self._rotation

    @functools.cached_property
    def _rotation(self) -> dict[int, int]:
        n = self.n

        def rho(J):
            return tuple(sorted((j - 2) % n + 1 for j in J))

        rotated = self._walk_values(self.points, lambda pt, J: pt.minor(rho(J)))
        index = {}
        for id in self.belt.row_order:
            key = tuple(self.values[p][id] for p in range(len(self.points)))
            if key in index:
                raise IdentificationError("two variables share all sample values")
            index[key] = id
        perm = {}
        for id in self.belt.row_order:
            key = tuple(rotated[p][id] for p in range(len(self.points)))
            target = index.get(key)
            if target is None:
                raise IdentificationError(
                    f"rotated values of {self.name(id)} match no variable"
                )
            perm[id] = target
        if len(set(perm.values())) != len(perm):
            raise IdentificationError("rotation is not a bijection")
        for id, target in perm.items():
            if self.belt.entries[id].frozen != self.belt.entries[target].frozen:
                raise IdentificationError("rotation mixed frozen and mutable")
            want = tuple(
                self.content[id][(c + 1) % n] for c in range(n)
            )
            if self.content[target] != want:
                raise IdentificationError("rotation does not rotate contents")
        walk = dict(perm)
        for _ in range(n - 1):
            walk = {id: perm[walk[id]] for id in walk}
        if any(walk[id] != id for id in walk):
            raise IdentificationError("rotation has wrong order")
        return perm

    def ray_orbits(self, cone: ConeDescription) -> list[list[int]]:
        """Ray indices grouped into rotation orbits; fails if not closed."""
        ray_index = cone.ray_index
        if len(ray_index) != len(cone.rays):
            raise IdentificationError("duplicate rays in cone description")
        perm = self.rotation()
        orbits = []
        seen = set()
        for start in range(len(cone.rays)):
            if start in seen:
                continue
            orbit = [start]
            seen.add(start)
            current = cone.rays[start].vector.items()
            while True:
                current = frozenset([(perm[id], e) for id, e in current])
                nxt = ray_index.get(current)
                if nxt is None:
                    raise IdentificationError(
                        "rotation carried an extreme ray outside the cone"
                    )
                if nxt == start:
                    break
                orbit.append(nxt)
                seen.add(nxt)
            orbits.append(orbit)
        return orbits

    @functools.cached_property
    def _table_names(self):
        """(class_ids, canon) for check_ray_table, built once: the ids of
        degree >= 2 by content, in row order, and the reading of a table
        name (name, column groups) as ("id", the minor's id) or as ("cls",
        its content, its column groups), memoized, as a table repeats its
        names from row to row. A name that reads as neither raises
        RatioTableError, on every call."""
        k, n = self.k, self.n
        class_ids: dict[tuple[int, ...], list[int]] = {}
        for id in self.belt.row_order:
            if self.degree[id] >= 2:
                class_ids.setdefault(self.content[id], []).append(id)

        @functools.cache
        def canon(token: TableName):
            name, groups = token
            if len(groups) == 1 and len(groups[0]) == k:
                J = tuple(sorted(groups[0]))
                id = self.minor_id.get(J)
                if id is None:
                    raise RatioTableError(f"{name!r} names no minor of Gr({k},{n})")
                return ("id", id)
            content = [0] * n
            for g in groups:
                for c in g:
                    if not 1 <= c <= n:
                        raise RatioTableError(f"{name!r} uses column {c} outside 1..{n}")
                    content[c - 1] += 1
            content = tuple(content)
            if content not in class_ids:
                raise RatioTableError(f"{name!r}: no registry variable has that content")
            # key by the column groups only: q[147|368] on the left and
            # v[147|368] on the right refer to the same variable
            key = "|".join("".join(str(c) for c in g) for g in groups)
            return ("cls", content, key)

        return class_ids, canon

    # primitive ratios

    def primitive_ratio(self, i: int, j: int, extra: Sequence[int] = ()) -> PrimitiveRatio:
        n = self.n
        succ = lambda a: a % n + 1
        corners = (i, succ(i), j, succ(j))
        S = tuple(sorted(extra))
        if len(set(corners)) != 4:
            raise ValueError(f"columns {i}, {j} are cyclically adjacent")
        if len(S) != self.k - 2 or set(S) & set(corners):
            raise ValueError("extra columns must be k-2 columns disjoint from the corners")
        vec: dict[int, int] = {}
        for cols, e in (
            ((i, succ(j)) + S, 1),
            ((j, succ(i)) + S, 1),
            ((i, j) + S, -1),
            ((succ(i), succ(j)) + S, -1),
        ):
            id = self.minor_id[tuple(sorted(cols))]
            vec[id] = vec.get(id, 0) + e
        return PrimitiveRatio(i, j, S, vec)

    def primitive_ratios(self) -> list[PrimitiveRatio]:
        """All primitive ratios, ordered by (i, j, S)."""
        return self._primitives

    @functools.cached_property
    def _primitives(self) -> list[PrimitiveRatio]:
        n = self.n
        succ = lambda a: a % n + 1
        out = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if succ(i) == j or succ(j) == i:
                    continue
                rest = [
                    c for c in range(1, n + 1)
                    if c not in (i, succ(i), j, succ(j))
                ]
                for S in itertools.combinations(rest, self.k - 2):
                    out.append(self.primitive_ratio(i, j, S))
        return out

    @functools.cached_property
    def _primitive_lams(self) -> list[Counter]:
        """The u-exponents of each primitive ratio, as a Counter over the
        columns of U, in the order of primitive_ratios()."""
        lams = []
        for p in self.primitive_ratios():
            cert = membership(p.vector, self.U)
            if not (cert.bounded and cert.integral):
                raise RatioTableError(
                    f"u-exponents of {p!r} are not all nonnegative integers")
            lams.append(Counter(dict(cert.powers)))
        return lams

    def factor_into_primitives(
            self, vector: dict[int, int]) -> list[tuple[PrimitiveRatio, int]]:
        """Write a bounded ratio of minors as a product of primitive ratios,
        each with its multiplicity.

        With lam the input's u-exponents, repeatedly subtract the first
        primitive ratio in (i, j, S) order whose u-exponents lam_p (cached
        once per cluster) satisfy lam_p <= lam componentwise. This never
        gets stuck while the factorization theorem holds: the remainder
        U lam is bounded and supported on minors, so it factors, and as
        lam is linear and every lam_p >= 0, each of its factors fits.
        Sum(lam) drops at every step, so the loop ends. A primitive is
        subtracted as many times as it fits in one step: lam only shrinks,
        so no earlier primitive fits again, and the greedy choice stays the
        same until this one no longer fits. The list pairs it with that
        count, so its length does not grow with the exponents, and the
        multiply-back check weights it by the count.

        Raises UnboundedRatioError (with certificate) if the input is not
        bounded, ValueError if it is not supported on minors or its
        u-exponents are not integers. RatioTableError means a bounded
        minor ratio with no primitive factorization, a counterexample to
        the theorem (or a fault in the u-variables), and is never expected.
        """
        for id in vector:
            if self.degree[id] != 1:
                raise ValueError(
                    f"{self.name(id)} is not a minor; only Plucker ratios factor"
                )
        cert = membership(vector, self.U)
        if not cert.bounded:
            raise UnboundedRatioError(cert)
        if not cert.integral:
            raise ValueError("u-exponents are not integral; no monomial factorization")
        lam = Counter(dict(cert.powers))
        counted = []  # (primitive, times subtracted in a row)
        while lam:
            for prim, lam_p in zip(self.primitive_ratios(), self._primitive_lams):
                if all(lam[col] >= e for col, e in lam_p.items()):
                    break
            else:
                raise RatioTableError(
                    "no primitive ratio fits the remaining u-exponents: "
                    "a bounded minor ratio without a primitive factorization"
                )
            m = min(lam[col] // e for col, e in lam_p.items())
            counted.append((prim, m))
            # drops the columns that reach 0
            lam -= Counter({col: m * e for col, e in lam_p.items()})
        check = _ratio_product((id, m * e) for prim, m in counted
                               for id, e in prim.vector.items())
        if check != {id: e for id, e in vector.items() if e}:
            raise RatioTableError("primitive factors do not multiply back to the input")
        return counted


# stored ratio tables


def packaged_table(filename: str) -> str:
    return _resource_files(__package__).joinpath("data", filename).read_text()


# a table name with its column groups: ("q[147|368]", ((1, 4, 7), (3, 6, 8)))
TableName = tuple[str, tuple[tuple[int, ...], ...]]


def load_ray_table(
    text: str,
) -> dict[str, list[tuple[dict[TableName, int], list[TableName]]]]:
    """Parse a sectioned table of rows `<ratio> : <ray name> <ray name> ...`.

    Sections start with a [name] line; '#' begins a comment. The left side
    uses the ratio grammar; the right side is a whitespace-separated
    multiset of ray names. Each distinct name is parsed once per table into
    its column groups and kept as a TableName, the form check_ray_table
    reads; a name not of the form h[digits|digits...] raises
    RatioTableError.
    """
    name = functools.cache(lambda nm: (nm, _token_groups(nm)))
    sections: dict[str, list[tuple[dict[TableName, int], list[TableName]]]] = {}
    current: str | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
            continue
        if current is None:
            raise ValueError("table row before any [section] header")
        lhs_text, sep, rhs_text = line.partition(":")
        if not sep:
            raise ValueError(f"missing ':' in table row {line!r}")
        lhs = parse_ratio(lhs_text.strip(), name)
        rhs = [name(nm) for nm in rhs_text.split()]
        if not rhs:
            raise ValueError(f"empty ray list in table row {line!r}")
        sections[current].append((lhs, rhs))
    return sections


def _token_groups(name: str) -> tuple[tuple[int, ...], ...]:
    head, bracket, rest = name.partition("[")
    if not bracket or not rest.endswith("]"):
        raise RatioTableError(f"table name {name!r} is not of the form h[...]")
    parts = rest[:-1].split("|")
    if not all(map(str.isdigit, parts)):
        raise RatioTableError(f"table name {name!r} has non-digit columns")
    return tuple(tuple(map(int, part)) for part in parts)


# name assignments a table row may leave open before check_ray_table
# refuses to go on, rather than drop some
_ASSIGNMENT_CAP = 4096


def check_ray_table(
    grass: GrassmannianCluster,
    rows: Sequence[tuple[dict[TableName, int], list[TableName]]],
    cone: ConeDescription,
) -> tuple[dict[str, int], list[int]]:
    """Verify factorization rows whose non-minor names are ambiguous.

    Rows are as load_ray_table gives them, each name with its column
    groups; what depends on the cluster (the minor a name is, or its
    content and the variables that share it) is read here, through the
    cluster's _table_names, built on the first call. Minor names
    pin registry ids exactly. A name with several column
    groups only pins the content multiset, which up to three registry
    variables share; the checker searches injective per-content
    assignments consistent with every row, where consistent means the
    left ratio is an extreme ray of the cone and equals the product of
    the named u-variables. A row is decided in two steps: the left ratio
    is looked up among the rays, and the multiset of named u-variables is
    compared with that ray's powers. U has independent columns
    (build_u_matrix enforces it), so a ratio's u-exponents are unique and
    the ratio is that product exactly when its powers are the multiset.

    Only candidates that can hold are drawn. Each row's unassigned names
    are read as one sequence (by content, first seen first within one),
    and its assignments come in lexicographic order, each name taking the
    free ids of its content in class_ids order. Once the names up to the
    last one on the left are assigned, the left ratio is fixed, so the
    first step is taken once for every candidate that shares them: if it
    is no ray, nothing further is tried, and otherwise every later name is
    on the right alone and may take only a gamma with a nonzero power in
    that ray, as the multisets must agree. A Pluecker row has only minors
    on its left, so its ray is fixed before any name is drawn. Dropping
    candidates that cannot hold keeps the survivors and their order, so
    the result and every error are those of the full enumeration.

    Returns the chosen assignment and the ray index of each row; raises
    RatioTableError when no assignment survives, or when more than
    _ASSIGNMENT_CAP do after some row.
    """
    gammas = [u.gamma for u in cone.umatrix.uvars]
    ray_index = cone.ray_index
    class_ids, canon = grass._table_names

    parsed = []
    for lhs, rhs in rows:
        parsed.append((
            [(canon(nm), e) for nm, e in sorted(lhs.items())],
            [canon(nm) for nm in rhs],
        ))

    def resolve(tok, asg):
        return tok[1] if tok[0] == "id" else asg[tok[2]]

    def left_ray(row, asg) -> int | None:
        """The index of the ray the row's left ratio is, or None."""
        vec = _ratio_product((resolve(tok, asg), e) for tok, e in row[0])
        return ray_index.get(frozenset(vec.items()))

    def extensions(asg, pending, keep):
        """Each injective extension of asg to the pending (content, key)
        names, ids outside keep (if given) left out, in lexicographic
        order: the names read as one sequence, each taking the free ids of
        its content in class_ids order."""
        groups: dict[tuple[int, ...], list[str]] = {}
        for content, key in pending:
            groups.setdefault(content, []).append(key)
        # an id has one content, so dropping every assigned id leaves the
        # free ids of each content
        used = set(asg.values())
        option_sets = [
            (keys, list(itertools.permutations(
                [id for id in class_ids[content] if id not in used
                 and (keep is None or id in keep)],
                len(keys))))
            for content, keys in groups.items()
        ]
        for combo in itertools.product(*(opts for _, opts in option_sets)):
            ext = dict(asg)
            for (keys, _), perm in zip(option_sets, combo):
                ext.update(zip(keys, perm))
            yield ext

    # each survivor carries the ray index of every row it has passed;
    # extensions of distinct assignments differ, so none repeats
    assignments: list[tuple[dict[str, int], list[int]]] = [({}, [])]
    for ridx, row in enumerate(parsed):
        # the row's content-pinned names, first seen first
        pinned = list(dict.fromkeys(
            tok for tok in [t for t, _ in row[0]] + row[1] if tok[0] == "cls"))
        left = {tok[2] for tok, _ in row[0] if tok[0] == "cls"}
        survivors = []
        for asg, indices in assignments:
            # unassigned names by content, first seen first within one
            pending = sorted(((content, key) for _, content, key in pinned
                              if key not in asg), key=operator.itemgetter(0))
            # the names up to the last one on the left fix the left ratio
            # and so its ray; every later name is on the right alone and
            # must take a gamma of that ray's powers
            split = max((pos + 1 for pos, (_, key) in enumerate(pending)
                         if key in left), default=0)
            for head in extensions(asg, pending[:split], None):
                i = left_ray(row, head)
                if i is None:
                    continue
                powers = {gammas[j]: l for j, l in cone.rays[i].powers}
                for ext in extensions(head, pending[split:], powers):
                    if Counter(resolve(tok, ext) for tok in row[1]) != powers:
                        continue
                    if len(survivors) == _ASSIGNMENT_CAP:
                        raise RatioTableError(
                            f"table row {ridx + 1}: more than "
                            f"cap={_ASSIGNMENT_CAP} name assignments survive"
                        )
                    survivors.append((ext, indices + [i]))
        if not survivors:
            raise RatioTableError(
                f"table row {ridx + 1}: no name assignment verifies the factorization"
            )
        assignments = survivors
    return assignments[0]


# the 4x8 ratio table


def load_gr48_ratios() -> list[dict[tuple[int, ...], int]]:
    """Stored weight-zero ratios of 4x8 minors, keyed by column 4-sets."""

    def res(nm: str):
        groups = _token_groups(nm)
        if len(groups) != 1 or len(groups[0]) != 4:
            raise RatioTableError(f"{nm!r} is not a 4-column minor name")
        J = tuple(sorted(groups[0]))
        if len(set(J)) != 4 or J[0] < 1 or J[-1] > 8:
            raise RatioTableError(f"{nm!r} is not a valid column 4-set")
        return J

    out = []
    for raw in packaged_table("gr48_rays.txt").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        out.append(parse_ratio(line, res))
    return out


def verify_gr48_table(points: int = 1000, seed: int = 97, jobs: int = 1) -> gr48.Gr48Report:
    """Check the stored 4x8 ratios: weight zero, and at most 1 on TP points.

    Every image under the 32 rotation/reflection/complement symmetries is
    checked for weight zero on its Plucker exponents, and evaluated at
    `points` exact Vandermonde points drawn from `seed`. The report carries
    the exact maximum value seen, which stays strictly below 1 when the
    table is right. `points` and `seed` must be ints (not bools), so a
    sampled verdict can always be replayed; anything else, or fewer than
    one point, raises ValueError.

    Evaluation goes through the differences, not the minors. Each minor
    is prod_{a<b in J} (t_b - t_a), so an image is a monomial in the 28
    differences, and most of its Plucker factors cancel there before any
    point is chosen: an image has about 21 Plucker factors but about 10
    nonzero difference exponents. Images with equal difference exponents
    take equal values at every Vandermonde point, so each distinct
    monomial (114 of them) is evaluated once and stands for its images
    exactly; `num_images` still counts every image (316).

    The 114 monomials are compiled once per process into one function
    (`gr48._gr48_kernel`) that loops over the points in straight-line
    integer code: per point it takes the 28 differences, forms the products of
    differences that the monomials share, once each, then each
    monomial's numerator and denominator, and compares the value with
    the running maximum by cross-multiplication, exactly, never through
    floats. Every denominator is positive, so `all_bounded` holds exactly
    when that maximum is at most 1. Loading the table and building the
    kernel, the sharing rewrite included, take about 20-35 ms, paid by
    the first call in a process. That call also imports the module that
    holds the kernel machinery, `gr48`, compiling its source where no
    bytecode cache is kept, so a run that never checks the 4x8 table
    never compiles it. The points are drawn one at a time as the kernel
    consumes them, so memory does not grow with `points`.

    `jobs` accepts only 1 and raises ValueError otherwise: the check runs
    in this process, and the keyword stays only because the benchmark's
    gr48 workload passes `jobs=1`.
    """
    for label, value in (("points", points), ("seed", seed)):
        if type(value) is not int:
            raise ValueError(f"{label} must be an int, got {value!r}")
    if jobs != 1:
        raise ValueError(f"the gr48 check runs in one process; jobs must be 1, got {jobs}")
    if points < 1:
        raise ValueError(f"need at least one sample point, got {points}")
    return _kernel_module().table_report(points, seed)


@functools.cache
def _kernel_module():
    """The module `gr48`, imported by the first 4x8 check in a process.
    Held here because an import statement in `verify_gr48_table` costs
    every call about 2 us, some 6% of a one-point check (2-vCPU VM,
    Python 3.11)."""
    from . import gr48

    return gr48
