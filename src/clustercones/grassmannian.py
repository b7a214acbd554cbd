"""Plucker cluster structures on Grassmannians of finite cluster type.

Everything is exact and value-based. The initial seed is a quiver on
Plucker coordinates (a rectangular grid for k >= 3, a zig-zag polygon
triangulation for k = 2); a short mutation path turns it into a bipartite
seed so the mutation belt can enumerate every cluster variable
tropically. Belt variables are then identified against actual minors by
combining two exact invariants: the torus content (one weight per matrix
column, transported along the belt) and evaluation at three totally
positive points, where each minor is a Vandermonde product. Variables
that are not minors are named by their content multiset.

On top of the identification sit the cone computations: the bounded-ratio
cone restricted to Plucker coordinates or to variables of bounded degree,
the cyclic rotation acting on extreme rays, factorization of bounded
Plucker ratios into primitive crossing ratios, a staircase row selection
with unit determinant for k = 2, and checkers for stored ratio tables,
including the 4x8 table whose cluster structure is not of finite type.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from importlib.resources import files as _resource_files
from typing import Iterable, Sequence

from .cones import ConeDescription, UMatrix, build_u_matrix, membership, subset_cone
from .expressions import parse_ratio
from .finite_type import BipartiteBelt, NotFiniteTypeError, find_bipartite_seed_path
from .linalg import rank, solve
from .seeds import (
    _FRACTIONS,
    _WEIGHTS,
    ExchangeData,
    _exchange,
    _Ring,
    _split,
    load_seed_file,
)

__all__ = [
    "GrassmannianCluster",
    "Gr48Report",
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


def grid_seed(k: int, n: int) -> ExchangeData:
    """Initial exchange data for the Plucker cluster structure on Gr(k, n).

    Mutable nodes come first; node names are the Plucker labels. The
    extended matrix has full rank (the n frozen coordinates see every
    column), which downstream cone computations rely on.
    """
    if not 2 <= k <= n - 2:
        raise ValueError("need 2 <= k <= n-2")
    contents, frozen, arrows = _grid_layout(k, n)
    names = [_pl_name(J) for J in contents]
    data = {
        "nodes": [
            {"name": nm, "frozen": fr} for nm, fr in zip(names, frozen)
        ],
        "arrows": [
            {"from": names[i], "to": names[j]} for i, j in arrows
        ],
    }
    exchange = load_seed_file(data)
    if not exchange.is_full_rank():
        raise RuntimeError(f"grid seed for Gr({k},{n}) lost full rank")
    return exchange


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
        self.grid = grid_seed(k, n)
        contents, _, _ = _grid_layout(k, n)
        self._grid_sets = contents  # column subsets, node order of self.grid
        self.points = tuple(tp_sample(k, n, s) for s in (11, 12, 13))
        self.path = find_bipartite_seed_path(self.grid)

        # the exchange terms of every re-basing step, so any value system
        # (the rotated minors, say) can replay the path later
        ex = self.grid
        self._path_moves: list[tuple[int, tuple, tuple]] = []
        for step in self.path:
            self._path_moves.append((step, *_split(enumerate(ex.matrix[step]))))
            ex = ex.mutate(step)
        size = self.grid.size
        names = [
            ex.names[i] if i not in set(self.path) else f"node{i}"
            for i in range(size)
        ]
        base = ExchangeData(ex.n, ex.m, ex.matrix, ex.weights, names)
        self.belt = BipartiteBelt(base, symbolic=False)

        # the content of each column is a torus weight: walking it along
        # the path and then the belt checks every exchange relation for
        # homogeneity and covers every registry variable
        functionals = []
        per_column = []
        for c in range(1, n + 1):
            try:
                alpha = self._replay(_WEIGHTS, [int(c in J) for J in contents])
                per_column.append(self.belt.weight_walk(alpha))
            except ValueError as exc:
                raise IdentificationError(
                    f"column {c} content is not an exchange weight: {exc}"
                ) from exc
            functionals.append(alpha)
        if rank(functionals) != n:
            raise IdentificationError("column functionals do not have full rank")
        self.content: dict[int, tuple[int, ...]] = {}
        for id in self.belt.row_order:
            vec = []
            for c in range(n):
                w = per_column[c][id]
                if w.denominator != 1 or w < 0:
                    raise IdentificationError(
                        f"variable {id} has non-integral content {w} in column {c + 1}"
                    )
                vec.append(int(w))
            self.content[id] = tuple(vec)
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

        self._uvars = None
        self._U = None
        self._primitives = None
        self._primitive_lams = None
        self._rotation = None
        self._cones: dict[frozenset, ConeDescription] = {}

    # plumbing

    def _replay(self, ring: _Ring, vals: list) -> list:
        """Walk a value system, indexed by grid node, along the re-basing
        path in place."""
        for node, pos, neg in self._path_moves:
            vals[node] = _exchange(ring, vals, pos, neg, vals[node])
        return vals

    def _walk_values(self, points, minor_of) -> list[dict[int, Fraction]]:
        """Registry values when each grid node J is seeded with minor_of(J)."""
        return [
            self.belt.value_walk(self._replay(
                _FRACTIONS, [Fraction(minor_of(pt, J)) for J in self._grid_sets]
            ))
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
        self.belt.display_names.clear()
        self.belt.display_names.update(names)

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
        pts = [tp_sample(3, 6, s) for s in range(21, 29)]
        walked = self._walk_values(pts, TotallyPositivePoint.minor)
        matrix = [
            [Fraction(pt.minor(A) * pt.minor(B)) for A, B in standard]
            for pt in pts
        ]
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

    def registry_values(self, point: TotallyPositivePoint) -> dict[int, Fraction]:
        """Exact value of every registry variable at a totally positive point."""
        return self._walk_values([point], TotallyPositivePoint.minor)[0]

    @property
    def uvars(self):
        if self._uvars is None:
            from .uvars import build_u_variables

            self._uvars = build_u_variables(self.belt)
        return self._uvars

    @property
    def U(self) -> UMatrix:
        if self._U is None:
            self._U = build_u_matrix(self.belt, self.uvars)
        return self._U

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
        if self._rotation is not None:
            return self._rotation
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
        self._rotation = perm
        return perm

    def rotate_vector(self, vector: dict[int, int]) -> dict[int, int]:
        perm = self.rotation()
        return {perm[id]: e for id, e in vector.items()}

    def ray_orbits(self, cone: ConeDescription) -> list[list[int]]:
        """Ray indices grouped into rotation orbits; fails if not closed."""
        ray_index = cone.ray_index
        if len(ray_index) != len(cone.rays):
            raise IdentificationError("duplicate rays in cone description")
        orbits = []
        seen = set()
        for start in range(len(cone.rays)):
            if start in seen:
                continue
            orbit = [start]
            seen.add(start)
            current = cone.rays[start].vector
            while True:
                current = self.rotate_vector(current)
                nxt = ray_index.get(frozenset(current.items()))
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
        if self._primitives is None:
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
            self._primitives = out
        return self._primitives

    def factor_into_primitives(self, vector: dict[int, int]) -> list[PrimitiveRatio]:
        """Write a bounded ratio of minors as a product of primitive ratios.

        With lam the input's u-exponents, repeatedly subtract the first
        primitive ratio in (i, j, S) order whose u-exponents lam_p (cached
        once per cluster) satisfy lam_p <= lam componentwise. This never
        gets stuck while the factorization theorem holds: the remainder
        U lam is bounded and supported on minors, so it factors, and as
        lam is linear and every lam_p >= 0, each of its factors fits.
        Sum(lam) drops at every step, so the loop ends.

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
        if self._primitive_lams is None:
            lams = []
            for p in self.primitive_ratios():
                lam_p = self.U.solve(p.vector)
                if lam_p is None or any(l < 0 or l.denominator != 1 for l in lam_p):
                    raise RatioTableError(f"u-exponents of {p!r} are not all nonnegative integers")
                lams.append({col: int(l) for col, l in enumerate(lam_p) if l})
            self._primitive_lams = lams
        lam = [int(l) for l in cert.lam]
        out = []
        while any(lam):
            for prim, lam_p in zip(self.primitive_ratios(), self._primitive_lams):
                if all(lam[col] >= e for col, e in lam_p.items()):
                    break
            else:
                raise RatioTableError(
                    "no primitive ratio fits the remaining u-exponents: "
                    "a bounded minor ratio without a primitive factorization"
                )
            out.append(prim)
            for col, e in lam_p.items():
                lam[col] -= e
        check = _ratio_product(t for prim in out for t in prim.vector.items())
        if check != {id: e for id, e in vector.items() if e}:
            raise RatioTableError("primitive factors do not multiply back to the input")
        return out

    # staircase minor (k = 2)

    def staircase_rows(self) -> list[int]:
        """Variable ids P_ij with i < j-1 and j >= 4, in peeling order."""
        if self.k != 2:
            raise ValueError("the staircase selection is specific to k = 2")
        ids = []
        for m in range(4, self.n + 1):
            for i in range(m - 2, 0, -1):
                ids.append(self.minor_id[(i, m)])
        return ids

    def staircase_columns(self) -> list[int]:
        """u-columns by defining variable, matching the row peeling order."""
        if self.k != 2:
            raise ValueError("the staircase selection is specific to k = 2")
        ids = []
        for m in range(4, self.n + 1):
            ids.append(self.minor_id[(1, m - 1)])
            for j in range(m - 2, 1, -1):
                ids.append(self.minor_id[(j, m)])
        return ids

    def staircase_matrix(self) -> tuple[list[int], list[int], list[list[int]]]:
        rows = self.staircase_rows()
        cols = self.staircase_columns()
        by_gamma = {u.gamma: u.vector for u in self.uvars}
        matrix = [
            [by_gamma[g].get(rid, 0) for g in cols] for rid in rows
        ]
        return rows, cols, matrix


# stored ratio tables


def packaged_table(filename: str) -> str:
    return _resource_files(__package__).joinpath("data", filename).read_text()


def load_ray_table(text: str) -> dict[str, list[tuple[dict[str, int], list[str]]]]:
    """Parse a sectioned table of rows `<ratio> : <ray name> <ray name> ...`.

    Sections start with a [name] line; '#' begins a comment. The left side
    uses the ratio grammar with names kept as strings; the right side is a
    whitespace-separated multiset of ray names.
    """
    sections: dict[str, list[tuple[dict[str, int], list[str]]]] = {}
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
        lhs = parse_ratio(lhs_text.strip(), lambda nm: nm)
        rhs = rhs_text.split()
        if not rhs:
            raise ValueError(f"empty ray list in table row {line!r}")
        sections[current].append((lhs, rhs))
    return sections


def _token_groups(name: str) -> tuple[tuple[int, ...], ...]:
    head, bracket, rest = name.partition("[")
    if not bracket or not rest.endswith("]"):
        raise RatioTableError(f"table name {name!r} is not of the form h[...]")
    groups = []
    for part in rest[:-1].split("|"):
        if not part.isdigit():
            raise RatioTableError(f"table name {name!r} has non-digit columns")
        groups.append(tuple(int(ch) for ch in part))
    return tuple(groups)


def check_ray_table(
    grass: GrassmannianCluster,
    rows: Sequence[tuple[dict[str, int], list[str]]],
    cone: ConeDescription,
    cap: int = 4096,
) -> tuple[dict[str, int], list[int]]:
    """Verify factorization rows whose non-minor names are ambiguous.

    Minor names pin registry ids exactly. A name with several column
    groups only pins the content multiset, which up to three registry
    variables share; the checker searches injective per-content
    assignments consistent with every row, where consistent means the
    left ratio is an extreme ray of the cone and equals the product of
    the named u-variables. A row is decided in two steps: the left ratio
    is looked up among the rays, and the multiset of named u-variables is
    compared with that ray's powers. U has independent columns
    (build_u_matrix enforces it), so a ratio's u-exponents are unique and
    the ratio is that product exactly when its powers are the multiset.
    Returns the chosen assignment and the ray index of each row; raises
    RatioTableError when no assignment survives, or when more than cap
    do after some row.
    """
    n = grass.n
    gammas = [u.gamma for u in cone.umatrix.uvars]
    ray_index = cone.ray_index
    class_ids: dict[tuple[int, ...], list[int]] = {}
    for id in grass.belt.row_order:
        if grass.degree[id] >= 2:
            class_ids.setdefault(grass.content[id], []).append(id)

    @functools.cache  # a table repeats its names from row to row
    def canon(name: str):
        groups = _token_groups(name)
        if len(groups) == 1 and len(groups[0]) == grass.k:
            J = tuple(sorted(groups[0]))
            id = grass.minor_id.get(J)
            if id is None:
                raise RatioTableError(f"{name!r} names no minor of Gr({grass.k},{n})")
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

    parsed = []
    for lhs, rhs in rows:
        parsed.append((
            [(canon(nm), e) for nm, e in sorted(lhs.items())],
            [canon(nm) for nm in rhs],
        ))

    def row_tokens(row):
        seen = []
        for tok, _ in row[0]:
            if tok[0] == "cls" and tok not in seen:
                seen.append(tok)
        for tok in row[1]:
            if tok[0] == "cls" and tok not in seen:
                seen.append(tok)
        return seen

    def resolve(tok, asg):
        return tok[1] if tok[0] == "id" else asg[tok[2]]

    def row_ray(row, asg) -> int | None:
        """The index of the row's ray if the row holds, else None."""
        vec = _ratio_product((resolve(tok, asg), e) for tok, e in row[0])
        i = ray_index.get(frozenset(vec.items()))
        if i is None:
            return None
        named: dict[int, int] = {}
        for tok in row[1]:
            id = resolve(tok, asg)
            named[id] = named.get(id, 0) + 1
        powers = {gammas[j]: l for j, l in cone.rays[i].powers}
        return i if named == powers else None

    assignments: list[dict[str, int]] = [{}]
    content_of_name: dict[str, tuple[int, ...]] = {}
    for ridx, row in enumerate(parsed):
        for tok in row_tokens(row):
            content_of_name[tok[2]] = tok[1]
        survivors = []
        survivor_keys = set()
        for asg in assignments:
            pending: dict[tuple[int, ...], list[str]] = {}
            for tok in row_tokens(row):
                if tok[2] not in asg:
                    pending.setdefault(tok[1], []).append(tok[2])
            option_sets = []
            for content, names in sorted(pending.items()):
                used = {
                    id for nm, id in asg.items()
                    if content_of_name[nm] == content
                }
                avail = [id for id in class_ids[content] if id not in used]
                option_sets.append(
                    (names, list(itertools.permutations(avail, len(names))))
                )
            for combo in itertools.product(*(opts for _, opts in option_sets)):
                ext = dict(asg)
                for (names, _), perm in zip(option_sets, combo):
                    for nm, id in zip(names, perm):
                        ext[nm] = id
                if row_ray(row, ext) is None:
                    continue
                key = tuple(sorted(ext.items()))
                if key not in survivor_keys:
                    if len(survivors) == cap:
                        raise RatioTableError(
                            f"table row {ridx + 1}: more than cap={cap} name "
                            "assignments survive"
                        )
                    survivor_keys.add(key)
                    survivors.append(ext)
        if not survivors:
            raise RatioTableError(
                f"table row {ridx + 1}: no name assignment verifies the factorization"
            )
        assignments = survivors
    chosen = assignments[0]
    indices = []
    for row in parsed:
        i = row_ray(row, chosen)
        if i is None:
            raise RatioTableError("chosen assignment fails on re-verification")
        indices.append(i)
    return chosen, indices


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


def _gr48_symmetries() -> list[dict[tuple[int, ...], tuple[int, ...]]]:
    """Closure of rotation, reflection, and complement on column 4-sets."""
    Js = list(itertools.combinations(range(1, 9), 4))

    def submap(f):
        return {J: tuple(sorted(f(j) for j in J)) for J in Js}

    gens = [
        submap(lambda j: j % 8 + 1),
        submap(lambda j: 9 - j),
        {J: tuple(sorted(set(range(1, 9)) - set(J))) for J in Js},
    ]
    ident = {J: J for J in Js}
    seen = {tuple(ident[J] for J in Js): ident}
    frontier = [ident]
    while frontier:
        new = []
        for g in frontier:
            for gen in gens:
                comp = {J: gen[g[J]] for J in Js}
                key = tuple(comp[J] for J in Js)
                if key not in seen:
                    seen[key] = comp
                    new.append(comp)
        frontier = new
    return list(seen.values())


def _gr48_images(ratios) -> list[dict[tuple[int, ...], int]]:
    group = _gr48_symmetries()
    if len(group) != 32:
        raise RatioTableError(f"symmetry closure has order {len(group)}, expected 32")
    images = {}
    for ratio in ratios:
        for g in group:
            img: dict[tuple[int, ...], int] = {}
            for J, e in ratio.items():
                gJ = g[J]
                img[gJ] = img.get(gJ, 0) + e
            key = tuple(sorted(img.items()))
            images.setdefault(key, dict(img))
    return list(images.values())


def _integer_points(n: int, count: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        t = rng.randint(1, 4)
        ts = []
        for _ in range(n):
            ts.append(t)
            t += rng.randint(1, 9)
        pts.append(ts)
    return pts


def _gr48_monomials(images) -> list[tuple[int, tuple, tuple]]:
    """The distinct difference monomials of the images, in image order.

    Image prod_J P_J^{e_J} equals prod_{a<b} (t_b - t_a)^{d_ab} at every
    Vandermonde point, with d_ab the sum of e_J over the 4-sets J holding
    both a and b. Each entry is (first image index with these d, numerator
    terms, denominator terms); a term is (pair index, positive exponent),
    pairs listed as `itertools.combinations` lists them.
    """
    pair_index = {
        pair: i for i, pair in enumerate(itertools.combinations(range(1, 9), 2))
    }
    pairs_of = {
        J: tuple(pair_index[pair] for pair in itertools.combinations(J, 2))
        for J in itertools.combinations(range(1, 9), 4)
    }
    first: dict[tuple[int, ...], int] = {}
    for ii, image in enumerate(images):
        d = [0] * len(pair_index)
        for J, e in image.items():
            for i in pairs_of[J]:
                d[i] += e
        first.setdefault(tuple(d), ii)
    return [
        (
            ii,
            tuple((i, e) for i, e in enumerate(d) if e > 0),
            tuple((i, -e) for i, e in enumerate(d) if e < 0),
        )
        for d, ii in first.items()
    ]


def _gr48_eval_chunk(args) -> tuple[bool, int, int, tuple[int, int]]:
    """Worst (largest) value of the given monomials over the given points.

    Returns (all_bounded, num, den, (image index, point index)); num/den
    is the maximum of the exact values, tracked by cross-multiplication.
    Ties go to the earliest point, then the earliest image.
    """
    monomials, points = args
    best_num, best_den = 0, 1
    best_at = (-1, -1)
    ok = True
    for pi, ts in enumerate(points):
        diffs = [b - a for a, b in itertools.combinations(ts, 2)]
        for ii, up, down in monomials:
            num = 1
            for i, e in up:
                num *= diffs[i] ** e
            den = 1
            for i, e in down:
                den *= diffs[i] ** e
            if num > den:
                ok = False
            if num * best_den > best_num * den:
                best_num, best_den = num, den
                best_at = (ii, pi)
    return ok, best_num, best_den, best_at


def _gr48_evaluate(monomials, points, jobs: int = 1) -> tuple[bool, int, int, tuple[int, int]]:
    """Evaluate the difference monomials of `_gr48_monomials` at every
    point, split over `jobs` processes.

    Returns what `_gr48_eval_chunk` returns for the whole list: the
    result, argmax included, does not depend on `jobs`.
    """
    if jobs > 1:
        # imported here: it loads multiprocessing, which every other
        # command and a one-worker run would pay for at start-up
        from concurrent.futures import ProcessPoolExecutor

        step = max(1, (len(monomials) + jobs - 1) // jobs)
        chunks = [
            (monomials[off:off + step], points)
            for off in range(0, len(monomials), step)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_gr48_eval_chunk, chunks))
    else:
        results = [_gr48_eval_chunk((monomials, points))]
    ok = all(r[0] for r in results)
    best_num, best_den, best_at = 0, 1, (-1, -1)
    # ties between chunks go as within one: earliest point, then image
    for _, num, den, at in results:
        if num * best_den > best_num * den or (
            num * best_den == best_num * den and at[::-1] < best_at[::-1]
        ):
            best_num, best_den, best_at = num, den, at
    return ok, best_num, best_den, best_at


class Gr48Report:
    """Outcome of checking the stored 4x8 ratios and their symmetry images."""

    __slots__ = (
        "num_ratios", "num_images", "num_points",
        "weight_zero", "all_bounded", "max_num", "max_den", "argmax",
    )

    def __init__(self, num_ratios, num_images, num_points,
                 weight_zero, all_bounded, max_num, max_den, argmax):
        self.num_ratios = num_ratios
        self.num_images = num_images
        self.num_points = num_points
        self.weight_zero = weight_zero
        self.all_bounded = all_bounded
        self.max_num = max_num
        self.max_den = max_den
        self.argmax = argmax

    @property
    def max_value(self) -> Fraction:
        return Fraction(self.max_num, self.max_den)

    @property
    def strictly_below_one(self) -> bool:
        return self.all_bounded and self.max_num < self.max_den

    @property
    def ok(self) -> bool:
        return self.weight_zero and self.all_bounded

    def to_dict(self) -> dict:
        return {
            "ratios": self.num_ratios,
            "images": self.num_images,
            "points": self.num_points,
            "weight_zero": self.weight_zero,
            "all_bounded": self.all_bounded,
            "strictly_below_one": self.strictly_below_one,
            "max_value": str(self.max_value),
            # "at most 1" holds at the sample points only; no proof
            "evidence": "sampled",
        }


@functools.cache
def _gr48_compiled() -> tuple[int, int, bool, tuple[tuple[int, tuple, tuple], ...]]:
    """What verify_gr48_table needs of the stored table, built once per
    process: (number of ratios, number of symmetry images, whether every
    image has weight zero, the images' difference monomials). All of it
    is immutable, so every caller may share it."""
    ratios = load_gr48_ratios()
    images = _gr48_images(ratios)
    weight_zero = True
    for ratio in images:
        weight = [0] * 8
        for J, e in ratio.items():
            for c in J:
                weight[c - 1] += e
        if any(weight):
            weight_zero = False
    return len(ratios), len(images), weight_zero, tuple(_gr48_monomials(images))


def verify_gr48_table(points: int = 1000, seed: int = 97, jobs: int = 1) -> Gr48Report:
    """Check the stored 4x8 ratios: weight zero, and at most 1 on TP points.

    Every image under the 32 rotation/reflection/complement symmetries is
    checked for weight zero on its Plucker exponents, and evaluated at
    `points` exact Vandermonde points. The report carries the exact
    maximum value seen, which stays strictly below 1 when the table is
    right. Raises ValueError for fewer than one point.

    Evaluation goes through the differences, not the minors. Each minor
    is prod_{a<b in J} (t_b - t_a), so an image is a monomial in the 28
    differences, and most of its Plucker factors cancel there before any
    point is chosen: an image has about 21 Plucker factors but about 10
    nonzero difference exponents. Images with equal difference exponents
    take equal values at every Vandermonde point, so each distinct
    monomial is evaluated once and stands for its images exactly; it
    reports the first of them as argmax. `num_images` still counts every
    image (316), and `jobs` splits the distinct monomials over processes.
    """
    if points < 1:
        raise ValueError(f"need at least one sample point, got {points}")
    num_ratios, num_images, weight_zero, monomials = _gr48_compiled()
    pts = _integer_points(8, points, seed)
    ok, best_num, best_den, best_at = _gr48_evaluate(monomials, pts, jobs)
    return Gr48Report(
        num_ratios, num_images, len(pts),
        weight_zero, ok, best_num, best_den, best_at,
    )
