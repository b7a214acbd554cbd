"""Bounded-ratio cones over a finite mutation belt.

The u-variables span the cone of Laurent monomials in cluster variables
that stay bounded on the positive locus. This module assembles their
exponent matrix, decides membership with replayable certificates,
enumerates extreme rays of restricted cones by exact double description,
hunts for unimodular row minors (which force integer factorizations),
and checks subtraction-freeness of bounded ratios.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .finite_type import BeltError, BipartiteBelt
from .linalg import ExactSolver, det_bareiss, hermite_column_reduce, rank
from .seeds import _FRACTIONS, _laurent_ring, _monomial, _Ring, _split
from .uvars import (
    UVariable,
    WeightFunctional,
    build_u_variables,
    degeneration_ray,
    kernel_functionals,
    ratio_value,
    weight_table,
)

__all__ = [
    "Certificate",
    "ConeDescription",
    "ExtremeRay",
    "NotFullRankError",
    "UMatrix",
    "build_u_matrix",
    "double_description",
    "membership",
    "row_lattice_index",
    "subset_cone",
    "subtraction_free_check",
    "unimodular_minor_search",
    "verify_certificate",
]


class NotFullRankError(ValueError):
    """Extended exchange matrix too degenerate for cone computations."""


class UMatrix:
    """Exponent matrix of the u-variables.

    One row per registry variable (mutable first, then frozen), one
    column per u-variable, columns ordered by the registry id of their
    defining variable. Columns are independent exactly when the extended
    exchange matrix has full rank, which build_u_matrix enforces.
    """

    def __init__(self, belt: BipartiteBelt, uvars: list[UVariable],
                 functionals: list[WeightFunctional]):
        self.belt = belt
        self.uvars = uvars
        self.row_ids: list[int] = belt.row_order
        self.row_index = {id: i for i, id in enumerate(self.row_ids)}
        self.rows: list[list[int]] = [
            [u.vector.get(id, 0) for u in uvars] for id in self.row_ids
        ]
        self.functionals = functionals
        self.solver = ExactSolver(self.rows)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.uvars)

    def dense(self, vector: dict[int, int]) -> list[int]:
        """Exponents of a ratio dict in row order."""
        out = [0] * len(self.row_ids)
        for id, e in vector.items():
            out[self.row_index[id]] = e
        return out

    def combine(self, lam: Sequence[Fraction]) -> list[Fraction]:
        """Row-order exponent vector of the u-monomial with powers lam."""
        return [
            sum((l * c for l, c in zip(lam, row) if c), Fraction(0))
            for row in self.rows
        ]


def build_u_matrix(belt: BipartiteBelt, uvars: list[UVariable] | None = None) -> UMatrix:
    if not belt.exchange.is_full_rank():
        raise NotFullRankError(
            "extended exchange matrix is rank deficient; u-variables may "
            "not span the bounded cone"
        )
    if uvars is None:
        uvars = build_u_variables(belt)
    return UMatrix(belt, uvars, kernel_functionals(belt))


class Certificate:
    """Machine-checkable boundedness verdict for one ratio vector.

    verdict is one of "bounded", "unbounded", "not-weight-zero". Bounded
    carries the u-exponents lam; unbounded carries lam plus a degeneration
    ray along which the input ratio grows without bound; not-weight-zero
    carries the violating torus functional.
    """

    __slots__ = ("vector", "verdict", "lam", "alpha", "weight", "ray",
                 "input_values")

    def __init__(self, vector, verdict, lam=None, alpha=None, weight=None,
                 ray=None, input_values=None):
        self.vector = vector
        self.verdict = verdict
        self.lam = lam
        self.alpha = alpha
        self.weight = weight
        self.ray = ray
        self.input_values = input_values

    @property
    def bounded(self) -> bool:
        return self.verdict == "bounded"

    @property
    def integral(self) -> bool | None:
        if self.lam is None:
            return None
        return all(l.denominator == 1 for l in self.lam)

    def to_dict(self, U: "UMatrix") -> dict:
        belt = U.belt
        out = {
            "verdict": self.verdict,
            "ratio": {belt.name(id): e for id, e in sorted(self.vector.items())},
        }
        if self.lam is not None:
            out["lambda"] = {
                belt.name(u.gamma): str(l)
                for u, l in zip(U.uvars, self.lam)
                if l
            }
            out["integral"] = self.integral
        if self.alpha is not None:
            out["alpha"] = [str(a) for a in self.alpha]
            out["weight"] = str(self.weight)
        if self.ray is not None:
            out["ray"] = self.ray.to_dict(belt)
            out["input_values"] = [str(v) for v in self.input_values]
        return out


def membership(vector: dict[int, int], U: UMatrix) -> Certificate:
    """Decide whether a ratio vector lies in the bounded cone.

    Weight-zero failure short-circuits with the violating functional.
    Otherwise the unique u-exponent solution lam exists (the weight
    functionals span the left kernel of U); nonnegative lam certifies
    boundedness, a negative entry yields a degeneration ray sending that
    u-variable to zero while the input ratio blows up.
    """
    for w in U.functionals:
        val = w.of_vector(vector)
        if val != 0:
            return Certificate(vector, "not-weight-zero",
                               alpha=w.alpha, weight=val)
    lam = U.solver.solve(U.dense(vector))
    if lam is None:
        raise RuntimeError(
            "ratio has weight zero but is outside the u-span; "
            "weight functionals failed to span the left kernel"
        )
    if all(l >= 0 for l in lam):
        return Certificate(vector, "bounded", lam=lam)
    j = min(range(len(lam)), key=lambda i: lam[i])
    gamma = U.uvars[j].gamma
    ray = degeneration_ray(U.belt, U.uvars, gamma)
    input_values = [ratio_value(vector, values) for values in ray.walks]
    return Certificate(vector, "unbounded", lam=lam, ray=ray,
                       input_values=input_values)


def verify_certificate(U: UMatrix, cert: Certificate) -> bool:
    """Replay a certificate's evidence without re-deciding membership."""
    belt = U.belt
    vector = cert.vector
    if cert.verdict == "not-weight-zero":
        w = weight_table(belt, cert.alpha)
        return w.of_vector(vector) == cert.weight != 0
    if cert.lam is None or len(cert.lam) != U.num_cols:
        return False
    combined = U.combine(cert.lam)
    if combined != [Fraction(e) for e in U.dense(vector)]:
        return False
    if cert.verdict == "bounded":
        return all(l >= 0 for l in cert.lam)
    if cert.verdict != "unbounded":
        return False
    if all(l >= 0 for l in cert.lam) or cert.ray is None:
        return False
    ray = cert.ray
    vals = cert.input_values
    if len(vals) != len(ray.ts):
        return False
    for t, expected in zip(ray.ts, vals):
        point = [t**b for b in ray.beta]
        values = belt.value_walk(point, start_step=ray.step)
        if ratio_value(vector, values) != expected:
            return False
    growing = all(a < b for a, b in zip(vals, vals[1:]))
    return growing and vals[-1] > 64 * vals[0] and ray.gamma_tends_to_zero()


# double description over exact integers


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b) if x and y)


def _primitive(ray: list[int]) -> tuple[int, ...]:
    g = 0
    for x in ray:
        g = gcd(g, x)
    return tuple(x // g for x in ray) if g > 1 else tuple(ray)


def double_description(
    equalities: Sequence[Sequence[int]],
    dim: int,
    adjacency: str = "combinatorial",
) -> list[tuple[int, ...]]:
    """Extreme rays of {x >= 0, Ex = 0} as primitive integer tuples.

    Equalities are inserted one at a time into the positive orthant.
    Adjacency of a positive and a negative ray is decided on coordinate
    zero sets, either combinatorially (no third ray's zero set contains
    the common one) or by an exact rank test; both are valid because the
    cone stays pointed inside the orthant. Output sorted lexicographically.
    """
    if adjacency not in ("combinatorial", "rank"):
        raise ValueError("adjacency must be 'combinatorial' or 'rank'")
    rays: list[tuple[int, ...]] = []
    for i in range(dim):
        unit = [0] * dim
        unit[i] = 1
        rays.append(tuple(unit))
    processed: list[Sequence[int]] = []
    for row in equalities:
        if len(row) != dim:
            raise ValueError("equality row has wrong length")
        pos: list[tuple[tuple[int, ...], int]] = []
        neg: list[tuple[tuple[int, ...], int]] = []
        keep: list[tuple[int, ...]] = []
        for r in rays:
            s = _dot(row, r)
            if s > 0:
                pos.append((r, s))
            elif s < 0:
                neg.append((r, s))
            else:
                keep.append(r)
        if not pos and not neg:
            processed.append(row)
            continue
        if not pos or not neg:
            rays = keep
            processed.append(row)
            if not rays:
                return []
            continue
        masks = {r: _zero_mask(r) for r in rays}
        # Adjacent rays lie on a common 2-face, so the rank of their shared
        # tight constraints is dim - 2; the processed rows contribute at
        # most len(processed) of that, the rest must be shared zeros.
        need = dim - 2 - len(processed)
        new_rays = list(keep)
        for rp, sp in pos:
            mp = masks[rp]
            for rn, sn in neg:
                t = mp & masks[rn]
                if t.bit_count() < need:
                    continue
                if adjacency == "combinatorial":
                    ok = True
                    for ro in rays:
                        if ro is rp or ro is rn:
                            continue
                        if masks[ro] & t == t:
                            ok = False
                            break
                else:
                    ok = _rank_adjacent(t, processed, dim)
                if ok:
                    comb = [sp * b - sn * a for a, b in zip(rp, rn)]
                    new_rays.append(_primitive(comb))
        rays = sorted(set(new_rays))
        processed.append(row)
    return sorted(set(rays))


def _zero_mask(ray: tuple[int, ...]) -> int:
    m = 0
    for i, x in enumerate(ray):
        if x == 0:
            m |= 1 << i
    return m


def _rank_adjacent(tight_mask: int, processed: list[Sequence[int]], dim: int) -> bool:
    """Rays sharing this tight set are adjacent iff it pins a 2-face."""
    rows: list[list[int]] = [list(r) for r in processed]
    for i in range(dim):
        if tight_mask >> i & 1:
            unit = [0] * dim
            unit[i] = 1
            rows.append(unit)
    return rank(rows) == dim - 2


# cones of bounded ratios supported on a subset of variables


class ExtremeRay:
    """Primitive integer ratio vector with its u-variable provenance."""

    __slots__ = ("vector", "lam")

    def __init__(self, vector: dict[int, int], lam: tuple[Fraction, ...]):
        self.vector = vector
        self.lam = lam


class ConeDescription:
    """Extreme rays of the bounded ratios supported on a variable subset."""

    __slots__ = ("subset", "rays", "umatrix")

    def __init__(self, subset, rays, umatrix):
        self.subset = subset
        self.rays = rays
        self.umatrix = umatrix

    def __len__(self) -> int:
        return len(self.rays)

    def to_dict(self) -> dict:
        belt = self.umatrix.belt
        return {
            "subset": sorted(belt.name(id) for id in self.subset),
            "rays": [
                {
                    "ratio": {belt.name(id): e
                              for id, e in sorted(r.vector.items())},
                    "lambda": {
                        belt.name(u.gamma): str(l)
                        for u, l in zip(self.umatrix.uvars, r.lam)
                        if l
                    },
                }
                for r in self.rays
            ],
        }


def subset_cone(subset, U: UMatrix, adjacency: str = "combinatorial") -> ConeDescription:
    """Extreme rays of bounded ratios using only the subset's variables.

    Inside u-exponent space the constraint is linear: the combined ratio
    must have exponent zero on every variable outside the subset. Double
    description over those equality rows gives the lambda-rays, which map
    through U to the ratio vectors themselves.
    """
    subset = frozenset(subset)
    eq_rows = [row for id, row in zip(U.row_ids, U.rows) if id not in subset]
    # sparse rows first keeps the intermediate ray counts small
    eq_rows.sort(key=lambda row: (sum(1 for x in row if x), row))
    lam_rays = double_description(eq_rows, U.num_cols, adjacency)
    rays = []
    for ell in lam_rays:
        dense = [
            sum(l * c for l, c in zip(ell, row) if l and c)
            for row in U.rows
        ]
        g = 0
        for x in dense:
            g = gcd(g, x)
        if g == 0:
            continue
        vector: dict[int, int] = {}
        for id, e in zip(U.row_ids, dense):
            if e:
                if id not in subset:
                    raise RuntimeError("ray escaped the requested subset")
                vector[id] = e // g
        lam = tuple(Fraction(l, g) for l in ell)
        rays.append(ExtremeRay(vector, lam))
    rays.sort(key=lambda r: tuple(
        r.vector.get(id, 0) for id in U.row_ids))
    return ConeDescription(subset, rays, U)


# unimodular minors


def row_lattice_index(rows: Sequence[Sequence[int]]) -> int:
    """Index in Z^ncols of the lattice generated by the rows.

    Equals the gcd of all maximal minors; a unit row minor can exist only
    when this is 1.
    """
    ncols = len(rows[0])
    work = [list(r) for r in rows]
    det = 1
    for col in range(ncols):
        piv = None
        for r in range(col, len(work)):
            if work[r][col]:
                piv = r
                break
        if piv is None:
            raise ValueError("rows do not have full column rank")
        work[col], work[piv] = work[piv], work[col]
        for r in range(col + 1, len(work)):
            while work[r][col]:
                q = work[col][col] // work[r][col]
                for c in range(col, ncols):
                    work[col][c] -= q * work[r][c]
                work[col], work[r] = work[r], work[col]
        det *= work[col][col]
    return abs(det)


def unimodular_minor_search(
    rows: Sequence[Sequence[int]], tries: int = 40, seed: int = 101
) -> list[int] | None:
    """Row subset whose square minor has determinant +-1, or None.

    The row-lattice index prunes impossible inputs immediately. Otherwise
    the matrix is column-reduced (which changes every row minor by the
    same unit) and greedy elimination repeatedly picks the remaining row
    with the smallest nonzero pivot, breaking ties by a seeded shuffle on
    later attempts.
    """
    import random

    nrows, ncols = len(rows), len(rows[0])
    if nrows < ncols:
        return None
    if row_lattice_index(rows) != 1:
        return None
    reduced = hermite_column_reduce(rows)
    rng = random.Random(seed)
    order = list(range(nrows))
    for attempt in range(tries):
        work = [[Fraction(x) for x in reduced[i]] for i in range(nrows)]
        chosen: list[int] = []
        used = [False] * nrows
        ok = True
        for col in range(ncols):
            best = None
            best_key = None
            for i in order:
                if used[i] or work[i][col] == 0:
                    continue
                key = abs(work[i][col])
                if best is None or key < best_key:
                    best, best_key = i, key
                    if key == 1:
                        break
            if best is None:
                ok = False
                break
            used[best] = True
            chosen.append(best)
            pr = work[best]
            for i in order:
                if used[i] or work[i][col] == 0:
                    continue
                f = work[i][col] / pr[col]
                wi = work[i]
                for c in range(col, ncols):
                    if pr[c]:
                        wi[c] -= f * pr[c]
        if ok:
            sub = [list(rows[i]) for i in chosen]
            if abs(det_bareiss(sub)) == 1:
                return sorted(chosen)
        rng.shuffle(order)
    return None


# subtraction-freeness


class SubtractionFreeReport:
    """Outcome of a subtraction-freeness check on a bounded ratio.

    kind "chain": the ratio is an integer u-monomial and the telescoping
    decomposition of denominator minus numerator into visibly positive
    terms was verified. kind "expansion": the gap polynomial was expanded
    in the initial cluster; a negative coefficient disproves
    subtraction-freeness in cluster variables.
    """

    __slots__ = ("kind", "chain", "positive", "negative", "scale_integral",
                 "verified")

    def __init__(self, kind, chain=None, positive=None, negative=None,
                 scale_integral=None, verified=False):
        self.kind = kind
        self.chain = chain
        self.positive = positive
        self.negative = negative
        self.scale_integral = scale_integral
        self.verified = verified

    @property
    def subtraction_free(self) -> bool | None:
        if self.kind == "chain":
            return True
        if self.negative:
            return False
        return None

    def to_dict(self, belt: BipartiteBelt) -> dict:
        out = {"kind": self.kind, "verified": self.verified}
        if self.chain is not None:
            out["chain"] = [belt.name(g) for g in self.chain]
        if self.positive is not None:
            out["positive_terms"] = len(self.positive)
            out["negative_terms"] = len(self.negative)
        if self.scale_integral is not None:
            out["integral_multiple"] = self.scale_integral
        out["subtraction_free"] = self.subtraction_free
        return out


def subtraction_free_check(cert: Certificate, U: UMatrix) -> SubtractionFreeReport:
    """Explain why a bounded ratio is at most 1, or find a sign obstruction.

    Integral lam: flatten the u-monomial into single u-factors and verify
    the telescoping identity Q - P = sum_i q_1..q_{i-1} (q_i - p_i)
    p_{i+1}..p_r, whose middle factors are incoming-frozen products. Every
    term is then a product of cluster variables and frozen variables, so
    the gap is subtraction-free in cluster variables. Non-integral lam:
    expand the gap in the initial cluster and report signed terms.
    """
    if not cert.bounded:
        raise ValueError("subtraction-freeness is only defined for bounded ratios")
    belt = U.belt
    if cert.integral:
        chain: list[int] = []
        for u, l in zip(U.uvars, cert.lam):
            chain.extend([u.gamma] * int(l))
        verified = _verify_chain(chain, U)
        return SubtractionFreeReport("chain", chain=chain, verified=verified)
    denoms = 1
    for l in cert.lam:
        denoms = denoms * l.denominator // gcd(denoms, l.denominator)
    if not belt.symbolic:
        raise BeltError(
            "expansion check needs symbolic mode; only integral "
            "factorizations can be verified on tropical belts"
        )
    ring = _laurent_ring(belt.exchange.size)
    polys = [belt.poly(e.id) for e in belt.entries]
    pos, neg = _split(cert.vector.items())
    diff = _monomial(ring, polys, neg) - _monomial(ring, polys, pos)
    positive: dict[tuple[int, ...], int] = {}
    negative: dict[tuple[int, ...], int] = {}
    for exps, coeff in diff.terms():
        if coeff > 0:
            positive[exps] = coeff
        else:
            negative[exps] = coeff
    return SubtractionFreeReport(
        "expansion", positive=positive, negative=negative,
        scale_integral=denoms, verified=True,
    )


def _verify_chain(chain: list[int], U: UMatrix) -> bool:
    """Check the telescoping decomposition behind a chain proof.

    Symbolic belts get an exact polynomial identity check. Tropical belts
    are checked numerically at three fixed positive points, which together
    with the belt's own exchange verification pins the identity.
    """
    belt = U.belt
    by_gamma = {u.gamma: u for u in U.uvars}
    factors = [by_gamma[g] for g in chain]
    size = belt.exchange.size
    if belt.symbolic:
        polys = [belt.poly(e.id) for e in belt.entries]
        return _telescopes(_laurent_ring(size), polys, factors)
    points = [
        [Fraction(2 + ((7 * i + s) % 11), 3 + ((5 * i + s) % 7))
         for i in range(size)]
        for s in (1, 2, 3)
    ]
    return all(
        _telescopes(_FRACTIONS, belt.value_walk(point), factors)
        for point in points
    )


def _telescopes(ring: _Ring, values, factors: list[UVariable]) -> bool:
    """Q == P + sum_i q_1..q_{i-1} f_i p_{i+1}..p_r over a ring, where
    p_i, q_i, f_i are the out-product, exchange pair and frozen in-product
    of the i-th u-factor, P = prod p_i and Q = prod q_i."""
    ps = [_monomial(ring, values, u.numerator.items()) for u in factors]
    fs = [_monomial(ring, values, u.frozen_in.items()) for u in factors]
    suffixes = [ring.one()]  # suffixes[i] = prod(ps[i:]), built backwards
    for p in reversed(ps):
        suffixes.append(ring.mul(p, suffixes[-1]))
    suffixes.reverse()
    total = suffixes[0]
    prefix = ring.one()
    for i, u in enumerate(factors):
        total = ring.add(total, ring.mul(ring.mul(prefix, fs[i]), suffixes[i + 1]))
        prefix = ring.mul(prefix, ring.mul(values[u.gamma], values[u.partner]))
    return total == prefix
