"""Bounded-ratio cones over a finite mutation belt.

The u-variables span the cone of Laurent monomials in cluster variables
that stay bounded on the positive locus. This module assembles their
exponent matrix U, decides membership with replayable certificates,
enumerates extreme rays of restricted cones by exact double description,
hunts for unimodular row minors (which force integer factorizations),
and checks subtraction-freeness of bounded ratios.

Every verdict rests on the dual basis G of the u-variables: one row of
valuations per u-variable, from one min-plus walk along its degeneration
ray, with G U = diag(c) and c > 0 (the extreme-ray theorem, per context).
A ratio's u-exponents are lam = G v / c, confirmed by the exact residual
U lam = v. Nonnegative lam proves the ratio bounded; a negative entry
lam_gamma means the ratio has valuation c_gamma lam_gamma < 0 along
gamma's ray, so it grows like t^val as t -> 0, which the replay confirms
with one min-plus walk. A bounded ratio with integral lam is a product of
u-variables, and a structural check of each factor against its exchange
relation proves the telescoping identity behind subtraction-freeness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .finite_type import BeltError, BipartiteBelt
from .linalg import det_bareiss, hermite_column_reduce
# unused here; benchmark/selftest.py checks that cones.rank is linalg.rank
from .linalg import rank  # noqa: F401
from .seeds import _laurent_ring, _monomial, _split
from .uvars import (
    DegenerationRay,
    UVariable,
    WeightFunctional,
    _u_variable_at,
    build_u_variables,
    degeneration_ray,
    kernel_functionals,
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

    Column j's u-variable has a degeneration ray rays[j]; dual[j] holds
    the nonzero valuations of the registry variables along it (the row
    g_j of G, by registry id) and scales[j] = g_j . u_j = c_j > 0.
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
        self.rays = [degeneration_ray(belt, u.gamma) for u in uvars]
        self.dual = [
            {id: v for id, v in belt.valuation_walk(ray.beta, ray.step).items()
             if v}
            for ray in self.rays
        ]
        self.scales = [_pair(g, u.vector) for g, u in zip(self.dual, uvars)]

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

    def solve(self, vector: dict[int, int]) -> list[Fraction] | None:
        """The u-exponents lam with U lam = vector, or None when vector is
        outside the u-span: lam = G vector / c, kept only if the exact
        residual U lam == vector holds."""
        lam = [Fraction(_pair(g, vector), c)
               for g, c in zip(self.dual, self.scales)]
        return lam if self.combine(lam) == self.dense(vector) else None

    def combine(self, lam: Sequence[int | Fraction]) -> list[int | Fraction]:
        """Row-order exponent vector of the u-monomial with powers lam.

        Only the u-variables with a nonzero power contribute, each through
        its own sparse exponent vector. The entries are Fractions if lam
        holds one, integers otherwise.
        """
        zero = Fraction(0) if any(isinstance(l, Fraction) for l in lam) else 0
        out = [zero] * len(self.row_ids)
        for l, u in zip(lam, self.uvars):
            if l:
                for id, c in u.vector.items():
                    out[self.row_index[id]] += l * c
        return out


def _pair(valuations: dict[int, int], vector: dict[int, int]) -> int:
    """Valuation of the ratio vector given its variables' valuations."""
    return sum(e * valuations.get(id, 0) for id, e in vector.items())


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
    ray with the ratio's negative valuation along it; not-weight-zero
    carries the violating torus functional.
    """

    __slots__ = ("vector", "verdict", "lam", "alpha", "weight", "ray")

    def __init__(self, vector, verdict, lam=None, alpha=None, weight=None,
                 ray=None):
        self.vector = vector
        self.verdict = verdict
        self.lam = lam
        self.alpha = alpha
        self.weight = weight
        self.ray = ray

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
        return out


def membership(vector: dict[int, int], U: UMatrix) -> Certificate:
    """Decide whether a ratio vector lies in the bounded cone.

    Weight-zero failure short-circuits with the violating functional.
    Otherwise the unique u-exponent solution lam exists (the weight
    functionals span the left kernel of U); nonnegative lam certifies
    boundedness. A negative entry lam_gamma (the least, first on ties)
    yields gamma's degeneration ray, along which the ratio has valuation
    c_gamma * lam_gamma < 0 and so blows up.
    """
    for w in U.functionals:
        val = w.of_vector(vector)
        if val != 0:
            return Certificate(vector, "not-weight-zero",
                               alpha=w.alpha, weight=val)
    lam = U.solve(vector)
    if lam is None:
        raise RuntimeError(
            "ratio has weight zero but is outside the u-span; "
            "weight functionals failed to span the left kernel"
        )
    if all(l >= 0 for l in lam):
        return Certificate(vector, "bounded", lam=lam)
    j = min(range(len(lam)), key=lambda i: lam[i])
    ray = U.rays[j]
    return Certificate(vector, "unbounded", lam=lam, ray=DegenerationRay(
        ray.gamma, ray.step, ray.beta, _pair(U.dual[j], vector)))


def verify_certificate(U: UMatrix, cert: Certificate) -> bool:
    """Replay a certificate's evidence without re-deciding membership.

    Fields read from a file are taken as they stand: a ratio exponent,
    step, beta entry or valuation that is not an integer, a beta of the
    wrong length, or a missing ray fails the replay instead of raising.
    The unbounded proof is one min-plus walk along the ray: the ratio's
    valuation there must be the certificate's, and negative, so the ratio
    is C * t^val (1 + o(1)) with C > 0 and grows without bound as t -> 0.
    Any integer beta and step give a positive curve, so nothing else about
    the ray needs checking.
    """
    belt = U.belt
    vector = cert.vector
    if not all(type(e) is int for e in vector.values()):
        return False
    if cert.verdict == "not-weight-zero":
        if cert.alpha is None:
            return False
        try:
            w = weight_table(belt, cert.alpha)
        except ValueError:  # wrong length, or outside the exchange kernel
            return False
        return w.of_vector(vector) == cert.weight != 0
    if cert.lam is None or len(cert.lam) != U.num_cols:
        return False
    if U.combine(cert.lam) != U.dense(vector):
        return False
    if cert.verdict == "bounded":
        return all(l >= 0 for l in cert.lam)
    if cert.verdict != "unbounded" or all(l >= 0 for l in cert.lam):
        return False
    ray = cert.ray
    if not (
        ray is not None
        and type(ray.step) is int
        and type(ray.valuation) is int
        and isinstance(ray.beta, (list, tuple))
        and len(ray.beta) == belt.exchange.size
        and all(type(b) is int for b in ray.beta)
    ):
        return False
    valuations = belt.valuation_walk(ray.beta, ray.step)
    return _pair(valuations, vector) == ray.valuation < 0


# double description over exact integers


def double_description(
    equalities: Sequence[Sequence[int]], dim: int
) -> list[tuple[int, ...]]:
    """Extreme rays of {x >= 0, Ex = 0} as primitive integer tuples.

    Equalities are inserted one at a time into the positive orthant. Each
    row is read as its (column, coefficient) pairs, so a ray's dot product
    touches only the row's nonzero columns. Every ray carries its support
    as a bit mask and as a tuple of indices. A new ray is
    s_p * r_n - s_n * r_p with s_p > 0 > s_n and r_p, r_n >= 0, so nothing
    cancels and its support is exactly S = S_p | S_n.

    A positive ray p and a negative ray n are adjacent iff no third current
    ray has its support inside S (its zero set containing their common
    one). Adjacent rays span a 2-face, whose tight constraints have rank
    dim - 2; each row processed so far gives at most one of it, so a pair
    with |S| > processed + 2 is skipped at once. Otherwise a
    blocker is sought only among the rays that meet both S_p - S_n and
    S_n - S_p, read off per-coordinate bitsets of ray indices (nz below).
    That loses no blocker. The current rays are the distinct primitive
    extreme rays of a pointed cone, and a point of the cone whose zero set
    contains an extreme ray's zero set is a multiple of that ray, so the
    rays' zero sets are pairwise incomparable. A ray with support inside S
    that misses S_p - S_n therefore lies inside S_n and is n itself, and
    likewise for p. Nor are p and n candidates: p misses S_n - S_p and n
    misses S_p - S_n. Output sorted lexicographically.
    """
    rays = [(tuple(int(i == j) for j in range(dim)), 1 << i, (i,))
            for i in range(dim)]
    for processed, row in enumerate(equalities):
        if len(row) != dim:
            raise ValueError("equality row has wrong length")
        terms = [(c, a) for c, a in enumerate(row) if a]
        row_mask = sum(1 << c for c, _ in terms)
        pos: list[tuple[int, int]] = []
        neg: list[tuple[int, int]] = []
        kept = []
        for k, ray in enumerate(rays):
            vec, mask, _ = ray
            s = sum(a * vec[c] for c, a in terms) if mask & row_mask else 0
            if s > 0:
                pos.append((k, s))
            elif s < 0:
                neg.append((k, s))
            else:
                kept.append(ray)
        if not pos or not neg:
            rays = kept
            if not rays:
                return []
            continue
        nz = [0] * dim  # nz[i]: bitset of the rays whose support holds i
        for k, (_, _, support) in enumerate(rays):
            bit = 1 << k
            for i in support:
                nz[i] |= bit
        new = {vec: (mask, support) for vec, mask, support in kept}
        for p, sp in pos:
            vp, mp, sup_p = rays[p]
            for n, sn in neg:
                vn, mn, sup_n = rays[n]
                both = mp | mn
                if both.bit_count() > processed + 2:
                    continue
                from_p = from_n = 0
                for i in sup_p:
                    if not mn >> i & 1:
                        from_p |= nz[i]
                for i in sup_n:
                    if not mp >> i & 1:
                        from_n |= nz[i]
                blockers = from_p & from_n
                while blockers:
                    low = blockers & -blockers
                    if rays[low.bit_length() - 1][1] | both == both:
                        break
                    blockers ^= low
                else:  # no blocker: p and n are adjacent
                    support = tuple(sorted(set(sup_p).union(sup_n)))
                    vals = [sp * vn[i] - sn * vp[i] for i in support]
                    g = gcd(*vals)
                    vec = [0] * dim
                    for i, v in zip(support, vals):
                        vec[i] = v // g
                    new[tuple(vec)] = (both, support)
        rays = [(vec, mask, support) for vec, (mask, support) in new.items()]
    return sorted(vec for vec, _, _ in rays)


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


def subset_cone(subset, U: UMatrix) -> ConeDescription:
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
    rays = []
    for ell in double_description(eq_rows, U.num_cols):
        dense = U.combine(ell)
        g = gcd(*dense)
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

    Integral lam: flatten the u-monomial into single u-factors and check
    each against its exchange relation (_verify_chain), which makes the
    telescoping identity Q - P = sum_i q_1..q_{i-1} (q_i - p_i)
    p_{i+1}..p_r hold, with incoming-frozen products as middle factors.
    Every term is then a product of cluster variables and frozen
    variables, so the gap is subtraction-free in cluster variables.
    Non-integral lam: expand the gap in the initial cluster and report
    signed terms.
    """
    if not cert.bounded:
        raise ValueError("subtraction-freeness is only defined for bounded ratios")
    belt = U.belt
    if cert.integral:
        factors: list[UVariable] = []
        for u, l in zip(U.uvars, cert.lam):
            factors.extend([u] * int(l))
        return SubtractionFreeReport(
            "chain", chain=[u.gamma for u in factors],
            verified=_verify_chain(belt, factors))
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


def _verify_chain(belt: BipartiteBelt, factors: list[UVariable]) -> bool:
    """Check the telescoping decomposition behind a chain proof.

    Each u-factor u = p / (gamma * partner) must be exactly the ratio read
    off its node of its belt step, and that node a source there: gamma
    and partner are the variables at (step, node) and (step + 1, node),
    and numerator and frozen_in are the out/in split of the node's matrix
    row, the in-part frozen. The belt produced partner by the exchange
    relation at exactly that row, so q = gamma * partner = p + f with f
    the frozen in-product. Then Q - P = prod q_i - prod p_i telescopes as
    sum_i q_1..q_{i-1} (q_i - p_i) p_{i+1}..p_r, formally in any
    commutative ring, and q_i - p_i = f_i: every term is a product of
    cluster and frozen variables. The check is exact on symbolic and
    tropical belts alike.
    """
    for u in factors:
        if u.node not in belt.step(u.step).sources:
            return False
        exact = _u_variable_at(belt, u.step, u.node)
        if any(getattr(u, f) != getattr(exact, f) for f in UVariable.__slots__):
            return False
    return True
