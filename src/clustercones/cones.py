"""Bounded-ratio cones over a finite mutation belt.

The u-variables span the cone of Laurent monomials in cluster variables
that stay bounded on the positive locus. This module assembles their
exponent matrix U, decides membership with replayable certificates,
enumerates extreme rays of restricted cones by exact double description,
and checks subtraction-freeness of bounded ratios.

Every verdict rests on the dual basis G of the u-variables: one row of
valuations per u-variable, from one min-plus walk along its degeneration
ray, with G U = diag(c) and c > 0 (the extreme-ray theorem, per context).
A ratio's u-exponents are lam = G v / c, confirmed by the exact residual
U lam = v. As c > 0, lam has the signs of the integers G v, so
membership and the replay of lam run on integers: G v and the torus
weights of v under the kernel vectors U.kernel are one packed sum. lam
is held in one form only, its powers: the (column, entry) pairs of its
nonzero entries in column order, so each later step costs what the
ratio touches. Nonnegative lam proves the ratio bounded; a negative
entry lam_gamma means the ratio has valuation c_gamma lam_gamma < 0
along gamma's ray, so it grows like t^val as t -> 0, which the replay
confirms with one min-plus walk. A bounded ratio with integral lam is a
product of u-variables, and a structural check of each distinct factor
against the belt's exact record of its exchange relation
(BipartiteBelt._source_records) proves the telescoping identity behind
subtraction-freeness.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import compress
from math import gcd, lcm
from operator import lshift
from typing import Sequence

from .finite_type import BipartiteBelt, _lane_unpacker
# unused here; benchmark/selftest.py checks that cones.rank is linalg.rank
from .linalg import rank  # noqa: F401
from .laurent import LaurentPolynomial
from .seeds import _monomial, _split
from .uvars import (
    DegenerationRay,
    UVariable,
    build_u_variables,
    degeneration_ray,
)

__all__ = [
    "Certificate",
    "ConeDescription",
    "ExtremeRay",
    "NotFullRankError",
    "UMatrix",
    "build_u_matrix",
    "membership",
    "subset_cone",
    "subtraction_free_check",
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

    kernel is the primitive integral basis of the right kernel of the
    extended exchange matrix. A kernel vector alpha grades every seed on
    the belt (seeds.ExchangeData.grading_defect), so each variable has a
    torus weight under alpha: its valuation along x = t^alpha. Rescaling
    the initial cluster by t^alpha keeps a point positive and scales a
    ratio by t^weight, so a bounded ratio has weight zero under every
    kernel vector.

    Column j's u-variable has a degeneration ray rays[j]. The dual basis
    G is kept by registry id: packed[id] holds the variable's weights
    under the kernel vectors, then its column of G, whose entry j is the
    variable's valuation along rays[j], as the width-bit lanes of one int
    from one packed walk along the kernel vectors and the rays (see
    _solve). The row g_j of G is entry j of every column, and scales[j] =
    g_j . u_j = c_j > 0. bound is the least 2**b with all lanes in
    [-2**b, 2**b), tested per int by adding 2**b to every lane and masking
    the field bits above b, as seeds._packed_exchange does.

    U is kept as the sparse u-vectors. Its rows, dense or sparse (as
    (column, coefficient) pairs, which subset_cone reads), are built on
    request, once each.
    """

    def __init__(self, belt: BipartiteBelt, uvars: list[UVariable]):
        self.belt = belt
        self.uvars = uvars
        self.row_ids: list[int] = belt.row_order
        self.row_index = {id: i for i, id in enumerate(self.row_ids)}
        self.kernel = belt.exchange.kernel_basis()
        self.rays = [degeneration_ray(belt, u.gamma) for u in uvars]
        k, n = len(self.kernel), len(self.kernel) + len(uvars)
        width, self.packed = belt._packed_columns(
            [(alpha, 0) for alpha in self.kernel]
            + [(ray.beta, ray.step) for ray in self.rays])
        lanes = list(map(_lane_unpacker(width, n), self.packed))
        self.scales = [sum(b * lanes[id][k + j] for id, b in u.vector.items())
                       for j, u in enumerate(uvars)]
        ones, b = ((1 << width * n) - 1) // ((1 << width) - 1), 0
        while any((p + (ones << b)) & ((ones << width) - (ones << b + 1))
                  for p in self.packed):
            b += 1
        self.width, self.bound = width, 1 << b

    @cached_property
    def _sparse_rows(self) -> list[list[tuple[int, int]]]:
        rows: list[list[tuple[int, int]]] = [[] for _ in self.row_ids]
        for j, u in enumerate(self.uvars):
            for id, b in u.vector.items():
                rows[self.row_index[id]].append((j, b))
        return rows

    @cached_property
    def rows(self) -> list[list[int]]:
        return [[u.vector.get(id, 0) for u in self.uvars] for id in self.row_ids]

    @property
    def num_rows(self) -> int:
        return len(self.row_ids)

    @property
    def num_cols(self) -> int:
        return len(self.uvars)

    def _solve(self, vector: dict[int, int]):
        """(weights, powers, G vector) of a ratio: its weights under the
        kernel vectors, the (column, Fraction) pairs of its nonzero lam_j =
        (G vector)_j / c_j in column order (None unless U lam = vector, see
        _numerators), and G vector, its valuations c_j lam_j along the rays.

        The weights and G vector are the lanes of sum e * packed[id],
        unpacked once. No lane of it exceeds sum |e| * bound in absolute
        value; where that could reach 2**(width-1), the vector's columns
        are repacked at twice the width, or more, so no lane wraps.
        """
        width, packed, k = self.width, self.packed, len(self.kernel)
        n = k + len(self.uvars)
        need = self.bound * sum(map(abs, vector.values()))
        if need >= 1 << (width - 1):
            unpack = _lane_unpacker(width, n)
            while need >= 1 << (width - 1):
                width *= 2
            packed = {id: reduce(lambda out, v: (out << width) + v,
                                 unpack(packed[id]), 0) for id in vector}
        out = _lane_unpacker(width, n)(
            sum(e * packed[id] for id, e in vector.items()))
        weights, nums = out[:k], out[k:]
        if not any(weights):
            powers = tuple((j, Fraction(nums[j], self.scales[j]))
                           for j in compress(range(len(nums)), nums))
            if _numerators(self, powers, vector) is not None:
                return weights, powers, nums
        return weights, None, nums


def _numerators(U: "UMatrix", powers, vector: dict[int, int]) -> list[int] | None:
    """The integers L lam_j of the powers (j, lam_j), L the lcm of their
    denominators, if U lam is the ratio vector, else None. The residual
    sum of (L lam_j) u_j - L vector is in integers and can be nonzero only
    on the rows the powers touch and the vector's support, summed alone."""
    scale = lcm(*(l.denominator for _, l in powers))
    residual = {id: -scale * e for id, e in vector.items()}
    nums = []
    for j, l in powers:
        nums.append(f := l.numerator * (scale // l.denominator))
        for id, b in U.uvars[j].vector.items():
            residual[id] = residual.get(id, 0) + f * b
    return None if any(residual.values()) else nums


def build_u_matrix(belt: BipartiteBelt, uvars: list[UVariable] | None = None) -> UMatrix:
    if not belt.exchange.is_full_rank():
        raise NotFullRankError(
            "extended exchange matrix is rank deficient; u-variables may "
            "not span the bounded cone"
        )
    if uvars is None:
        uvars = build_u_variables(belt)
    return UMatrix(belt, uvars)


class Certificate:
    """Machine-checkable boundedness verdict for one ratio vector.

    verdict is one of "bounded", "unbounded", "not-weight-zero". Bounded
    carries the u-exponents lam; unbounded carries lam plus a degeneration
    ray with the ratio's negative valuation along it; not-weight-zero
    carries a kernel vector alpha of U.kernel and the ratio's nonzero
    weight under it.

    lam is held as powers alone: its (column, entry) pairs in column order,
    the zero entries left out. Fields read from a file are kept as they
    stand, for the replay (verify_certificate) to refuse.
    """

    __slots__ = ("vector", "verdict", "powers", "alpha", "weight", "ray")

    def __init__(self, vector, verdict, powers=None, alpha=None, weight=None,
                 ray=None):
        self.vector, self.verdict, self.powers = vector, verdict, powers
        self.alpha, self.weight, self.ray = alpha, weight, ray

    @property
    def bounded(self) -> bool:
        return self.verdict == "bounded"

    @property
    def integral(self) -> bool | None:
        return None if self.powers is None else all(
            l.denominator == 1 for _, l in self.powers)

    def to_dict(self, U: "UMatrix") -> dict:
        belt = U.belt
        out = {
            "verdict": self.verdict,
            "ratio": {belt.name(id): e for id, e in sorted(self.vector.items())},
        }
        if self.powers is not None:
            out["lambda"] = {belt.name(U.uvars[j].gamma): str(l)
                             for j, l in self.powers}
            out["integral"] = self.integral
        if self.alpha is not None:
            out["alpha"] = [str(a) for a in self.alpha]
            out["weight"] = str(self.weight)
        if self.ray is not None:
            out["ray"] = self.ray.to_dict(belt)
        return out


def membership(vector: dict[int, int], U: UMatrix) -> Certificate:
    """Decide whether a ratio vector lies in the bounded cone.

    Weight-zero failure short-circuits with the first vector of U.kernel
    under which the ratio has nonzero weight. Otherwise the unique
    u-exponent solution lam exists (the weights under U.kernel span the
    left kernel of U). Its signs are those of the integer valuations
    G vector, as every scale c_j > 0: none negative certifies boundedness.
    Otherwise the least lam_gamma, first on ties, yields gamma's
    degeneration ray, along which the ratio has valuation
    c_gamma * lam_gamma < 0 and so blows up. All of it is read off one
    packed sum (UMatrix._solve).
    """
    weights, powers, nums = U._solve(vector)
    for alpha, weight in zip(U.kernel, weights):
        if weight:
            return Certificate(vector, "not-weight-zero",
                               alpha=alpha, weight=weight)
    if powers is None:
        raise RuntimeError(
            "ratio has weight zero but is outside the u-span; "
            "the kernel weights failed to span the left kernel"
        )
    if min(nums, default=0) >= 0:
        return Certificate(vector, "bounded", powers=powers)
    scales, j = U.scales, powers[0][0]
    for i, _ in powers:  # the least lam_i = nums[i] / scales[i], in integers
        if nums[i] * scales[j] < nums[j] * scales[i]:
            j = i
    ray = U.rays[j]
    return Certificate(vector, "unbounded", powers=powers,
                       ray=DegenerationRay(ray.gamma, ray.step, ray.beta, nums[j]))


def verify_certificate(U: UMatrix, cert: Certificate) -> bool:
    """Replay a certificate's evidence without re-deciding membership.

    Fields read from a file are taken as they stand: a ratio exponent,
    step, beta entry or valuation that is not an integer, a power whose
    column is not an int in [0, U.num_cols) or whose entry is neither an
    integer nor a Fraction, a beta of the wrong length, or a missing ray
    fails the replay instead of raising.
    lam is replayed in integers from its powers: with L the lcm of their
    denominators, the sum of (L lam_j) u_j must be L times the ratio, and
    the signs of lam are those of the numerators L lam_j.
    The unbounded proof is one min-plus walk along the ray: the ratio's
    valuation there must be the certificate's, and negative, so the ratio
    is C * t^val (1 + o(1)) with C > 0 and grows without bound as t -> 0.
    Any integer beta and step give a positive curve, so nothing else about
    the ray needs checking. The weight obstruction is one check that alpha
    grades the belt's initial seed, then one valuation walk along
    x = t^alpha, which gives every variable's weight under alpha.
    """
    belt = U.belt
    vector = cert.vector
    if not all(type(e) is int for e in vector.values()):
        return False
    if cert.verdict == "not-weight-zero":
        if cert.alpha is None:
            return False
        try:
            alpha = [Fraction(a) for a in cert.alpha]
        except ValueError:
            return False
        if all(a.denominator == 1 for a in alpha):
            alpha = [a.numerator for a in alpha]  # walked over ints, twice as fast
        if belt.exchange.grading_defect(alpha) is not None:
            return False  # wrong length, or outside the exchange kernel
        weights = belt.valuation_walk(alpha)
        return sum(e * weights[id] for id, e in vector.items()) == cert.weight != 0
    powers, num_cols = cert.powers, U.num_cols
    if powers is None or not all(type(j) is int and 0 <= j < num_cols
                                 and type(l) in (int, Fraction) for j, l in powers):
        return False
    nums = _numerators(U, powers, vector)
    if nums is None:
        return False
    least = min(nums, default=0)
    if cert.verdict == "bounded":
        return least >= 0
    if cert.verdict != "unbounded" or least >= 0:
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
    valuation = sum(e * valuations.get(id, 0) for id, e in vector.items())
    return valuation == ray.valuation < 0


# double description over exact integers


def _double_description(
    equalities: Sequence[Sequence[tuple[int, int]]], dim: int
) -> list[dict[int, int]]:
    """Extreme rays of {x >= 0, Ex = 0} as primitive integer vectors, each
    as its sparse {column: value}, in no particular order.

    Equalities are inserted one at a time into the positive orthant, in
    the order given; the result does not depend on that order, but the
    intermediate rays, and so the cost, do: the Gr(3,8) Pluecker rows take
    593 ray pairs (130 rays at the peak) in subset_cone's band-width
    order, against 863 (129) in registry order. Each row is given as its
    (column, coefficient) pairs. The current rays live in a dict keyed by
    ray id, each as its sparse {column: value} and its support as a bit
    mask; ids are handed out in increasing order and renumbered 0, 1, ...
    (in the same order) once they run past twice the number of current
    rays, so the bitsets below stay short. nz[i] is the
    bitset of the ids of the current rays whose support holds i, kept up
    to date: a row visits only the rays in the union of nz over its
    columns (every other ray has dot product 0 and stays), the rays it
    makes positive or negative leave the dict and nz, and the new rays
    enter both after the row's pair loop. A new ray is
    s_p * r_n - s_n * r_p with s_p > 0 > s_n and r_p, r_n >= 0, so nothing
    cancels and its support is exactly S = S_p | S_n.

    A positive ray p and a negative ray n are adjacent iff no third current
    ray has its support inside S (its zero set containing their common
    one). Adjacent rays span a 2-face, whose tight constraints have rank
    dim - 2; each row processed so far gives at most one of it, so a pair
    with |S| > processed + 2 is skipped at once. Otherwise a
    blocker is sought only among the rays that meet both S_p - S_n and
    S_n - S_p, read off nz. That loses no blocker. The current rays are
    the distinct primitive extreme rays of a pointed cone, and a point of
    the cone whose zero set contains an extreme ray's zero set is a
    multiple of that ray, so the rays' zero sets are pairwise
    incomparable. A ray with support inside S that misses S_p - S_n
    therefore lies inside S_n and is n itself, and likewise for p. Nor
    are p and n candidates: p misses S_n - S_p and n misses S_p - S_n.
    Nor is a deleted ray: it left the cone with the row that made it
    nonzero, so it could wrongly block an adjacent pair, but its bits
    leave nz with it, before any new ray takes an id, so every id read
    off nz names a current ray. A new ray lies in the relative interior
    of the 2-face of its pair, and distinct faces have disjoint relative
    interiors, so the new rays differ from each other and from the kept
    (extreme) ones: no deduplication is needed.

    The supports hold a handful of columns, so a pair costs Python steps,
    not arithmetic, and the loops take as few as they can: a dot product
    reads the row's columns off the ray's dict, S_p - S_n is the columns
    of p that are not keys of n's dict, the pair loop runs only when the
    row makes rays of both signs, and a new ray is divided only by a gcd
    other than 1.
    """
    rays = {i: ({i: 1}, 1 << i) for i in range(dim)}
    nz = [1 << i for i in range(dim)]  # nz[i]: ids of the rays holding i
    next_id = dim
    for processed, terms in enumerate(equalities):
        touched = 0
        for c, _ in terms:
            touched |= nz[c]
        pos = []
        neg = []
        while touched:
            low = touched & -touched
            touched ^= low
            k = low.bit_length() - 1
            vec, mask = rays[k]
            s = 0
            for c, a in terms:
                s += a * vec.get(c, 0)
            if s > 0:
                pos.append((k, s, vec, mask))
            elif s < 0:
                neg.append((k, s, vec, mask))
        new = []
        limit = processed + 2
        for _, sp, vp, mp in pos if neg else ():  # no pairs without both
            for _, sn, vn, mn in neg:
                both = mp | mn
                if both.bit_count() > limit:
                    continue
                from_p = from_n = 0
                for i in vp:
                    if i not in vn:
                        from_p |= nz[i]
                for i in vn:
                    if i not in vp:
                        from_n |= nz[i]
                blockers = from_p & from_n
                while blockers:
                    low = blockers & -blockers
                    if rays[low.bit_length() - 1][1] | both == both:
                        break
                    blockers ^= low
                else:  # no blocker: p and n are adjacent
                    vec = {i: -sn * v for i, v in vp.items()}
                    for i, v in vn.items():
                        vec[i] = vec.get(i, 0) + sp * v
                    g = gcd(*vec.values())
                    if g != 1:
                        vec = {i: v // g for i, v in vec.items()}
                    new.append((vec, both))
        for k, _, vec, _ in pos + neg:
            del rays[k]
            bit = ~(1 << k)
            for i in vec:
                nz[i] &= bit
        for ray in new:
            rays[next_id] = ray
            bit = 1 << next_id
            for i in ray[0]:
                nz[i] |= bit
            next_id += 1
        if not rays:
            return []
        if next_id > 2 * len(rays):
            # blockers are tried lowest id, so oldest ray, first; that
            # takes fewer tests than newest first, and renumbering in id
            # order keeps it
            rays = dict(enumerate(rays.values()))
            nz = [0] * dim
            for k, (vec, _) in rays.items():
                for i in vec:
                    nz[i] |= 1 << k
            next_id = len(rays)
    return [vec for vec, _ in rays.values()]


# cones of bounded ratios supported on a subset of variables


class ExtremeRay:
    """Primitive integer ratio vector with its u-variable provenance.

    powers holds the ray's nonzero u-exponents as (column, Fraction)
    pairs in column order: a ray has a handful of them out of
    UMatrix.num_cols.
    """

    __slots__ = ("vector", "powers")

    def __init__(self, vector: dict[int, int],
                 powers: tuple[tuple[int, Fraction], ...]):
        self.vector = vector
        self.powers = powers


class ConeDescription:
    """Extreme rays of the bounded ratios supported on a variable subset.

    ray_index maps each ray's vector, as a frozenset of its items, to the
    ray's position; it is shorter than rays only if two rays coincide.
    """

    __slots__ = ("subset", "rays", "umatrix", "ray_index")

    def __init__(self, subset, rays, umatrix):
        self.subset = subset
        self.rays = rays
        self.umatrix = umatrix
        self.ray_index = {
            frozenset(r.vector.items()): i for i, r in enumerate(rays)
        }

    def __len__(self) -> int:
        return len(self.rays)

    def to_dict(self) -> dict:
        belt = self.umatrix.belt
        uvars = self.umatrix.uvars
        return {
            "subset": sorted(belt.name(id) for id in self.subset),
            "rays": [
                {
                    "ratio": {belt.name(id): e
                              for id, e in sorted(r.vector.items())},
                    "lambda": {
                        belt.name(uvars[j].gamma): str(l) for j, l in r.powers
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
    through U to the ratio vectors themselves. U's rows go in sparse and
    the lambda-rays come out sparse, and each ray is built from the
    nonzero entries of its lambda-ray alone: the sparse u-vectors of those
    columns are summed and divided by the gcd of the sum, which leaves the
    ray's sparse powers (see ExtremeRay).
    """
    subset = frozenset(subset)
    # Rows go in narrowest band first: by the last column of the row less
    # its first, registry (belt) order breaking ties. In registry order U
    # is banded, row r meeting only the u-columns of the last period or so
    # before it (Gr(3,8): 7 to 9 apart), but the u-variables of the belt's
    # last steps hold the initial cluster again, as the belt closes up, so
    # its rows also meet those columns (122 to 126 apart). Narrowest first
    # sweeps the band and closes that wrap last. Ray pairs the DD's pair
    # loop visits, with the peak ray count, Gr(3,8) Pluecker: 593 and 130
    # this way; 863 and 129 in registry order; 686 by descending first
    # column; 759 reversed; 6,466 and 455 by width, then number of terms;
    # 10,211 and 591 sparsest first. Gr(3,8) deg2: 234 and 168, against
    # 269 and 173 in registry order; Gr(3,7) Pluecker: 84 against 82.
    eq_rows = sorted(
        (row for id, row in zip(U.row_ids, U._sparse_rows) if id not in subset),
        key=lambda row: row[-1][0] - row[0][0] if row else 0)
    uvectors = [u.vector for u in U.uvars]
    fraction = cache(Fraction)  # the rays share a few distinct powers
    rays = []
    for ell in _double_description(eq_rows, U.num_cols):
        support = sorted(ell)
        total: dict[int, int] = {}
        for j in support:
            l = ell[j]
            for id, c in uvectors[j].items():
                total[id] = total.get(id, 0) + l * c
        g = gcd(*total.values())
        if g == 0:
            continue
        vector = {id: e // g for id, e in total.items() if e}
        if not subset.issuperset(vector):
            raise RuntimeError("ray escaped the requested subset")
        powers = tuple((j, fraction(ell[j], g)) for j in support)
        rays.append(ExtremeRay(vector, powers))
    # in the lexicographic order of the exponent lists in row order
    # (U.row_ids), read off the nonzeros: with m the largest |e|, adding m to
    # every entry leaves the order alone and the entries in [0, 2m], so
    # the lists order as the ints they spell in base 2**b > 2m; minus the
    # same sum of m's, each int is sum(e << b * (rows after e's row))
    b = max([max(map(abs, r.vector.values())) for r in rays],
            default=0).bit_length() + 1
    shift = {id: b * i for i, id in enumerate(reversed(U.row_ids))}.__getitem__
    rays.sort(key=lambda r: sum(map(lshift, r.vector.values(), map(shift, r.vector))))
    return ConeDescription(subset, rays, U)


# subtraction-freeness


class SubtractionFreeReport:
    """Outcome of a subtraction-freeness check on a bounded ratio.

    kind "chain": the ratio is an integer u-monomial and the telescoping
    decomposition of denominator minus numerator into visibly positive
    terms was verified; chain lists its factors as (gamma, multiplicity)
    pairs in power order. kind "expansion": the gap polynomial was expanded
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
            out["chain"] = [belt.name(g) if m == 1 else f"{belt.name(g)}^{m}"
                            for g, m in self.chain]
        if self.positive is not None:
            out["positive_terms"] = len(self.positive)
            out["negative_terms"] = len(self.negative)
        if self.scale_integral is not None:
            out["integral_multiple"] = self.scale_integral
        out["subtraction_free"] = self.subtraction_free
        return out


def subtraction_free_check(cert: Certificate, U: UMatrix) -> SubtractionFreeReport:
    """Explain why a bounded ratio is at most 1, or find a sign obstruction.

    Integral lam: the u-monomial is a product of single u-factors, each
    with its multiplicity; check each distinct factor against the belt's
    record of its exchange relation (_verify_chain), which makes the
    telescoping identity Q - P = sum_i q_1..q_{i-1} (q_i - p_i)
    p_{i+1}..p_r hold, with incoming-frozen products as middle factors.
    Every term is then a product of cluster variables and frozen
    variables, so the gap is subtraction-free in cluster variables.
    Non-integral lam: expand the gap in the initial cluster and report
    signed terms; on a belt that offers no expansions, BipartiteBelt.poly
    raises BeltError.
    """
    if not cert.bounded:
        raise ValueError("subtraction-freeness is only defined for bounded ratios")
    belt = U.belt
    if cert.integral:
        chain = [(U.uvars[j], int(l)) for j, l in cert.powers]
        return SubtractionFreeReport(
            "chain", chain=[(u.gamma, m) for u, m in chain],
            verified=_verify_chain(belt, [u for u, _ in chain]))
    denoms = lcm(*(l.denominator for _, l in cert.powers))
    one = LaurentPolynomial.one(belt.exchange.size)
    polys = [belt.poly(e.id) for e in belt.entries]
    pos, neg = _split(cert.vector.items())
    diff = _monomial(polys, neg, one) - _monomial(polys, pos, one)
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


def _verify_chain(belt: BipartiteBelt, factors: Sequence[UVariable]) -> bool:
    """Check the telescoping decomposition behind a chain proof.

    Each u-factor u = p / (gamma * partner) must be exactly the belt's
    record at its position (step mod the period, node), and a record
    exists only where the node is a source: gamma and partner are the
    variables at (step, node) and (step + 1, node), and numerator and
    frozen_in are the out/in split of the node's matrix row, the in-part
    frozen (BipartiteBelt._source_records). The belt produced partner by
    the exchange relation at exactly that row, so q = gamma * partner =
    p + f with f the frozen in-product. Then Q - P = prod q_i - prod p_i
    telescopes as sum_i q_1..q_{i-1} (q_i - p_i) p_{i+1}..p_r, formally
    in any commutative ring, and q_i - p_i = f_i: every term is a product
    of cluster and frozen variables. The check needs no Laurent expansion,
    so it runs on every belt. A factor at a non-source position, or with a
    step or node that is not an int, fails. A factor repeated as the same
    object is checked once; a changed copy is a distinct object and is
    checked on its own.
    """
    records, p = belt._source_records, belt.period
    for u in dict.fromkeys(factors):
        if not (isinstance(u.step, int) and isinstance(u.node, int)):
            return False
        fields = (u.gamma, u.partner, u.numerator, u.frozen_in, u.vector)
        if records[u.step % p].get(u.node) != fields:
            return False
    return True
