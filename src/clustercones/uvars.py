"""u-variables: one bounded ratio per belt variable, with degeneration data.

Each mutable belt variable gamma sits at a source of some belt seed. The
u-variable of gamma divides the product of gamma's out-neighbors there
(frozen ones included) by gamma times its exchange partner. The exchange
relation makes the denominator minus the numerator a product of frozen
variables, which is why these ratios are bounded by 1 on the positive
locus and why telescoping products of them witness subtraction-free
inequalities.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .finite_type import BipartiteBelt
from .linalg import primitive_vector, solve
from .seeds import _FRACTIONS, _laurent_ring, _monomial, _split

__all__ = [
    "UVariable",
    "WeightFunctional",
    "build_u_variables",
    "kernel_functionals",
    "ratio_value",
    "weight_table",
    "DegenerationRay",
    "degeneration_ray",
    "verify_u_equations",
]


class WeightFunctional:
    """Torus weights induced by one kernel vector of the exchange matrix.

    weights maps every registry id to the common alpha-degree of its
    Laurent terms. Bounded ratios must have weight zero under every such
    functional, since rescaling the initial cluster by t^alpha moves any
    positive point to another positive point while scaling the ratio by
    t^weight.
    """

    __slots__ = ("alpha", "weights")

    def __init__(self, alpha: tuple[Fraction, ...], weights: dict[int, Fraction]):
        self.alpha = alpha
        self.weights = weights

    def of_vector(self, vector: dict[int, int]) -> Fraction:
        return sum((e * self.weights[id] for id, e in vector.items()), Fraction(0))


def weight_table(belt: BipartiteBelt, alpha: Sequence[int | Fraction]) -> WeightFunctional:
    """Weights of all registry variables under a kernel functional alpha.

    On a symbolic belt each variable's terms are checked to share one
    alpha-degree; inhomogeneity means alpha is outside the kernel and
    raises ValueError. Tropical belts get the same numbers by propagating
    weights through the exchange relations, each of which is checked for
    homogeneity along the way.
    """
    size = belt.exchange.size
    if len(alpha) != size:
        raise ValueError("need one weight per initial node")
    alpha = tuple(Fraction(a) for a in alpha)
    if not belt.symbolic:
        return WeightFunctional(alpha, belt.weight_walk(alpha))
    weights: dict[int, Fraction] = {}
    for entry in belt.entries:
        deg: Fraction | None = None
        for exps, _ in entry.poly.terms():
            d = sum((a * e for a, e in zip(alpha, exps)), Fraction(0))
            if deg is None:
                deg = d
            elif d != deg:
                raise ValueError(
                    "weight functional is not in the exchange kernel "
                    f"(variable {belt.name(entry.id)} is inhomogeneous)"
                )
        weights[entry.id] = deg if deg is not None else Fraction(0)
    return WeightFunctional(alpha, weights)


def kernel_functionals(belt: BipartiteBelt) -> list[WeightFunctional]:
    """Weight functionals for a basis of the extended exchange kernel."""
    return [weight_table(belt, a) for a in belt.exchange.kernel_basis()]


class UVariable:
    """Ratio vector data for one belt variable at its source seed."""

    __slots__ = ("gamma", "partner", "step", "node", "numerator", "frozen_in", "vector")

    def __init__(self, gamma, partner, step, node, numerator, frozen_in, vector):
        self.gamma = gamma
        self.partner = partner
        self.step = step
        self.node = node
        self.numerator = numerator  # id -> positive exponent
        self.frozen_in = frozen_in  # id -> positive exponent, all frozen
        self.vector = vector  # id -> exponent, full ratio

    def value(self, values: dict[int, Fraction]) -> Fraction:
        return ratio_value(self.vector, values)


def build_u_variables(belt: BipartiteBelt) -> list[UVariable]:
    """One u-variable per mutable registry variable, in registry order.

    The exchange relation gamma * partner = out-product + in-product has
    already been verified by exact division while the belt was built, so
    the denominator-minus-numerator factorization needs no symbolic work
    here.
    """
    out = []
    n = belt.exchange.n
    if belt.symbolic:
        ring = _laurent_ring(belt.exchange.size)
        polys = [e.poly for e in belt.entries]
    for gamma in belt.mutable_ids:
        entry = belt.entries[gamma]
        s, k = entry.source_pos
        st = belt.step(s)
        pos, neg = _split(enumerate(st.matrix[k]))
        if any(j < n for j, _ in neg):
            raise RuntimeError(
                f"belt variable {gamma} has a mutable in-arrow at its source"
            )
        numerator = {st.cluster_ids[j]: b for j, b in pos}
        frozen_in = {st.cluster_ids[j]: b for j, b in neg}
        vector = dict(numerator)
        vector[gamma] = vector.get(gamma, 0) - 1
        partner = entry.partner
        vector[partner] = vector.get(partner, 0) - 1
        if belt.symbolic:
            outp = _monomial(ring, polys, numerator.items())
            inp = _monomial(ring, polys, frozen_in.items())
            if polys[gamma] * polys[partner] != outp + inp:
                raise RuntimeError(
                    f"exchange identity failed at variable {belt.name(gamma)}"
                )
        out.append(UVariable(gamma, partner, s, k, numerator, frozen_in, vector))
    return out


def ratio_value(vector: dict[int, int], values: dict[int, Fraction]) -> Fraction:
    """Value of a ratio vector at Fraction values (as value_walk gives)."""
    return _monomial(_FRACTIONS, values, vector.items())


class DegenerationRay:
    """A one-parameter positive substitution sending one u-variable to zero.

    The cluster at gamma's source seed is specialized to x_j = t^beta_j
    where the extended exchange matrix sends beta to c*e_node (c > 0), so
    every exchange relation stays balanced except the one at gamma's node,
    whose frozen in-monomial picks up a positive power of t. The table
    records exact u-values at t = 1/2, 1/4, ..., 2^-depth.

    walks holds the registry values at each t, as degeneration_ray walked
    them; a ray read back from a certificate has none, and it is never
    serialized.
    """

    __slots__ = ("gamma", "step", "node", "beta", "scale", "ts", "table",
                 "walks")

    def __init__(self, gamma, step, node, beta, scale, ts, table):
        self.gamma = gamma
        self.step = step
        self.node = node
        self.beta = beta
        self.scale = scale
        self.ts = ts
        self.table = table  # gamma id -> list of Fractions, aligned with ts
        self.walks: list[dict[int, Fraction]] | None = None

    def gamma_tends_to_zero(self) -> bool:
        vals = self.table[self.gamma]
        decreasing = all(a > b for a, b in zip(vals, vals[1:]))
        return decreasing and vals[-1] * 64 < vals[0]

    def others_bounded_away(self) -> bool:
        last = self.table[self.gamma][-1]
        for g, vals in self.table.items():
            if g == self.gamma:
                continue
            if min(vals) <= last:
                return False
        return True

    def to_dict(self, belt: BipartiteBelt) -> dict:
        return {
            "gamma": belt.name(self.gamma),
            "step": self.step,
            "node": self.node,
            "beta": list(self.beta),
            "scale": self.scale,
            "ts": [str(t) for t in self.ts],
            "table": {
                belt.name(g): [str(v) for v in vals]
                for g, vals in self.table.items()
            },
        }


def degeneration_ray(
    belt: BipartiteBelt,
    uvars: Sequence[UVariable],
    gamma: int,
    depth: int = 10,
) -> DegenerationRay:
    """Build the degeneration substitution for gamma's u-variable.

    Needs the extended exchange matrix to have full rank; raises
    ValueError otherwise.
    """
    entry = belt.entries[gamma]
    s, node = entry.source_pos
    st = belt.step(s)
    n = belt.exchange.n
    size = belt.exchange.size
    extended = [st.matrix[i] for i in range(n)]
    rhs = [Fraction(int(i == node)) for i in range(n)]
    beta_frac = solve(extended, rhs)
    if beta_frac is None:
        raise ValueError(
            "extended exchange matrix does not have full rank; "
            "no degeneration ray exists"
        )
    prim = primitive_vector(beta_frac + [Fraction(1)])
    beta, scale = list(prim[:-1]), prim[-1]
    if scale <= 0:
        beta = [-b for b in beta]
        scale = -scale
    ts = [Fraction(1, 2**i) for i in range(1, depth + 1)]
    walks = [belt.value_walk([t**b for b in beta], start_step=s) for t in ts]
    table = {u.gamma: [u.value(values) for values in walks] for u in uvars}
    ray = DegenerationRay(gamma, s, node, beta, scale, ts, table)
    ray.walks = walks
    return ray


def verify_u_equations(belt: BipartiteBelt, uvars: Sequence[UVariable] | None = None):
    """Check u_gamma + prod_{w != gamma} u_w^(w||gamma) = 1 symbolically.

    Works on any belt in symbolic mode, full rank or not: the identity is
    between explicit Laurent polynomials. Returns {gamma id: bool}.

    Each u-variable is a monomial x^v in the registry variables (v is
    UVariable.vector, frozen ids included), so the product term is x^w
    with w = sum over omega != gamma of (omega||gamma) * v_omega, summed
    as exponent vectors before any polynomial is formed. With D = max(0, -v, -w) componentwise, the
    three vectors D + v, D + w and D are nonnegative, and

        x^v + x^w = 1  iff  x^(D+v) + x^(D+w) = x^D,

    since x^D is a nonzero polynomial: both sides are the same rational
    identity multiplied through by it, so the check stays exact and
    complete. D is the reduced common denominator: the max with 0 leaves
    out every factor present in all three of x^(D+v), x^(D+w) and x^D
    (one of the three has exponent 0 at each id), so no product is
    larger than it must be.
    """
    if uvars is None:
        uvars = build_u_variables(belt)
    ring = _laurent_ring(belt.exchange.size)
    polys = [belt.poly(e.id) for e in belt.entries]
    vectors = {u.gamma: u.vector for u in uvars}
    results: dict[int, bool] = {}
    for gamma in belt.mutable_ids:
        v = vectors[gamma]
        w: dict[int, int] = {}
        for omega in belt.mutable_ids:
            if omega != gamma and (e := belt.compatibility_degree(omega, gamma)):
                for id, b in vectors[omega].items():
                    w[id] = w.get(id, 0) + e * b
        ids = sorted(v.keys() | w.keys())
        d = {id: -min(0, v.get(id, 0), w.get(id, 0)) for id in ids}

        def power(shift):
            return _monomial(ring, polys, [
                (id, b) for id in ids if (b := d[id] + shift.get(id, 0))])

        results[gamma] = power(v) + power(w) == power({})
    return results
