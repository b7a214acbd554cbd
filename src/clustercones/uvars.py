"""u-variables: one bounded ratio per belt variable, with degeneration data.

Each mutable belt variable gamma sits at a source of some belt seed. The
u-variable of gamma divides the product of gamma's out-neighbors there
(frozen ones included) by gamma times its exchange partner. The exchange
relation makes the denominator minus the numerator a product of frozen
variables, which is why these ratios are bounded by 1 on the positive
locus and why telescoping products of them witness subtraction-free
inequalities. The belt keeps the exchange at each source position of its
period as one exact record (BipartiteBelt._source_records); a u-variable
is a copy of the record at gamma's source position, and the chain check
in cones compares every factor with the record at its own position.

The u-equation u_gamma + prod_{w != gamma} u_w^(w||gamma) = 1 rests on
the same record: the product term's exponents, summed over the vectors of
the other u-variables, telescope to the frozen in-part of gamma's
exchange relation over gamma times its partner, so the equation is that
relation, which the belt proved when it was built. verify_u_equations
checks the telescoping and the record, and multiplies out only what fails
them (see there).

A DegenerationRay is the positive curve x_j = t^beta_j at gamma's source
seed, with beta chosen so that every exchange relation there stays
balanced except gamma's own. Along it every registry variable is C * t^val
with C > 0 as t -> 0, and the valuations val come from one min-plus walk
of the belt. Read as a row g_gamma over the registry variables, they
vanish on every other u-variable and are positive on u_gamma: stacked,
they form the dual basis G of the u-variables, with G U = diag(c), c > 0.
A ratio whose valuation along some such curve is negative grows without
bound, which is the whole proof behind an unbounded verdict.

The torus weights, which a bounded ratio must have zero, are not computed
here: they are the leading lanes of the one packed walk in cones.UMatrix,
one lane per vector of U.kernel.
"""

from __future__ import annotations

from typing import Sequence

from .finite_type import BipartiteBelt
from .laurent import LaurentPolynomial
from .seeds import _monomial

__all__ = [
    "UVariable",
    "build_u_variables",
    "DegenerationRay",
    "degeneration_ray",
    "verify_u_equations",
]


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


def build_u_variables(belt: BipartiteBelt) -> list[UVariable]:
    """One u-variable per mutable registry variable, in registry order.

    The u-variable is the out-part of gamma's source row over gamma times
    its exchange partner: a copy of the belt's record at gamma's source
    position (BipartiteBelt._source_records), with dicts of its own, so
    that U shares none with the records the chain check compares against.
    The exchange relation gamma * partner = out-product + in-product is
    not multiplied out here: the belt proves it with its expansions (by
    one exact division, or relabeled from a relation proved earlier in
    the belt; BipartiteBelt._expansions), and a belt that offers none has
    nothing to multiply.
    """
    out = []
    records = belt._source_records
    for gamma in belt.mutable_ids:
        s, k = belt.entries[gamma].source_pos
        record = records[s].get(k)
        if record is None:
            raise RuntimeError(
                f"belt variable {gamma} has a mutable in-arrow at its source"
            )
        out.append(UVariable(gamma, record.partner, s, k, dict(record.numerator),
                             dict(record.frozen_in), dict(record.vector)))
    return out


class DegenerationRay:
    """The positive curve x_j = t^beta_j at belt step `step`, as t -> 0.

    degeneration_ray picks beta at gamma's source step so that the
    extended exchange matrix sends it to c * e_node, c > 0: every exchange
    relation there stays balanced except gamma's own, whose out-monomial
    vanishes faster than its frozen in-monomial, so u_gamma ~ t^c -> 0.
    The betas of all u-variables sourced at one step come from one
    fraction-free elimination of that step's matrix, not one solve each.
    valuation is the valuation of one ratio along the curve (None until a
    certificate sets it); a negative valuation proves the ratio unbounded.
    BipartiteBelt.valuation_walk(beta, step) gives every variable's.
    """

    __slots__ = ("gamma", "step", "beta", "valuation")

    def __init__(self, gamma, step, beta, valuation=None):
        self.gamma = gamma
        self.step = step
        self.beta = beta
        self.valuation = valuation

    def to_dict(self, belt: BipartiteBelt) -> dict:
        return {
            "gamma": belt.name(self.gamma),
            "step": self.step,
            "beta": list(self.beta),
            "valuation": self.valuation,
        }


def degeneration_ray(belt: BipartiteBelt, gamma: int) -> DegenerationRay:
    """The degeneration curve of gamma's u-variable.

    beta is the primitive integer vector with B beta = c * e_node, c > 0,
    for the extended exchange matrix B of gamma's source step. Every
    u-variable sourced at one step shares one fraction-free elimination
    of [B | I_n], which the belt caches (BipartiteBelt._degenerations).
    Needs e_node in the column span of B, which full rank guarantees;
    raises ValueError otherwise.
    """
    s, node = belt.entries[gamma].source_pos
    beta = belt._degenerations(s)[node]
    if beta is None:
        raise ValueError(
            "extended exchange matrix does not have full rank; "
            "no degeneration ray exists"
        )
    return DegenerationRay(gamma, s, list(beta))


def verify_u_equations(belt: BipartiteBelt, uvars: Sequence[UVariable] | None = None):
    """Check u_gamma + prod_{w != gamma} u_w^(w||gamma) = 1 symbolically.

    Works on any belt that offers Laurent expansions, full rank or not:
    the identity is between explicit Laurent polynomials (on any other
    belt BipartiteBelt.poly raises BeltError). Returns {gamma id: bool}.

    Each u-variable is a monomial x^v in the registry variables (v is
    UVariable.vector, frozen ids included), so the product term is x^w
    with w = sum over omega != gamma of (omega||gamma) * v_omega, summed
    as exponent vectors before any polynomial is formed. The degrees
    (omega||gamma) of one gamma are read off the belt's unit frames in one
    pass (BipartiteBelt._unit_valuations), not one call per pair.

    Most u-variables are decided without a product, from the exchange
    relation at gamma's source position (s, k). The belt proved it with its
    expansions (by one exact division, or relabeled from a relation proved
    earlier in the belt):

        gamma * partner = prod numerator + prod frozen_in,

    with partner, numerator and frozen_in those of the belt's record at
    (s, k) (BipartiteBelt._source_records), whose vector is numerator -
    e_gamma - e_partner. When the u-variable's partner, numerator,
    frozen_in and vector equal the record's, and w telescopes to frozen_in
    - e_gamma - e_partner, then

        x^v + x^w = (prod numerator + prod frozen_in) / (gamma * partner) = 1,

    and gamma's result is True. w telescopes so for every u-variable that
    build_u_variables makes on the catalog types and Grassmannians tried
    (tests/test_uvars.py); where it does not, the products below decide.

    Any other u-variable, a tampered one for instance, is decided by
    exact products. With D = max(0, -v, -w) componentwise, the three
    vectors D + v, D + w and D are nonnegative, and

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
    one = LaurentPolynomial.one(belt.exchange.size)
    polys = [belt.poly(e.id) for e in belt.entries]
    records = belt._source_records
    by_gamma = {u.gamma: u for u in uvars}
    mutable = belt.mutable_ids
    results: dict[int, bool] = {}
    for gamma in mutable:
        u = by_gamma[gamma]
        v = u.vector
        # (omega||gamma) = max(0, -val), read for every omega at once;
        # omega == gamma reads 0
        w: dict[int, int] = {}
        for omega, val in zip(mutable, belt._unit_valuations(gamma, mutable)):
            if val < 0:
                for id, b in by_gamma[omega].vector.items():
                    w[id] = w.get(id, 0) - val * b
        s, k = belt.entries[gamma].source_pos
        record = records[s].get(k)
        if record is not None and (
                gamma, u.partner, u.numerator, u.frozen_in, v) == record:
            telescoped = dict(record.frozen_in)
            for id in (gamma, record.partner):
                telescoped[id] = telescoped.get(id, 0) - 1
            if {id: b for id, b in w.items() if b} == telescoped:
                results[gamma] = True
                continue
        ids = sorted(v.keys() | w.keys())
        d = {id: -min(0, v.get(id, 0), w.get(id, 0)) for id in ids}

        def power(shift):
            return _monomial(polys, [
                (id, b) for id in ids if (b := d[id] + shift.get(id, 0))], one)

        results[gamma] = power(v) + power(w) == power({})
    return results
