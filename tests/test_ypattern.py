"""Coefficient dynamics along the bipartite belt.

Walks a rank 3 type A Y-seed through the first belt steps and pins every
non-monomial value that shows up against a hand-expanded table with one
entry per positive root. Also pins the two y-hat monomials of the
Grassmannian rank 3 seed at its source cluster.
"""

from conftest import GR26_SEED, Seed, YSeed, y_seed_from_cluster

from clustercones.finite_type import BipartiteBelt, DynkinType, catalog_exchange
from clustercones.laurent import LaurentPolynomial
from clustercones.seeds import load_seed_file


def _y_table():
    """Y-values of the rank 3 type A pattern, keyed by positive root."""
    one = LaurentPolynomial.one(3)
    p1 = LaurentPolynomial.variable(3, 0)
    p2 = LaurentPolynomial.variable(3, 1)
    p3 = LaurentPolynomial.variable(3, 2)
    two = one + one
    return {
        (1, 0, 0): (one + p2, p1),
        (0, 0, 1): (one + p2, p3),
        (0, 1, 0): (one + p1 + p3 + p1 * p3, p2),
        (1, 1, 0): (one + p1 + p2 + p3 + p1 * p3, p1 * p2),
        (0, 1, 1): (one + p1 + p2 + p3 + p1 * p3, p2 * p3),
        (1, 1, 1): (
            one + p1 + two * p2 + p3 + p1 * p2 + p1 * p3 + p2 * p3 + p2 * p2,
            p1 * p2 * p3,
        ),
    }


def _walk_snapshots(steps):
    """Y-values at the source nodes of each belt step, read off before mutating.

    Starts from the coefficient seed where each source node carries its own
    coefficient variable and the sink carries the inverse of its own. Values
    come back as unreduced (numerator, denominator) pairs; degrees grow fast
    along the belt, so callers keep the step count small.
    """
    ex = catalog_exchange(DynkinType("A", 3))
    belt = BipartiteBelt(ex)
    one = LaurentPolynomial.one(3)
    init = []
    for k in range(3):
        pk = LaurentPolynomial.variable(3, k)
        init.append((pk, one) if k in belt.steps[0].sources else (one, pk))
    y = YSeed(ex, init)
    out = []
    for s in range(steps):
        for k in belt.steps[s].sources:
            out.append((s, k, y.values[k]))
        for k in belt.steps[s].sources:
            y = y.mutate(k)
    return out


def test_walk_starts_at_plain_coefficients():
    snaps = _walk_snapshots(1)
    one = LaurentPolynomial.one(3)
    p1 = LaurentPolynomial.variable(3, 0)
    p3 = LaurentPolynomial.variable(3, 2)
    assert [(s, k) for s, k, _ in snaps] == [(0, 0), (0, 2)]
    assert snaps[0][2] == (p1, one)
    assert snaps[1][2] == (p3, one)


def test_walk_reproduces_y_table():
    # Five steps suffice: each positive root's value appears exactly once.
    snaps = _walk_snapshots(5)
    table = _y_table()
    seen = []
    for s, k, (num, den) in snaps:
        if num.is_monomial() and den.is_monomial():
            assert s == 0, (s, k)
            continue
        matches = [
            root for root, (en, ed) in table.items() if num * ed == en * den
        ]
        assert len(matches) == 1, (s, k)
        seen.append(matches[0])
    assert sorted(seen) == sorted(table)


def test_grassmannian_source_seed_y_monomials():
    ex = load_seed_file(GR26_SEED)
    ys = y_seed_from_cluster(Seed.initial(ex))
    idx = {name: i for i, name in enumerate(ex.names)}

    def var(name):
        return LaurentPolynomial.variable(ex.size, idx[name])

    num, den = ys.values[idx["P24"]]
    assert num == var("P14") * var("P23")
    assert den == var("P12") * var("P34")

    num, den = ys.values[idx["P15"]]
    assert num == var("P14") * var("P56")
    assert den == var("P16") * var("P45")


def test_walk_values_stay_sink_source_symmetric():
    # The two outer nodes play the same role, so swapping them fixes the walk:
    # values at node 0 and node 2 of each step match under the variable swap.
    snaps = _walk_snapshots(5)
    swap = {0: 2, 1: 1, 2: 0}

    def relabel(poly):
        return {(e[2], e[1], e[0]): c for e, c in poly.terms()}

    by_slot = {(s, k): val for s, k, val in snaps}
    for (s, k), (num, den) in by_slot.items():
        if k == 1:
            continue
        other = by_slot[(s, swap[k])]
        assert relabel(num) == dict(other[0].terms())
        assert relabel(den) == dict(other[1].terms())
