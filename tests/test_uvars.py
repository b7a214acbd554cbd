"""u-variable tables, torus weights, degeneration rays, u-equations."""

import random
from fractions import Fraction

import pytest

from conftest import GR26_SEED
from clustercones.finite_type import BipartiteBelt, DynkinType, catalog_exchange
from clustercones.laurent import LaurentPolynomial
from clustercones.linalg import rank
from clustercones.seeds import _laurent_ring, _monomial, _split, load_seed_file
from clustercones.uvars import (
    UVariable,
    build_u_variables,
    degeneration_ray,
    kernel_functionals,
    verify_u_equations,
    weight_table,
)


def cross_multiplied_u_equations(belt, uvars):
    """Reference check: u_gamma = a/b and the product term c/d, with c and
    d the products of the numerators and denominators raised to (w||gamma),
    checked as a*d + c*b == b*d."""
    ring = _laurent_ring(belt.exchange.size)
    polys = [belt.poly(e.id) for e in belt.entries]
    nums, dens = {}, {}
    for u in uvars:
        pos, neg = _split(u.vector.items())
        nums[u.gamma] = _monomial(ring, polys, pos)
        dens[u.gamma] = _monomial(ring, polys, neg)
    results = {}
    for gamma in belt.mutable_ids:
        a, b = nums[gamma], dens[gamma]
        powers = [
            (omega, e)
            for omega in belt.mutable_ids
            if omega != gamma and (e := belt.compatibility_degree(omega, gamma))
        ]
        c = _monomial(ring, nums, powers)
        d = _monomial(ring, dens, powers)
        results[gamma] = (a * d + c * b) == (b * d)
    return results


def belt_of(name, frozen=0, symbolic=None):
    ex = catalog_exchange(DynkinType.from_name(name), frozen)
    return BipartiteBelt(ex, symbolic)


def coeff_vec(belt, coeffs):
    """Ratio dict from coefficients listed in row order."""
    return {id: c for id, c in zip(belt.row_order, coeffs) if c}


def test_c2_u_vectors_match_known_table():
    belt = belt_of("C2")
    uvars = build_u_variables(belt)
    # registry ids 0..5 are the six variables in creation order; each
    # ratio divides the source-seed out-product by the exchange pair
    expected = [
        {0: -1, 1: 1, 2: -1},
        {1: -1, 2: 2, 3: -1},
        {2: -1, 3: 1, 4: -1},
        {3: -1, 4: 2, 5: -1},
        {4: -1, 5: 1, 0: -1},
        {5: -1, 0: 2, 1: -1},
    ]
    assert [u.vector for u in uvars] == expected
    assert all(u.frozen_in == {} for u in uvars)
    # partners pair each variable with the one replacing it two steps on
    assert [(u.gamma, u.partner) for u in uvars] == [
        (0, 2), (1, 3), (2, 4), (3, 5), (4, 0), (5, 1),
    ]


def test_a1_frozen_u_vectors():
    belt = belt_of("A1", frozen=1)
    uvars = build_u_variables(belt)
    # row order is x1, the mutated variable, then f1
    cols = [[u.vector.get(id, 0) for id in belt.row_order] for u in uvars]
    assert cols == [[-1, -1, 0], [-1, -1, 1]]
    assert uvars[0].frozen_in == {1: 1}  # registry id 1 is f1
    assert uvars[1].frozen_in == {}
    assert uvars[1].numerator == {1: 1}


def test_a1_frozen_weight_examples():
    belt = belt_of("A1", frozen=1)
    w = weight_table(belt, (-1, 0))
    assert [w.weights[id] for id in belt.row_order] == [-1, 1, 0]
    assert w.of_vector(coeff_vec(belt, (1, 0, 1))) == -1

    fns = kernel_functionals(belt)
    assert len(fns) == 1

    def weight_zero(coeffs):
        return all(w.of_vector(coeff_vec(belt, coeffs)) == 0 for w in fns)

    assert weight_zero((-1, -1, 0))
    assert weight_zero((-1, -1, 1))
    assert not weight_zero((1, 0, 1))
    # weight zero does not imply bounded: x1 * x_gamma = 1 + f1 grows
    assert weight_zero((1, 1, 0))


def test_weight_table_rejects_non_kernel_vector():
    belt = belt_of("A1", frozen=1)
    with pytest.raises(ValueError):
        weight_table(belt, (1, 1))
    with pytest.raises(ValueError):
        weight_table(belt, (1,))


def test_weight_paths_agree_on_symbolic_belts():
    for belt in (
        belt_of("C2", frozen=2),
        belt_of("A3", frozen=3),
        BipartiteBelt(load_seed_file(GR26_SEED)),
    ):
        basis = belt.exchange.kernel_basis()
        assert basis
        for alpha in basis:
            table = weight_table(belt, alpha).weights
            walked = belt.weight_walk(alpha)
            assert table == walked


def test_u_vectors_weight_zero_and_independent():
    for belt in (
        belt_of("A1", frozen=1),
        belt_of("C2"),
        BipartiteBelt(load_seed_file(GR26_SEED)),
    ):
        uvars = build_u_variables(belt)
        fns = kernel_functionals(belt)
        for u in uvars:
            assert all(w.of_vector(u.vector) == 0 for w in fns), (
                f"u-variable at {belt.name(u.gamma)} has nonzero weight"
            )
        if belt.exchange.is_full_rank():
            rows = [
                [Fraction(u.vector.get(id, 0)) for id in belt.row_order]
                for u in uvars
            ]
            assert rank(rows) == len(uvars)


def test_u_values_land_strictly_inside_unit_interval():
    rng = random.Random(47)
    for belt in (belt_of("C2"), BipartiteBelt(load_seed_file(GR26_SEED))):
        uvars = build_u_variables(belt)
        size = belt.exchange.size
        for _ in range(100):
            point = [
                Fraction(rng.randint(1, 12), rng.randint(1, 12))
                for _ in range(size)
            ]
            values = belt.value_walk(point)
            for u in uvars:
                v = u.value(values)
                assert 0 < v < 1


def test_degeneration_rays_a1_frozen():
    belt = belt_of("A1", frozen=1)
    uvars = build_u_variables(belt)

    # second variable: its source seed has the frozen arrow flipped inward
    ray = degeneration_ray(belt, uvars, gamma=2)
    assert ray.beta == [0, 1] and ray.scale == 1 and ray.step == 1
    assert ray.table[2] == [t / (1 + t) for t in ray.ts]
    assert ray.table[0] == [1 / (1 + t) for t in ray.ts]
    assert ray.gamma_tends_to_zero()
    assert ray.others_bounded_away()

    ray0 = degeneration_ray(belt, uvars, gamma=0)
    assert ray0.beta == [0, -1]
    assert ray0.gamma_tends_to_zero()
    assert ray0.others_bounded_away()

    d = ray.to_dict(belt)
    assert d["gamma"] == belt.name(2)
    assert d["beta"] == [0, 1]
    assert len(d["table"]) == 2


def test_degeneration_ray_requires_full_rank():
    belt = belt_of("A1")
    uvars = build_u_variables(belt)
    with pytest.raises(ValueError):
        degeneration_ray(belt, uvars, gamma=0)


def test_degeneration_ray_c2_halving_decay():
    belt = belt_of("C2", frozen=2)
    uvars = build_u_variables(belt)
    ray = degeneration_ray(belt, uvars, gamma=0)
    vals = ray.table[0]
    assert ray.gamma_tends_to_zero()
    assert ray.others_bounded_away()
    # decay tracks t itself: successive ratios approach 1/2 from above
    for a, b in zip(vals, vals[1:]):
        assert Fraction(2, 5) < b / a < Fraction(2, 3)


def test_u_equations_hold():
    belts = [
        belt_of("A1"),
        belt_of("A1", frozen=1),
        belt_of("A2"),
        belt_of("A3"),
        belt_of("C2"),
        belt_of("D4"),
        BipartiteBelt(load_seed_file(GR26_SEED)),
    ]
    for belt in belts:
        results = verify_u_equations(belt)
        assert len(results) == len(belt.mutable_ids)
        assert all(results.values()), f"u-equation failed on {belt.dynkin}"


def test_exchange_gap_is_the_incoming_frozen_product():
    belt = BipartiteBelt(load_seed_file(GR26_SEED))
    size = belt.exchange.size
    saw_frozen = 0
    for u in build_u_variables(belt):
        outp = LaurentPolynomial.one(size)
        for id, e in u.numerator.items():
            outp = outp * belt.poly(id) ** e
        inp = LaurentPolynomial.one(size)
        for id, e in u.frozen_in.items():
            inp = inp * belt.poly(id) ** e
        saw_frozen += bool(u.frozen_in)
        assert belt.poly(u.gamma) * belt.poly(u.partner) - outp == inp
    assert saw_frozen > 0


def test_u_equations_hold_on_larger_types():
    for name in ("A5", "B3", "C3", "D5", "F4"):
        belt = belt_of(name)
        results = verify_u_equations(belt)
        assert len(results) == len(belt.mutable_ids)
        assert all(results.values()), f"u-equation failed on {name}"


def test_u_equations_match_cross_multiplied_form_on_tampered_vectors():
    rng = random.Random(5)
    contexts = [("A2", 0), ("A3", 0), ("C2", 0), ("G2", 0), ("A1", 1),
                ("A3", 3), ("B3", 0)]
    belts = {c: belt_of(*c) for c in contexts}
    uvars = {c: build_u_variables(belt) for c, belt in belts.items()}
    false_verdicts = frozen_moves = 0
    for _ in range(105):
        context = rng.choice(contexts)
        belt = belts[context]
        tampered = list(uvars[context])
        pos = rng.randrange(len(tampered))
        u = tampered[pos]
        id = rng.randrange(len(belt.entries))
        vector = dict(u.vector)
        vector[id] = vector.get(id, 0) + rng.choice((-1, 1))
        frozen_moves += belt.entries[id].frozen
        tampered[pos] = UVariable(u.gamma, u.partner, u.step, u.node,
                                  u.numerator, u.frozen_in, vector)
        got = verify_u_equations(belt, tampered)
        assert got == cross_multiplied_u_equations(belt, tampered), context
        assert not got[u.gamma]
        false_verdicts += sum(not ok for ok in got.values())
    assert false_verdicts > 105 and frozen_moves > 0
