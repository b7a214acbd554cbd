"""u-variable tables, torus weights, degeneration rays, u-equations."""

import random
from fractions import Fraction

import pytest

from conftest import GR26_SEED, ratio_value
from clustercones.finite_type import BipartiteBelt, DynkinType, catalog_exchange
from clustercones.laurent import LaurentPolynomial
from clustercones.linalg import primitive_vector, rank
from clustercones.seeds import (
    _WEIGHTS,
    _laurent_ring,
    _monomial,
    _split,
    load_seed_file,
)
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


def scanned_weights(belt, alpha):
    """Reference torus weights of a symbolic belt: the common alpha-degree
    of each variable's Laurent terms. Raises ValueError when some
    variable's terms disagree, i.e. alpha is outside the exchange kernel."""
    weights = {}
    for entry in belt.entries:
        degrees = {sum((a * e for a, e in zip(alpha, exps)), Fraction(0))
                   for exps, _ in entry.poly.terms()}
        if len(degrees) != 1:
            raise ValueError(f"variable {belt.name(entry.id)} is inhomogeneous")
        (weights[entry.id],) = degrees
    return weights


def test_weight_paths_agree_on_symbolic_belts():
    """weight_table walks the belt; scanning every variable's terms must
    give the same weights on kernel alphas and refuse the same others."""
    rng = random.Random(17)
    inside = outside = 0
    belts = [belt_of(name, frozen=f) for name, f in (
        ("A1", 1), ("A2", 2), ("A3", 3), ("A3", 1), ("A4", 2), ("B2", 2),
        ("B3", 3), ("C2", 2), ("C3", 1), ("D4", 4), ("G2", 2), ("G2", 1),
    )] + [BipartiteBelt(load_seed_file(GR26_SEED))]
    for belt in belts:
        assert belt.symbolic
        size = belt.exchange.size
        basis = belt.exchange.kernel_basis()
        assert basis
        alphas = list(basis)
        for _ in range(3):
            coeffs = [rng.randint(-2, 2) for _ in basis]
            alphas.append([sum(c * v[j] for c, v in zip(coeffs, basis))
                           for j in range(size)])
        alphas += [[int(i == j) for j in range(size)] for i in range(size)]
        alphas += [[rng.randint(-2, 2) for _ in range(size)] for _ in range(6)]
        for alpha in alphas:
            if all(sum(b * a for b, a in zip(row, alpha)) == 0
                   for row in belt.exchange.extended_matrix()):
                inside += 1
                assert weight_table(belt, alpha).weights == scanned_weights(belt, alpha)
            else:
                outside += 1
                with pytest.raises(ValueError):
                    scanned_weights(belt, alpha)
                with pytest.raises(ValueError):
                    weight_table(belt, alpha)
    assert inside > 50 and outside > 100


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
                v = ratio_value(u.vector, values)
                assert 0 < v < 1


def u_valuations(belt, uvars, ray):
    """Valuation of each u-variable along a degeneration ray, by gamma."""
    vals = belt.valuation_walk(ray.beta, ray.step)
    return {u.gamma: sum(e * vals[id] for id, e in u.vector.items())
            for u in uvars}


def test_degeneration_rays_a1_frozen():
    belt = belt_of("A1", frozen=1)
    uvars = build_u_variables(belt)

    # second variable: its source seed has the frozen arrow flipped inward;
    # along f1 = t its u-variable t/(1 + t) has valuation 1, the other
    # u-variable 1/(1 + t) valuation 0
    ray = degeneration_ray(belt, gamma=2)
    assert ray.beta == [0, 1] and ray.step == 1
    assert u_valuations(belt, uvars, ray) == {2: 1, 0: 0}

    ray0 = degeneration_ray(belt, gamma=0)
    assert ray0.beta == [0, -1]
    assert u_valuations(belt, uvars, ray0) == {0: 1, 2: 0}

    d = ray.to_dict(belt)
    assert d == {"gamma": belt.name(2), "step": 1, "beta": [0, 1],
                 "valuation": None}


def test_degeneration_ray_requires_full_rank():
    belt = belt_of("A1")
    with pytest.raises(ValueError):
        degeneration_ray(belt, gamma=0)


def test_degeneration_ray_c2_halving_decay():
    belt = belt_of("C2", frozen=2)
    uvars = build_u_variables(belt)
    ray = degeneration_ray(belt, gamma=0)
    # u_0 decays like t itself (valuation 1: halving t halves it in the
    # limit); every other u-variable tends to a positive constant
    assert u_valuations(belt, uvars, ray) == {
        u.gamma: int(u.gamma == 0) for u in uvars}


def fraction_solve(matrix, rhs):
    """One solution of matrix @ x = rhs with its free entries zero, by
    textbook Gauss-Jordan elimination over Fractions; None if there is
    none."""
    rows = [[Fraction(x) for x in row] + [Fraction(b)]
            for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(rows, pivots):
        x[c] = row[-1]
    return x


def oracle_ray(belt, gamma):
    """beta of gamma's degeneration ray by one Fraction solve of
    B beta = e_node at its source step, scaled to the primitive integer
    multiple of (beta, 1) with positive last entry; None when e_node is
    outside the column span of B."""
    s, node = belt.entries[gamma].source_pos
    n = belt.exchange.n
    beta = fraction_solve(belt.step(s).matrix[:n],
                          [int(i == node) for i in range(n)])
    if beta is None:
        return None
    *beta, scale = primitive_vector(beta + [Fraction(1)])
    return [-b for b in beta] if scale < 0 else beta


@pytest.mark.parametrize("context", ["catalog", "gr26", "gr36", "gr37", "gr38"])
def test_degeneration_rays_match_a_fraction_solve(context, request):
    """One elimination per belt step gives every variable the ray a solve
    per variable gives, and fails exactly where that solve has no
    solution (rank-deficient steps can still reach some nodes)."""
    if context == "catalog":
        belts = [
            BipartiteBelt(catalog_exchange(DynkinType.from_name(name), f),
                          symbolic=False)
            for name, rank_ in (("A1", 1), ("A2", 2), ("A3", 3), ("A4", 4),
                                ("A5", 5), ("B2", 2), ("B3", 3), ("C3", 3),
                                ("D4", 4), ("D5", 5), ("E6", 6), ("F4", 4),
                                ("G2", 2))
            for f in sorted({0, 1, rank_ - 1, rank_})
        ] + [BipartiteBelt(catalog_exchange(DynkinType.from_name(name), f),
                           symbolic=False) for name, f in (("E7", 7), ("E8", 8))]
    else:
        belts = [request.getfixturevalue(context).belt]
    rays = missing = partial = 0
    for belt in belts:
        found = {gamma: oracle_ray(belt, gamma) for gamma in belt.mutable_ids}
        partial += None in found.values() and any(found.values())
        for gamma, want in found.items():
            if want is None:
                missing += 1
                with pytest.raises(ValueError, match="full rank"):
                    degeneration_ray(belt, gamma)
                continue
            rays += 1
            ray = degeneration_ray(belt, gamma)
            assert ray.beta == want, (belt, belt.name(gamma))
            assert ray.step == belt.entries[gamma].source_pos[0]
            assert type(ray.beta) is list
            assert all(type(b) is int for b in ray.beta)
    assert rays
    if context == "catalog":
        assert missing and partial and rays > 800
    else:
        assert not missing


def fraction_weight_walk(belt, alpha):
    """Torus weights by a walk over Fractions only."""
    return belt._walk(_WEIGHTS, [Fraction(a) for a in alpha], 0)


@pytest.mark.parametrize("context", ["catalog", "gr36", "gr38"])
def test_integer_weight_walks_match_fraction_walks(context, request):
    """Integral alphas walk over ints, others over Fractions; both agree
    with an all-Fraction walk, exactly, and refuse the same alphas."""
    rng = random.Random(29)
    if context == "catalog":
        belts = [belt_of(name, frozen=f, symbolic=False) for name, f in (
            ("A3", 1), ("A4", 4), ("B3", 3), ("C3", 2), ("D4", 4),
            ("E6", 6), ("F4", 4), ("G2", 2))]
    else:
        belts = [request.getfixturevalue(context).belt]
    halves = refused = 0
    for belt in belts:
        size = belt.exchange.size
        basis = belt.exchange.kernel_basis()
        alphas = list(basis) + [
            [sum(c * v[j] for c, v in zip(coeffs, basis)) for j in range(size)]
            for coeffs in ([rng.randint(-3, 3) for _ in basis] for _ in range(3))
        ]
        for alpha in alphas:
            ints = belt.weight_walk(alpha)
            assert all(type(w) is int for w in ints.values())
            assert ints == fraction_weight_walk(belt, alpha)
            w = weight_table(belt, alpha)
            assert w.weights == ints
            assert all(type(a) is Fraction for a in w.alpha)
            half = [Fraction(a, 2) for a in alpha]
            if all(a.denominator == 1 for a in half):
                continue
            halves += 1
            got = belt.weight_walk(half)
            assert got == fraction_weight_walk(belt, half)
            assert got == {id: Fraction(v, 2) for id, v in ints.items()}
            assert any(type(v) is Fraction and v.denominator == 2
                       for v in got.values())
        for _ in range(4):
            alpha = [rng.randint(-2, 2) for _ in range(size)]
            if all(sum(b * a for b, a in zip(row, alpha)) == 0
                   for row in belt.exchange.extended_matrix()):
                continue
            refused += 1
            for walk in (belt.weight_walk, lambda a: fraction_weight_walk(belt, a)):
                with pytest.raises(ValueError):
                    walk(alpha)
                with pytest.raises(ValueError):
                    walk([Fraction(a, 2) for a in alpha])
    assert halves and refused


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
