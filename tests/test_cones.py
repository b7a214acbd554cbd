"""U-matrix assembly, membership certificates, double description,
unimodular minors, subtraction-freeness."""

import copy
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import GR26_SEED
from test_linalg import ExactSolver
from clustercones.cones import (
    NotFullRankError,
    _verify_chain,
    build_u_matrix,
    double_description,
    membership,
    row_lattice_index,
    subset_cone,
    subtraction_free_check,
    unimodular_minor_search,
    verify_certificate,
)
from clustercones.finite_type import BipartiteBelt, DynkinType, catalog_exchange
from clustercones.grassmannian import GrassmannianCluster
from clustercones.linalg import (
    det_bareiss,
    primitive_vector,
    rank,
    right_kernel_basis,
    solve,
)
from clustercones.seeds import _laurent_ring, _monomial, load_seed_file
from clustercones.uvars import DegenerationRay, UVariable, _u_variable_at


def belt_of(name, frozen=0):
    return BipartiteBelt(catalog_exchange(DynkinType.from_name(name), frozen))


def coeff_vec(U, coeffs):
    return {id: c for id, c in zip(U.row_ids, coeffs) if c}


def test_a1_frozen_u_matrix():
    U = build_u_matrix(belt_of("A1", frozen=1))
    assert U.rows == [[-1, -1], [-1, -1], [0, 1]]
    assert U.num_rows == 3 and U.num_cols == 2


def test_u_matrix_requires_full_rank():
    with pytest.raises(NotFullRankError):
        build_u_matrix(belt_of("A3"))


def test_a1_membership_verdicts():
    U = build_u_matrix(belt_of("A1", frozen=1))

    cert = membership(coeff_vec(U, (-1, -1, 0)), U)
    assert cert.verdict == "bounded"
    assert cert.lam == [Fraction(1), Fraction(0)]
    assert cert.integral

    cert = membership(coeff_vec(U, (-1, -1, 1)), U)
    assert cert.verdict == "bounded"
    assert cert.lam == [Fraction(0), Fraction(1)]

    cert = membership(coeff_vec(U, (1, 0, 1)), U)
    assert cert.verdict == "not-weight-zero"
    assert cert.weight != 0

    cert = membership(coeff_vec(U, (1, 1, 0)), U)
    assert cert.verdict == "unbounded"
    assert cert.lam == [Fraction(-1), Fraction(0)]
    assert cert.ray is not None
    # the ratio is x * x' = 1 + f1, which grows like t^-1 along f1 = t^-1
    assert cert.ray.beta == [0, -1] and cert.ray.valuation == -1


def test_certificates_replay_and_serialize():
    U = build_u_matrix(belt_of("A1", frozen=1))
    for coeffs in [(-1, -1, 0), (-1, -1, 1), (1, 0, 1), (1, 1, 0)]:
        cert = membership(coeff_vec(U, coeffs), U)
        assert verify_certificate(U, cert)
        json.dumps(cert.to_dict(U))  # must be plain data

    good = membership(coeff_vec(U, (-1, -1, 1)), U)
    good.lam = [Fraction(1), Fraction(0)]  # tampered evidence
    assert not verify_certificate(U, good)


def test_a1_unimodular_minor():
    U = build_u_matrix(belt_of("A1", frozen=1))
    found = unimodular_minor_search(U.rows)
    assert found is not None
    sub = [U.rows[i] for i in found]
    assert abs(det_bareiss(sub)) == 1


def test_unimodular_search_respects_lattice_index():
    # the rows generate 2Z x 2Z, so no row pair has a unit determinant
    assert row_lattice_index([[2, 0], [0, 2], [2, 2]]) == 4
    assert unimodular_minor_search([[2, 0], [0, 2], [2, 2]]) is None
    rows = [[2, 1], [1, 1], [4, 3]]
    assert row_lattice_index(rows) == 1
    found = unimodular_minor_search(rows)
    assert found is not None
    assert abs(det_bareiss([rows[i] for i in found])) == 1


def test_c2_counterexample_bounded_with_half_integer_factors():
    belt = belt_of("C2")
    U = build_u_matrix(belt)
    vector = {0: 1, 2: 1, 4: 1, 1: -1, 3: -1, 5: -1}
    cert = membership(vector, U)
    assert cert.verdict == "bounded"
    assert cert.lam == [Fraction(0), Fraction(1, 2), Fraction(0),
                        Fraction(1, 2), Fraction(0), Fraction(1, 2)]
    assert not cert.integral
    assert verify_certificate(U, cert)

    report = subtraction_free_check(cert, U)
    assert report.kind == "expansion"
    assert report.scale_integral == 2
    assert report.subtraction_free is False
    # gap polynomial in the initial pair, denominators cleared by x1^2 x2
    assert report.positive == {
        (-2, -1): 1, (0, -1): 2, (2, -1): 1,
        (-2, 0): 2, (0, 0): 2,
        (-2, 1): 1, (0, 1): 1,
    }
    assert report.negative == {
        (-1, -1): -1, (1, -1): -1,
        (-1, 0): -2, (1, 0): -1,
        (-1, 1): -1,
    }

    doubled = {id: 2 * e for id, e in vector.items()}
    cert2 = membership(doubled, U)
    assert cert2.integral
    report2 = subtraction_free_check(cert2, U)
    assert report2.kind == "chain"
    assert report2.verified
    assert report2.subtraction_free is True
    assert sorted(report2.chain) == [1, 3, 5]


def test_single_u_variables_are_subtraction_free():
    for belt in (belt_of("C2"), BipartiteBelt(load_seed_file(GR26_SEED))):
        U = build_u_matrix(belt)
        for j, u in enumerate(U.uvars):
            cert = membership(u.vector, U)
            assert cert.verdict == "bounded"
            assert cert.lam == [Fraction(int(i == j)) for i in range(U.num_cols)]
            report = subtraction_free_check(cert, U)
            assert report.kind == "chain" and report.verified


def test_gr26_product_chains_verify():
    belt = BipartiteBelt(load_seed_file(GR26_SEED))
    U = build_u_matrix(belt)
    u0, u1 = U.uvars[0], U.uvars[4]
    vector = dict(u0.vector)
    for id, e in u1.vector.items():
        vector[id] = vector.get(id, 0) + e
    vector = {id: e for id, e in vector.items() if e}
    cert = membership(vector, U)
    assert cert.verdict == "bounded" and cert.integral
    report = subtraction_free_check(cert, U)
    assert report.kind == "chain" and report.verified
    assert len(report.chain) == 2


def test_double_description_known_cones():
    for rays_of in (double_description, rank_test_rays):
        assert rays_of([[1, -1]], 2) == [(1, 1)]
        assert rays_of([], 3) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert rays_of([[0, 0, 0]], 3) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        # x = y = z collapses to the diagonal
        assert rays_of([[1, -1, 0], [0, 1, -1]], 3) == [(1, 1, 1)]
        assert rays_of([[1, 1]], 2) == []
        # alternating functional pairs each even slot with an odd one
        assert rays_of([[1, -1, 1, -1]], 4) == [
            (0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)]


def rank_test_rays(eqs, dim):
    """Extreme rays by double description with an exact rank test: a
    positive and a negative ray are adjacent iff their common tight
    constraints have rank dim - 2. Oracle for larger dims."""
    rays = {tuple(int(i == j) for j in range(dim)) for i in range(dim)}
    processed = []
    for row in eqs:
        dots = {r: sum(a * x for a, x in zip(row, r)) for r in rays}
        new = {r for r in rays if dots[r] == 0}
        for rp in (r for r in rays if dots[r] > 0):
            for rn in (r for r in rays if dots[r] < 0):
                tight = processed + [
                    [int(i == j) for j in range(dim)]
                    for i in range(dim) if rp[i] == rn[i] == 0
                ]
                if rank(tight) == dim - 2:
                    comb = [dots[rp] * b - dots[rn] * a for a, b in zip(rp, rn)]
                    new.add(primitive_vector(comb))
        rays = new
        processed.append(list(row))
    return sorted(rays)


def brute_force_rays(eqs, dim):
    """All extreme rays by support enumeration; oracle for small dims."""
    if not eqs:
        return sorted(
            tuple(int(i == j) for j in range(dim)) for i in range(dim)
        )
    out = set()
    for size in range(1, dim + 1):
        for support in combinations(range(dim), size):
            rows = [[row[j] for j in support] for row in eqs]
            kern = right_kernel_basis(rows)
            if len(kern) != 1:
                continue
            v = kern[0]
            if all(x > 0 for x in v):
                pass
            elif all(x < 0 for x in v):
                v = tuple(-x for x in v)
            else:
                continue
            full = [0] * dim
            for j, x in zip(support, v):
                full[j] = x
            out.add(tuple(full))
    return sorted(out)


def test_double_description_matches_brute_force():
    rng = random.Random(97)
    for trial in range(200):
        dim = rng.randint(2, 8)
        neq = rng.randint(1, 5)
        eqs = [
            [rng.randint(-3, 3) for _ in range(dim)]
            for _ in range(neq)
        ]
        expected = brute_force_rays(eqs, dim)
        assert double_description(eqs, dim) == expected, (trial, dim, eqs)
        assert rank_test_rays(eqs, dim) == expected, (trial, dim, eqs)


def test_double_description_matches_rank_oracle_on_sparse_degenerate_rows():
    # sparse rows, some repeated and some sums of others (a degenerate
    # arrangement), in dimensions brute force cannot reach
    rng = random.Random(211)
    ranks = set()
    for trial in range(200):
        dim = rng.randint(10, 20)
        target = rng.randint(1, dim - 1)
        eqs = []
        while rank(eqs) < target:
            row = [0] * dim
            for j in rng.sample(range(dim), rng.randint(2, 4)):
                row[j] = rng.choice((-1, 1, 2))
            eqs.append(row)
            if rng.random() < 0.3:
                eqs.append(list(row))
            if len(eqs) > 1 and rng.random() < 0.3:
                a, b = rng.sample(eqs, 2)
                total = [x + y for x, y in zip(a, b)]
                if all(x in (-1, 0, 1, 2) for x in total):
                    eqs.append(total)
        rng.shuffle(eqs)
        ranks.add((dim, rank(eqs)))
        assert double_description(eqs, dim) == rank_test_rays(eqs, dim), (
            trial, dim, eqs)
    assert min(r for _, r in ranks) == 1
    assert any(r == d - 1 for d, r in ranks)


@pytest.mark.parametrize("context,subset,shuffles,count", [
    ("gr37", "pluecker", 4, 42),
    ("gr38", "deg2", 3, 168),
    # seeded shuffles of these 80 rows cost up to 0.6 s each: reversed only
    ("gr38", "pluecker", 0, 80),
])
def test_double_description_ignores_row_order(request, context, subset,
                                              shuffles, count):
    # subset_cone feeds the rows in belt order because it is the cheap
    # one; every other order must still give the same rays
    g = request.getfixturevalue(context)
    U = g.U
    keep = set(g.degree_one_ids() if subset == "pluecker"
               else g.ids_with_degree_at_most(2))
    rows = [row for id, row in zip(U.row_ids, U.rows) if id not in keep]
    want = double_description(rows, U.num_cols)
    assert len(want) == count
    orders = [rows[::-1]]
    rng = random.Random(f"dd-order-{context}-{subset}")
    for _ in range(shuffles):
        order = list(rows)
        rng.shuffle(order)
        orders.append(order)
    for order in orders:
        assert double_description(order, U.num_cols) == want


def test_gr37_pluecker_rays_replay_through_membership(gr37):
    U = gr37.U
    cone = subset_cone(gr37.degree_one_ids(), U)
    assert len(cone) == 42
    for r in cone.rays:
        cert = membership(r.vector, U)
        assert cert.verdict == "bounded"
        assert tuple(cert.lam) == r.lam
        assert all(type(l) is Fraction for l in r.lam)


@pytest.mark.parametrize("context", ["C2", "gr36", "gr38"])
def test_ray_powers_are_the_nonzero_lam_entries(request, context):
    if context == "C2":
        U = build_u_matrix(belt_of("C2"))
        cone = subset_cone([0, 1, 2, 3, 5], U)
    else:
        grass = request.getfixturevalue(context)
        U = grass.U
        cone = grass.degree_filtered_cone(2)
    assert len(cone) > 0
    for i, r in enumerate(cone.rays):
        columns = [j for j, _ in r.powers]
        assert columns == sorted(set(columns))
        assert all(type(l) is Fraction and l > 0 for _, l in r.powers)
        lam = r.lam
        assert len(lam) == U.num_cols == r.num_cols
        assert [(j, l) for j, l in enumerate(lam) if l] == list(r.powers)
        assert U.combine(lam) == U.dense(r.vector)
        assert cone.ray_index[frozenset(r.vector.items())] == i
    assert len(cone.ray_index) == len(cone)
    with pytest.raises(AttributeError):
        cone.rays[0].lam = ()


@pytest.mark.parametrize("context", ["C2", "D4+3", "gr36"])
def test_combine_is_the_dense_product(request, context):
    # D4 needs three frozen variables before U has independent columns
    if context == "gr36":
        U = request.getfixturevalue("gr36").U
    else:
        name, _, frozen = context.partition("+")
        U = build_u_matrix(belt_of(name, frozen=int(frozen or 0)))
    rng = random.Random(67)
    for trial in range(40):
        lam = [rng.choice((0, 0, 1, -2, 3)) for _ in range(U.num_cols)]
        if trial % 2:
            lam = [Fraction(l, rng.randint(1, 6)) for l in lam]
        dense = [sum((l * c for l, c in zip(lam, row)), lam[0] * 0)
                 for row in U.rows]
        got = U.combine(lam)
        assert got == dense
        assert [type(x) for x in got] == [type(x) for x in dense]


def test_subset_cone_of_everything_returns_u_columns():
    belt = belt_of("C2")
    U = build_u_matrix(belt)
    cone = subset_cone(U.row_ids, U)
    assert len(cone) == 6
    vectors = [r.vector for r in cone.rays]
    for u in U.uvars:
        assert u.vector in vectors
    for r in cone.rays:
        assert sorted(r.lam) == [0, 0, 0, 0, 0, 1]


def test_initial_cluster_alone_bounds_nothing():
    # one cluster plus frozens are free positive coordinates, so no
    # nonconstant monomial in them stays bounded
    belt = BipartiteBelt(load_seed_file(GR26_SEED))
    U = build_u_matrix(belt)
    assert len(subset_cone(set(range(belt.exchange.size)), U)) == 0


def test_subset_cone_rays_replay_through_membership():
    belt = BipartiteBelt(load_seed_file(GR26_SEED))
    U = build_u_matrix(belt)
    # drop one derived variable, keep everything else
    keep = set(U.row_ids) - {max(belt.mutable_ids)}
    cone = subset_cone(keep, U)
    assert len(cone) > 0
    for r in cone.rays:
        assert set(r.vector) <= keep
        cert = membership(r.vector, U)
        assert cert.verdict == "bounded"
        assert tuple(cert.lam) == r.lam
    d = cone.to_dict()
    json.dumps(d)
    assert len(d["rays"]) == len(cone.rays)


def test_subset_cone_rays_are_extreme_and_primitive():
    belt = belt_of("C2")
    U = build_u_matrix(belt)
    keep = [0, 1, 2, 3, 5]  # drop one variable
    cone = subset_cone(keep, U)
    dense = [U.dense(r.vector) for r in cone.rays]
    from math import gcd
    for v in dense:
        g = 0
        for x in v:
            g = gcd(g, x)
        assert g == 1
    # no ray is a nonnegative combination of two of the others
    for i, v in enumerate(dense):
        vf = [Fraction(e) for e in v]
        for a, b in combinations([d for j, d in enumerate(dense) if j != i], 2):
            sol = solve([[x, y] for x, y in zip(a, b)], vf)
            assert sol is None or min(sol) < 0


def test_bounded_rays_evaluate_at_most_one():
    rng = random.Random(53)
    belt = BipartiteBelt(load_seed_file(GR26_SEED))
    U = build_u_matrix(belt)
    cone = subset_cone(set(belt.row_order), U)
    size = belt.exchange.size
    for _ in range(20):
        point = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(size)]
        values = belt.value_walk(point)
        for r in cone.rays:
            acc = Fraction(1)
            for id, e in r.vector.items():
                acc *= values[id] ** e
            assert acc <= 1


# the dual basis: G U = diag(c), c > 0


def u_matrix_of(request, context):
    """U of a context named "grKN" or "TYPE+FROZEN"."""
    if context.startswith("gr"):
        if context in ("gr26", "gr36", "gr37", "gr38"):
            return request.getfixturevalue(context).U
        return GrassmannianCluster(int(context[2]), int(context[3])).U
    name, _, frozen = context.partition("+")
    return build_u_matrix(belt_of(name, frozen=int(frozen)))


@pytest.mark.parametrize("context", [
    "gr27", "gr36", "gr37", "gr38", "E8+8", "E6+6", "D5+5", "F4+4",
    "G2+2", "B3+3", "C3+3", "A5+5", "A1+1", "D4+3",
])
def test_dual_basis_inverts_u(request, context):
    # the extreme-ray theorem in computational form: each u-variable's
    # degeneration valuations vanish on every other u-variable and are
    # positive on its own
    U = u_matrix_of(request, context)
    assert all(c > 0 for c in U.scales)
    for j, g in enumerate(U.dual):
        row = [sum(e * g.get(id, 0) for id, e in u.vector.items())
               for u in U.uvars]
        assert row == [U.scales[j] if k == j else 0 for k in range(U.num_cols)]
    oracle = ExactSolver(U.rows)
    rng = random.Random(83)
    for _ in range(50):
        lam = [rng.choice((-2, -1, 0, 0, 0, 1, 3)) for _ in range(U.num_cols)]
        dense = U.combine(lam)
        vector = {id: e for id, e in zip(U.row_ids, dense) if e}
        assert U.solve(vector) == lam == oracle.solve(dense)
    # off the u-span the residual check refuses, as the oracle does
    refused = 0
    for id in U.row_ids:
        got = U.solve({id: 1})
        assert got == oracle.solve(U.dense({id: 1}))
        refused += got is None
    assert refused > 0


# replay of tampered certificates


def _tamper(cert, U, rng):
    """A mutated copy of cert and the name of the mutation, or None when
    the mutation does not apply to this verdict."""
    out = copy.deepcopy(cert)
    ray = out.ray
    kind = rng.choice([
        "valuation-sign", "beta-entry", "beta-length", "beta-non-integer",
        "step-non-integer", "drop", "lambda-entry", "ratio-exponent",
    ])
    if kind == "ratio-exponent":
        id = rng.choice(U.row_ids)
        out.vector[id] = out.vector.get(id, 0) + rng.choice((-1, 1))
        if not out.vector[id]:
            del out.vector[id]
    elif kind == "lambda-entry" and out.lam is not None:
        i = rng.randrange(len(out.lam))
        out.lam[i] += rng.choice((-1, 1, Fraction(1, 2)))
    elif kind == "drop":
        fields = [f for f in ("lam", "ray", "alpha", "weight")
                  if getattr(out, f) is not None]
        if ray is not None:
            fields += ["ray.valuation", "ray.beta", "ray.step"]
        field = rng.choice(fields)
        if field.startswith("ray."):
            setattr(ray, field[4:], None)
        else:
            setattr(out, field, None)
    elif ray is None:
        return None
    elif kind == "valuation-sign":
        ray.valuation = -ray.valuation
    elif kind == "beta-entry":
        ray.beta[rng.randrange(len(ray.beta))] += rng.choice((-1, 1))
    elif kind == "beta-length":
        ray.beta = ray.beta[:-1] if rng.random() < 0.5 else ray.beta + [0]
    elif kind == "beta-non-integer":
        ray.beta[rng.randrange(len(ray.beta))] = rng.choice(
            (Fraction(1, 2), 0.5, "1", True))
    elif kind == "step-non-integer":
        ray.step = rng.choice((ray.step + 0.5, str(ray.step), None))
    else:
        return None
    return out, kind


@pytest.mark.parametrize("context", ["A1+1", "C2+2", "G2+2", "gr36"])
def test_tampered_certificates_never_raise_and_never_lie(request, context):
    U = u_matrix_of(request, context)
    rng = random.Random(29)
    certs = []
    for _ in range(12):
        lam = [rng.choice((-1, 0, 0, 1, 2)) for _ in range(U.num_cols)]
        vector = {id: e for id, e in zip(U.row_ids, U.combine(lam)) if e}
        if vector:
            certs.append(membership(vector, U))
    for _ in range(6):
        vector = {id: rng.choice((-1, 1)) for id in rng.sample(U.row_ids, 2)}
        certs.append(membership(vector, U))
    assert {c.verdict for c in certs} == {
        "bounded", "unbounded", "not-weight-zero"}
    assert all(verify_certificate(U, c) for c in certs)
    rejected = accepted = 0
    kinds = set()
    while rejected + accepted < 300:
        got = _tamper(rng.choice(certs), U, rng)
        if got is None:
            continue
        tampered, kind = got
        kinds.add(kind)
        ok = verify_certificate(U, tampered)
        assert ok is True or ok is False, kind
        if ok:
            # a certificate that still replays is still a proof
            assert membership(tampered.vector, U).verdict == tampered.verdict
            accepted += 1
        else:
            rejected += 1
    assert len(kinds) == 8
    assert rejected > 250


def test_unbounded_replay_needs_a_negative_valuation(gr36):
    # every u-variable's ray with the ratio's true valuation along it: the
    # certificate replays exactly when that valuation is negative
    U = gr36.U
    vector = {id: -e for id, e in U.uvars[0].vector.items()}
    for id, e in U.uvars[5].vector.items():
        vector[id] = vector.get(id, 0) - e
    cert = membership({id: e for id, e in vector.items() if e}, U)
    assert cert.verdict == "unbounded"
    signs = set()
    for ray, g in zip(U.rays, U.dual):
        valuation = sum(e * g.get(id, 0) for id, e in cert.vector.items())
        cert.ray = DegenerationRay(ray.gamma, ray.step, ray.beta, valuation)
        assert verify_certificate(U, cert) is (valuation < 0)
        signs.add((valuation > 0) - (valuation < 0))
    assert signs == {-1, 0}


# the structural chain check against the telescoping identity


def telescopes(ring, values, factors):
    """Q == P + sum_i q_1..q_{i-1} f_i p_{i+1}..p_r over a ring, where
    p_i, q_i, f_i are the out-product, exchange pair and frozen in-product
    of the i-th u-factor, P = prod p_i and Q = prod q_i. Oracle for the
    structural chain check."""
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


@pytest.mark.parametrize("context", ["A3+3", "C2+2", "D4+3", "G2+2"])
def test_structural_chain_check_matches_telescoping_identity(context):
    name, _, frozen = context.partition("+")
    belt = belt_of(name, frozen=int(frozen))
    U = build_u_matrix(belt)
    ring = _laurent_ring(belt.exchange.size)
    polys = [belt.poly(e.id) for e in belt.entries]
    rng = random.Random(37)
    for trial in range(10):
        lam = [0] * U.num_cols
        for j in rng.choices(range(U.num_cols), k=rng.randint(1, 3)):
            lam[j] += 1
        vector = {id: e for id, e in zip(U.row_ids, U.combine(lam)) if e}
        cert = membership(vector, U)
        report = subtraction_free_check(cert, U)
        assert report.kind == "chain" and report.verified
        factors = [u for u, l in zip(U.uvars, cert.lam) for _ in range(int(l))]
        assert telescopes(ring, polys, factors)

        # one tampered u-factor fails both checks and the report
        pos = rng.randrange(len(factors))
        u = factors[pos]
        numerator, partner = dict(u.numerator), u.partner
        if trial % 3 == 0:
            id = rng.choice(sorted(numerator) or range(len(belt.entries)))
            numerator[id] = numerator.get(id, 0) + 1
        elif trial % 3 == 1:
            partner = rng.choice(
                [id for id in range(len(belt.entries)) if id != partner])
        if trial % 3 < 2:
            bad = UVariable(u.gamma, partner, u.step, u.node, numerator,
                            u.frozen_in, u.vector)
        else:
            # read off a node that is not mutated at its step: the
            # variable there is its own "partner"
            s = rng.randrange(belt.period)
            k = rng.choice([k for k in range(belt.exchange.n)
                            if k not in belt.step(s).sources])
            bad = _u_variable_at(belt, s, k)
        tampered = factors[:pos] + [bad] + factors[pos + 1:]
        assert not _verify_chain(belt, tampered)
        assert not telescopes(ring, polys, tampered)
        bad_U = copy.copy(U)
        bad_U.uvars = [bad if v is u else v for v in U.uvars]
        assert not subtraction_free_check(cert, bad_U).verified
