"""U-matrix assembly, membership certificates, double description,
unimodular minors, subtraction-freeness."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import GR26_SEED
from clustercones.cones import (
    NotFullRankError,
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
from clustercones.linalg import (
    det_bareiss,
    primitive_vector,
    rank,
    right_kernel_basis,
    solve,
)
from clustercones.seeds import load_seed_file


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
    # the ratio is x * x' = 1 + f1, growing along the ray
    assert all(a < b for a, b in zip(cert.input_values, cert.input_values[1:]))


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
