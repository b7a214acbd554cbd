"""U-matrix assembly, membership certificates, double description,
unimodular minors, subtraction-freeness."""

import copy
import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    GR26_SEED,
    dense_lam,
    dense_ratio,
    det_bareiss,
    double_description,
    kernel_weights,
    laurent_ring,
    packed_lanes,
    ring_monomial,
    u_variable_at,
    unimodular_minor_search,
    value_walk,
    weight_walk,
)
from test_linalg import ExactSolver
from clustercones import cones
from clustercones.cones import (
    Certificate,
    NotFullRankError,
    _double_description,
    _verify_chain,
    build_u_matrix,
    membership,
    subset_cone,
    subtraction_free_check,
    verify_certificate,
)
from clustercones import finite_type
from clustercones.finite_type import BipartiteBelt, DynkinType, catalog_exchange
from clustercones.grassmannian import GrassmannianCluster
from clustercones.linalg import (
    primitive_vector,
    rank,
    right_kernel_basis,
    solve,
)
from clustercones.laurent import LaurentPolynomial
from clustercones.seeds import _monomial, load_seed_file
from clustercones.uvars import DegenerationRay, UVariable


def belt_of(name, frozen=0):
    return BipartiteBelt(catalog_exchange(DynkinType.from_name(name), frozen))


def coeff_vec(U, coeffs):
    return {id: c for id, c in zip(U.row_ids, coeffs) if c}


def combine(U, lam):
    """Row-order exponent vector of the u-monomial with powers lam, in
    Fractions if lam holds one and in integers otherwise: the oracle for
    U lam that membership's lemma and the replay's residual are held to."""
    zero = Fraction(0) if Fraction in map(type, lam) else 0
    out = [zero] * U.num_rows
    for l, u in zip(lam, U.uvars):
        if l:
            for id, c in u.vector.items():
                out[U.row_index[id]] += l * c
    return out


def dual_columns(U):
    """The dense columns of the dual basis G by registry id: the lanes of
    U's packed ints that follow the weights under U.kernel."""
    k = len(U.kernel)
    return [lane[k:] for lane in packed_lanes(U)]


def dual_rows(U):
    """The rows g_j of the dual basis G, as {id: valuation} dicts of the
    nonzero entries, read off U's columns of G."""
    return [{id: col[j] for id, col in enumerate(dual_columns(U)) if col[j]}
            for j in range(U.num_cols)]


def one_form(power):
    """Whether a (column, entry) power holds its entry in the one form of
    a lam entry: an int when it is integral, a Fraction otherwise."""
    l = power[1]
    return type(l) is (int if l.denominator == 1 else Fraction)


def pair(valuations, vector):
    """Valuation of the ratio vector given its variables' valuations."""
    return sum(e * valuations.get(id, 0) for id, e in vector.items())


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
    assert dense_lam(cert.powers, U.num_cols) == [Fraction(1), Fraction(0)]
    assert cert.integral

    cert = membership(coeff_vec(U, (-1, -1, 1)), U)
    assert cert.verdict == "bounded"
    assert dense_lam(cert.powers, U.num_cols) == [Fraction(0), Fraction(1)]

    cert = membership(coeff_vec(U, (1, 0, 1)), U)
    assert cert.verdict == "not-weight-zero"
    assert cert.weight != 0

    cert = membership(coeff_vec(U, (1, 1, 0)), U)
    assert cert.verdict == "unbounded"
    assert dense_lam(cert.powers, U.num_cols) == [Fraction(-1), Fraction(0)]
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
    good.powers = ((0, Fraction(1)),)  # tampered evidence
    assert not verify_certificate(U, good)


def test_a1_unimodular_minor():
    U = build_u_matrix(belt_of("A1", frozen=1))
    found = unimodular_minor_search(U.rows)
    assert found is not None
    sub = [U.rows[i] for i in found]
    assert abs(det_bareiss(sub)) == 1


def test_unimodular_search_respects_lattice_index():
    # the rows generate 2Z x 2Z, so no row pair has a unit determinant
    assert unimodular_minor_search([[2, 0], [0, 2], [2, 2]]) is None
    rows = [[2, 1], [1, 1], [4, 3]]
    found = unimodular_minor_search(rows)
    assert found is not None
    assert abs(det_bareiss([rows[i] for i in found])) == 1


def test_c2_counterexample_bounded_with_half_integer_factors():
    belt = belt_of("C2")
    U = build_u_matrix(belt)
    vector = {0: 1, 2: 1, 4: 1, 1: -1, 3: -1, 5: -1}
    cert = membership(vector, U)
    assert cert.verdict == "bounded"
    assert dense_lam(cert.powers, U.num_cols) == [
        Fraction(0), Fraction(1, 2), Fraction(0),
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
    assert sorted(report2.chain) == [(1, 1), (3, 1), (5, 1)]


def test_term_bound_is_at_least_the_term_count_it_bounds():
    # random products of expansions, with exponents up to 3: the bound,
    # read from cached corners and term counts, never undercounts
    rng = random.Random(5)
    for name, frozen in (("A3", 0), ("C2", 0), ("C2", 1), ("B3", 1), ("G2", 2), ("D4", 0)):
        belt = belt_of(name, frozen)
        polys = [belt.poly(e.id) for e in belt.entries]
        one = LaurentPolynomial.one(belt.exchange.size)
        for _ in range(15):
            ids = rng.sample(range(len(polys)), 3)
            terms = [(j, rng.randint(1, 3)) for j in ids]
            assert cones._term_bound(polys, terms) >= _monomial(polys, terms, one).n_terms
        assert cones._term_bound(polys, ()) == 1


@pytest.mark.parametrize("k, kind", [(45, "expansion"), (47, "undecided")])
def test_gap_expansions_above_the_term_limit_are_undecided(k, kind):
    # (x1*x3*x5/(x2*x4*x6))^k on C2: the bound on D - N passes
    # GAP_TERM_LIMIT between k = 45 and 47, and only below it is D - N
    # expanded
    belt = belt_of("C2")
    U = build_u_matrix(belt)
    cert = membership({0: k, 2: k, 4: k, 1: -k, 3: -k, 5: -k}, U)
    report = subtraction_free_check(cert, U)
    assert report.kind == kind
    if kind == "undecided":
        assert str(cones.GAP_TERM_LIMIT) in report.reason
        assert report.positive is report.negative is None and not report.verified
        assert report.subtraction_free is None
    else:
        assert report.subtraction_free is False


def test_gap_expansion_leaving_the_laurent_range_is_undecided(monkeypatch):
    # with the term limit out of the way, x2^9001 leaves the 16-bit
    # exponent fields: the report is undecided, and nothing raises
    monkeypatch.setattr(cones, "GAP_TERM_LIMIT", 10**30)
    belt = belt_of("C2")
    U = build_u_matrix(belt)
    cert = membership({0: 9001, 2: 9001, 4: 9001, 1: -9001, 3: -9001, 5: -9001}, U)
    report = subtraction_free_check(cert, U)
    assert report.kind == "undecided"
    assert report.reason == "the gap expansion's exponents leave the Laurent range"
    assert report.to_dict(belt) == {"kind": "undecided", "verified": False,
                                    "reason": report.reason, "subtraction_free": None}


def test_single_u_variables_are_subtraction_free():
    for belt in (belt_of("C2"), BipartiteBelt(load_seed_file(GR26_SEED))):
        U = build_u_matrix(belt)
        for j, u in enumerate(U.uvars):
            cert = membership(u.vector, U)
            assert cert.verdict == "bounded"
            assert dense_lam(cert.powers, U.num_cols) == [
                Fraction(int(i == j)) for i in range(U.num_cols)]
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
    assert report.chain == [(u0.gamma, 1), (u1.gamma, 1)]


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


def band_width(row):
    """The last nonzero column of a dense row less its first, 0 if none."""
    cols = [j for j, b in enumerate(row) if b]
    return cols[-1] - cols[0] if cols else 0


def subset_rows(g, subset):
    """The equality rows subset_cone feeds double description, in belt
    order: one per variable outside the Pluecker or degree <= 2 subset."""
    U = g.U
    keep = set(g.degree_one_ids() if subset == "pluecker"
               else g.ids_with_degree_at_most(2))
    return [row for id, row in zip(U.row_ids, U.rows) if id not in keep]


@pytest.mark.parametrize("context,subset,shuffles,count", [
    ("gr37", "pluecker", 4, 42),
    ("gr38", "deg2", 3, 168),
    # one seeded shuffle of these 80 rows takes 70-90 ms on a shared
    # 2-vCPU VM (belt order 6-10 ms): two shuffles
    ("gr38", "pluecker", 2, 80),
])
def test_double_description_ignores_row_order(request, context, subset,
                                              shuffles, count):
    # subset_cone feeds the rows narrowest band first, the order with the
    # fewest ray pairs measured on the Gr(3,8) Pluecker rows (see its
    # comment); the order changes the cost, never the rays
    g = request.getfixturevalue(context)
    rows = subset_rows(g, subset)
    want = double_description(rows, g.U.num_cols)
    assert len(want) == count
    orders = [rows[::-1], sorted(rows, key=band_width)]
    rng = random.Random(f"dd-order-{context}-{subset}")
    for _ in range(shuffles):
        order = list(rows)
        rng.shuffle(order)
        orders.append(order)
    for order in orders:
        assert double_description(order, g.U.num_cols) == want


@pytest.mark.parametrize("subset", ["pluecker", "deg2"])
@pytest.mark.parametrize("context", ["gr36", "gr37", "gr38"])
def test_subset_cone_is_the_registry_order_cone(request, monkeypatch,
                                                context, subset):
    # subset_cone feeds the DD its rows narrowest band first; the same
    # rows in registry order give the same rays, powers and ray order
    g = request.getfixturevalue(context)
    U = g.U
    keep = set(g.degree_one_ids() if subset == "pluecker"
               else g.ids_with_degree_at_most(2))
    registry = [row for id, row in zip(U.row_ids, U._sparse_rows)
                if id not in keep]
    fed = []

    def in_registry_order(equalities, dim):
        fed.append(list(equalities))
        return _double_description(registry, dim)

    want = subset_cone(keep, U)
    monkeypatch.setattr(cones, "_double_description", in_registry_order)
    got = subset_cone(keep, U)
    assert fed == [sorted(registry, key=lambda row: row[-1][0] - row[0][0])]
    assert len(got) == len(want) > 0
    assert [(list(r.vector.items()), r.powers) for r in got.rays] == [
        (list(r.vector.items()), r.powers) for r in want.rays]


def test_subset_cone_takes_an_empty_row_of_u():
    # a frozen node without arrows is in no u-variable, so its row of U
    # is empty, of no band width; a subset without it gives the full cone
    seed = {"nodes": [{"name": "a"}, {"name": "b"}, {"name": "f", "frozen": True},
                      {"name": "g", "frozen": True}],
            "arrows": [{"from": "a", "to": "b"}, {"from": "g", "to": "a"}]}
    U = build_u_matrix(BipartiteBelt(load_seed_file(seed)))
    f = U.belt.id_by_name("f")
    assert U._sparse_rows[U.row_index[f]] == []
    full = subset_cone(U.row_ids, U)
    assert len(full) == U.num_cols
    assert subset_cone([id for id in U.row_ids if id != f], U).to_dict()["rays"] == (
        full.to_dict()["rays"])


def test_double_description_is_the_sparse_core_made_dense(gr38):
    # subset_cone hands U's sparse rows to the core and reads its sparse
    # rays; the dense oracle gives the same rays, dense and sorted
    U = gr38.U
    rows = subset_rows(gr38, "deg2")
    keep = set(gr38.ids_with_degree_at_most(2))
    sparse = [row for id, row in zip(U.row_ids, U._sparse_rows) if id not in keep]
    assert sparse == [[(j, b) for j, b in enumerate(row) if b] for row in rows]
    core = _double_description(sparse, U.num_cols)
    dense = double_description(rows, U.num_cols)
    assert sorted(tuple(ray.get(j, 0) for j in range(U.num_cols))
                  for ray in core) == dense
    cone = gr38.degree_filtered_cone(2)
    assert sorted(tuple(j for j, _ in r.powers) for r in cone.rays) == sorted(
        tuple(sorted(ray)) for ray in core)
    with pytest.raises(ValueError, match="wrong length"):
        double_description(rows[:3] + [rows[3][:-1]], U.num_cols)


def dense_double_description(equalities, dim):
    """Double description on a plain list of dense ray tuples, rebuilding
    the per-coordinate bitsets of ray positions for every row that pairs
    rays: the adjacency test of cones._double_description without its
    id-keyed index, kept as its oracle."""
    zeros = (0,) * dim
    rays = [(zeros[:i] + (1,) + zeros[i + 1:], 1 << i, (i,))
            for i in range(dim)]
    for processed, row in enumerate(equalities):
        if len(row) != dim:
            raise ValueError("equality row has wrong length")
        terms = [(c, a) for c, a in enumerate(row) if a]
        row_mask = sum(1 << c for c, _ in terms)
        pos, neg, kept = [], [], []
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
            for i in support:
                nz[i] |= 1 << k
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
                else:
                    support = tuple(sorted(set(sup_p).union(sup_n)))
                    vals = [sp * vn[i] - sn * vp[i] for i in support]
                    g = math.gcd(*vals)
                    vec = [0] * dim
                    for i, v in zip(support, vals):
                        vec[i] = v // g
                    kept.append((tuple(vec), both, support))
        rays = kept
    return sorted(vec for vec, _, _ in rays)


@pytest.mark.parametrize("subset", ["pluecker", "deg2"])
@pytest.mark.parametrize("context", ["gr36", "gr37", "gr38"])
def test_double_description_matches_dense_oracle(request, context, subset):
    g = request.getfixturevalue(context)
    rows = subset_rows(g, subset)
    shuffled = list(rows)
    random.Random(f"dd-dense-{context}-{subset}").shuffle(shuffled)
    for order in (rows, rows[::-1], shuffled):
        assert double_description(order, g.U.num_cols) == (
            dense_double_description(order, g.U.num_cols))


# Rows 1 and 2 leave the simplicial cone on a = e0 + e3, b = e1 + e4 and
# d = e0 + e1 + e2 (e5, where present, stays). Row 3 meets d (and e5) with
# one sign only, so it deletes them and pairs nothing. Row 4 (x3 = x4) pairs
# a with b, and their blocker search reads nz at columns 0 and 3 against 1
# and 4, where d's bits were set, without touching d through its own
# columns. The cone ends as the one ray a + b.
DELETING_ROWS = [
    ([[1, 0, -1, -1, 0], [0, 1, -1, 0, -1], [0, 0, 1, 0, 0],
      [0, 0, 0, 1, -1]], 5, [(1, 1, 0, 1, 1)]),
    ([[1, 0, -1, -1, 0, 0], [0, 1, -1, 0, -1, 0], [0, 0, -2, 0, 0, -1],
      [0, 0, 0, 1, -1, 0]], 6, [(1, 1, 0, 1, 1, 0)]),
    ([[1, 0, -1, -1, 0, 0], [0, 1, -1, 0, -1, 0], [0, 0, 1, 0, 0, 3],
      [0, 0, 0, -1, 1, 0], [1, -1, 0, 0, 0, 0]], 6, [(1, 1, 0, 1, 1, 0)]),
]


@pytest.mark.parametrize("eqs,dim,want", DELETING_ROWS)
def test_rays_deleted_by_a_one_signed_row_leave_the_index(eqs, dim, want):
    d = tuple(int(i < 3) for i in range(dim))
    assert d in double_description(eqs[:2], dim)
    assert double_description(eqs, dim) == rank_test_rays(eqs, dim) == want
    assert dense_double_description(eqs, dim) == want


def test_double_description_empty_cone_and_row_length():
    # each row meets the rays it touches with one sign and deletes them;
    # none is left after the third, and the rows after it change nothing
    rows = [[1, 2, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1], [1, -1, 1, -1]]
    assert double_description(rows[:2], 4) == [(0, 0, 0, 1)]
    for k in (3, 4):
        assert double_description(rows[:k], 4) == rank_test_rays(rows[:k], 4) == []
    with pytest.raises(ValueError):
        double_description([[1, -1, 0], [1, 0]], 3)
    with pytest.raises(ValueError):
        double_description([[1, -1, 0, 0]], 3)


def test_gr37_pluecker_rays_replay_through_membership(gr37):
    U = gr37.U
    cone = subset_cone(gr37.degree_one_ids(), U)
    assert len(cone) == 42
    for r in cone.rays:
        cert = membership(r.vector, U)
        assert cert.verdict == "bounded"
        assert cert.powers == r.powers
        assert all(map(one_form, r.powers))


def test_small_subset_cone_rays_replay_through_membership():
    # subset_cone divides a ray's powers only when the gcd of its ratio
    # vector is above 1; every other ray keeps its lambda-ray's ints. On
    # every subset of 2-4 variables of C2, B2 and G2 each ray's powers are
    # membership's, entry types included; 14 of the 724 rays carry a
    # Fraction, all on 2-variable subsets
    rays = fractional = 0
    for name in ("C2", "B2", "G2"):
        U = build_u_matrix(belt_of(name))
        for size in (2, 3, 4):
            for subset in combinations(U.row_ids, size):
                for r in subset_cone(subset, U).rays:
                    cert = membership(r.vector, U)
                    assert cert.verdict == "bounded"
                    assert [(j, l, type(l)) for j, l in cert.powers] == [
                        (j, l, type(l)) for j, l in r.powers]
                    assert all(map(one_form, r.powers))
                    rays += 1
                    fractional += not cert.integral
    assert (rays, fractional) == (724, 14)


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
        assert all(0 <= j < U.num_cols for j in columns)
        assert all(one_form(p) and p[1] > 0 for p in r.powers)
        lam = dense_lam(r.powers, U.num_cols)
        assert [(j, l) for j, l in enumerate(lam) if l] == list(r.powers)
        assert combine(U, lam) == dense_ratio(U, r.vector)
        assert cone.ray_index[frozenset(r.vector.items())] == i
    assert len(cone.ray_index) == len(cone)
    # a ray holds its powers alone: no dense lam, no column count
    for field in ("lam", "num_cols"):
        with pytest.raises(AttributeError):
            setattr(cone.rays[0], field, ())


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
        got = combine(U, lam)
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
        assert sorted(dense_lam(r.powers, U.num_cols)) == [0, 0, 0, 0, 0, 1]


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
        assert cert.powers == r.powers
    d = cone.to_dict()
    json.dumps(d)
    assert len(d["rays"]) == len(cone.rays)


@pytest.mark.parametrize("name,frozen", [("C2", 2), ("A3", 3), ("D4", 4), ("G2", 2)])
def test_subset_cone_rays_come_in_dense_row_order(name, frozen):
    # the rays are sorted by an int read off their nonzeros; the order
    # must be that of the dense exponent lists, negative entries included
    U = build_u_matrix(belt_of(name, frozen))
    rng = random.Random(f"cone-order-{name}")
    ids = list(U.row_ids)
    negatives = 0
    for size in range(len(ids) // 2, len(ids) + 1):
        cone = subset_cone(rng.sample(ids, size), U)
        dense = [dense_ratio(U, r.vector) for r in cone.rays]
        assert dense == sorted(dense)
        negatives += sum(e < 0 for v in dense for e in v)
    assert negatives


def test_subset_cone_rays_are_extreme_and_primitive():
    belt = belt_of("C2")
    U = build_u_matrix(belt)
    keep = [0, 1, 2, 3, 5]  # drop one variable
    cone = subset_cone(keep, U)
    dense = [dense_ratio(U, r.vector) for r in cone.rays]
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
        values = value_walk(belt, point)
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
    for j, g in enumerate(dual_rows(U)):
        row = [pair(g, u.vector) for u in U.uvars]
        assert row == [U.scales[j] if k == j else 0 for k in range(U.num_cols)]
    oracle = ExactSolver(U.rows)
    rng = random.Random(83)
    for _ in range(50):
        lam = [rng.choice((-2, -1, 0, 0, 0, 1, 3)) for _ in range(U.num_cols)]
        dense = combine(U, lam)
        vector = {id: e for id, e in zip(U.row_ids, dense) if e}
        assert dense_lam(U._solve(vector)[1], U.num_cols) == lam == oracle.solve(dense)
    # off the u-span a nonzero weight refuses, as the oracle does
    refused = 0
    for id in U.row_ids:
        got = dense_lam(U._solve({id: 1})[1], U.num_cols)
        assert got == oracle.solve(dense_ratio(U, {id: 1}))
        refused += got is None
    assert refused > 0


def test_gr38_u_rows_are_built_on_request_only():
    g = GrassmannianCluster(3, 8)
    U = g.U
    g.rotation()
    g.pluecker_cone()
    # neither set-up nor the double description builds a dense row
    assert "rows" not in vars(U)
    assert (U.num_rows, U.num_cols) == (136, 128)
    dense = [[0] * U.num_cols for _ in U.row_ids]
    for j, u in enumerate(U.uvars):
        for id, b in u.vector.items():
            dense[U.row_index[id]][j] += b
    assert U.rows == dense and U.rows is U.rows
    assert sum(1 for row in U.rows for x in row if x) == 488
    assert U._sparse_rows == [[(j, b) for j, b in enumerate(row) if b]
                              for row in dense]


# sha256 of the JSON list of the rows unimodular_minor_search picks from
# U.rows, computed while set-up still filled the dense rows of U
UNIMODULAR_ROWS_GOLDEN = {
    "gr36": (16, "2899fe691879bc3ce0194d775558467d35d9b44319fc175d67eafde1a27f0656"),
    "gr37": (42, "6746ce25aa9fde9163cf210fac8516afbaff17295abbf33082b566106df88976"),
    "gr38": (128, "3ce0ca491e412e8041637b6305c34b132ee27b502ab0803ecb4f9ee1a798fab6"),
}


@pytest.mark.parametrize("context", sorted(UNIMODULAR_ROWS_GOLDEN))
def test_unimodular_minor_search_on_rows_built_on_request(request, context):
    chosen = unimodular_minor_search(u_matrix_of(request, context).rows)
    digest = hashlib.sha256(json.dumps(chosen).encode()).hexdigest()
    assert (len(chosen), digest) == UNIMODULAR_ROWS_GOLDEN[context]


def scalar_columns(belt, rays):
    """valuation_columns from one scalar valuation_walk per ray: the
    oracle for the packed walk."""
    walks = [belt.valuation_walk(beta, step) for beta, step in rays]
    return [[walk[e.id] for walk in walks] for e in belt.entries]


@pytest.mark.parametrize("context", [
    "gr25", "gr26", "gr27", "gr28", "gr36", "gr37", "gr38", "gr47", "gr58",
    "E6+6", "D5+5", "F4+4", "G2+2", "B3+3", "C3+3", "A5+5", "A1+1", "D4+3",
])
def test_packed_dual_columns_match_scalar_walks(request, context):
    U = u_matrix_of(request, context)
    rays = [(ray.beta, ray.step) for ray in U.rays]
    assert dual_columns(U) == scalar_columns(U.belt, rays)


@pytest.fixture()
def lane_widths(monkeypatch):
    """The lane width of every packed walk started while the test runs."""
    widths = []
    packed = finite_type._packed_exchange

    def spy(width, lanes, headroom):
        widths.append(width)
        return packed(width, lanes, headroom)

    monkeypatch.setattr(finite_type, "_packed_exchange", spy)
    return widths


@pytest.mark.parametrize("scale,widths", [
    (1, [16]), (1000, [16, 32]), (-1000, [16, 32]), (2**57, [64, 128]),
])
def test_packed_walk_reruns_wider_when_a_lane_overflows(gr38, lane_widths, scale, widths):
    # Gr(3,8) valuations reach 3 along its rays: scaled by 1000 they leave
    # the 16-bit lanes' range [-2**10, 2**10) mid-walk, and scaled by 2**57
    # the 64-bit lanes', so the walk reruns at twice the width; 128 bits
    # are unpacked without a struct
    belt = gr38.belt
    rays = [([b * scale for b in ray.beta], ray.step) for ray in gr38.U.rays]
    assert belt.valuation_columns(rays) == scalar_columns(belt, rays)
    assert lane_widths == widths


def test_packed_walk_widens_for_large_frozen_multiplicities(lane_widths):
    # an exchange with total exponent 8001 leaves no room in 16-bit lanes
    belt = BipartiteBelt(load_seed_file({
        "nodes": [{"name": "a"}, {"name": "b"},
                  {"name": "f", "frozen": True}, {"name": "g", "frozen": True}],
        "arrows": [{"from": "a", "to": "b"},
                   {"from": "f", "to": "a", "mult": 8000},
                   {"from": "b", "to": "g", "mult": 8191}],
    }))
    U = build_u_matrix(belt)
    assert dual_columns(U) == scalar_columns(belt, [(r.beta, r.step) for r in U.rays])
    assert kernel_weights(U) == [weight_walk(belt, alpha) for alpha in U.kernel]
    # one walk, along the kernel vectors and the rays together
    assert lane_widths == [32]


def test_one_packed_walk_per_u_matrix(gr38, monkeypatch):
    # the weights under U.kernel lead the lanes of the dual-basis walk, so
    # a Gr(3,8) set-up walks its 8 kernel vectors once
    calls = []
    packed_columns = BipartiteBelt._packed_columns

    def spy(belt, rays):
        calls.append(len(rays))
        return packed_columns(belt, rays)

    monkeypatch.setattr(BipartiteBelt, "_packed_columns", spy)
    U = build_u_matrix(gr38.belt, gr38.uvars)
    assert calls == [8 + U.num_cols]
    assert len(U.kernel) == 8


def test_packed_walk_of_no_rays_and_of_a_wrong_beta(gr26):
    belt = gr26.belt
    assert belt.valuation_columns([]) == [[] for _ in belt.entries]
    with pytest.raises(ValueError, match="one exponent per node"):
        belt.valuation_columns([([1], 0)])


# the build-time check of G U = diag(c) and the lemma that rests on it


@pytest.mark.parametrize("lane", ["kernel", "dual"])
def test_a_corrupted_ray_valuation_fails_the_build(gr36, monkeypatch, lane):
    # one variable's lane off by one: under a kernel vector, K u_j is no
    # longer 0 for a u-variable holding it; along the ray of another
    # u-variable, an off-diagonal entry of G U is no longer 0
    belt, uvars = gr36.belt, gr36.uvars
    k = len(gr36.U.kernel)
    j, i = 0, 1
    id = next(iter(uvars[j].vector))
    assert k > 0
    column = 0 if lane == "kernel" else k + i
    packed_columns = BipartiteBelt._packed_columns

    def corrupted(self, rays):
        width, packed = packed_columns(self, rays)
        packed = list(packed)
        packed[id] += 1 << width * (len(rays) - 1 - column)
        return width, packed

    monkeypatch.setattr(BipartiteBelt, "_packed_columns", corrupted)
    with pytest.raises(RuntimeError, match="does not invert U"):
        build_u_matrix(belt, uvars)


def test_kernel_and_u_variables_must_number_the_rows(gr36):
    with pytest.raises(RuntimeError, match="do not number"):
        build_u_matrix(gr36.belt, gr36.uvars[:-1])


def weight_zero_vectors(U, rng, count):
    """count seeded ratio vectors of weight zero under U.kernel: integer
    u-monomials, and, with at most one kernel vector, random small vectors
    (every one of them on a belt without frozen variables, and w' v - w v'
    from two of weights w and w' under the one kernel vector otherwise)."""
    weights = kernel_weights(U)

    def small():
        return {id: rng.choice((-2, -1, 1, 2))
                for id in rng.sample(U.row_ids, rng.randint(1, 4))}

    vectors = []
    while len(vectors) < count:
        if len(weights) > 1 or rng.random() < 0.4:
            lam = [rng.choice((-2, -1, 0, 0, 0, 0, 1, 2)) for _ in U.uvars]
            vector = {id: e for id, e in zip(U.row_ids, combine(U, lam)) if e}
        elif not weights:
            vector = small()
        else:
            v, w = small(), small()
            a, b = pair(weights[0], v), pair(weights[0], w)
            vector = {id: b * v.get(id, 0) - a * w.get(id, 0) for id in {*v, *w}}
            vector = {id: e for id, e in vector.items() if e}
        if vector:
            vectors.append(vector)
    return vectors


@pytest.mark.parametrize("context", ["gr36", "gr38", "C2+0", "B2+0", "G2+0", "G2+1"])
def test_weight_zero_vectors_get_u_lam_exactly(request, context):
    # membership computes no residual: the build-time check of G U =
    # diag(c) makes U lam = v for every ratio v of weight zero, which the
    # oracle confirms here on 200 seeded vectors per context
    U = u_matrix_of(request, context)
    fractional = 0
    for vector in weight_zero_vectors(U, random.Random(307), 200):
        cert = membership(vector, U)
        assert cert.verdict in ("bounded", "unbounded")
        assert all(map(one_form, cert.powers))
        assert combine(U, dense_lam(cert.powers, U.num_cols)) == dense_ratio(U, vector)
        fractional += not cert.integral
    # U's columns are saturated on the Grassmannians, of index 2 on B2 and
    # C2 and of index 3 on G2 (ROADMAP item 8)
    assert fractional == 0 if context.startswith("gr") else fractional > 0


@pytest.mark.parametrize("context", ["gr36", "G2+1", "A1+1"])
def test_unit_vectors_off_the_span_get_no_powers(request, context):
    # a unit vector of nonzero weight is outside the u-span: membership
    # names the weight and holds no powers; one of weight zero is in it
    U = u_matrix_of(request, context)
    weights = kernel_weights(U)
    off = 0
    for id in U.row_ids:
        cert = membership({id: 1}, U)
        if any(w[id] for w in weights):
            assert cert.verdict == "not-weight-zero" and cert.powers is None
            assert U._solve({id: 1})[1] is None
            off += 1
        else:
            assert combine(U, dense_lam(cert.powers, U.num_cols)) == dense_ratio(U, {id: 1})
    assert off > 0


# replay of tampered certificates


def sparse_powers(lam):
    """The powers of a dense lam, as a certificate holds them: its (column,
    entry) pairs less the int and Fraction zeros. An entry of any other
    type is kept, a zero of it included, for the replay to refuse."""
    return tuple((j, l) for j, l in enumerate(lam)
                 if type(l) not in (int, Fraction) or l)


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
    elif kind == "lambda-entry" and out.powers is not None:
        lam = dense_lam(out.powers, U.num_cols)
        lam[rng.randrange(len(lam))] += rng.choice((-1, 1, Fraction(1, 2)))
        out.powers = sparse_powers(lam)
    elif kind == "drop":
        fields = [f for f in ("powers", "ray", "alpha", "weight")
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
        vector = {id: e for id, e in zip(U.row_ids, combine(U, lam)) if e}
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
    for ray, g in zip(U.rays, dual_rows(U)):
        valuation = pair(g, cert.vector)
        cert.ray = DegenerationRay(ray.gamma, ray.step, ray.beta, valuation)
        assert verify_certificate(U, cert) is (valuation < 0)
        signs.add((valuation > 0) - (valuation < 0))
    assert signs == {-1, 0}


# integer membership and replay against Fraction references


def reference_certificate(U, vector):
    """(verdict, lam, ray column, valuation) of a weight-zero vector by the
    Fraction route: the valuations pair each row of G with the vector,
    lam = G vector / c must pass combine, and the least lam_j, first on
    ties, names the ray of an unbounded ratio."""
    nums = [pair(g, vector) for g in dual_rows(U)]
    lam = [Fraction(v, c) for v, c in zip(nums, U.scales)]
    assert combine(U, lam) == dense_ratio(U, vector)
    j = min(range(len(lam)), key=lambda i: lam[i])
    if lam[j] >= 0:
        return "bounded", lam, None, None
    return "unbounded", lam, j, nums[j]


def oracle_vectors(request, context, rng, count):
    """U and seeded weight-zero ratio vectors of both verdicts. On C2 (no
    frozen variables, so every vector has weight zero) they are small
    random vectors and integral U lam for lam >= 0 in halves, so lam has
    halves; on a Grassmannian, products of one to four primitive ratios,
    their inverses, and quotients of two such products."""
    if context == "C2":
        U = build_u_matrix(belt_of("C2"))
        vectors = [
            {id: rng.choice((-2, -1, 1, 2))
             for id in rng.sample(U.row_ids, rng.randint(1, 3))}
            for _ in range(2 * count)
        ]
        while len(vectors) < 3 * count:
            dense = combine(U, [Fraction(rng.randint(0, 3), 2)
                                for _ in range(U.num_cols)])
            if all(e.denominator == 1 for e in dense) and any(dense):
                vectors.append(coeff_vec(U, [int(e) for e in dense]))
        return U, vectors
    grass = request.getfixturevalue(context)
    prims = [p.vector for p in grass.primitive_ratios()]

    def product(sign):
        total = {}
        for v in rng.choices(prims, k=rng.randint(1, 4)):
            for id, e in v.items():
                total[id] = total.get(id, 0) + sign * e
        return total

    vectors = []
    for _ in range(count):
        p, q = product(1), product(-1)
        vectors.append({id: e for id, e in p.items() if e})
        vectors.append({id: -e for id, e in p.items() if e})
        for id, e in q.items():
            p[id] = p.get(id, 0) + e
        if any(p.values()):
            vectors.append({id: e for id, e in p.items() if e})
    return grass.U, vectors


@pytest.mark.parametrize("context", ["C2", "gr36", "gr38"])
def test_membership_matches_the_fraction_reference(request, context):
    rng = random.Random(131)
    U, vectors = oracle_vectors(request, context, rng, 15)
    verdicts = set()
    ties = halves = 0
    for vector in vectors:
        cert = membership(vector, U)
        verdict, lam, j, valuation = reference_certificate(U, vector)
        assert cert.verdict == verdict
        assert dense_lam(cert.powers, U.num_cols) == lam
        assert all(map(one_form, cert.powers))
        if j is None:
            assert cert.ray is None
        else:
            ray = U.rays[j]
            assert (cert.ray.gamma, cert.ray.step, cert.ray.beta,
                    cert.ray.valuation) == (ray.gamma, ray.step, ray.beta,
                                            valuation)
            ties += lam.count(lam[j]) > 1
        assert verify_certificate(U, cert)
        verdicts.add(verdict)
        halves += any(l.denominator == 2 for l in lam)
    assert verdicts == {"bounded", "unbounded"}
    assert ties > 0
    assert halves > 0 if context == "C2" else halves == 0


def _tamper_lam(lam, vector, U, rng):
    """A changed copy of lam and the name of the change."""
    lam = list(lam)
    kind = rng.choice(["non-integral", "sign-flip", "int-entries",
                       "off-support", "off-by-one"])
    nonzero = [j for j, l in enumerate(lam) if l]
    if kind == "non-integral":
        j = rng.randrange(len(lam))
        lam[j] += Fraction(rng.choice((-1, 1)), rng.choice((2, 3, 6)))
    elif kind == "sign-flip":
        if rng.random() < 0.5:
            lam = [-l for l in lam]
        else:
            j = rng.choice(nonzero)
            lam[j] = -lam[j]
    elif kind == "int-entries":
        lam = [int(l) if l.denominator == 1 else l for l in lam]
        if rng.random() < 0.5:
            lam[rng.randrange(len(lam))] += rng.choice((-1, 1))
    elif kind == "off-support":
        # a power on a u-variable that touches no variable of the ratio
        outside = [j for j, u in enumerate(U.uvars)
                   if vector.keys().isdisjoint(u.vector)]
        j = rng.choice(outside or range(len(lam)))  # C2: no such column
        lam[j] += rng.choice((-1, 1, Fraction(1, 2)))
    else:
        lam[rng.choice(nonzero)] += rng.choice((-1, 1))
    return lam, kind


@pytest.mark.parametrize("context", ["C2", "gr36", "gr38"])
def test_integer_replay_agrees_with_the_fraction_check(request, context):
    rng = random.Random(137)
    U, vectors = oracle_vectors(request, context, rng, 6)
    certs = [membership(v, U) for v in vectors]
    accepted = rejected = 0
    kinds = set()
    for trial in range(300):
        cert = copy.deepcopy(rng.choice(certs))
        lam, kind = _tamper_lam(dense_lam(cert.powers, U.num_cols), cert.vector, U, rng)
        cert.powers = sparse_powers(lam)
        lam = dense_lam(cert.powers, U.num_cols)
        kinds.add(kind)
        # the ray is untouched, and valid if there is one, so only lam and
        # the claimed verdict decide; every fourth trial swaps the verdict
        has_ray = cert.ray is not None
        if trial % 4 == 0:
            cert.verdict = "unbounded" if cert.bounded else "bounded"
        want = combine(U, lam) == dense_ratio(U, cert.vector) and (
            min(lam) >= 0 if cert.bounded
            else min(lam) < 0 and has_ray)
        assert verify_certificate(U, cert) is want, kind
        accepted += want
        rejected += not want
    assert len(kinds) == 5
    assert accepted > 0 and rejected > 0
    # a lam entry of any other type fails the replay without raising
    for bad in (1.0, True, "1", None, [1]):
        cert = copy.deepcopy(rng.choice(certs))
        lam = dense_lam(cert.powers, U.num_cols)
        lam[rng.randrange(len(lam))] = bad
        cert.powers = sparse_powers(lam)
        assert verify_certificate(U, cert) is False


# sparse certificates and the packed dual basis


def seeded_ratios(U, rng, count):
    """count products of one to four u-variables each, their inverses,
    and count quotients of two registry variables (most of nonzero
    weight where there are frozen variables)."""
    vectors = []
    for _ in range(count):
        lam = [0] * U.num_cols
        for j in rng.choices(range(U.num_cols), k=rng.randint(1, 4)):
            lam[j] += 1
        vector = {id: e for id, e in zip(U.row_ids, combine(U, lam)) if e}
        vectors += [vector, {id: -e for id, e in vector.items()}]
        a, b = rng.sample(U.row_ids, 2)
        vectors.append({a: 1, b: -1})
    return vectors


@pytest.mark.parametrize("context", ["A3+1", "C2+2", "G2+2", "gr36", "gr37", "gr38"])
def test_sparse_certificates_match_solve_and_the_scalar_weight_loop(request, context):
    U = u_matrix_of(request, context)
    walks = [(alpha, weight_walk(U.belt, alpha)) for alpha in U.kernel]
    verdicts = set()
    for vector in seeded_ratios(U, random.Random(211), 12):
        cert = membership(vector, U)
        verdicts.add(cert.verdict)
        # the first kernel vector with a nonzero weight, found one at a time
        first = next(((alpha, pair(walk, vector)) for alpha, walk in walks
                      if pair(walk, vector)), None)
        if first is not None:
            assert cert.verdict == "not-weight-zero"
            assert (cert.alpha, cert.weight) == first
            assert cert.powers is None and U._solve(vector)[1] is None
            continue
        lam = dense_lam(cert.powers, U.num_cols)
        assert lam == dense_lam(U._solve(vector)[1], U.num_cols)
        assert all(0 <= j < U.num_cols for j, _ in cert.powers)
        assert list(cert.powers) == [(j, l) for j, l in enumerate(lam) if l]
        assert verify_certificate(U, cert)
    assert verdicts == {"bounded", "unbounded", "not-weight-zero"}


@pytest.mark.parametrize("context", ["A1+1", "C2+2", "G2+2", "D4+3", "gr36", "gr38"])
def test_packed_columns_lead_with_the_weights(request, context):
    # the dual columns that follow are checked against scalar walks above
    U = u_matrix_of(request, context)
    k = len(U.kernel)
    walks = [weight_walk(U.belt, alpha) for alpha in U.kernel]
    lanes = packed_lanes(U)
    assert len(lanes) == len(U.belt.entries)
    for id, lane in enumerate(lanes):
        assert lane[:k] == [walk[id] for walk in walks]
    # bound is the least power of two 2**b with every lane in [-2**b, 2**b)
    values = [x for lane in lanes for x in lane]
    assert all(-U.bound <= x < U.bound for x in values)
    assert U.bound == 1 or not all(-U.bound // 2 <= x < U.bound // 2 for x in values)
    assert U.bound < 2 ** (U.width - 1)


@pytest.fixture()
def unpack_widths(monkeypatch):
    """The lane width of every unpacker cones asks for while the test runs."""
    widths = []
    unpacker = cones._lane_unpacker

    def spy(width, lanes):
        widths.append(width)
        return unpacker(width, lanes)

    monkeypatch.setattr(cones, "_lane_unpacker", spy)
    return widths


@pytest.mark.parametrize("power,width", [
    (1, 16), (-1, 16), (10**6, 32), (-10**6, 32), (10**12, 64), (-10**12, 64),
])
def test_large_powers_widen_the_lanes_and_scale_lam_exactly(gr38, unpack_widths, power, width):
    # Gr(3,8) lanes lie in [-4, 4) and a primitive ratio has six exponents
    # of size 1, so 16-bit lanes could wrap from about 10**3 on
    U = gr38.U
    assert (U.width, U.bound) == (16, 4)
    prim = gr38.primitive_ratios()[0].vector
    base = membership(prim if power > 0 else {id: -e for id, e in prim.items()}, U)
    unpack_widths.clear()
    cert = membership({id: power * e for id, e in prim.items()}, U)
    assert unpack_widths[-1] == width
    assert cert.verdict == base.verdict == ("bounded" if power > 0 else "unbounded")
    scale = abs(power)
    assert cert.powers == tuple((j, scale * l) for j, l in base.powers)
    assert dense_lam(cert.powers, U.num_cols) == dense_lam(
        U._solve(cert.vector)[1], U.num_cols)
    if cert.ray is not None:
        assert cert.ray.gamma == base.ray.gamma
        assert cert.ray.valuation == scale * base.ray.valuation
    assert verify_certificate(U, cert)


def test_large_weights_widen_the_lanes_and_name_the_first_functional(unpack_widths):
    # an exchange with total exponent 8001 walks in 32-bit lanes, and the
    # weights reach 8191 there: a ratio to the power 10**9 needs 64 bits
    belt = BipartiteBelt(load_seed_file({
        "nodes": [{"name": "a"}, {"name": "b"},
                  {"name": "f", "frozen": True}, {"name": "g", "frozen": True}],
        "arrows": [{"from": "a", "to": "b"},
                   {"from": "f", "to": "a", "mult": 8000},
                   {"from": "b", "to": "g", "mult": 8191}],
    }))
    U = build_u_matrix(belt)
    assert (U.width, U.bound) == (32, 8192)
    walks = [(alpha, weight_walk(belt, alpha)) for alpha in U.kernel]
    verdicts = set()
    for vector in seeded_ratios(U, random.Random(223), 10):
        for power in (1, 10**9):
            scaled = {id: power * e for id, e in vector.items()}
            unpack_widths.clear()
            cert = membership(scaled, U)
            verdicts.add(cert.verdict)
            assert unpack_widths[-1] == (32 if power == 1 else 64)
            first = next(((alpha, pair(walk, scaled)) for alpha, walk in walks
                          if pair(walk, scaled)), None)
            if first is None:
                assert dense_lam(cert.powers, U.num_cols) == dense_lam(
                    U._solve(scaled)[1], U.num_cols)
                assert verify_certificate(U, cert)
            else:
                assert (cert.verdict, cert.alpha, cert.weight) == (
                    "not-weight-zero", *first)
    assert verdicts == {"bounded", "unbounded", "not-weight-zero"}


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_lam_setter_drops_only_int_and_fraction_zeros(gr36, zero):
    # certificates hold powers alone; a zero power of int or Fraction type
    # changes nothing in the replay (the CLI reader drops it, see
    # test_cli.test_explicit_zero_lambda_entries_replay_as_before)
    U = gr36.U
    vector = U.uvars[3].vector
    cert = membership(vector, U)
    assert cert.powers == ((3, Fraction(1)),)
    explicit = Certificate(vector, "bounded", powers=((0, zero),) + cert.powers)
    assert verify_certificate(U, explicit)
    assert sparse_powers(dense_lam(explicit.powers, U.num_cols)) == cert.powers
    # any other type is refused, a zero of it included
    for bad in (False, 0.0, "0", None, True, 1.0):
        tampered = Certificate(vector, "bounded", powers=((0, bad),) + cert.powers)
        assert verify_certificate(U, tampered) is False
    # a power at a column outside U fails, however its entry reads
    for column in (U.num_cols, -1):
        for entry in (zero, Fraction(1)):
            outside = Certificate(vector, "bounded",
                                  powers=cert.powers + ((column, entry),))
            assert verify_certificate(U, outside) is False
    cert.powers = None
    assert (cert.powers, cert.integral) == (None, None)
    assert verify_certificate(U, cert) is False


@pytest.mark.parametrize("context", ["A1+1", "gr36"])
def test_replay_refuses_powers_off_the_columns_without_raising(request, context):
    # a column must be an int in [0, U.num_cols) and an entry an int or a
    # Fraction; -1 is refused, not read as the last column
    U = u_matrix_of(request, context)
    last = U.uvars[-1].vector
    for vector in (last, {id: -e for id, e in last.items()}):
        cert = membership(vector, U)
        assert verify_certificate(U, cert)
        [(j, l)] = cert.powers
        assert j == U.num_cols - 1
        for pair in [(-1, l), (U.num_cols, l), (True, l), (False, l),
                     (str(j), l), (j, float(l))]:
            tampered = copy.deepcopy(cert)
            tampered.powers = (pair,)
            assert verify_certificate(U, tampered) is False, pair


# the structural chain check against the telescoping identity


def telescopes(ring, values, factors):
    """Q == P + sum_i q_1..q_{i-1} f_i p_{i+1}..p_r over a ring, where
    p_i, q_i, f_i are the out-product, exchange pair and frozen in-product
    of the i-th u-factor, P = prod p_i and Q = prod q_i. Oracle for the
    structural chain check."""
    ps = [ring_monomial(ring, values, u.numerator.items()) for u in factors]
    fs = [ring_monomial(ring, values, u.frozen_in.items()) for u in factors]
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
    ring = laurent_ring(belt.exchange.size)
    polys = [belt.poly(e.id) for e in belt.entries]
    rng = random.Random(37)
    for trial in range(10):
        lam = [0] * U.num_cols
        for j in rng.choices(range(U.num_cols), k=rng.randint(1, 3)):
            lam[j] += 1
        vector = {id: e for id, e in zip(U.row_ids, combine(U, lam)) if e}
        cert = membership(vector, U)
        report = subtraction_free_check(cert, U)
        assert report.kind == "chain" and report.verified
        factors = [u for u, l in zip(U.uvars, dense_lam(cert.powers, U.num_cols))
                   for _ in range(int(l))]
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
            bad = u_variable_at(belt, s, k)
        tampered = factors[:pos] + [bad] + factors[pos + 1:]
        assert not _verify_chain(belt, tampered)
        assert not telescopes(ring, polys, tampered)
        bad_U = copy.copy(U)
        bad_U.uvars = [bad if v is u else v for v in U.uvars]
        assert not subtraction_free_check(cert, bad_U).verified


def test_chain_check_rejects_a_tampered_repeated_factor(gr36):
    # the chain check reads each distinct factor once, so a changed copy
    # of a repeated factor must still be read
    U, belt = gr36.U, gr36.belt
    rng = random.Random(139)
    for _ in range(20):
        lam = [rng.choice((0, 0, 0, 0, 1, 2, 3)) for _ in range(U.num_cols)]
        factors = [u for u, l in zip(U.uvars, lam) for _ in range(l)]
        rng.shuffle(factors)
        assert _verify_chain(belt, factors)
        repeats = [i for i, u in enumerate(factors) if u in factors[:i]]
        pos = rng.choice(repeats)
        u = factors[pos]
        assert _verify_chain(belt, factors[:pos] + [copy.copy(u)]
                             + factors[pos + 1:])
        numerator = dict(u.numerator)
        id = rng.choice(sorted(numerator) or range(len(belt.entries)))
        numerator[id] = numerator.get(id, 0) + 1
        bad = UVariable(u.gamma, u.partner, u.step, u.node, numerator,
                        u.frozen_in, u.vector)
        assert not _verify_chain(belt, factors[:pos] + [bad]
                                 + factors[pos + 1:])


@pytest.mark.parametrize("field", ["numerator", "frozen_in", "vector"])
def test_chain_check_sees_a_u_variable_changed_in_place(field):
    # U's dicts are its own: editing one after set-up leaves the belt's
    # records as they were, so the chain check compares against them
    belt = belt_of("D4", frozen=3)
    U = build_u_matrix(belt)
    assert _verify_chain(belt, U.uvars)
    for j, u in enumerate(U.uvars):
        d = getattr(u, field)
        id = min(d) if d else 0
        d[id] = d.get(id, 0) + 1
        assert not _verify_chain(belt, [u])
        assert not _verify_chain(belt, U.uvars)
        cert = Certificate(u.vector, "bounded", powers=((j, Fraction(1)),))
        assert not subtraction_free_check(cert, U).verified
        d[id] -= 1
        if not d[id]:
            del d[id]
        assert _verify_chain(belt, [u])
    for s, at in enumerate(belt._source_records):
        for k, record in at.items():
            u = u_variable_at(belt, s, k)
            assert record == (u.gamma, u.partner, u.numerator, u.frozen_in, u.vector)


def test_chain_check_reads_steps_modulo_the_period(gr36):
    U, belt = gr36.U, gr36.belt
    for u in U.uvars:
        for shift in (-2, -1, 1, 2):
            moved = copy.copy(u)
            moved.step = u.step + shift * belt.period
            assert _verify_chain(belt, [moved])
        moved = copy.copy(u)
        moved.step = u.step + 1
        assert not _verify_chain(belt, [moved])


@pytest.mark.parametrize("attr, value", [
    ("node", -1), ("node", 8), ("node", 10**6), ("node", "0"), ("node", None),
    ("node", [0]), ("node", 0.0), ("step", "0"), ("step", None), ("step", 0.0),
    ("step", 1.5), ("step", [0]),
])
def test_chain_check_refuses_a_position_without_a_record(gr36, attr, value):
    # a position that holds no record fails the check, and never raises
    U, belt = gr36.U, gr36.belt
    u = U.uvars[0]
    moved = copy.copy(u)
    setattr(moved, attr, value)
    assert not _verify_chain(belt, [moved])
    assert not _verify_chain(belt, U.uvars[1:] + [moved])


def test_chain_check_refuses_every_non_source_position(gr36):
    belt = gr36.belt
    for s in range(belt.period):
        for k in range(belt.exchange.size):
            if k not in belt.step(s).sources:
                assert not _verify_chain(belt, [u_variable_at(belt, s, k)])


@pytest.mark.parametrize("power", [1, 10**3, 10**12])
def test_large_powers_keep_the_chain_as_multiplicities(gr38, power):
    # the chain lists each factor once with its multiplicity, so its size
    # and the check's cost do not grow with the power
    U, belt = gr38.U, gr38.belt
    prim = gr38.primitive_ratios()[0].vector
    base = membership(prim, U)
    cert = membership({id: power * e for id, e in prim.items()}, U)
    report = subtraction_free_check(cert, U)
    assert report.kind == "chain" and report.verified
    assert report.chain == [(U.uvars[j].gamma, power * int(l)) for j, l in base.powers]
    names = report.to_dict(belt)["chain"]
    suffix = "" if power == 1 else f"^{power}"
    assert names == [belt.name(g) + suffix for g, _ in report.chain]


@pytest.mark.parametrize("context", ["C2+0", "C3+3", "G2+2", "D4+3", "gr38"])
def test_least_lambda_is_picked_in_integers_first_on_ties(request, context):
    # lam = -1 at two columns i < j and 1 at a third before them: the
    # least lam_j is a tie, which membership breaks to the first column,
    # whose ray it names with the valuation c_i * -1; where the scales
    # differ (C2, C3, G2), the tie is between different numerators
    U = u_matrix_of(request, context)
    rng = random.Random(context)
    pairs = [(i, j) for i in range(1, U.num_cols) for j in range(i + 1, U.num_cols)]
    unequal = [(i, j) for i, j in pairs if U.scales[i] != U.scales[j]]
    assert bool(unequal) == (context[0] in "CG")
    for i, j in rng.sample(unequal, min(4, len(unequal))) + rng.sample(pairs, 4):
        lam = [0] * U.num_cols
        lam[i] = lam[j] = -1
        lam[rng.randrange(i)] = 1
        cert = membership(coeff_vec(U, combine(U, lam)), U)
        assert cert.verdict == "unbounded" and dense_lam(cert.powers, U.num_cols) == lam
        ray = U.rays[i]
        assert (cert.ray.gamma, cert.ray.step, cert.ray.beta, cert.ray.valuation) == (
            ray.gamma, ray.step, ray.beta, -U.scales[i])
        assert verify_certificate(U, cert)
