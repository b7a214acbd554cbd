"""End-to-end checklist for the headline computations.

Each test covers one numbered criterion and prints a
`[criterion NN] <name>: PASS|FAIL (<seconds>)` line on the real stdout,
so a full run doubles as a report. Criteria with wall-clock budgets fail
when the work finishes over budget. Reference tables are restated inline
except for the two large transcribed figures, which are shared with the
unit suites.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import (
    GR26_SEED,
    GR37_ORBIT_TABLE,
    Seed,
    compatibility_degree,
    dense_lam,
    det_bareiss,
    double_description,
    mutate_exchange,
    unimodular_minor_search,
    value_walk,
    y_seed_from_cluster,
)
from test_cones import brute_force_rays, rank_test_rays
from test_grassmannian import (
    GR36_EXCERPT_COLUMNS,
    GR36_EXCERPT_ROWS,
    GR36_RAY_FIGURE,
    staircase_matrix,
    uvec,
)
from test_seeds import _random_exchange, y_value_equal

from clustercones.cones import (
    build_u_matrix,
    membership,
    subset_cone,
    subtraction_free_check,
    verify_certificate,
)
from clustercones.expressions import parse_ratio
from clustercones.finite_type import BipartiteBelt, DynkinType, catalog_exchange
from clustercones.grassmannian import (
    GrassmannianCluster,
    check_ray_table,
    load_ray_table,
    packaged_table,
    verify_gr48_table,
)
from clustercones.laurent import LaurentPolynomial
from clustercones.seeds import ExchangeData, load_seed_file
from clustercones.uvars import build_u_variables, verify_u_equations


def _verdict(number, name, verdict, elapsed):
    print(
        f"[criterion {number:>2}] {name}: {verdict} ({elapsed:.2f}s)",
        file=sys.__stdout__,
        flush=True,
    )


@contextmanager
def criterion(number, name, budget=None):
    """Time one checklist item and print its verdict line.

    The line goes to the unbuffered real stdout so it appears under
    capture. A budget turns slow success into failure.
    """
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _verdict(number, name, "FAIL", time.perf_counter() - start)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        _verdict(number, name, "FAIL", elapsed)
        raise AssertionError(
            f"criterion {number} finished in {elapsed:.2f}s, "
            f"over the {budget:.0f}s budget"
        )
    _verdict(number, name, "PASS", elapsed)


# Grassmannian structures are built inside the first criterion that needs
# them, so construction time lands in that criterion's clock.
_GRASS = {}


def grass(k, n):
    key = (k, n)
    if key not in _GRASS:
        _GRASS[key] = GrassmannianCluster(k, n)
    return _GRASS[key]


def catalog_belt(name, frozen=0):
    return BipartiteBelt(catalog_exchange(DynkinType.from_name(name), frozen))


def _unit_skew(rng, n=3):
    """Random skew-symmetric matrix with single arrows only."""
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b = rng.choice((-1, 0, 1))
            mat[i][j] = b
            mat[j][i] = -b
    return tuple(tuple(row) for row in mat)


def test_criterion_01():
    """Rank 3 type A belt: 6 seeds, 9 variables, exact expansions."""
    with criterion(1, "A3 belt golden table", budget=1.0):
        belt = catalog_belt("A3")
        assert belt.seed_count == 6
        assert len(belt.mutable_ids) == 9
        one = LaurentPolynomial.one(3)
        x1 = LaurentPolynomial.variable(3, 0)
        x2 = LaurentPolynomial.variable(3, 1)
        x3 = LaurentPolynomial.variable(3, 2)
        two = one + one
        # keyed by denominator vector; entries are (numerator, denominator)
        table = {
            (-1, 0, 0): (x1, one),
            (0, -1, 0): (x2, one),
            (0, 0, -1): (x3, one),
            (1, 0, 0): (one + x2, x1),
            (0, 0, 1): (one + x2, x3),
            (0, 1, 0): (one + x1 * x3, x2),
            (1, 1, 0): (one + x2 + x1 * x3, x1 * x2),
            (0, 1, 1): (one + x2 + x1 * x3, x2 * x3),
            (1, 1, 1): (one + two * x2 + x2 * x2 + x1 * x3, x1 * x2 * x3),
        }
        seen = set()
        for id in belt.mutable_ids:
            d = belt.dvector(id)
            assert d in table and d not in seen, d
            seen.add(d)
            num, den = table[d]
            assert belt.poly(id) * den == num, d
        assert seen == set(table)


def test_criterion_02():
    """Rank 2 type C: variables, u-ratios, compatibility degrees."""
    with criterion(2, "C2 golden table and compatibility degrees", budget=1.0):
        belt = catalog_belt("C2")
        ids = belt.mutable_ids
        assert len(ids) == 6
        one = LaurentPolynomial.one(2)
        x1 = LaurentPolynomial.variable(2, 0)
        x2 = LaurentPolynomial.variable(2, 1)
        table = [
            (x1, one),
            (x2, one),
            (one + x2, x1),
            ((one + x2) * (one + x2) + x1 * x1, x1 * x1 * x2),
            (one + x2 + x1 * x1, x1 * x2),
            (one + x1 * x1, x2),
        ]
        for id, (num, den) in zip(ids, table):
            assert belt.poly(id) * den == num

        # v_i in cyclic order: x2/(x1*x3), x3^2/(x2*x4), x4/(x3*x5),
        # x5^2/(x4*x6), x6/(x5*x1), x1^2/(x6*x2)
        uvars = build_u_variables(belt)
        assert len(uvars) == 6
        got = {u.gamma: u.vector for u in uvars}
        want = {}
        for t in range(6):
            left, mid, right = ids[t], ids[(t + 1) % 6], ids[(t + 2) % 6]
            power = 1 if t % 2 == 0 else 2
            want[left] = {left: -1, mid: power, right: -1}
        assert got == want

        degs = [compatibility_degree(belt, ids[0], w) for w in ids[1:]]
        assert degs == [0, 1, 2, 1, 0]
        assert compatibility_degree(belt, ids[3], ids[0]) == 1
        assert compatibility_degree(belt, ids[0], ids[3]) == 2


def test_criterion_03():
    """One frozen attachment on a single node: matrix, verdicts, minor."""
    with criterion(3, "A1 one-frozen matrix and verdicts"):
        U = build_u_matrix(catalog_belt("A1", frozen=1))
        assert U.rows == [[-1, -1], [-1, -1], [0, 1]]

        def vec(coeffs):
            return {id: c for id, c in zip(U.row_ids, coeffs) if c}

        verdicts = []
        for coeffs in [(-1, -1, 0), (-1, -1, 1), (1, 0, 1), (1, 1, 0)]:
            cert = membership(vec(coeffs), U)
            verdicts.append(cert.verdict)
            assert verify_certificate(U, cert)
        assert verdicts == [
            "bounded", "bounded", "not-weight-zero", "unbounded",
        ]

        found = unimodular_minor_search(U.rows)
        assert found is not None
        assert det_bareiss([U.rows[i] for i in found]) == -1


def test_criterion_04():
    with criterion(4, "u-equation identities A1 A2 A3 C2 D4", budget=30.0):
        for name in ("A1", "A2", "A3", "C2", "D4"):
            checks = verify_u_equations(catalog_belt(name))
            assert checks and all(checks.values()), name


def test_criterion_05():
    """Gr(3,6): full cone figure, minor-only cone, quadratic-row excerpt."""
    with criterion(5, "Gr(3,6) cones and exponent rows", budget=120.0):
        g = grass(3, 6)
        cone = g.full_cone()
        assert len(cone.rays) == 16
        figure = set()
        for gamma, expr in GR36_RAY_FIGURE:
            vec = parse_ratio(expr, g.belt.id_by_name)
            assert vec == uvec(g, gamma), gamma
            figure.add(frozenset(vec.items()))
        assert {frozenset(r.vector.items()) for r in cone.rays} == figure

        pcone = g.pluecker_cone()
        assert len(pcone.rays) == 18
        prims = {frozenset(p.vector.items()) for p in g.primitive_ratios()}
        assert {frozenset(r.vector.items()) for r in pcone.rays} == prims

        U = g.U
        col = {g.name(u.gamma): t for t, u in enumerate(U.uvars)}
        for name, want in GR36_EXCERPT_ROWS.items():
            row = U.rows[U.row_index[g.belt.id_by_name(name)]]
            assert [row[col[c]] for c in GR36_EXCERPT_COLUMNS] == want


def test_criterion_06():
    with criterion(6, "Gr(3,7) minor-cone orbits and factorizations",
                   budget=600.0):
        g = grass(3, 7)
        cone = g.pluecker_cone()
        assert len(cone.rays) == 42
        orbits = g.ray_orbits(cone)
        assert sorted(len(o) for o in orbits) == [7] * 6
        rows = load_ray_table(GR37_ORBIT_TABLE)["pluecker"]
        assert len(rows) == 6
        # raises if any stated factorization fails to multiply back
        _, ray_rows = check_ray_table(g, rows, cone)
        owner = {i: t for t, orbit in enumerate(orbits) for i in orbit}
        assert sorted(owner[i] for i in ray_rows) == list(range(6))


def test_criterion_07():
    with criterion(7, "Gr(3,8) cones and stored ray tables", budget=7200.0):
        g = grass(3, 8)
        pcone = g.pluecker_cone()
        assert len(pcone.rays) == 80
        orbits = g.ray_orbits(pcone)
        assert sorted(len(o) for o in orbits) == [8] * 10

        dcone = g.degree_filtered_cone(2)
        assert len(dcone.rays) == 168
        uvectors = {frozenset(u.vector.items()) for u in g.uvars}
        n = g.U.num_cols
        singles = [r for r in dcone.rays if sum(dense_lam(r.powers, n)) == 1]
        composite = [r for r in dcone.rays if sum(dense_lam(r.powers, n)) > 1]
        assert len(singles) == 56 and len(composite) == 112
        for ray in singles:
            assert frozenset(ray.vector.items()) in uvectors

        tables = load_ray_table(packaged_table("gr38_appendix.txt"))
        _, prows = check_ray_table(g, tables["pluecker"], pcone)
        owner = {i: t for t, orbit in enumerate(orbits) for i in orbit}
        assert sorted(owner[i] for i in prows) == list(range(10))

        _, drows = check_ray_table(g, tables["degree2"], dcone)
        dorbits = g.ray_orbits(dcone)
        downer = {i: t for t, orbit in enumerate(dorbits) for i in orbit}
        composite_orbits = {
            t for t, orbit in enumerate(dorbits)
            if sum(dense_lam(dcone.rays[orbit[0]].powers, n)) > 1
        }
        assert len(composite_orbits) == 14
        assert {downer[i] for i in drows} == composite_orbits


def test_criterion_08():
    """Integer factorization guarantees: unit minors, staircase rows."""
    with criterion(8, "unimodular minors and the k=2 staircase"):
        for k, n in [(3, 6), (3, 7), (3, 8)]:
            U = grass(k, n).U
            chosen = unimodular_minor_search(U.rows)
            assert chosen is not None, (k, n)
            assert abs(det_bareiss([U.rows[i] for i in chosen])) == 1
        for n in range(5, 11):
            g = GrassmannianCluster(2, n)
            rows, cols, M = staircase_matrix(g)
            assert len(rows) == len(cols) == len(g.uvars)
            assert abs(det_bareiss(M)) == 1


def test_criterion_09():
    """The bounded but not subtraction-free ratio in rank 2 type C."""
    with criterion(9, "C2 bounded ratio with signed expansion"):
        belt = catalog_belt("C2")
        U = build_u_matrix(belt)
        ids = belt.mutable_ids
        vector = {
            ids[0]: 1, ids[2]: 1, ids[4]: 1,
            ids[1]: -1, ids[3]: -1, ids[5]: -1,
        }
        cert = membership(vector, U)
        assert cert.verdict == "bounded"
        assert not cert.integral
        half = Fraction(1, 2)
        lam_of = {u.gamma: l for u, l in zip(U.uvars, dense_lam(cert.powers, U.num_cols))}
        assert lam_of == {
            ids[0]: 0, ids[1]: half, ids[2]: 0,
            ids[3]: half, ids[4]: 0, ids[5]: half,
        }
        assert verify_certificate(U, cert)

        # x2*x4*x6 - x1*x3*x5 in the initial cluster, signed blocks kept
        report = subtraction_free_check(cert, U)
        assert report.kind == "expansion" and report.verified
        assert report.scale_integral == 2
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
        assert report.subtraction_free is False


def test_criterion_10():
    with criterion(10, "Gr(4,8) ratio table at positive points", budget=600.0):
        report = verify_gr48_table(points=1000, seed=97)
        assert report.num_ratios == 19
        assert report.num_images == 316
        assert report.num_points == 1000
        assert report.weight_zero and report.all_bounded
        assert report.strictly_below_one


def test_criterion_11():
    """Randomized suites: involutions, exact division, intertwining,
    ray enumeration against brute force, certificate replay, and ray
    values at positive points."""
    with criterion(11, "randomized property suites"):
        # mutation is an involution on exchange data and y-seeds
        rng = random.Random(41)
        for _ in range(50):
            mat = _random_exchange(rng)
            n = len(mat)
            ex = ExchangeData(n, 0, mat)
            k = rng.randrange(n)
            assert mutate_exchange(mutate_exchange(ex, k), k).matrix == ex.matrix
            y = y_seed_from_cluster(Seed.initial(ex))
            back = y.mutate(k).mutate(k)
            assert back.exchange.matrix == ex.matrix
            for i in range(n):
                assert y_value_equal(y, i, back.values[i])

        # every division along depth-8 random-direction walks is exact;
        # wild weighted quivers blow up doubly exponentially well before
        # depth 8, so the instances span finite, affine and weighted
        # classes whose expansions stay small enough to multiply exactly
        rng = random.Random(43)
        unit_cycle = ExchangeData(3, 0, ((0, 1, -1), (-1, 0, 1), (1, -1, 0)))
        affine_square = ExchangeData(4, 0, (
            (0, 1, 0, 1), (-1, 0, -1, 0), (0, 1, 0, 1), (-1, 0, -1, 0),
        ))
        kronecker = ExchangeData(2, 0, ((0, 2), (-2, 0)))
        pool = [
            catalog_exchange(DynkinType("A", 3)),
            catalog_exchange(DynkinType("D", 4)),
            catalog_exchange(DynkinType("C", 3)),
            unit_cycle,
            affine_square,
            kronecker,
        ]
        for _ in range(3):
            pool.append(ExchangeData(3, 0, _unit_skew(rng)))
        for ex in pool:
            for _ in range(2):
                seed = Seed.initial(ex)
                for _ in range(8):
                    seed = seed.mutate(rng.randrange(ex.n))
                assert all(bool(c) for c in seed.cluster)

        # y-values of a mutated seed equal the mutated y-values, depth 6
        rng = random.Random(47)
        cases = [
            catalog_exchange(DynkinType("C", 2)),
            catalog_exchange(DynkinType("A", 3)),
            unit_cycle,
            affine_square,
            kronecker,
        ]
        for _ in range(3):
            cases.append(ExchangeData(3, 0, _unit_skew(rng)))
        for ex in cases:
            seed = Seed.initial(ex)
            for _ in range(6):
                k = rng.randrange(ex.n)
                mutated = seed.mutate(k)
                lhs = y_seed_from_cluster(mutated)
                rhs = y_seed_from_cluster(seed).mutate(k)
                assert lhs.exchange.matrix == rhs.exchange.matrix
                for i in range(ex.n):
                    assert y_value_equal(lhs, i, rhs.values[i])
                seed = mutated

        # ray enumeration agrees with support enumeration, 200 instances
        rng = random.Random(97)
        for trial in range(200):
            dim = rng.randint(2, 8)
            neq = rng.randint(1, 5)
            eqs = [
                [rng.randint(-3, 3) for _ in range(dim)]
                for _ in range(neq)
            ]
            expected = brute_force_rays(eqs, dim)
            assert double_description(eqs, dim) == expected
            assert rank_test_rays(eqs, dim) == expected

        # every certificate emitted here replays
        rng = random.Random(59)
        umats = [
            build_u_matrix(catalog_belt("A1", frozen=1)),
            build_u_matrix(catalog_belt("C2")),
            build_u_matrix(BipartiteBelt(load_seed_file(GR26_SEED))),
        ]
        for U in umats:
            certs = [membership(u.vector, U) for u in U.uvars]
            for _ in range(12):
                vector = {}
                for u in U.uvars:
                    l = rng.randint(0, 2)
                    for id, e in u.vector.items():
                        vector[id] = vector.get(id, 0) + l * e
                vector = {id: e for id, e in vector.items() if e}
                if vector:
                    certs.append(membership(vector, U))
            for _ in range(12):
                picked = rng.sample(U.row_ids, 3)
                vector = {id: rng.randint(-2, 2) for id in picked}
                vector = {id: e for id, e in vector.items() if e}
                if vector:
                    certs.append(membership(vector, U))
            assert sum(1 for c in certs if c.bounded) >= len(U.uvars)
            for cert in certs:
                assert verify_certificate(U, cert)

        # every extreme ray emitted here stays at most 1 at 100 points
        rng = random.Random(61)
        g36 = grass(3, 6)
        sweeps = [
            (U.belt, subset_cone(set(U.belt.row_order), U).rays)
            for U in umats
        ]
        sweeps.append(
            (g36.belt, list(g36.pluecker_cone().rays) + list(g36.full_cone().rays))
        )
        for belt, rays in sweeps:
            size = belt.exchange.size
            for _ in range(100):
                point = [
                    Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    for _ in range(size)
                ]
                values = value_walk(belt, point)
                for ray in rays:
                    acc = Fraction(1)
                    for id, e in ray.vector.items():
                        acc *= values[id] ** e
                    assert acc <= 1
