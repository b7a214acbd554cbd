"""Plucker cluster structures on small Grassmannians.

Covers seed construction, identification of cluster variables with minors
and quadratic differences, cone restriction, primitive-ratio
factorization, rotation orbits, the staircase unimodular minor, and the
packaged factorization tables. Goldens are hand-checked minor values,
figures transcribed row by row, or outputs of brute-force searches coded
inline next to the assertion.
"""

import itertools
import math
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    GR26_SEED,
    GR37_ORBIT_TABLE,
    VALUATIONS,
    det_bareiss,
    fraction_ring,
    ratio_value,
    registry_values,
    ring_replay,
    unimodular_minor_search,
)
from clustercones import grassmannian
from clustercones.cones import (
    membership,
    subset_cone,
    verify_certificate,
)
from clustercones.expressions import parse_ratio, render_ratio
from clustercones.finite_type import DynkinType, NotFiniteTypeError, recognize_dynkin
from clustercones.grassmannian import (
    GrassmannianCluster,
    IdentificationError,
    RatioTableError,
    TotallyPositivePoint,
    UnboundedRatioError,
    _gr48_evaluate,
    _gr48_images,
    _gr48_kernel,
    _gr48_monomials,
    _gr48_symmetries,
    _integer_points,
    _shared_pairs,
    _zigzag_diagonals,
    check_ray_table,
    grid_seed,
    load_gr48_ratios,
    load_ray_table,
    packaged_table,
    tp_sample,
    verify_gr48_table,
)
from clustercones.seeds import _valuation_exchange, load_seed_file


def uvec(g, name):
    """U-exponent vector of the mutable variable with the given name."""
    id = g.belt.id_by_name(name)
    assert id is not None, name
    for u in g.uvars:
        if u.gamma == id:
            return u.vector
    raise AssertionError(f"{name} has no u-variable")


def arrow_map(exchange):
    out = {}
    for i, row in enumerate(exchange.matrix):
        for j, e in enumerate(row):
            if e > 0:
                out[(exchange.names[i], exchange.names[j])] = e
    return out


def vector_sum(vectors):
    total = {}
    for vec in vectors:
        for id, e in vec.items():
            total[id] = total.get(id, 0) + e
    return {id: e for id, e in total.items() if e}


# seed construction


ZIGZAG = {
    4: [(2, 4)],
    5: [(2, 4), (1, 4)],
    6: [(2, 4), (1, 4), (1, 5)],
    7: [(2, 4), (1, 4), (1, 5), (5, 7)],
    8: [(2, 4), (1, 4), (1, 5), (5, 8), (6, 8)],
    9: [(2, 4), (1, 4), (1, 5), (5, 9), (6, 9), (6, 8)],
    10: [(2, 4), (1, 4), (1, 5), (5, 10), (6, 10), (6, 9), (7, 9)],
}


def test_zigzag_diagonals():
    for n, want in ZIGZAG.items():
        assert _zigzag_diagonals(n) == want


def test_grid_seed_gr26_matches_reference_seed():
    grid = grid_seed(2, 6)
    ref = load_seed_file(GR26_SEED)
    # reference names are P15 style, grid names p[15] style
    fix = lambda nm: "p[" + nm[1:] + "]"
    ref_arrows = {(fix(a), fix(b)): e for (a, b), e in arrow_map(ref).items()}
    assert arrow_map(grid) == ref_arrows
    ref_frozen = {fix(ref.names[i]) for i in range(ref.n, ref.size)}
    assert {grid.names[i] for i in range(grid.n, grid.size)} == ref_frozen


# transcribed from the displayed initial quiver on the 3x6 grid
GR36_GRID_ARROWS = {
    ("p[456]", "p[356]"),
    ("p[356]", "p[256]"),
    ("p[256]", "p[156]"),
    ("p[346]", "p[236]"),
    ("p[236]", "p[126]"),
    ("p[356]", "p[346]"),
    ("p[346]", "p[345]"),
    ("p[256]", "p[236]"),
    ("p[236]", "p[234]"),
    ("p[156]", "p[126]"),
    ("p[126]", "p[123]"),
    ("p[236]", "p[356]"),
    ("p[126]", "p[256]"),
    ("p[234]", "p[346]"),
    ("p[123]", "p[236]"),
    ("p[345]", "p[456]"),
}


def test_grid_seed_gr36_matches_figure():
    grid = grid_seed(3, 6)
    arrows = arrow_map(grid)
    assert set(arrows) == GR36_GRID_ARROWS
    assert set(arrows.values()) == {1}
    mutable = {grid.names[i] for i in range(grid.n)}
    assert mutable == {"p[356]", "p[256]", "p[346]", "p[236]"}
    frozen = {grid.names[i] for i in range(grid.n, grid.size)}
    assert frozen == {"p[123]", "p[234]", "p[345]", "p[456]", "p[156]", "p[126]"}


@pytest.mark.parametrize("n", range(4, 11))
def test_gr2_seed_is_bipartite_type_a(n):
    g = GrassmannianCluster(2, n)
    assert g.belt.path == ()
    assert recognize_dynkin(
        g.grid.mutable_matrix(), g.grid.weights[: g.grid.n]
    ) == DynkinType("A", n - 3)


def test_shape_guards():
    with pytest.raises(ValueError):
        grid_seed(1, 5)
    with pytest.raises(NotFiniteTypeError):
        GrassmannianCluster(3, 9)
    with pytest.raises(NotFiniteTypeError):
        GrassmannianCluster(4, 8)


# totally positive points


def test_point_minors_are_vandermonde_products():
    pt = TotallyPositivePoint(2, (1, 2, 3, 4))
    want = {(1, 2): 1, (1, 3): 2, (1, 4): 3, (2, 3): 1, (2, 4): 2, (3, 4): 1}
    for J, m in want.items():
        assert pt.minor(J) == m


def test_point_validation():
    with pytest.raises(ValueError):
        TotallyPositivePoint(2, (1, 1, 2))
    with pytest.raises(ValueError):
        TotallyPositivePoint(2, (0, 1, 2))
    pt = TotallyPositivePoint(2, (1, 2, 3))
    with pytest.raises(ValueError):
        pt.minor((1, 2, 3))
    with pytest.raises(ValueError):
        pt.minor((2, 1))
    with pytest.raises(ValueError):
        pt.minor((1, 4))


def test_tp_sample_is_deterministic():
    a = tp_sample(3, 7, seed=5)
    b = tp_sample(3, 7, seed=5)
    assert a.ts == b.ts and a.k == 3 and a.n == 7
    assert tp_sample(3, 7, seed=6).ts != a.ts


# identification

IDENTIFICATION = {
    "gr26": (6, {1: 15}),
    "gr36": (6, {1: 20, 2: 2}),
    "gr37": (7, {1: 35, 2: 14}),
    "gr38": (8, {1: 56, 2: 56, 3: 24}),
}


@pytest.mark.parametrize("fixture", sorted(IDENTIFICATION))
def test_registry_degrees_and_names(request, fixture):
    g = request.getfixturevalue(fixture)
    n, degrees = IDENTIFICATION[fixture]
    got = {}
    for id in g.belt.row_order:
        got[g.degree[id]] = got.get(g.degree[id], 0) + 1
    assert got == degrees
    assert len(g.minor_id) == degrees[1]
    frozen_contents = {
        tuple(sorted((s + t) % n + 1 for t in range(g.k))) for s in range(n)
    }
    frozen = {
        tuple(c + 1 for c, m in enumerate(g.content[id]) if m)
        for id in g.belt.row_order
        if g.belt.entries[id].frozen
    }
    assert frozen == frozen_contents
    for id in g.belt.row_order:
        name = g.name(id)
        assert g.belt.id_by_name(name) == id
        assert name.startswith("p[" if g.degree[id] == 1 else "q[")


def test_gr37_quadratic_names_pair_up_by_content(gr37):
    names = sorted(g for g in (
        gr37.name(id) for id in gr37.belt.row_order) if g.startswith("q"))
    assert all(re.fullmatch(r"q\[\d{6}[ab]\]", nm) for nm in names)
    assert len(names) == 14 and len({nm[:-2] for nm in names}) == 7


def test_registry_values_track_fresh_point(gr36):
    pt = tp_sample(3, 6, seed=31)
    vals = registry_values(gr36, pt)
    for J, id in gr36.minor_id.items():
        assert vals[id] == pt.minor(J)
    for id in gr36.belt.row_order:
        assert vals[id] > 0


@pytest.mark.parametrize("fixture", ["gr26", "gr36", "gr37", "gr38"])
def test_integer_sample_values_match_the_fraction_walk(request, fixture):
    # the sample points are tp_sample's with parameters scaled by the lcm
    # D of their denominators: every minor scales by D**(k(k-1)/2), so a
    # variable of degree d by D**(d k(k-1)/2)
    g = request.getfixturevalue(fixture)
    k, n = g.k, g.n
    for p, seed in enumerate((11, 12, 13)):
        pt = tp_sample(k, n, seed)
        assert all(type(t) is int for t in g.points[p].ts)
        scale = math.lcm(*(t.denominator for t in pt.ts))
        assert scale > 1
        assert g.points[p].ts == tuple(t * scale for t in pt.ts)
        oracle = registry_values(g, pt)
        walked = g.values[p]
        assert set(walked) == set(oracle)
        for id, value in walked.items():
            assert type(value) is int
            assert value == oracle[id] * scale ** (g.degree[id] * k * (k - 1) // 2)


def test_integer_walk_refuses_a_start_that_leaves_the_integers(gr36):
    # distinct primes on the grid nodes are no point of the Grassmannian:
    # some exchange relation stops dividing
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    prime_of = dict(zip(gr36._grid_sets, primes))
    with pytest.raises(IdentificationError, match="does not divide"):
        gr36._walk_values(gr36.points[:1], lambda pt, J: prime_of[J])
    # the same walk from the point's own minors divides throughout
    assert gr36._walk_values(gr36.points[:1], TotallyPositivePoint.minor) == gr36.values[:1]


@pytest.mark.parametrize("fixture", ["gr26", "gr36", "gr37", "gr38"])
def test_replay_matches_the_ring_oracle(request, fixture):
    # the belt's re-basing path walked by the exchange functions, over
    # valuations and over exact integers, equals the oracle walk from the
    # grid matrix
    g = request.getfixturevalue(fixture)
    rng = random.Random(fixture)
    for pt in g.points:
        beta = [rng.randint(-5, 5) for _ in g._grid_sets]
        assert g.belt._rebase(_valuation_exchange, list(beta)) == ring_replay(g, VALUATIONS, beta)
        minors = [pt.minor(J) for J in g._grid_sets]
        walked = g.belt._rebase(grassmannian._INTEGERS, list(minors))
        assert all(type(v) is int for v in walked)
        assert walked == ring_replay(g, fraction_ring(), [Fraction(m) for m in minors])


# the 3x6 structure: full cone, reduction matrix, Plucker cone

GR36_RAY_FIGURE = [
    ("q[124|356]", "p[346]*p[256]*p[124]/(p[246]*q[124|356])"),
    ("p[356]", "q[124|356]/(p[356]*p[124])"),
    ("p[134]", "q[124|356]/(p[256]*p[134])"),
    ("p[125]", "q[124|356]/(p[346]*p[125])"),
    ("p[246]", "p[245]*p[236]*p[146]/(p[246]*q[135|246])"),
    ("p[124]", "p[246]*p[123]/(p[236]*p[124])"),
    ("p[256]", "p[246]*p[156]/(p[256]*p[146])"),
    ("p[346]", "p[345]*p[246]/(p[346]*p[245])"),
    ("q[135|246]", "p[235]*p[145]*p[136]/(p[135]*q[135|246])"),
    ("p[236]", "q[135|246]/(p[236]*p[145])"),
    ("p[146]", "q[135|246]/(p[235]*p[146])"),
    ("p[245]", "q[135|246]/(p[245]*p[136])"),
    ("p[135]", "p[356]*p[134]*p[125]/(p[135]*q[124|356])"),
    ("p[145]", "p[456]*p[135]/(p[356]*p[145])"),
    ("p[235]", "p[234]*p[135]/(p[235]*p[134])"),
    ("p[136]", "p[135]*p[126]/(p[136]*p[125])"),
]


def test_gr36_full_cone_matches_ray_figure(gr36):
    cone = gr36.full_cone()
    assert len(cone.rays) == 16
    figure = {}
    for gamma, expr in GR36_RAY_FIGURE:
        vec = parse_ratio(expr, gr36.belt.id_by_name)
        assert vec == uvec(gr36, gamma), gamma
        figure[gamma] = frozenset(vec.items())
    assert {frozenset(r.vector.items()) for r in cone.rays} == set(figure.values())


# quadratic-variable rows of the exponent matrix, columns in figure order
GR36_EXCERPT_COLUMNS = [
    "p[356]", "p[346]", "p[256]", "p[246]", "p[245]", "p[236]", "p[235]",
    "p[146]", "p[145]", "p[136]", "p[135]", "p[134]", "p[125]", "p[124]",
    "q[124|356]", "q[135|246]",
]
GR36_EXCERPT_ROWS = {
    "q[124|356]": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 1, 0, -1, 0],
    "q[135|246]": [0, 0, 0, -1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, -1],
}


def test_gr36_exponent_matrix_quadratic_rows(gr36):
    U = gr36.U
    col = {gr36.name(u.gamma): t for t, u in enumerate(U.uvars)}
    assert set(col) == set(GR36_EXCERPT_COLUMNS)
    for name, want in GR36_EXCERPT_ROWS.items():
        row = U.rows[U.row_index[gr36.belt.id_by_name(name)]]
        assert [row[col[c]] for c in GR36_EXCERPT_COLUMNS] == want


GR36_SINGLETON_GAMMAS = {"p[346]", "p[256]", "p[235]", "p[145]", "p[136]", "p[124]"}
# the pairs must cancel a quadratic variable, so the two center ratios
# dividing by it combine with the three ratios multiplying by it
GR36_PAIR_BLOCKS = [
    ({"q[124|356]", "p[135]"}, {"p[356]", "p[134]", "p[125]"}),
    ({"q[135|246]", "p[246]"}, {"p[236]", "p[146]", "p[245]"}),
]


def test_gr36_pluecker_rays_by_multiplier_support(gr36):
    """Six rays keep a single unit multiplier; twelve pair the ray at a
    branch center with one of its three neighbors."""
    cone = gr36.pluecker_cone()
    assert len(cone.rays) == 18
    singles = []
    pairs = set()
    for ray in cone.rays:
        support = [
            gr36.name(u.gamma)
            for u, l in zip(cone.umatrix.uvars, ray.lam)
            if l
        ]
        assert all(l == 1 for l in ray.lam if l)
        if len(support) == 1:
            singles.append(support[0])
        else:
            assert len(support) == 2
            pairs.add(frozenset(support))
    assert sorted(singles) == sorted(GR36_SINGLETON_GAMMAS)
    want = {
        frozenset((c, nb))
        for centers, neighbors in GR36_PAIR_BLOCKS
        for c in centers
        for nb in neighbors
    }
    assert pairs == want and len(pairs) == 12


# cones and primitive ratios

PRIMITIVE_COUNTS = {"gr26": 9, "gr36": 18, "gr37": 42, "gr38": 80}


@pytest.mark.parametrize("fixture", sorted(PRIMITIVE_COUNTS))
def test_pluecker_cone_rays_are_the_primitive_ratios(request, fixture):
    g = request.getfixturevalue(fixture)
    count = PRIMITIVE_COUNTS[fixture]
    prims = g.primitive_ratios()
    n, k = g.n, g.k
    from math import comb
    assert len(prims) == count == n * (n - 3) // 2 * comb(n - 4, k - 2)
    cone = g.pluecker_cone()
    assert len(cone.rays) == count
    assert {frozenset(r.vector.items()) for r in cone.rays} == {
        frozenset(p.vector.items()) for p in prims
    }
    for ray in cone.rays:
        assert all(l.denominator == 1 for l in ray.lam)


@pytest.mark.parametrize("n", range(5, 10))
def test_gr2_cone_structure(n):
    g = GrassmannianCluster(2, n)
    cone = g.pluecker_cone()
    assert len(cone.rays) == n * (n - 3) // 2 == len(g.uvars)
    # every u-variable is itself primitive, with corners shifted down one
    for u in g.uvars:
        i, j = (c + 1 for c, m in enumerate(g.content[u.gamma]) if m)
        a, b = sorted((((i - 2) % n) + 1, ((j - 2) % n) + 1))
        assert u.vector == g.primitive_ratio(a, b).vector


def jdict(g, vec):
    label = {id: J for J, id in g.minor_id.items()}
    return {label[id]: e for id, e in vec.items()}


def test_gr26_restriction_to_first_five_columns(gr26):
    keep = {id for J, id in gr26.minor_id.items() if 6 not in J}
    cone = subset_cone(keep, gr26.U)
    small = GrassmannianCluster(2, 5)
    assert {frozenset(jdict(gr26, r.vector).items()) for r in cone.rays} == {
        frozenset(jdict(small, p.vector).items()) for p in small.primitive_ratios()
    }
    # u-variables with both corner columns inside survive unchanged, the
    # two pinned to column 1 pick up the factor indexed by their other corner
    for u in small.uvars:
        i, j = (c + 1 for c, m in enumerate(small.content[u.gamma]) if m)
        lhs = jdict(small, u.vector)
        big = uvec(gr26, f"p[{i}{j}]")
        if i > 1:
            assert lhs == jdict(gr26, big)
        else:
            rhs = vector_sum([big, uvec(gr26, f"p[{j}6]")])
            assert lhs == jdict(gr26, rhs)
    for u in gr26.uvars:
        i, j = (c + 1 for c, m in enumerate(gr26.content[u.gamma]) if m)
        inside = set(u.vector) <= keep
        assert inside == (1 < i and j < 6)


# staircase minors


def staircase_matrix(g):
    """The k = 2 staircase selection of U, as (row ids, column ids,
    minor): rows P_ij with i < j-1 and j >= 4 in peeling order, and the
    u-columns by defining variable in the matching order. Oracle for the
    unit-determinant row selection."""
    assert g.k == 2, "the staircase selection is specific to k = 2"
    rows = [g.minor_id[(i, m)]
            for m in range(4, g.n + 1) for i in range(m - 2, 0, -1)]
    cols = []
    for m in range(4, g.n + 1):
        cols.append(g.minor_id[(1, m - 1)])
        cols.extend(g.minor_id[(j, m)] for j in range(m - 2, 1, -1))
    by_gamma = {u.gamma: u.vector for u in g.uvars}
    return rows, cols, [[by_gamma[c].get(r, 0) for c in cols] for r in rows]


@pytest.mark.parametrize("n", range(5, 11))
def test_staircase_minor_is_unimodular(n):
    g = GrassmannianCluster(2, n)
    rows, cols, M = staircase_matrix(g)
    assert len(rows) == len(cols) == len(g.uvars)
    assert abs(det_bareiss(M)) == 1


def test_staircase_block_structure(gr26):
    rows, cols, M = staircase_matrix(gr26)
    rowpos = {gr26.name(id): t for t, id in enumerate(rows)}
    colpos = {gr26.name(id): t for t, id in enumerate(cols)}
    M = [list(r) for r in M]
    # clearing columns: add the column of p[j6] to the column of p[1j]
    for j in (3, 4):
        src, dst = colpos[f"p[{j}6]"], colpos[f"p[1{j}]"]
        for row in M:
            row[dst] += row[src]
    block_rows = [rowpos[nm] for nm in ("p[46]", "p[36]", "p[26]", "p[16]")]
    block_cols = [colpos[nm] for nm in ("p[15]", "p[46]", "p[36]", "p[26]")]
    got = [[M[r][c] for c in block_cols] for r in block_rows]
    assert got == [
        [-1, -1, 0, 0],
        [0, 1, -1, 0],
        [0, 0, 1, -1],
        [0, 0, 0, 1],
    ]
    for r in block_rows:
        for c in range(len(M[r])):
            assert c in block_cols or M[r][c] == 0


# factorization into primitive ratios


def test_primitive_ratio_corners(gr26, gr37):
    p = gr26.primitive_ratio(1, 3)
    assert render_ratio(p.vector, gr26.name) == "p[14]*p[23]/(p[13]*p[24])"
    q = gr37.primitive_ratio(2, 5, (7,))
    assert render_ratio(q.vector, gr37.name) == "p[267]*p[357]/(p[257]*p[367])"
    with pytest.raises(ValueError):
        gr26.primitive_ratio(1, 2)
    with pytest.raises(ValueError):
        gr26.primitive_ratio(1, 6)
    with pytest.raises(ValueError):
        gr37.primitive_ratio(1, 3)
    with pytest.raises(ValueError):
        gr37.primitive_ratio(1, 3, (2,))


def exhaustive_decompositions(g, target, max_factors):
    prims = g.primitive_ratios()
    found = []
    for r in range(1, max_factors + 1):
        for combo in itertools.combinations_with_replacement(range(len(prims)), r):
            if vector_sum([prims[t].vector for t in combo]) == target:
                found.append(tuple(sorted((prims[t].i, prims[t].j) for t in combo)))
    return found


def test_factorization_matches_exhaustive_search(gr26):
    resolve = gr26.belt.id_by_name
    for expr, want in [
        ("p[12]*p[35]/(p[13]*p[25])", ((2, 5), (2, 6))),
        ("p[15]*p[23]*p[34]/(p[13]*p[24]*p[35])", ((1, 3), (1, 4), (2, 4))),
    ]:
        target = parse_ratio(expr, resolve)
        assert exhaustive_decompositions(gr26, target, 4) == [want]
        got = gr26.factor_into_primitives(target)
        assert tuple(sorted((p.i, p.j) for p in got)) == want
        assert vector_sum([p.vector for p in got]) == target


def test_factorization_with_quadratic_multipliers(gr37):
    # four u-ratios multiply to this minor ratio, yet it is one extreme ray
    resolve = gr37.belt.id_by_name
    target = parse_ratio("p[256]*p[247]/(p[257]*p[246])", resolve)
    factors = gr37.factor_into_primitives(target)
    assert [(p.i, p.j, p.extra) for p in factors] == [(4, 6, (2,))]
    assert factors[0].vector == target
    cert = membership(target, gr37.U)
    assert cert.bounded and sum(1 for l in cert.lam if l) == 4

    combined = vector_sum([
        target, parse_ratio("p[145]*p[235]/(p[135]*p[245])", resolve),
    ])
    got = gr37.factor_into_primitives(combined)
    assert sorted((p.i, p.j, p.extra) for p in got) == [(1, 3, (5,)), (4, 6, (2,))]
    assert vector_sum([p.vector for p in got]) == combined


def test_factorization_rejects_unbounded_input(gr26):
    bad = parse_ratio("p[13]*p[25]/(p[12]*p[35])", gr26.belt.id_by_name)
    with pytest.raises(UnboundedRatioError) as err:
        gr26.factor_into_primitives(bad)
    cert = err.value.certificate
    assert cert.verdict == "unbounded"
    assert verify_certificate(gr26.U, cert)


def test_factorization_rejects_quadratic_support(gr36):
    q = gr36.belt.id_by_name("q[124|356]")
    p = gr36.belt.id_by_name("p[135]")
    with pytest.raises(ValueError, match="not a minor"):
        gr36.factor_into_primitives({q: 1, p: -1})


@pytest.mark.parametrize("name", ["gr26", "gr27", "gr36", "gr37", "gr38"])
def test_factorization_of_seeded_random_products(request, name):
    g = GrassmannianCluster(2, 7) if name == "gr27" else request.getfixturevalue(name)
    prims = g.primitive_ratios()
    position = {id(p): t for t, p in enumerate(prims)}
    rng = random.Random(f"factor-{name}")
    for size in range(1, 41):
        target = vector_sum([rng.choice(prims).vector for _ in range(size)])
        got = g.factor_into_primitives(target)
        assert vector_sum([p.vector for p in got]) == target
        assert all(id(p) in position for p in got)
        # first fit: a primitive that did not fit never fits a smaller lam
        order = [position[id(p)] for p in got]
        assert order == sorted(order)
        assert g.factor_into_primitives(target) == got


def one_at_a_time_factors(g, vector):
    # oracle: the greedy factorization subtracting one primitive per step
    prims = g.primitive_ratios()
    lams = [Counter({col: int(l) for col, l in enumerate(g.U.solve(p.vector)) if l})
            for p in prims]
    lam = Counter({col: int(l) for col, l in membership(vector, g.U).powers})
    out = []
    while lam:
        t = next(t for t, lam_p in enumerate(lams)
                 if all(lam[col] >= e for col, e in lam_p.items()))
        out.append(prims[t])
        lam -= lams[t]
    return out


@pytest.mark.parametrize("name", ["gr37", "gr38"])
def test_factorization_of_seeded_powers_matches_one_at_a_time(request, name):
    g = request.getfixturevalue(name)
    prims = g.primitive_ratios()
    rng = random.Random(f"factor-powers-{name}")
    for size in range(1, 9):
        target = vector_sum([{id: m * e for id, e in p.vector.items()}
                             for p, m in ((rng.choice(prims), rng.randint(1, 12))
                                          for _ in range(size))])
        assert g.factor_into_primitives(target) == one_at_a_time_factors(g, target)


def test_factorization_of_a_large_power_repeats_its_primitive(gr38):
    prim = gr38.primitive_ratio(1, 3, (5,))
    power = 10 ** 4
    got = gr38.factor_into_primitives({id: power * e for id, e in prim.vector.items()})
    assert len(got) == power and all(p is got[0] for p in got)
    assert got[0].vector == prim.vector


def test_factorization_without_a_fitting_primitive_raises():
    # in Gr(2,n) every primitive ratio is a single u-variable; once one is
    # hidden, nothing else fits under its u-exponents
    g = GrassmannianCluster(2, 6)
    prims = g.primitive_ratios()
    hidden = next(p for p in prims if sum(membership(p.vector, g.U).lam) == 1)
    g._primitives = [p for p in prims if p is not hidden]
    with pytest.raises(RatioTableError, match="no primitive ratio fits"):
        g.factor_into_primitives(hidden.vector)


# rotation and orbits


@pytest.mark.parametrize("fixture", sorted(PRIMITIVE_COUNTS))
def test_rotation_relabels_minor_columns(request, fixture):
    g = request.getfixturevalue(fixture)
    perm = g.rotation()
    for J, id in g.minor_id.items():
        K = tuple(sorted((j - 2) % g.n + 1 for j in J))
        assert perm[id] == g.minor_id[K]


ORBIT_SIZES = {
    "gr26": [3, 6],
    "gr36": [6, 6, 6],
    "gr37": [7] * 6,
    "gr38": [8] * 10,
}


@pytest.mark.parametrize("fixture", sorted(ORBIT_SIZES))
def test_pluecker_ray_orbits(request, fixture):
    g = request.getfixturevalue(fixture)
    cone = g.pluecker_cone()
    assert sorted(len(o) for o in g.ray_orbits(cone)) == ORBIT_SIZES[fixture]


def test_gr36_full_cone_orbits(gr36):
    cone = gr36.full_cone()
    assert sorted(len(o) for o in gr36.ray_orbits(cone)) == [2, 2, 6, 6]


# degree-filtered cones on the 3x8 structure


def test_gr38_degree_two_cone(gr38):
    cone = gr38.degree_filtered_cone(2)
    assert len(cone.rays) == 168
    uvectors = {frozenset(u.vector.items()) for u in gr38.uvars}
    singles = [r for r in cone.rays if sum(r.lam) == 1]
    composite = [r for r in cone.rays if sum(r.lam) > 1]
    assert len(singles) == 56 and len(composite) == 112
    for ray in singles:
        assert frozenset(ray.vector.items()) in uvectors
    sums = {}
    for ray in composite:
        assert all(l.denominator == 1 for l in ray.lam)
        s = int(sum(ray.lam))
        sums[s] = sums.get(s, 0) + 1
    assert sums == {3: 64, 4: 40, 5: 8}
    assert sorted(len(o) for o in gr38.ray_orbits(cone)) == [8] * 21
    # exactly one orbit lives on minors alone; its eight vectors are the
    # only rays this cone shares with the Plucker cone
    pluecker = {frozenset(r.vector.items()) for r in gr38.pluecker_cone().rays}
    shared = [r for r in cone.rays if frozenset(r.vector.items()) in pluecker]
    minor_only = [
        r for r in cone.rays if all(gr38.degree[id] == 1 for id in r.vector)
    ]
    assert len(shared) == len(minor_only) == 8


def test_gr38_full_cone_is_simplicial(gr38):
    cone = gr38.full_cone()
    assert len(cone.rays) == len(gr38.uvars) == 128
    rays = {frozenset(r.vector.items()) for r in cone.rays}
    assert rays == {frozenset(u.vector.items()) for u in gr38.uvars}


# packaged factorization tables


def table_row(text):
    """One `<ratio> : <ray names>` row, as load_ray_table parses it."""
    return load_ray_table(f"[t]\n{text}")["t"][0]


def table_name(name):
    """One table name with its column groups, as load_ray_table parses it."""
    return table_row(f"{name} : {name}")[1][0]


def assert_rows_name_their_rays(grass, rows, cone, assignment, ray_rows):
    # oracle: each row's left ratio, with its names read through the
    # returned assignment, is the ray the search reports for that row;
    # distinct names of one content take distinct variables
    assert len(set(assignment.values())) == len(assignment)
    assert len(ray_rows) == len(rows)
    for (lhs, _), i in zip(rows, ray_rows):
        vec = {}
        for (name, _), e in lhs.items():
            key = name[name.index("[") + 1:-1]
            id = assignment.get(key)
            if id is None:
                id = grass.minor_id[tuple(sorted(int(c) for c in key))]
            vec[id] = vec.get(id, 0) + e
        assert cone.ray_index[frozenset((id, e) for id, e in vec.items() if e)] == i


def test_gr37_orbit_table(gr37):
    cone = gr37.pluecker_cone()
    rows = load_ray_table(GR37_ORBIT_TABLE)["pluecker"]
    assignment, ray_rows = check_ray_table(gr37, rows, cone)
    assert_rows_name_their_rays(gr37, rows, cone, assignment, ray_rows)
    orbits = gr37.ray_orbits(cone)
    owner = {i: t for t, orbit in enumerate(orbits) for i in orbit}
    assert sorted(owner[i] for i in ray_rows) == list(range(len(orbits)))
    for key, id in assignment.items():
        assert gr37.degree[id] == 2 and key.count("|") == 1


def test_gr38_appendix_tables(gr38):
    tables = load_ray_table(packaged_table("gr38_appendix.txt"))
    pcone = gr38.pluecker_cone()
    assignment, prows = check_ray_table(gr38, tables["pluecker"], pcone)
    assert_rows_name_their_rays(gr38, tables["pluecker"], pcone, assignment, prows)
    orbits = gr38.ray_orbits(pcone)
    owner = {i: t for t, orbit in enumerate(orbits) for i in orbit}
    assert sorted(owner[i] for i in prows) == list(range(10))

    dcone = gr38.degree_filtered_cone(2)
    assignment2, drows = check_ray_table(gr38, tables["degree2"], dcone)
    assert_rows_name_their_rays(gr38, tables["degree2"], dcone, assignment2, drows)
    dorbits = gr38.ray_orbits(dcone)
    downer = {i: t for t, orbit in enumerate(dorbits) for i in orbit}
    composite_orbits = {
        t
        for t, orbit in enumerate(dorbits)
        if sum(dcone.rays[orbit[0]].lam) > 1
    }
    assert len(composite_orbits) == 14
    assert {downer[i] for i in drows} == composite_orbits
    # both tables must resolve shared ambiguous names the same way
    common = set(assignment) & set(assignment2)
    assert common
    for key in common:
        assert assignment[key] == assignment2[key]


def _tampered_degree2_rows(how):
    rows = [(dict(lhs), list(rhs)) for lhs, rhs in
            load_ray_table(packaged_table("gr38_appendix.txt"))["degree2"]]
    lhs, rhs = rows[5]
    assert len(rhs) == 4  # v[258] v[147|258|368] v[247|358] v[246|358]
    if how == "drop-factor":
        rhs.pop()
    elif how == "duplicate-factor":
        rhs.append(rhs[0])
    elif how == "frozen-minor":
        rhs[0] = table_name("v[123]")  # a frozen minor has no u-variable
    else:  # twice a ray is no extreme ray, though its lambda is twice
        rows.append(({nm: 2 * e for nm, e in lhs.items()}, rhs + rhs))
    return rows


@pytest.mark.parametrize("how", ["drop-factor", "duplicate-factor",
                                 "frozen-minor", "not-a-ray"])
def test_gr38_degree2_table_rejects_tampered_rows(gr38, how):
    cone = gr38.degree_filtered_cone(2)
    rows = _tampered_degree2_rows(how)
    row = len(rows) if how == "not-a-ray" else 6
    with pytest.raises(RatioTableError,
                       match=rf"table row {row}: no name assignment"):
        check_ray_table(gr38, rows, cone)


def test_ray_table_search_refuses_to_truncate(gr37, monkeypatch):
    cone = gr37.pluecker_cone()
    # the row holds whichever of the two variables of content 0111111 the
    # exponent-zero name takes, so two assignments survive it
    lhs, rhs = table_row("p[247]*p[123]/(p[237]*p[124]) : v[124]")
    rows = [({**lhs, table_name("q[234|567]"): 0}, rhs)]
    monkeypatch.setattr(grassmannian, "_ASSIGNMENT_CAP", 1)
    with pytest.raises(RatioTableError, match=r"table row 1: more than cap=1 "):
        check_ray_table(gr37, rows, cone)
    monkeypatch.setattr(grassmannian, "_ASSIGNMENT_CAP", 2)
    assignment, ray_rows = check_ray_table(gr37, rows, cone)
    assert list(assignment) == ["234|567"] and len(ray_rows) == 1


def test_ray_table_names_of_one_content_take_distinct_variables(gr37, monkeypatch):
    cone = gr37.pluecker_cone()
    # two names of content 0111111, which two variables share, in two
    # rows: two injective assignments, where four maps would verify both
    lhs, rhs = table_row("p[247]*p[123]/(p[237]*p[124]) : v[124]")
    rows = [({**lhs, table_name("q[234|567]"): 0}, rhs),
            ({**lhs, table_name("q[256|347]"): 0}, rhs)]
    monkeypatch.setattr(grassmannian, "_ASSIGNMENT_CAP", 2)
    assignment, _ = check_ray_table(gr37, rows, cone)
    assert sorted(assignment) == ["234|567", "256|347"]
    assert assignment["234|567"] != assignment["256|347"]


def test_ray_table_parse_and_check_errors(gr36):
    with pytest.raises(ValueError, match="before any"):
        load_ray_table("p[12]/p[13] : v[12]")
    with pytest.raises(ValueError, match="missing ':'"):
        load_ray_table("[a]\np[12]/p[13]")
    with pytest.raises(ValueError, match="empty ray list"):
        load_ray_table("[a]\np[12]/p[13] :")
    # names are parsed with the table, once each, on either side
    with pytest.raises(RatioTableError, match="non-digit columns"):
        load_ray_table("[a]\np[12x]/p[123] : v[124]")
    with pytest.raises(RatioTableError, match="not of the form"):
        load_ray_table("[a]\np[123]/p[124] : v124")
    cone = gr36.full_cone()
    bad_name = load_ray_table("[a]\np[129]/p[123] : v[124]")["a"]
    with pytest.raises(RatioTableError, match="names no minor"):
        check_ray_table(gr36, bad_name, cone)
    bad_content = load_ray_table("[a]\nq[111|222]/p[123] : v[124]")["a"]
    with pytest.raises(RatioTableError, match="no registry variable"):
        check_ray_table(gr36, bad_content, cone)
    wrong_ray = load_ray_table(
        "[a]\np[246]*p[123]/(p[236]*p[124]) : v[256]")["a"]
    with pytest.raises(RatioTableError, match="no name assignment"):
        check_ray_table(gr36, wrong_ray, cone)


def unpruned_check_ray_table(grass, rows, cone):
    # oracle: check_ray_table before it drew the right-side names from the
    # gammas of the row's ray; every injective assignment of each row's
    # unassigned names is tried, in product-of-permutations order
    n = grass.n
    gammas = [u.gamma for u in cone.umatrix.uvars]
    class_ids = {}
    for id in grass.belt.row_order:
        if grass.degree[id] >= 2:
            class_ids.setdefault(grass.content[id], []).append(id)

    def canon(token):
        name, groups = token
        if len(groups) == 1 and len(groups[0]) == grass.k:
            id = grass.minor_id.get(tuple(sorted(groups[0])))
            if id is None:
                raise RatioTableError(f"{name!r} names no minor of Gr({grass.k},{n})")
            return ("id", id)
        content = [0] * n
        for g in groups:
            for c in g:
                if not 1 <= c <= n:
                    raise RatioTableError(f"{name!r} uses column {c} outside 1..{n}")
                content[c - 1] += 1
        content = tuple(content)
        if content not in class_ids:
            raise RatioTableError(f"{name!r}: no registry variable has that content")
        return ("cls", content, "|".join("".join(map(str, g)) for g in groups))

    parsed = [([(canon(nm), e) for nm, e in sorted(lhs.items())],
               [canon(nm) for nm in rhs]) for lhs, rhs in rows]

    def resolve(tok, asg):
        return tok[1] if tok[0] == "id" else asg[tok[2]]

    def row_ray(row, asg):
        vec = grassmannian._ratio_product((resolve(tok, asg), e) for tok, e in row[0])
        i = cone.ray_index.get(frozenset(vec.items()))
        if i is None:
            return None
        named = {}
        for tok in row[1]:
            id = resolve(tok, asg)
            named[id] = named.get(id, 0) + 1
        return i if named == {gammas[j]: l for j, l in cone.rays[i].powers} else None

    assignments = [({}, [])]
    for ridx, row in enumerate(parsed):
        pinned = list(dict.fromkeys(
            tok for tok in [t for t, _ in row[0]] + row[1] if tok[0] == "cls"))
        survivors = []
        for asg, indices in assignments:
            pending = {}
            for _, content, key in pinned:
                if key not in asg:
                    pending.setdefault(content, []).append(key)
            used = set(asg.values())
            option_sets = [
                (names, list(itertools.permutations(
                    [id for id in class_ids[content] if id not in used],
                    len(names))))
                for content, names in sorted(pending.items())
            ]
            for combo in itertools.product(*(opts for _, opts in option_sets)):
                ext = dict(asg)
                for (names, _), perm in zip(option_sets, combo):
                    ext.update(zip(names, perm))
                i = row_ray(row, ext)
                if i is None:
                    continue
                if len(survivors) == grassmannian._ASSIGNMENT_CAP:
                    raise RatioTableError(
                        f"table row {ridx + 1}: more than "
                        f"cap={grassmannian._ASSIGNMENT_CAP} name assignments survive")
                survivors.append((ext, indices + [i]))
        if not survivors:
            raise RatioTableError(
                f"table row {ridx + 1}: no name assignment verifies the factorization")
        assignments = survivors
    return assignments[0]


def ray_table_outcome(check, grass, rows, cone):
    """check's (assignment as item list, ray indices), or its error text."""
    try:
        assignment, indices = check(grass, rows, cone)
    except RatioTableError as exc:
        return str(exc)
    return list(assignment.items()), indices


@pytest.fixture(scope="module")
def ray_tables(gr37, gr38):
    """(cluster, cone, rows) of the Gr(3,7) table and both Gr(3,8) sections."""
    gr38_tables = load_ray_table(packaged_table("gr38_appendix.txt"))
    return {
        "gr37": (gr37, gr37.pluecker_cone(),
                 load_ray_table(GR37_ORBIT_TABLE)["pluecker"]),
        "gr38-pluecker": (gr38, gr38.pluecker_cone(), gr38_tables["pluecker"]),
        "gr38-degree2": (gr38, gr38.degree_filtered_cone(2),
                         gr38_tables["degree2"]),
    }


TABLE_NAMES = ["gr37", "gr38-pluecker", "gr38-degree2"]


def test_ray_table_check_keeps_the_order_of_its_survivors(gr37):
    # two variables share content 0111111, and an exponent-zero name of
    # it leaves both assignments standing (see the tests above): the
    # first one found is returned, so the order shows in the result
    cone = gr37.pluecker_cone()
    lhs, rhs = table_row("p[247]*p[123]/(p[237]*p[124]) : v[124]")
    for names in (["q[234|567]"], ["q[234|567]", "q[256|347]"]):
        rows = [({**lhs, table_name(name): 0}, rhs) for name in names]
        got = ray_table_outcome(check_ray_table, gr37, rows, cone)
        assert not isinstance(got, str), got
        assert got == ray_table_outcome(unpruned_check_ray_table, gr37, rows, cone)


@pytest.mark.parametrize("table", TABLE_NAMES)
@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_ray_table_check_matches_the_unpruned_search(ray_tables, table, seed):
    grass, cone, rows = ray_tables[table]
    rows = list(rows)
    if seed is not None:
        random.Random(seed).shuffle(rows)
    got = ray_table_outcome(check_ray_table, grass, rows, cone)
    assert not isinstance(got, str), got
    assert got == ray_table_outcome(unpruned_check_ray_table, grass, rows, cone)


def _tampered_rows(rows, how, row):
    rows = [(dict(lhs), list(rhs)) for lhs, rhs in rows]
    lhs, rhs = rows[row]
    if how == "swap-name":
        # the same content under other column groups: a name that no
        # other row shares, so free to take any variable of its content
        k = next(k for k, (nm, _) in enumerate(rhs) if "|" in nm)
        head, groups = rhs[k][0][:-1].split("[")
        rhs[k] = table_name(f"{head}[{'|'.join(reversed(groups.split('|')))}]")
    elif how == "drop-name":
        rhs.pop()
    else:  # no ray: twice the left ratio
        rows[row] = ({nm: 2 * e for nm, e in lhs.items()}, rhs)
    return rows


@pytest.mark.parametrize("table", TABLE_NAMES)
@pytest.mark.parametrize("how", ["swap-name", "drop-name", "left-not-a-ray"])
def test_ray_table_check_matches_the_unpruned_search_on_tampered_rows(
        ray_tables, table, how):
    grass, cone, rows = ray_tables[table]
    row = next(r for r, (_, rhs) in enumerate(rows)
               if any("|" in nm for nm, _ in rhs))
    rows = _tampered_rows(rows, how, row)
    got = ray_table_outcome(check_ray_table, grass, rows, cone)
    assert got == ray_table_outcome(unpruned_check_ray_table, grass, rows, cone)
    if how != "swap-name":
        assert got == (f"table row {row + 1}: "
                       "no name assignment verifies the factorization")


# unimodular minors of the exponent matrix


@pytest.mark.parametrize("fixture", sorted(PRIMITIVE_COUNTS))
def test_exponent_matrix_has_unimodular_minor(request, fixture):
    g = request.getfixturevalue(fixture)
    chosen = unimodular_minor_search(g.U.rows)
    assert chosen is not None
    sub = [g.U.rows[i] for i in chosen]
    assert abs(det_bareiss(sub)) == 1


# boundedness spot checks


@pytest.mark.parametrize("fixture", ["gr26", "gr36", "gr38"])
def test_rays_stay_below_one_at_sample_points(request, fixture):
    g = request.getfixturevalue(fixture)
    for ray in g.pluecker_cone().rays:
        for values in g.values:
            assert ratio_value(ray.vector, values) < 1


# the 4x8 ratio table


def test_gr48_table_shape_and_weights():
    ratios = load_gr48_ratios()
    assert len(ratios) == 19
    for vec in ratios:
        weight = [0] * 8
        for J, e in vec.items():
            assert len(J) == 4 and all(1 <= c <= 8 for c in J)
            assert tuple(sorted(J)) == J
            for c in J:
                weight[c - 1] += e
        assert weight == [0] * 8
    assert len({frozenset(vec.items()) for vec in ratios}) == 19


def test_gr48_symmetry_closure():
    syms = _gr48_symmetries()
    assert len(syms) == 32
    # 32 distinct maps, closed under composition: the listed maps are the
    # whole group the rotation, reflection and complement generate
    Js = sorted(syms[0])
    keys = {tuple(g[J] for J in Js) for g in syms}
    assert len(keys) == 32
    for g in syms:
        for h in syms:
            assert tuple(h[g[J]] for J in Js) in keys
    images = _gr48_images(load_gr48_ratios())
    # 19 rows, a few fixed by part of the group: measured once, frozen
    assert len(images) == 316


@pytest.mark.parametrize("points", [0, -5])
def test_gr48_verification_needs_a_point(points):
    # zero points used to report strictly_below_one and ok on nothing
    with pytest.raises(ValueError, match="at least one sample point"):
        verify_gr48_table(points=points)


@pytest.mark.parametrize("name, value", [
    ("points", True), ("points", 2.5), ("points", None), ("points", "5"),
    ("seed", None), ("seed", False), ("seed", 7.0), ("seed", "7"),
])
def test_gr48_verification_takes_int_arguments(name, value):
    # seed=None seeded from OS entropy, a verdict nobody could replay;
    # points=True read as one point, and points=2.5 failed inside range
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        verify_gr48_table(**{"points": 3, "seed": 5, name: value})


def randint_points(n, count, seed):
    """Reference: the `randint` loop that `_integer_points` replaced."""
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        t = rng.randint(1, 4)
        ts = []
        for _ in range(n):
            ts.append(t)
            t += rng.randint(1, 9)
        pts.append(ts)
    return pts


def test_integer_points_are_those_of_the_randint_loop():
    # the CLI digests pin these integers, on every Python version CI runs
    for seed in [*range(60), 97, 2**31 - 1, 2**64 + 3]:
        assert list(_integer_points(8, 300, seed)) == randint_points(8, 300, seed), seed
    assert list(_integer_points(3, 50, 11)) == randint_points(3, 50, 11)
    assert list(_integer_points(8, 0, 11)) == []


def test_gr48_points_are_streamed(monkeypatch):
    # the points are drawn as the kernel consumes them, so the check
    # holds one at a time, where a list of 2,000 takes about 250 KB; a
    # kernel of one monomial, d0/d1, stands in for the table's 114, whose
    # 2,000 points tracemalloc slows over a hundredfold
    kernel = _gr48_kernel([(((0, 1),), ((1, 1),))])
    monkeypatch.setattr(grassmannian, "_gr48_compiled", lambda: (19, 316, True, kernel))

    def peak(run):
        tracemalloc.start()
        try:
            result = run()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    report, streamed = peak(lambda: verify_gr48_table(points=2000, seed=3))
    assert report.num_points == 2000 and report.ok
    _, listed = peak(lambda: list(_integer_points(8, 2000, 3)))
    assert listed > 200_000
    assert streamed < 10_000


def test_gr48_verification_run():
    report = verify_gr48_table(points=40, seed=311)
    assert report.num_ratios == 19
    assert report.num_images == 316
    assert report.num_points == 40
    assert report.weight_zero and report.all_bounded
    assert report.strictly_below_one and report.ok
    assert 0 < report.max_value < 1


def test_gr48_verification_repeats_itself():
    # the second call reuses the compiled table and must report the same
    first = verify_gr48_table(points=5, seed=17)
    second = verify_gr48_table(points=5, seed=17)
    assert second.to_dict() == first.to_dict()
    assert (second.max_num, second.max_den) == (first.max_num, first.max_den)


# one displayed ratio is a product of two others; it is dropped from the
# packaged table but must still be weight-zero and bounded
GR48_COMPOSITE_NUM = (
    "4678 4568 3578 3468 2578 2467 2458 2456 2357 2357 2348 2346 "
    "1457 1457 1368 1358 1356 1356 1347 1347 1267 1267 1248 1246"
)
GR48_COMPOSITE_DEN = (
    "4578 3568 3478 2678 2468 2468 2457 2457 2367 2358 2356 2347 "
    "1467 1458 1456 1357 1357 1357 1348 1346 1346 1268 1256 1247"
)


def test_gr48_composite_ratio_is_bounded():
    vec = {}
    for token in GR48_COMPOSITE_NUM.split():
        J = tuple(int(c) for c in token)
        vec[J] = vec.get(J, 0) + 1
    for token in GR48_COMPOSITE_DEN.split():
        J = tuple(int(c) for c in token)
        vec[J] = vec.get(J, 0) - 1
    vec = {J: e for J, e in vec.items() if e}
    weight = [0] * 8
    for J, e in vec.items():
        for c in J:
            weight[c - 1] += e
    assert weight == [0] * 8
    assert vec not in load_gr48_ratios()
    rng = random.Random(401)
    for _ in range(60):
        ts, acc = [], 0
        for _ in range(8):
            acc += rng.randint(1, 5)
            ts.append(acc)
        pt = TotallyPositivePoint(4, ts)
        num = den = 1
        for J, e in vec.items():
            if e > 0:
                num *= pt.minor(J) ** e
            else:
                den *= pt.minor(J) ** (-e)
        assert num < den


# the 4x8 evaluation kernel against the scalar term loop it replaced and
# the per-minor evaluation before that


def per_minor_evaluate(images, points):
    """Reference: every Plucker factor of every image at every point.

    Returns (all_bounded, maximum value).
    """
    best_num, best_den = 0, 1
    ok = True
    items = [sorted(image.items()) for image in images]
    for ts in points:
        pt = TotallyPositivePoint(4, ts)
        minors = {J: pt.minor(J) for J in itertools.combinations(range(1, 9), 4)}
        for ratio in items:
            num = 1
            den = 1
            for J, e in ratio:
                if e > 0:
                    num *= minors[J] ** e
                else:
                    den *= minors[J] ** (-e)
            if num > den:
                ok = False
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    return ok, Fraction(best_num, best_den)


def scalar_evaluate(monomials, points):
    """Reference: the difference monomials of `_gr48_monomials`, one
    (pair index, exponent) term at a time. Returns (all_bounded, num, den)
    with num/den the first largest value seen."""
    best_num, best_den = 0, 1
    ok = True
    for ts in points:
        diffs = [b - a for a, b in itertools.combinations(ts, 2)]
        for up, down in monomials:
            num = 1
            for i, e in up:
                num *= diffs[i] ** e
            den = 1
            for i, e in down:
                den *= diffs[i] ** e
            if num > den:
                ok = False
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    return ok, best_num, best_den


def kernel_evaluate(images, points):
    """The kernel's (all_bounded, num, den), checked against the scalar
    loop on the same monomials, with the maximum as a Fraction."""
    monomials = _gr48_monomials(images)
    got = _gr48_evaluate(_gr48_kernel(monomials), points)
    assert got == scalar_evaluate(monomials, points)
    ok, num, den = got
    return ok, Fraction(num, den)


@pytest.fixture(scope="module")
def gr48_images():
    return _gr48_images(load_gr48_ratios())


def test_gr48_images_share_114_difference_monomials(gr48_images):
    # measured once, frozen; complement maps a weight-zero ratio to the
    # same difference monomial, which is part of why so many coincide
    assert len(_gr48_monomials(gr48_images)) == 114


@pytest.mark.parametrize("count", [1, 7, 40])
def test_gr48_compiled_evaluator_matches_per_minor_reference(gr48_images, count):
    monomials = _gr48_monomials(gr48_images)
    kernel = _gr48_kernel(monomials)
    for seed in range(30):
        pts = list(_integer_points(8, count, 1000 + seed))
        got = _gr48_evaluate(kernel, pts)
        assert got == scalar_evaluate(monomials, pts), seed
        want = per_minor_evaluate(gr48_images, pts)
        assert (got[0], Fraction(got[1], got[2])) == want, seed
        assert want[0] and want[1] < 1


def _altered_image_lists(images, rng):
    for k in rng.sample(range(len(images)), 4):
        inverse = {J: -e for J, e in images[k].items()}
        yield "inverse", images + [inverse]
        yield "inverse alone", [inverse]
        J = rng.choice(sorted(images[k]))
        for step in (1, -1):
            moved = dict(images[k])
            moved[J] += step
            yield "moved", images[:k] + [moved] + images[k + 1:]
            yield "moved alone", [moved]
        yield "single", [images[k]]


def test_gr48_compiled_evaluator_matches_reference_on_altered_images(gr48_images):
    rng = random.Random(53)
    seen = set()
    for seed in range(3):
        pts = list(_integer_points(8, 7, 2000 + seed))
        for kind, images in _altered_image_lists(gr48_images, rng):
            want = per_minor_evaluate(images, pts)
            assert kernel_evaluate(images, pts) == want, (kind, seed)
            if kind.startswith("inverse"):
                assert not want[0] and want[1] > 1
            seen.add((kind, want[0]))
    # the moved exponents reach both verdicts
    assert {("moved alone", True), ("moved alone", False)} <= seen


GR48_TS = (1, 2, 4, 7, 11, 16, 22, 29)


def gr48_diffs(ts):
    return [b - a for a, b in itertools.combinations(ts, 2)]


def first_maximum(pairs):
    """The first (num, den) of largest value, (0, 1) when there is none."""
    return max(pairs, key=lambda pair: Fraction(*pair), default=(0, 1))


def test_gr48_kernel_sides_and_exponents():
    d = gr48_diffs(GR48_TS)
    monomials = [
        ((), ((0, 1),)),                    # empty numerator
        (((27, 2), (3, 1)), ()),            # empty denominator
        (((5, 3), (7, 1)), ((2, 4),)),      # exponents of 3 and more
        (((0, 1),), ((1, 1),)),
        ((), ()),                           # the empty monomial is 1
    ]
    want = [
        (1, d[0]),
        (d[27] ** 2 * d[3], 1),
        (d[5] ** 3 * d[7], d[2] ** 4),
        (d[0], d[1]),
        (1, 1),
    ]
    # a kernel of one monomial returns its own pair at one point
    assert [_gr48_kernel([monomial])([GR48_TS]) for monomial in monomials] == want
    assert _gr48_kernel(monomials)([GR48_TS]) == first_maximum(want)
    pts = list(_integer_points(8, 9, 61))
    got = _gr48_evaluate(_gr48_kernel(monomials), pts)
    assert got == scalar_evaluate(monomials, pts)
    # (t_8 - t_7)^2 (t_5 - t_1) exceeds 1 at every point
    assert got[0] is False


def test_gr48_kernel_of_one_monomial_and_of_none():
    monomials = [(((0, 1), (9, 5)), ((1, 3), (27, 1)))]
    d = gr48_diffs(GR48_TS)
    assert _gr48_kernel(monomials)([GR48_TS]) == (d[0] * d[9] ** 5, d[1] ** 3 * d[27])
    pts = list(_integer_points(8, 5, 62))
    assert _gr48_evaluate(_gr48_kernel(monomials), pts) == scalar_evaluate(monomials, pts)
    assert _gr48_kernel([])([GR48_TS]) == (0, 1)
    # no monomial, and a value of exactly 1, which is at most 1
    for none_or_one, want in [([], (True, 0, 1)), ([((), ())], (True, 1, 1))]:
        assert scalar_evaluate(none_or_one, pts) == want
        assert _gr48_evaluate(_gr48_kernel(none_or_one), pts) == want
        # no points leave the starting (0, 1)
        assert scalar_evaluate(none_or_one, []) == (True, 0, 1)
        assert _gr48_evaluate(_gr48_kernel(none_or_one), []) == (True, 0, 1)


def test_gr48_kernel_keeps_the_first_of_equal_maxima():
    # d0*d1/(d0*d2) and d1/d2 are one value written as two pairs
    monomials = [(((0, 1), (1, 1)), ((0, 1), (2, 1))), (((1, 1),), ((2, 1),))]
    first = (1, 3, 5, 7, 9, 11, 13, 15)     # d0, d1, d2 = 2, 4, 6
    lower = GR48_TS                         # 1, 3, 6
    later = (1, 4, 7, 10, 13, 16, 19, 22)   # 3, 6, 9
    for ordered, pts, want in [
        (monomials, [first], (True, 8, 12)),
        (monomials, [lower], (True, 3, 6)),
        # the maximum recurs at a later point as another pair
        (monomials, [first, lower, later], (True, 8, 12)),
        (monomials, [later, lower, first], (True, 18, 27)),
        (monomials[::-1], [first, later], (True, 4, 6)),
    ]:
        assert scalar_evaluate(ordered, pts) == want
        assert _gr48_evaluate(_gr48_kernel(ordered), pts) == want


def test_gr48_kernel_sees_a_value_above_one_at_the_very_end():
    # d0/d1 < 1 everywhere; d7/d0 = (t2 - t1)/(t1 - t0) is 1, then 2/3,
    # then 2, at the last monomial of the last point
    monomials = [(((0, 1),), ((1, 1),)), (((7, 1),), ((0, 1),))]
    pts = [(1, 3, 5, 6, 7, 8, 9, 10), (1, 4, 6, 8, 9, 10, 11, 12), (1, 2, 4, 5, 6, 7, 8, 9)]
    kernel = _gr48_kernel(monomials)
    for count, want in [(2, (True, 2, 2)), (3, (False, 2, 1))]:
        assert scalar_evaluate(monomials, pts[:count]) == want
        assert _gr48_evaluate(kernel, pts[:count]) == want


@pytest.mark.parametrize("term", [
    (1.0, 1), ("3", 1), (True, 1), (-1, 1), (28, 1),
    (3, 2.0), (3, "2"), (3, True), (3, 0), (3, -1),
    ("0) or (1", 1),
])
def test_gr48_kernel_refuses_a_bad_term_before_compiling(monkeypatch, term):
    compiled = []
    monkeypatch.setattr(grassmannian, "compile", lambda *a: compiled.append(a),
                        raising=False)
    good = (((0, 1),), ((1, 1),))
    with pytest.raises(ValueError, match="difference index|exponent"):
        _gr48_kernel([good, (((2, 1),), (term,))])
    with pytest.raises(ValueError, match="difference index|exponent"):
        _gr48_kernel([(((2, 1), term), ()), good])
    assert compiled == []


def direct_values(monomials, ts):
    """Each monomial's (numerator, denominator) as powers of differences."""
    d = gr48_diffs(ts)
    return tuple(
        (math.prod(d[i] ** e for i, e in up), math.prod(d[i] ** e for i, e in down))
        for up, down in monomials)


def kernel_source(monkeypatch, monomials):
    """The kernel of `monomials` and the source it was compiled from."""
    sources = []

    def record(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(grassmannian, "compile", record, raising=False)
    kernel = _gr48_kernel(monomials)
    [source] = sources
    return kernel, source


def traced_pairs(source, ts):
    """Run the loop body of a kernel's source at one point, line by line,
    and return the (n, d) pair each comparison meets: the value of every
    monomial through the kernel's own shared products."""
    scope = {f"t{j}": t for j, t in enumerate(ts)}
    pairs = []
    for line in source.splitlines()[3:-1]:
        if line.startswith("        if "):
            pairs.append((scope["n"], scope["d"]))
        else:
            exec(line.strip(), {"__builtins__": {}}, scope)
    return tuple(pairs)


COMPARISON = "        if n*bd > bn*d: bn = n; bd = d"


def test_gr48_stored_kernel_shares_products(monkeypatch, gr48_images):
    monomials = _gr48_monomials(gr48_images)
    # left to right, the 228 products of differences take 1,452
    # multiplications per point
    factors = sum(e for monomial in monomials for side in monomial for _, e in side)
    assert factors - 2 * len(monomials) == 1452
    kernel, source = kernel_source(monkeypatch, monomials)
    assert kernel_source(monkeypatch, monomials)[1] == source
    # only generated names, ints, products and the comparison
    head, start, loop, *body, tail = source.splitlines()
    assert head == "def best(points):"
    assert start == "    bn, bd = 0, 1"
    assert loop == "    for t0, t1, t2, t3, t4, t5, t6, t7 in points:"
    assert tail == "    return bn, bd"
    split = next(i for i, line in enumerate(body) if line.startswith("        n = "))
    shared, per_monomial = body[:split], body[split:]
    for line in shared:
        assert re.fullmatch(r"        (d\d+ = t\d - t\d|s\d+ = [ds]\d+\*[ds]\d+)", line), line
    # exactly one comparison per monomial, after its n and d
    assert len(per_monomial) == 3 * len(monomials)
    product = r"(1|[ds]\d+(\*[ds]\d+)*)"
    for num, den, comparison in zip(*[iter(per_monomial)] * 3):
        assert re.fullmatch(rf"        n = {product}", num), num
        assert re.fullmatch(rf"        d = {product}", den), den
        assert comparison == COMPARISON
    assert body.count(COMPARISON) == len(monomials)
    products = [line for line in body if line != COMPARISON]
    assert sum(line.count("*") for line in products) <= 600
    assert traced_pairs(source, GR48_TS) == direct_values(monomials, GR48_TS)
    pts = list(_integer_points(8, 7, 71))
    assert _gr48_evaluate(kernel, pts) == scalar_evaluate(monomials, pts)


def assert_kernel_values(monomials, kernel, source, ts):
    """The kernel of `monomials` against their direct values at one point:
    each monomial alone, through a one-monomial kernel; each monomial
    through the shared products of `source`; and the first maximum."""
    want = direct_values(monomials, ts)
    assert tuple(_gr48_kernel([monomial])([ts]) for monomial in monomials) == want
    assert traced_pairs(source, ts) == want
    assert kernel([ts]) == first_maximum(want)


def products_id(value):
    """Names a hand-checked case by its (numerator, denominator) products,
    written as the tuple of pairs they form; other arguments keep their
    default names."""
    if (isinstance(value, list) and value
            and all(isinstance(pair, tuple) and all(isinstance(side, str) for side in pair)
                    for pair in value)):
        return "(" + "".join(f"({num}, {den}), " for num, den in value) + ")"
    return None


@pytest.mark.parametrize("monomials, shared, products", [
    # a factor that repeats within one product: d5**4 is (d5*d5)*(d5*d5)
    ([(((5, 4),), ())], ["s0 = d5*d5"], [("s0*s0", "1")]),
    # a pair shared between a numerator and another monomial's denominator
    ([(((0, 1), (1, 1)), ((2, 1),)), (((3, 1),), ((1, 1), (0, 1)))],
     ["s0 = d0*d1"], [("s0", "d2"), ("d3", "s0")]),
    # a shared product of a shared product
    ([(((0, 1), (1, 1), (2, 1)), ()), (((2, 1), (0, 1), (1, 1)), ((9, 1),)),
      (((7, 1),), ((0, 1), (1, 1), (2, 1)))],
     ["s0 = d0*d1", "s1 = d2*s0"], [("s1", "1"), ("s1", "d9"), ("d7", "s1")]),
    # monomials that share nothing stay products of differences
    ([(((0, 1), (1, 1)), ((2, 1), (3, 1))), (((4, 1), (5, 1)), ((6, 2),))],
     [], [("d0*d1", "d2*d3"), ("d4*d5", "d6*d6")]),
], ids=products_id)
def test_gr48_kernel_shares_hand_checked_products(monkeypatch, monomials, shared, products):
    kernel, source = kernel_source(monkeypatch, monomials)
    lines = source.splitlines()
    assert len(lines) == 3 + 28 + len(shared) + 3 * len(products) + 1
    assert lines[31:] == (
        [f"        {line}" for line in shared]
        + [line for num, den in products
           for line in (f"        n = {num}", f"        d = {den}", COMPARISON)]
        + ["    return bn, bd"])
    for ts in list(_integer_points(8, 5, 63)) + [GR48_TS]:
        assert_kernel_values(monomials, kernel, source, ts)


def random_monomials(rng, count):
    """Monomials over a few differences, with repeats and exponents up to
    6, so the kernel shares products of products and squares."""
    pool = rng.sample(range(28), 6)

    def side():
        return tuple((rng.choice(pool), rng.randint(1, 6)) for _ in range(rng.randint(0, 4)))

    return [(side(), side()) for _ in range(count)]


def test_gr48_kernel_of_random_monomials_matches_the_scalar_loop(monkeypatch):
    rng = random.Random(43)
    pts = list(_integer_points(8, 4, 64))
    for trial in range(40):
        monomials = random_monomials(rng, rng.randint(1, 12))
        kernel, source = kernel_source(monkeypatch, monomials)
        for ts in pts:
            assert_kernel_values(monomials, kernel, source, ts)
        assert _gr48_evaluate(kernel, pts) == scalar_evaluate(monomials, pts)


def recount_pairs(sides, first):
    """Reference for `_shared_pairs`: the same greedy, recounting every
    pair of every side before each step. Returns (pairs, sides)."""
    sides = [dict(side) for side in sides]
    made = []
    while True:
        count = {}
        for side in sides:
            for x, y in itertools.combinations_with_replacement(sorted(side), 2):
                n = side[x] // 2 if x == y else min(side[x], side[y])
                if n:
                    count[x, y] = count.get((x, y), 0) + n
        best = min(count, key=lambda q: (-count[q], q), default=None)
        if best is None or count[best] < 2:
            return made, sides
        x, y = best
        s = first + len(made)
        made.append(best)
        for side in sides:
            k = side.get(x, 0) // 2 if x == y else min(side.get(x, 0), side.get(y, 0))
            if k:
                side[x] -= k
                side[y] -= k
                for w in {x, y}:
                    if not side[w]:
                        del side[w]
                side[s] = k


def test_shared_pairs_match_a_full_recount(gr48_images):
    rng = random.Random(29)
    for trial in range(300):
        sides = [{rng.randrange(6): rng.randint(1, 5) for _ in range(rng.randint(0, 5))}
                 for _ in range(rng.randint(1, 8))]
        want = recount_pairs(sides, 40)
        got = [dict(side) for side in sides]
        assert (_shared_pairs(got, 40), got) == want, sides
    sides = [dict(terms) for monomial in _gr48_monomials(gr48_images) for terms in monomial]
    want = recount_pairs(sides, 28)
    assert (_shared_pairs(sides, 28), sides) == want
    # 178 shared products, and 439 multiplications per point in all
    assert len(want[0]) == 178
    assert 178 + sum(sum(side.values()) - 1 for side in sides) == 439


def test_gr48_check_runs_in_one_process():
    # one process: jobs is a keyword that takes only 1
    assert verify_gr48_table(points=5, jobs=1).ok
    with pytest.raises(ValueError, match="jobs must be 1"):
        verify_gr48_table(points=5, jobs=2)
