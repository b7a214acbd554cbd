"""Plucker cluster structures on small Grassmannians.

Covers seed construction, identification of cluster variables with minors
and quadratic differences, cone restriction, primitive-ratio
factorization, rotation orbits, the staircase unimodular minor, and the
packaged factorization tables. Goldens are hand-checked minor values,
figures transcribed row by row, or outputs of brute-force searches coded
inline next to the assertion.
"""

import itertools
import random
import re
from fractions import Fraction

import pytest

from conftest import GR26_SEED, GR37_ORBIT_TABLE, ratio_value
from clustercones.cones import (
    membership,
    subset_cone,
    unimodular_minor_search,
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
    _gr48_monomials,
    _gr48_symmetries,
    _integer_points,
    _zigzag_diagonals,
    check_ray_table,
    grid_seed,
    load_gr48_ratios,
    load_ray_table,
    packaged_table,
    tp_sample,
    verify_gr48_table,
)
from clustercones.linalg import det_bareiss
from clustercones.seeds import load_seed_file


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
    assert g.path == ()
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
    vals = gr36.registry_values(pt)
    for J, id in gr36.minor_id.items():
        assert vals[id] == pt.minor(J)
    for id in gr36.belt.row_order:
        assert vals[id] > 0


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


@pytest.mark.parametrize("n", range(5, 11))
def test_staircase_minor_is_unimodular(n):
    g = GrassmannianCluster(2, n)
    rows, cols, M = g.staircase_matrix()
    assert len(rows) == len(cols) == len(g.uvars)
    assert abs(det_bareiss(M)) == 1


def test_staircase_block_structure(gr26):
    rows, cols, M = gr26.staircase_matrix()
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


def test_gr37_orbit_table(gr37):
    cone = gr37.pluecker_cone()
    rows = load_ray_table(GR37_ORBIT_TABLE)["pluecker"]
    assignment, ray_rows = check_ray_table(gr37, rows, cone)
    orbits = gr37.ray_orbits(cone)
    owner = {i: t for t, orbit in enumerate(orbits) for i in orbit}
    assert sorted(owner[i] for i in ray_rows) == list(range(len(orbits)))
    for key, id in assignment.items():
        assert gr37.degree[id] == 2 and key.count("|") == 1


def test_gr38_appendix_tables(gr38):
    tables = load_ray_table(packaged_table("gr38_appendix.txt"))
    pcone = gr38.pluecker_cone()
    assignment, prows = check_ray_table(gr38, tables["pluecker"], pcone)
    orbits = gr38.ray_orbits(pcone)
    owner = {i: t for t, orbit in enumerate(orbits) for i in orbit}
    assert sorted(owner[i] for i in prows) == list(range(10))

    dcone = gr38.degree_filtered_cone(2)
    assignment2, drows = check_ray_table(gr38, tables["degree2"], dcone)
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
        rhs[0] = "v[123]"  # a frozen minor has no u-variable
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


def test_ray_table_search_refuses_to_truncate(gr37):
    cone = gr37.pluecker_cone()
    # the row holds whichever of the two variables of content 0111111 the
    # exponent-zero name takes, so two assignments survive it
    rows = [({"p[247]": 1, "p[123]": 1, "p[237]": -1, "p[124]": -1,
              "q[234|567]": 0}, ["v[124]"])]
    with pytest.raises(RatioTableError, match=r"table row 1: more than cap=1 "):
        check_ray_table(gr37, rows, cone, cap=1)
    assignment, ray_rows = check_ray_table(gr37, rows, cone, cap=2)
    assert list(assignment) == ["234|567"] and len(ray_rows) == 1


def test_ray_table_parse_and_check_errors(gr36):
    with pytest.raises(ValueError, match="before any"):
        load_ray_table("p[12]/p[13] : v[12]")
    with pytest.raises(ValueError, match="missing ':'"):
        load_ray_table("[a]\np[12]/p[13]")
    with pytest.raises(ValueError, match="empty ray list"):
        load_ray_table("[a]\np[12]/p[13] :")
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
    images = _gr48_images(load_gr48_ratios())
    # 19 rows, a few fixed by part of the group: measured once, frozen
    assert len(images) == 316


@pytest.mark.parametrize("points", [0, -5])
def test_gr48_verification_needs_a_point(points):
    # zero points used to report strictly_below_one and ok on nothing
    with pytest.raises(ValueError, match="at least one sample point"):
        verify_gr48_table(points=points)


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
    assert second.argmax == first.argmax


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


# the compiled 4x8 evaluator against the per-minor one it replaced


def per_minor_evaluate(images, points):
    """Reference: every Plucker factor of every image at every point, in
    point-major order, ties kept by the first (point, image) seen.

    Returns (all_bounded, maximum value, (image index, point index)).
    """
    best_num, best_den = 0, 1
    best_at = (-1, -1)
    ok = True
    items = [sorted(image.items()) for image in images]
    for pi, ts in enumerate(points):
        pt = TotallyPositivePoint(4, ts)
        minors = {J: pt.minor(J) for J in itertools.combinations(range(1, 9), 4)}
        for ii, ratio in enumerate(items):
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
                best_at = (ii, pi)
    return ok, Fraction(best_num, best_den), best_at


def compiled_evaluate(images, points):
    ok, num, den, at = _gr48_evaluate(_gr48_monomials(images), points)
    return ok, Fraction(num, den), at


@pytest.fixture(scope="module")
def gr48_images():
    return _gr48_images(load_gr48_ratios())


def test_gr48_images_share_114_difference_monomials(gr48_images):
    # measured once, frozen; complement maps a weight-zero ratio to the
    # same difference monomial, which is part of why so many coincide
    monomials = _gr48_monomials(gr48_images)
    assert len(monomials) == 114
    assert monomials[0][0] == 0
    assert [m[0] for m in monomials] == sorted(m[0] for m in monomials)


@pytest.mark.parametrize("count", [1, 7, 40])
def test_gr48_compiled_evaluator_matches_per_minor_reference(gr48_images, count):
    for seed in range(30):
        pts = _integer_points(8, count, 1000 + seed)
        want = per_minor_evaluate(gr48_images, pts)
        assert compiled_evaluate(gr48_images, pts) == want, seed
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
        pts = _integer_points(8, 7, 2000 + seed)
        for kind, images in _altered_image_lists(gr48_images, rng):
            want = per_minor_evaluate(images, pts)
            assert compiled_evaluate(images, pts) == want, (kind, seed)
            if kind.startswith("inverse"):
                assert not want[0] and want[1] > 1
            seen.add((kind, want[0]))
    # the moved exponents reach both verdicts
    assert {("moved alone", True), ("moved alone", False)} <= seen


@pytest.mark.parametrize("seed", [3, 311, 4096])
def test_gr48_two_workers_match_one(seed):
    one = verify_gr48_table(points=40, seed=seed, jobs=1)
    two = verify_gr48_table(points=40, seed=seed, jobs=2)
    assert two.to_dict() == one.to_dict()
    assert two.argmax == one.argmax
