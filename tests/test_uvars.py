"""u-variable tables, torus weights, degeneration rays, u-equations."""

import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import (
    GR26_SEED,
    compatibility_degree,
    content_walks,
    kernel_weights,
    laurent_ring,
    ratio_value,
    ring_monomial,
    ring_walk,
    u_variable_at,
    value_walk,
    weight_ring,
    weight_walk,
)
from clustercones import finite_type
from clustercones.cones import Certificate, build_u_matrix, verify_certificate
from clustercones.finite_type import (
    BeltError,
    BipartiteBelt,
    DynkinType,
    catalog_exchange,
    sources_of,
)
from clustercones.grassmannian import GrassmannianCluster, IdentificationError, _grid_layout
from clustercones.laurent import LaurentPolynomial
from clustercones.linalg import primitive_vector, rank, rref
from clustercones.seeds import (
    ExchangeData,
    _split,
    load_seed_file,
)
from clustercones.uvars import (
    UVariable,
    build_u_variables,
    degeneration_ray,
    verify_u_equations,
)


def cross_multiplied_u_equations(belt, uvars):
    """Reference check: u_gamma = a/b and the product term c/d, with c and
    d the products of the numerators and denominators raised to (w||gamma),
    checked as a*d + c*b == b*d."""
    ring = laurent_ring(belt.exchange.size)
    polys = [belt.poly(e.id) for e in belt.entries]
    nums, dens = {}, {}
    for u in uvars:
        pos, neg = _split(u.vector.items())
        nums[u.gamma] = ring_monomial(ring, polys, pos)
        dens[u.gamma] = ring_monomial(ring, polys, neg)
    results = {}
    for gamma in belt.mutable_ids:
        a, b = nums[gamma], dens[gamma]
        powers = [
            (omega, e)
            for omega in belt.mutable_ids
            if omega != gamma and (e := compatibility_degree(belt, omega, gamma))
        ]
        c = ring_monomial(ring, nums, powers)
        d = ring_monomial(ring, dens, powers)
        results[gamma] = (a * d + c * b) == (b * d)
    return results


def belt_of(name, frozen=0):
    return BipartiteBelt(catalog_exchange(DynkinType.from_name(name), frozen))


def coeff_vec(belt, coeffs):
    """Ratio dict from coefficients listed in row order."""
    return {id: c for id, c in zip(belt.row_order, coeffs) if c}


def pair(weights, vector):
    """Weight of a ratio vector given its variables' weights."""
    return sum(e * weights[id] for id, e in vector.items())


def obstruction(vector, alpha, weight):
    """A not-weight-zero certificate claiming the ratio has this weight
    under alpha."""
    return Certificate(vector, "not-weight-zero", alpha=alpha, weight=weight)


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
    assert belt.exchange.grading_defect((-1, 0)) is None
    w = belt.valuation_walk((-1, 0))
    assert [w[id] for id in belt.row_order] == [-1, 1, 0]
    assert pair(w, coeff_vec(belt, (1, 0, 1))) == -1

    U = build_u_matrix(belt)
    assert len(U.kernel) == 1
    walks = [belt.valuation_walk(alpha) for alpha in U.kernel]
    assert kernel_weights(U) == walks

    def weight_zero(coeffs):
        return all(pair(w, coeff_vec(belt, coeffs)) == 0 for w in walks)

    assert weight_zero((-1, -1, 0))
    assert weight_zero((-1, -1, 1))
    assert not weight_zero((1, 0, 1))
    # weight zero does not imply bounded: x1 * x_gamma = 1 + f1 grows
    assert weight_zero((1, 1, 0))


def test_weight_table_rejects_non_kernel_vector():
    # the grading check refuses an alpha outside the kernel or of the
    # wrong length, and so does the replay of a weight obstruction, even
    # where the walk along alpha gives the claimed weight
    belt = belt_of("A1", frozen=1)
    U = build_u_matrix(belt)
    vector = coeff_vec(belt, (1, 0, 1))
    assert verify_certificate(U, obstruction(vector, (-1, 0), -1))
    assert belt.exchange.grading_defect((1, 1)) is not None
    weight = pair(belt.valuation_walk((1, 1)), vector)
    assert weight == 2
    assert not verify_certificate(U, obstruction(vector, (1, 1), weight))
    assert belt.exchange.grading_defect((1,)) == "need one weight per node"
    assert not verify_certificate(U, obstruction(vector, (1,), -1))


def scanned_weights(belt, alpha):
    """Reference torus weights of a belt with expansions: the common
    alpha-degree of each variable's Laurent terms. Raises ValueError when
    some variable's terms disagree, i.e. alpha is outside the exchange
    kernel."""
    weights = {}
    for entry in belt.entries:
        degrees = {sum((a * e for a, e in zip(alpha, exps)), Fraction(0))
                   for exps, _ in belt.poly(entry.id).terms()}
        if len(degrees) != 1:
            raise ValueError(f"variable {belt.name(entry.id)} is inhomogeneous")
        (weights[entry.id],) = degrees
    return weights


def test_weight_paths_agree_on_symbolic_belts():
    """The valuation walk along a kernel alpha gives the weights, and
    scanning every variable's terms must give the same; the grading check
    refuses exactly the alphas the scan refuses."""
    rng = random.Random(17)
    inside = outside = 0
    belts = [belt_of(name, frozen=f) for name, f in (
        ("A1", 1), ("A2", 2), ("A3", 3), ("A3", 1), ("A4", 2), ("B2", 2),
        ("B3", 3), ("C2", 2), ("C3", 1), ("D4", 4), ("G2", 2), ("G2", 1),
    )] + [BipartiteBelt(load_seed_file(GR26_SEED))]
    for belt in belts:
        assert belt.offers_expansions
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
                assert belt.exchange.grading_defect(alpha) is None
                assert belt.valuation_walk(alpha) == scanned_weights(belt, alpha)
            else:
                outside += 1
                with pytest.raises(ValueError):
                    scanned_weights(belt, alpha)
                assert belt.exchange.grading_defect(alpha) is not None
    assert inside > 50 and outside > 100


def test_u_vectors_weight_zero_and_independent():
    for belt in (
        belt_of("A1", frozen=1),
        belt_of("C2"),
        BipartiteBelt(load_seed_file(GR26_SEED)),
    ):
        uvars = build_u_variables(belt)
        kernel = belt.exchange.kernel_basis()
        walks = [belt.valuation_walk(alpha) for alpha in kernel]
        for u in uvars:
            assert all(pair(w, u.vector) == 0 for w in walks), (
                f"u-variable at {belt.name(u.gamma)} has nonzero weight"
            )
        if belt.exchange.is_full_rank():
            rows = [
                [Fraction(u.vector.get(id, 0)) for id in belt.row_order]
                for u in uvars
            ]
            assert rank(rows) == len(uvars)
            U = build_u_matrix(belt, uvars)
            assert U.kernel == kernel and kernel_weights(U) == walks


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
            values = value_walk(belt, point)
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
            BipartiteBelt(catalog_exchange(DynkinType.from_name(name), f))
            for name, rank_ in (("A1", 1), ("A2", 2), ("A3", 3), ("A4", 4),
                                ("A5", 5), ("B2", 2), ("B3", 3), ("C3", 3),
                                ("D4", 4), ("D5", 5), ("E6", 6), ("F4", 4),
                                ("G2", 2))
            for f in sorted({0, 1, rank_ - 1, rank_})
        ] + [BipartiteBelt(catalog_exchange(DynkinType.from_name(name), f))
             for name, f in (("E7", 7), ("E8", 8))]
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


def full_elimination_rays(belt, s):
    """The degeneration betas of belt step s from one elimination of the
    whole [B | I_n], frozen columns included, whatever the mutable block:
    the oracle for BipartiteBelt._degenerations."""
    n, size = belt.exchange.n, belt.exchange.size
    rows, pivots, d, _ = rref([
        row + tuple(int(i == j) for j in range(n))
        for i, row in enumerate(belt.step(s).matrix[:n])
    ])
    rank_ = sum(pc < size for pc in pivots)
    out = []
    for j in range(size, size + n):
        if any(row[j] for row in rows[rank_:]):
            out.append(None)
            continue
        v = [0] * size
        for row, pc in zip(rows, pivots[:rank_]):
            v[pc] = row[j]
        g = gcd(d, *v)
        if d < 0:
            g = -g
        out.append(tuple(x // g for x in v))
    return out


def catalog_belts(names, frozen):
    """Catalog belts of the named types, each with the frozen
    counts frozen(rank) gives."""
    return [BipartiteBelt(catalog_exchange(t, f))
            for t in map(DynkinType.from_name, names) for f in frozen(t.rank)]


@pytest.mark.parametrize("context", [
    "gr25", "gr26", "gr27", "gr36", "gr37", "gr38", "catalog"])
def test_block_degenerations_match_the_full_elimination(context, request):
    """Rays from [B_mut | I_n] (nonsingular blocks) or [B | I_n] (the
    rest) equal those of the whole [B | I_n] at every belt step."""
    if context == "catalog":
        belts = catalog_belts(
            ("A3", "A5", "B3", "C3", "D4", "D5", "E6", "E7", "F4", "G2"),
            lambda rank_: (0, 1, rank_))
    elif context in ("gr26", "gr36", "gr37", "gr38"):
        belts = [request.getfixturevalue(context).belt]
    else:
        belts = [GrassmannianCluster(int(context[2]), int(context[3])).belt]
    blocks = set()
    for belt in belts:
        n = belt.exchange.n
        for s in range(belt.period):
            assert belt._degenerations(s) == full_elimination_rays(belt, s), (belt, s)
            matrix = belt.step(s).matrix
            blocks.add(rank([row[:n] for row in matrix[:n]]) == n)
            # the belt reuses the sources of step s - 2, whose block is the same
            assert belt.step(s).sources == sources_of(matrix, n)
            assert [row[:n] for row in matrix[:n]] == [
                tuple(-b for b in row[:n]) for row in belt.step(s + 1).matrix[:n]]
    # A3 = Gr(2,6), A5, B3, C3, D4 = Gr(3,6), D5 and E7 have singular
    # blocks, the others not
    assert blocks == ({True, False} if context == "catalog" else
                      {context not in ("gr26", "gr36")})


def test_gr38_degenerations_take_two_eliminations(gr38, monkeypatch):
    # the belt alternates the E8 block between B and -B, both nonsingular
    calls = []
    spy = lambda matrix: calls.append(len(matrix[0])) or rref(matrix)
    monkeypatch.setattr(finite_type, "rref", spy)
    belt = BipartiteBelt(gr38.belt.exchange)
    U = build_u_matrix(belt)
    assert [ray.beta for ray in U.rays] == [ray.beta for ray in gr38.U.rays]
    assert belt.period == 32 and calls == [16, 16]


def grassmannian_of(context, request):
    """The GrassmannianCluster a context such as "gr37" names."""
    if context in ("gr26", "gr36", "gr37", "gr38"):
        return request.getfixturevalue(context)
    return GrassmannianCluster(int(context[2]), int(context[3]))


def lane_dicts(belt, columns):
    """The per-ray dicts {id: value} of valuation_columns' columns."""
    ids = [e.id for e in belt.entries]
    return [dict(zip(ids, lane)) for lane in zip(*columns)]


@pytest.mark.parametrize("context", [
    "gr25", "gr26", "gr27", "gr36", "gr37", "gr38", "catalog"])
def test_packed_weight_walks_match_single_walks(context, request):
    """Weights computed as valuations equal the oracle's walk, which checks
    every exchange for homogeneity: single walks of graded alphas, the
    leading lanes of U's packed walk along U.kernel, and the Grassmannian
    column contents, checked at the grid seed and walked packed along the
    belt."""
    if context == "catalog":
        batches = [(belt, []) for belt in catalog_belts(
            ("A3", "A5", "B3", "C3", "D4", "D5", "E6", "E7", "E8", "F4", "G2"),
            lambda rank_: (0, 1, rank_))]
    else:
        g = grassmannian_of(context, request)
        contents, by_id = content_walks(g)
        assert g.content == by_id
        batches = [(g.belt, contents)]
    for belt, contents in batches:
        kernel = belt.exchange.kernel_basis()
        alphas = contents + kernel
        oracle = [weight_walk(belt, alpha) for alpha in alphas]
        assert all(type(w) is int for walk in oracle for w in walk.values())
        assert all(belt.exchange.grading_defect(a) is None for a in alphas)
        assert [belt.valuation_walk(a) for a in alphas] == oracle
        assert lane_dicts(belt, belt.valuation_columns([(a, 0) for a in alphas])) == oracle
        if belt.exchange.is_full_rank():
            U = g.U if contents else build_u_matrix(belt)
            assert U.kernel == kernel
            assert kernel_weights(U) == oracle[len(contents):]


def test_packed_weight_walk_reruns_wider(gr38, monkeypatch):
    # Gr(3,8) exchanges have total exponent up to 4, so 16-bit lanes hold
    # [-2**10, 2**10): the column contents that are 0 or 1 at every node
    # after the re-basing path, times 600, fit; their weights (up to 1200)
    # do not, and the walk reruns at 32 bits
    widths = []
    packed = finite_type._packed_exchange
    monkeypatch.setattr(finite_type, "_packed_exchange",
                        lambda w, lanes, h: widths.append(w) or packed(w, lanes, h))
    alphas = [[600 * a for a in alpha] for alpha in content_walks(gr38)[0]
              if max(alpha) == 1]
    assert len(alphas) == 7
    columns = gr38.belt.valuation_columns([(a, 0) for a in alphas])
    assert lane_dicts(gr38.belt, columns) == [weight_walk(gr38.belt, a) for a in alphas]
    assert widths == [16, 32]


def test_inhomogeneous_alpha_in_a_batch_raises_its_own_error(gr37):
    """An alpha outside the kernel is refused with the reason the check at
    the belt's initial seed gives: the first mutable node k whose exchange
    relation is not homogeneous, and the degree gap (B alpha)_k there. The
    oracle walk refuses it too, a wrong length is named as such, and the
    replay of a weight obstruction refuses both, though the valuation walk
    along the moved alpha gives the weight claimed."""
    belt = gr37.belt
    ex = belt.exchange
    basis = ex.kernel_basis()
    assert all(ex.grading_defect(alpha) is None for alpha in basis)
    bad = list(basis[0])
    bad[0] += 1
    k, gap = next((k, row[0]) for k, row in enumerate(ex.extended_matrix()) if row[0])
    reason = f"exchange relation is not homogeneous at {ex.names[k]} (degree gap {gap})"
    assert ex.grading_defect(bad) == reason
    with pytest.raises(ValueError, match="not homogeneous"):
        weight_walk(belt, bad)
    assert ex.grading_defect(basis[0][:-1]) == "need one weight per node"
    for alpha, replays in ((basis[0], True), (bad, False)):
        walked = belt.valuation_walk(alpha)
        id = next(id for id in belt.row_order if walked[id])
        cert = obstruction({id: 1}, alpha, walked[id])
        assert verify_certificate(gr37.U, cert) is replays
    cert.alpha = basis[0][:-1]
    assert verify_certificate(gr37.U, cert) is False


@pytest.mark.parametrize("perturb,message", [
    # no longer a grading of the grid seed: the check there names the column
    (lambda a: [a[0] + 1] + a[1:],
     "column 3 content is not an exchange weight: "
     "exchange relation is not homogeneous"),
    # still a grading, with negative weights
    (lambda a: [-x for x in a], "has negative content -1 in column 3"),
])
def test_a_bad_column_content_is_named(monkeypatch, perturb, message):
    # column 3's content is perturbed at the grid seed, where it is
    # checked; the set-up walks the vector it checked
    third = [int(3 in J) for J in _grid_layout(3, 6)[0]]
    check = ExchangeData.grading_defect

    def perturbed(self, alpha):
        if alpha == third:
            alpha[:] = perturb(alpha)
        return check(self, alpha)

    monkeypatch.setattr(ExchangeData, "grading_defect", perturbed)
    with pytest.raises(IdentificationError, match=message):
        GrassmannianCluster(3, 6)


def fraction_weight_walk(belt, alpha):
    """Torus weights by an oracle walk over Fractions only."""
    return ring_walk(belt, weight_ring(), [Fraction(a) for a in alpha], 0)


@pytest.mark.parametrize("context", ["catalog", "gr36", "gr38"])
def test_integer_weight_walks_match_fraction_walks(context, request):
    """The valuation walk along a graded integral alpha gives int weights,
    and along others Fraction weights; both equal an all-Fraction oracle
    walk exactly. The replay reads an integral alpha as ints or as
    Fractions alike. Half a kernel vector gives half its weights, which a
    weight obstruction with alpha / 2 and weight / 2 replays, and the same
    alpha with the full weight does not. The grading check and the replay
    refuse the alphas the oracle refuses."""
    rng = random.Random(29)
    if context == "catalog":
        Us = [build_u_matrix(belt_of(name, frozen=f)) for name, f in (
            ("A3", 1), ("A4", 4), ("B3", 3), ("C3", 2), ("D4", 4),
            ("E6", 6), ("F4", 4), ("G2", 2))]
    else:
        Us = [request.getfixturevalue(context).U]
    halves = refused = 0
    for U in Us:
        belt, size = U.belt, U.belt.exchange.size
        basis = U.kernel
        alphas = list(basis) + [
            [sum(c * v[j] for c, v in zip(coeffs, basis)) for j in range(size)]
            for coeffs in ([rng.randint(-3, 3) for _ in basis] for _ in range(3))
        ]
        for alpha in alphas:
            assert belt.exchange.grading_defect(alpha) is None
            w = belt.valuation_walk(alpha)
            assert all(type(v) is int for v in w.values())
            assert w == fraction_weight_walk(belt, alpha)
            # the replay reads an integral Fraction alpha, as a certificate
            # file gives it, as the int alpha membership gives
            id = next(id for id in belt.row_order if w[id])
            for a in (alpha, [Fraction(x) for x in alpha]):
                assert verify_certificate(U, obstruction({id: 1}, a, w[id]))
            half = [Fraction(a, 2) for a in alpha]
            if all(a.denominator == 1 for a in half):
                continue
            halves += 1
            got = belt.valuation_walk(half)
            assert got == fraction_weight_walk(belt, half)
            assert got == {id: Fraction(v, 2) for id, v in w.items()}
            assert any(type(v) is Fraction and v.denominator == 2
                       for v in got.values())
            assert verify_certificate(U, obstruction({id: 1}, half, got[id]))
            assert not verify_certificate(U, obstruction({id: 1}, half, w[id]))
        for _ in range(4):
            alpha = [rng.randint(-2, 2) for _ in range(size)]
            if all(sum(b * a for b, a in zip(row, alpha)) == 0
                   for row in belt.exchange.extended_matrix()):
                continue
            refused += 1
            for a in (alpha, [Fraction(x, 2) for x in alpha]):
                assert belt.exchange.grading_defect(a) is not None
                with pytest.raises(ValueError):
                    fraction_weight_walk(belt, a)
                # refused by the grading check alone: the walk along a
                # gives the weight claimed
                walked = belt.valuation_walk(a)
                id = next(id for id in belt.row_order if walked[id])
                assert not verify_certificate(U, obstruction({id: 1}, a, walked[id]))
    assert halves and refused


@pytest.mark.parametrize("context", [
    "gr25", "gr26", "gr27", "gr36", "gr37", "gr38", "catalog"])
def test_grading_check_refuses_what_the_weight_walk_refuses(context, request):
    """One check of B alpha = 0 at the belt's initial seed refuses exactly
    the alphas whose oracle walk meets an inhomogeneous exchange relation:
    random alphas, and kernel vectors moved off the kernel at one node."""
    rng = random.Random(31)
    if context == "catalog":
        belts = catalog_belts(
            ("A3", "A5", "B3", "C3", "D4", "D5", "E6", "E7", "E8", "F4", "G2"),
            lambda rank_: (0, 1, rank_))
    else:
        belts = [grassmannian_of(context, request).belt]
    refused = 0
    for belt in belts:
        ex = belt.exchange
        alphas = [[rng.randint(-2, 2) for _ in range(ex.size)] for _ in range(8)]
        for alpha in ex.kernel_basis():
            moved = list(alpha)
            moved[rng.randrange(ex.size)] += rng.choice((-1, 1))
            alphas.append(moved)
        for alpha in alphas:
            defect = ex.grading_defect(alpha)
            try:
                weight_walk(belt, alpha)
            except ValueError:
                refused += 1
                assert defect is not None and "not homogeneous" in defect
            else:
                assert defect is None
    assert refused


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


TELESCOPING = [f"{name}+{frozen}" for name in (
    "A1", "A2", "A3", "A5", "B3", "B4", "C2", "C3", "D4", "D5", "D6", "E6", "F4", "G2")
    for frozen in (0, DynkinType.from_name(name).rank)] + [
    "gr25", "gr26", "gr28", "gr36", "gr37", "gr38", "E7+3", "E8+3"]


@pytest.mark.parametrize("context", TELESCOPING)
def test_product_terms_telescope_to_the_frozen_in_part(request, context):
    # w = sum over omega != gamma of (omega||gamma) * v_omega is frozen_in
    # - e_gamma - e_partner: the product term of the u-equation is the
    # in-monomial of gamma's exchange relation over gamma * partner
    if context.startswith("gr"):
        k, n = int(context[2]), int(context[3])
        belt = (request.getfixturevalue(context) if context in ("gr26", "gr36", "gr37", "gr38")
                else GrassmannianCluster(k, n)).belt
    else:
        name, _, frozen = context.partition("+")
        belt = belt_of(name, int(frozen))
    uvars = build_u_variables(belt)
    vectors = {u.gamma: u.vector for u in uvars}
    for u in uvars:
        w = {}
        for omega in belt.mutable_ids:
            if omega != u.gamma and (e := compatibility_degree(belt, omega, u.gamma)):
                for id, b in vectors[omega].items():
                    w[id] = w.get(id, 0) + e * b
        telescoped = dict(u.frozen_in)
        telescoped[u.gamma] = telescoped[u.partner] = -1
        assert {id: b for id, b in w.items() if b} == telescoped, belt.name(u.gamma)


def count_products(monkeypatch):
    """A list that gets one entry per LaurentPolynomial product."""
    products = []
    mul = LaurentPolynomial.__mul__
    monkeypatch.setattr(LaurentPolynomial, "__mul__",
                        lambda a, b: products.append(None) or mul(a, b))
    return products


@pytest.mark.parametrize("context", ["A1+1", "A3+3", "C2+0", "D4+2", "G2+2", "E6+0", "GR26_SEED"])
def test_untampered_u_equations_take_no_product(monkeypatch, context):
    if context == "GR26_SEED":
        belt = BipartiteBelt(load_seed_file(GR26_SEED))
    else:
        name, _, frozen = context.partition("+")
        belt = belt_of(name, int(frozen))
    uvars = build_u_variables(belt)
    # the belt's proof of its expansions multiplies; the products counted
    # are verify_u_equations' own
    belt.poly(0)
    products = count_products(monkeypatch)
    results = verify_u_equations(belt, uvars)
    assert len(results) == len(belt.mutable_ids) and all(results.values())
    assert products == []
    # a u-variable whose vector differs from its record is multiplied out
    u = uvars[0]
    vector = dict(u.vector)
    vector[u.gamma] -= 1
    uvars[0] = UVariable(u.gamma, u.partner, u.step, u.node, u.numerator,
                         u.frozen_in, vector)
    assert not verify_u_equations(belt, uvars)[u.gamma]
    assert products


def test_belts_beyond_50_variables_offer_no_expansions():
    # E7 has 70 cluster variables: its belt, u-variables and degrees come
    # from the min-plus walk, and asking for expansions raises
    belt = belt_of("E7")
    assert len(belt.mutable_ids) == 70 and not belt.offers_expansions
    assert len(build_u_variables(belt)) == 70
    with pytest.raises(BeltError, match="at most 50 cluster variables"):
        belt.poly(belt.mutable_ids[0])
    with pytest.raises(BeltError, match="at most 50 cluster variables"):
        verify_u_equations(belt)


@pytest.mark.parametrize("field", ["numerator", "frozen_in", "partner", "numerator+vector"])
def test_u_equations_match_cross_multiplied_form_on_tampered_fields(monkeypatch, field):
    # a u-variable that differs from its source record in any field is
    # decided by products, with the verdict of the cross-multiplied form
    rng = random.Random(field)
    contexts = [("A2", 0), ("A3", 0), ("C2", 0), ("G2", 0), ("A1", 1),
                ("A3", 3), ("B3", 0), ("D4", 2)]
    belts = {c: belt_of(*c) for c in contexts}
    uvars = {c: build_u_variables(belt) for c, belt in belts.items()}
    products = count_products(monkeypatch)
    verdicts = set()
    for _ in range(12):
        context = rng.choice([c for c in contexts if field != "frozen_in" or c[1]])
        belt = belts[context]
        tampered = list(uvars[context])
        pos = rng.randrange(len(tampered))
        u = tampered[pos]
        partner, numerator, frozen_in, vector = (
            u.partner, dict(u.numerator), dict(u.frozen_in), dict(u.vector))
        if field == "frozen_in":
            id = rng.choice(belt.frozen_ids)
            frozen_in[id] = frozen_in.get(id, 0) + 1
        elif field == "partner":
            partner = rng.choice([id for id in belt.mutable_ids if id != u.partner])
        else:
            id = rng.choice([id for id in belt.mutable_ids if id != u.gamma])
            numerator[id] = numerator.get(id, 0) + 1
            if field == "numerator+vector":
                vector[id] = vector.get(id, 0) + 1
        tampered[pos] = UVariable(u.gamma, partner, u.step, u.node,
                                  numerator, frozen_in, vector)
        del products[:]
        got = verify_u_equations(belt, tampered)
        assert products
        assert got == cross_multiplied_u_equations(belt, tampered), context
        verdicts.add(got[u.gamma])
    assert verdicts == ({False} if field == "numerator+vector" else {True})


@pytest.mark.parametrize("context", ["A3+3", "C2+2", "D4+3", "G2+2", "gr36", "gr38"])
def test_source_records_match_the_matrix_rows(request, context):
    # every source position of every step of the period holds one record,
    # equal to the oracle's split of its matrix row; no other position does
    if context.startswith("gr"):
        belt = request.getfixturevalue(context).belt
    else:
        name, _, frozen = context.partition("+")
        belt = belt_of(name, int(frozen))
    records = belt._source_records
    assert len(records) == belt.period
    positions = 0
    for s, at in enumerate(records):
        assert sorted(at) == sorted(belt.step(s).sources)
        for k, record in at.items():
            u = u_variable_at(belt, s, k)
            assert record == (u.gamma, u.partner, u.numerator, u.frozen_in, u.vector)
            positions += 1
    assert positions == belt.exchange.n * belt.period // 2


@pytest.mark.parametrize("context", ["A3+3", "G2+2", "gr36"])
def test_u_variables_copy_their_source_records(request, context):
    # U's columns are the records at the source positions, in dicts of
    # their own
    if context.startswith("gr"):
        belt = request.getfixturevalue(context).belt
    else:
        name, _, frozen = context.partition("+")
        belt = belt_of(name, int(frozen))
    uvars = build_u_variables(belt)
    assert [u.gamma for u in uvars] == belt.mutable_ids
    for u in uvars:
        assert (u.step, u.node) == belt.entries[u.gamma].source_pos
        record = belt._source_records[u.step][u.node]
        assert record == (u.gamma, u.partner, u.numerator, u.frozen_in, u.vector)
        for mine, theirs in zip((u.numerator, u.frozen_in, u.vector), record[2:]):
            assert mine is not theirs


RELATIONS = [f"{name}+{frozen}" for name in (
    "A1", "A2", "A3", "A5", "B3", "C2", "C3", "D4", "F4", "G2")
    for frozen in (0, DynkinType.from_name(name).rank)]


@pytest.mark.parametrize("context", RELATIONS)
def test_every_source_record_is_an_exchange_relation_of_the_expansions(context):
    # build_u_variables copies the source records without multiplying them
    # out, since the belt proves each relation with its expansions:
    # gamma * partner = prod numerator + prod frozen_in, at every source
    # position of the period
    name, _, frozen = context.partition("+")
    belt = belt_of(name, int(frozen))
    assert belt.offers_expansions
    ring = laurent_ring(belt.exchange.size)
    polys = [belt.poly(e.id) for e in belt.entries]
    positions = 0
    for s, at in enumerate(belt._source_records):
        for k, record in at.items():
            outp = ring_monomial(ring, polys, record.numerator.items())
            inp = ring_monomial(ring, polys, record.frozen_in.items())
            assert polys[record.gamma] * polys[record.partner] == outp + inp, (s, k)
            positions += 1
    # every mutable variable sits at a source somewhere in the period
    assert positions >= len(belt.mutable_ids)
