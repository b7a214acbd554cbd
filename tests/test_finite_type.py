"""Dynkin catalog, recognition, belts, compatibility degrees."""

import random
import re
import time
from fractions import Fraction
from functools import partial

import pytest

from conftest import (
    VALUATIONS,
    Seed,
    compatibility_degree,
    laurent_ring,
    laurent_value,
    minplus_ring,
    mutate_exchange,
    parse_laurent as P,
    ring_exchange,
    ring_walk,
    textbook_mutation,
    unit_frame,
    value_walk,
)
from clustercones import finite_type
from clustercones.finite_type import (
    BeltError,
    BipartiteBelt,
    DynkinType,
    NotFiniteTypeError,
    catalog_exchange,
    find_bipartite_seed_path,
    is_bipartite_orientation,
    recognize_dynkin,
    sources_of,
)
from clustercones.laurent import LaurentPolynomial
from clustercones.seeds import ExchangeData


def test_type_tables():
    cases = {
        "A1": (2, 2), "A3": (4, 9), "A5": (6, 20),
        "C2": (4, 6), "B3": (6, 12), "C3": (6, 12),
        "D4": (6, 16), "D5": (8, 25),
        "E6": (12, 42), "E7": (18, 70), "E8": (30, 128),
        "F4": (12, 28), "G2": (6, 8),
    }
    for name, (h, nvars) in cases.items():
        t = DynkinType.from_name(name)
        assert t.coxeter_number == h, name
        assert t.num_belt_variables == nvars, name


def test_type_validation():
    for bad in ("B1", "D3", "E9", "F5", "G3", "H2", "A0"):
        with pytest.raises(ValueError):
            DynkinType.from_name(bad)


def test_catalog_matrices():
    assert catalog_exchange(DynkinType("A", 3)).matrix == (
        (0, 1, 0), (-1, 0, -1), (0, 1, 0))
    c2 = catalog_exchange(DynkinType("C", 2))
    assert c2.matrix == ((0, 1), (-2, 0)) and c2.weights == (2, 1)
    b3 = catalog_exchange(DynkinType("B", 3))
    assert b3.matrix == ((0, 1, 0), (-1, 0, -2), (0, 1, 0))
    assert b3.weights == (1, 1, 2)
    c3 = catalog_exchange(DynkinType("C", 3))
    assert c3.matrix == ((0, 1, 0), (-1, 0, -1), (0, 2, 0))
    assert c3.weights == (2, 2, 1)
    g2 = catalog_exchange(DynkinType("G", 2))
    assert g2.matrix == ((0, 1), (-3, 0)) and g2.weights == (3, 1)
    f4 = catalog_exchange(DynkinType("F", 4))
    assert f4.matrix == (
        (0, 1, 0, 0), (-1, 0, -2, 0), (0, 1, 0, 1), (0, 0, -1, 0))


def test_catalog_frozen_attachment():
    a1f = catalog_exchange(DynkinType("A", 1), frozen_count=1)
    assert a1f.matrix == ((0, -1), (1, 0))
    assert a1f.names == ("x1", "f1")
    a3f = catalog_exchange(DynkinType("A", 3), frozen_count=2)
    assert a3f.n == 3 and a3f.m == 2
    assert a3f.matrix[3][0] == 1 and a3f.matrix[0][3] == -1
    assert a3f.matrix[4][1] == 1 and a3f.matrix[1][4] == -1


def test_recognition_round_trips_catalog():
    for name in ("A1", "A2", "A4", "B3", "B4", "C3", "C4", "D4",
                 "D5", "E6", "E7", "E8", "F4", "G2"):
        t = DynkinType.from_name(name)
        ex = catalog_exchange(t, frozen_count=min(1, t.rank))
        got = recognize_dynkin(ex.mutable_matrix(), ex.weights[: ex.n])
        assert got == t, name
    # the rank-2 double edge reports as C2 regardless of weight order
    assert recognize_dynkin([[0, 1], [-2, 0]], (2, 1)) == DynkinType("C", 2)
    assert recognize_dynkin([[0, 2], [-1, 0]], (1, 2)) == DynkinType("C", 2)


def test_recognition_rejects_non_dynkin():
    assert recognize_dynkin([[0, 2], [-2, 0]], (1, 1)) is None  # affine A1
    markov = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
    assert recognize_dynkin(markov, (1, 1, 1)) is None
    cycle = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
    assert recognize_dynkin(cycle, (1, 1, 1)) is None


def test_sources_and_bipartite():
    a3 = catalog_exchange(DynkinType("A", 3))
    assert sources_of(a3.matrix, 3) == (0, 2)
    assert is_bipartite_orientation(a3.matrix, 3)
    path = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
    assert not is_bipartite_orientation(path, 3)
    # isolated mutable nodes count as sources
    assert sources_of(((0,),), 1) == (0,)


def test_mixed_nodes_match_their_definition():
    """A node is mixed when its mutable row has a positive and a negative
    entry; frozen columns and frozen rows do not count."""
    rng = random.Random(8)
    mixed = 0
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(0, 3)
        mat = [[rng.randint(-2, 2) for _ in range(n + m)] for _ in range(n + m)]
        for i in range(n):
            mat[i][i] = 0
        want = sum(
            any(row[j] > 0 for j in range(n)) and any(row[j] < 0 for j in range(n))
            for row in mat[:n]
        )
        assert finite_type._mixed_nodes(mat, n) == want
        assert is_bipartite_orientation(mat, n) == (want == 0)
        mixed += want
    assert mixed > 100


def test_find_bipartite_seed_path():
    path_ex = ExchangeData(3, 0, [[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    path = find_bipartite_seed_path(path_ex)
    assert path == (0,)
    mutated = path_ex
    for k in path:
        mutated = mutate_exchange(mutated, k)
    assert is_bipartite_orientation(mutated.mutable_matrix(), 3)
    assert recognize_dynkin(mutated.mutable_matrix(), (1, 1, 1)) == DynkinType("A", 3)


def test_find_bipartite_seed_path_rejects_infinite_type():
    markov = ExchangeData(3, 0, [[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
    with pytest.raises(NotFiniteTypeError, match="2-finite"):
        find_bipartite_seed_path(markov)


@pytest.mark.parametrize("matrix,path", [
    # the triple-arrow 3-cycle fails the criterion at the start
    ([[0, 3, -3], [-3, 0, 3], [3, -3, 0]], "[]"),
    # the acyclic triangle (affine A2) passes at the start; mutating its
    # middle node doubles the arrow between the other two
    ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], "[1]"),
])
def test_find_bipartite_seed_path_applies_the_2_finite_criterion(matrix, path):
    with pytest.raises(NotFiniteTypeError,
                       match=rf"after mutations {re.escape(path)} .* not 2-finite"):
        find_bipartite_seed_path(ExchangeData(3, 0, matrix))


CATALOG = ["A1", "A2", "A3", "A5", "B3", "C2", "C3", "D4", "D5", "E6", "F4", "G2"]


@pytest.mark.parametrize("name", CATALOG)
def test_find_bipartite_seed_path_returns_to_the_same_type(name):
    rng = random.Random(name)
    dynkin = DynkinType.from_name(name)
    for frozen in (0, dynkin.rank):
        for _ in range(4):
            exchange = catalog_exchange(dynkin, frozen)
            for _ in range(rng.randrange(26)):
                exchange = mutate_exchange(exchange, rng.randrange(exchange.n))
            for k in find_bipartite_seed_path(exchange):
                exchange = mutate_exchange(exchange, k)
            n = exchange.n
            assert is_bipartite_orientation(exchange.mutable_matrix(), n)
            assert recognize_dynkin(
                exchange.mutable_matrix(), exchange.weights[:n]) == dynkin


def seed_loop_rebase(exchange):
    """The re-basing loop the command line ran on a seed file before the
    belt re-based seeds itself: a mutation of the exchange data along
    find_bipartite_seed_path, priming a node's name once per move. The
    reference for BipartiteBelt's own re-basing."""
    if is_bipartite_orientation(exchange.mutable_matrix(), exchange.n):
        return exchange
    path = find_bipartite_seed_path(exchange)
    names = list(exchange.names)
    for k in path:
        exchange = mutate_exchange(exchange, k)
        names[k] += "'"
    return ExchangeData(exchange.n, exchange.m, exchange.matrix, exchange.weights, names)


@pytest.mark.parametrize("name", CATALOG)
def test_belt_rebases_random_orientations_as_the_seed_loop_did(name):
    rng = random.Random("rebase " + name)
    dynkin = DynkinType.from_name(name)
    rebased = 0
    for frozen in (0, dynkin.rank):
        for _ in range(4):
            exchange = catalog_exchange(dynkin, frozen)
            for _ in range(rng.randrange(1, 26)):
                exchange = mutate_exchange(exchange, rng.randrange(exchange.n))
            want = seed_loop_rebase(exchange)
            belt = BipartiteBelt(exchange)
            got = belt.exchange
            assert (got.n, got.m, got.matrix, got.weights, got.names) == (
                want.n, want.m, want.matrix, want.weights, want.names)
            assert [k for k, _, _ in belt._path_moves] == list(belt.path)
            reference = BipartiteBelt(want)
            assert reference.path == ()
            assert belt.dynkin == reference.dynkin == dynkin
            assert belt.period == reference.period
            assert len(belt.mutable_ids) == len(reference.mutable_ids)
            assert len(belt.frozen_ids) == len(reference.frozen_ids) == frozen
            rebased += bool(belt.path)
    # a rank-2 seed is always bipartite; every larger type meets the path
    assert bool(rebased) == (dynkin.rank > 2)


A3_GOLDEN = {
    (-1, 0, 0): "x1",
    (0, -1, 0): "x2",
    (0, 0, -1): "x3",
    (1, 0, 0): "x1^-1*x2 + x1^-1",
    (0, 0, 1): "x2*x3^-1 + x3^-1",
    (1, 1, 1): "x1^-1*x2^-1*x3^-1 + x1^-1*x2^-1*x3^-1*x2^2 + "
               "2*x1^-1*x3^-1 + x2^-1",
    (0, 1, 1): "x2^-1*x3^-1 + x1*x2^-1 + x3^-1",
    (1, 1, 0): "x1^-1*x2^-1 + x1^-1 + x2^-1*x3",
    (0, 1, 0): "x2^-1 + x1*x2^-1*x3",
}


@pytest.mark.parametrize("name", CATALOG)
def test_each_step_mutates_its_sources_in_one_pass(name):
    # the belt's one pass per step equals the textbook rule node by node,
    # with no frozen node, one, and as many as the rank, and on the Gr(3,8)
    # grid (eight frozen rows and columns)
    from clustercones.grassmannian import GrassmannianCluster
    from clustercones.seeds import _mutate_sources, _split

    rank = DynkinType.from_name(name).rank
    belts = [BipartiteBelt(catalog_exchange(DynkinType.from_name(name), frozen))
             for frozen in sorted({0, 1, rank})]
    if name == "E6":
        belts.append(GrassmannianCluster(3, 8).belt)
    for belt in belts:
        n = belt.exchange.n
        for s, step in enumerate(belt.steps):
            matrix = step.matrix
            for k in step.sources:
                matrix = textbook_mutation(matrix, k, n)
            moves = [(k, *_split(enumerate(step.matrix[k]))) for k in step.sources]
            assert _mutate_sources(step.matrix, moves, n) == matrix
            assert belt.steps[(s + 1) % belt.period].matrix == matrix


def test_a3_belt_variables_and_seed_count():
    t0 = time.perf_counter()
    belt = BipartiteBelt(catalog_exchange(DynkinType("A", 3)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert belt.seed_count == 6
    assert len(belt.mutable_ids) == 9
    by_dvec = {belt.dvector(i): belt.poly(i) for i in belt.mutable_ids}
    assert set(by_dvec) == set(A3_GOLDEN)
    for dvec, text in A3_GOLDEN.items():
        assert by_dvec[dvec] == P(3, text), dvec
    assert belt.root_label(belt.mutable_ids[0]) == "x[-1,0,0]"


def test_a1_belts():
    belt = BipartiteBelt(catalog_exchange(DynkinType("A", 1)))
    assert belt.period == 2 and belt.seed_count == 2
    assert len(belt.mutable_ids) == 2
    assert belt.poly(belt.mutable_ids[1]) == P(1, "2*x1^-1")

    frozen = BipartiteBelt(catalog_exchange(DynkinType("A", 1), frozen_count=1))
    assert frozen.seed_count == 2
    assert len(frozen.mutable_ids) == 2 and len(frozen.frozen_ids) == 1
    assert frozen.poly(frozen.mutable_ids[1]) == P(2, "x1^-1*x2 + x1^-1")


def test_c2_belt_and_compatibility_row():
    belt = BipartiteBelt(catalog_exchange(DynkinType("C", 2)))
    assert belt.period == 6 and belt.seed_count == 6
    ids = belt.mutable_ids
    assert len(ids) == 6
    x1 = ids[0]
    # (x1 || w) for w = x1, x3, x4, x5, x6 walking away from x1 on the belt
    others = [ids[0], ids[2], ids[3], ids[4], ids[5]]
    row = [compatibility_degree(belt, x1, w) for w in others]
    assert row == [0, 1, 2, 1, 0]
    x4 = ids[3]
    assert compatibility_degree(belt, x1, x4) == 2
    assert compatibility_degree(belt, x4, x1) == 1
    # same-cluster pairs are compatible
    assert compatibility_degree(belt, x1, ids[1]) == 0


def test_belt_rebases_a_non_bipartite_seed_and_rejects_infinite():
    # the linear seed a -> b -> c is not bipartite: the belt mutates at a,
    # primes its name, and walks the A3 belt of the seed it reaches
    path_ex = ExchangeData(3, 0, [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
                           names=["a", "b", "c"])
    belt = BipartiteBelt(path_ex)
    assert belt.path == (0,) and belt.dynkin == DynkinType("A", 3)
    assert belt._path_moves == [(0, ((1, 1),), ())]
    assert belt.exchange.matrix == mutate_exchange(path_ex, 0).matrix
    assert belt.exchange.names == ("a'", "b", "c")
    assert belt.period == 12 and len(belt.mutable_ids) == 9
    # the initial variables walked along the path: a becomes (b + 1)/a
    x = [LaurentPolynomial.variable(3, i) for i in range(3)]
    assert belt._rebase(partial(ring_exchange, laurent_ring(3)), list(x)) == [
        P(3, "x1^-1*x2 + x1^-1"), x[1], x[2]]
    # a bipartite seed is its own base
    a3 = catalog_exchange(DynkinType("A", 3))
    bipartite = BipartiteBelt(a3)
    assert bipartite.path == () and bipartite._path_moves == []
    assert bipartite.exchange is a3
    affine = ExchangeData(2, 0, [[0, 2], [-2, 0]])
    with pytest.raises(NotFiniteTypeError):
        BipartiteBelt(affine)


def tropical_record(belt):
    """What the min-plus walk builds: the registry, the steps, the
    schedule, and the compatibility degrees read off them."""
    ids = belt.mutable_ids
    return (
        [(e.id, e.minexp, e.frozen, e.source_pos) for e in belt.entries],
        dict(belt._by_minexp), list(belt.steps), list(belt._schedule),
        belt.period, belt.seed_count, list(ids), list(belt.frozen_ids),
        [[compatibility_degree(belt, g, w) for w in ids] for g in ids],
    )


def test_tropical_mode_matches_symbolic():
    # the Laurent proof reads the belt and changes none of it
    for name in ("A3", "C2", "D4", "B3", "G2"):
        belt = BipartiteBelt(catalog_exchange(DynkinType.from_name(name), frozen_count=1))
        before = tropical_record(belt)
        assert "_expansions" not in belt.__dict__
        belt.poly(belt.mutable_ids[-1])
        assert "_expansions" in belt.__dict__
        assert tropical_record(belt) == before, name


def test_value_walk_matches_symbolic_evaluation():
    rng = random.Random(41)
    belt = BipartiteBelt(catalog_exchange(DynkinType("A", 3), frozen_count=2))
    size = belt.exchange.size
    for _ in range(5):
        point = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(size)]
        values = value_walk(belt, point)
        for id in belt.mutable_ids + belt.frozen_ids:
            assert values[id] == laurent_value(belt.poly(id), point)


SYMBOLIC_WITH_FROZEN = [("A3", 3), ("C2", 2), ("G2", 0), ("D4", 2)]


@pytest.mark.parametrize("name,frozen", SYMBOLIC_WITH_FROZEN)
def test_frames_agree_with_value_walks_from_every_step(name, frozen):
    belt = BipartiteBelt(catalog_exchange(DynkinType.from_name(name), frozen))
    assert belt.offers_expansions
    ex = belt.exchange
    rng = random.Random(53)
    size = ex.size
    for s in range(belt.period):
        point = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(size)]
        values = value_walk(belt, point, start_step=s)
        assert [values[id] for id in belt.step(s).cluster_ids] == point
        # every variable's expansion in the cluster of step s, from a seed
        # that starts there and mutates at the belt's sources for a period
        seed = Seed.initial(
            ExchangeData(ex.n, ex.m, belt.step(s).matrix, ex.weights, ex.names))
        expansions = dict(zip(belt.step(s).cluster_ids, seed.cluster))
        for r in range(s, s + belt.period):
            assert seed.exchange.matrix == belt.step(r).matrix
            for k in belt.step(r).sources:
                seed = seed.mutate(k)
            for id, poly in zip(belt.step(r + 1).cluster_ids, seed.cluster):
                assert expansions.setdefault(id, poly) == poly, (s, belt.name(id))
        frame = unit_frame(belt, s)
        assert frame.keys() == values.keys() == expansions.keys() == set(
            range(len(belt.entries)))
        # the registry polynomials live in the cluster of step 0
        initial = [values[id] for id in belt.step(0).cluster_ids]
        for id, poly in expansions.items():
            assert frame[id] == poly.min_exponents(), (s, belt.name(id))
            assert laurent_value(poly, point) == values[id], (s, belt.name(id))
            assert laurent_value(belt.poly(id), initial) == values[id], (s, belt.name(id))


@pytest.mark.parametrize("name,target", [("A3", (0, 1)), ("C2", (0, 0))])
def test_revisit_is_checked_against_the_stored_expansion(monkeypatch, name, target):
    # the proof of the expansions meets the initial cluster again before it
    # stops: A3 in the steps before its relabeling step h+2, C2 at the end
    # of its h+2 period. Each revisit divides, and its quotient must equal
    # the stored expansion; the quotient that gives back the variable at
    # target (step, node) is made wrong.
    exchange = catalog_exchange(DynkinType.from_name(name))
    s, k = target
    reference = BipartiteBelt(exchange)
    stored = reference.poly(reference.step(s).cluster_ids[k])
    divide = LaurentPolynomial.divide_exact
    corrupted = []

    def divide_corrupted(numerator, denominator):
        quotient = divide(numerator, denominator)
        if quotient == stored:
            quotient = quotient + LaurentPolynomial.one(quotient.nvars)
            corrupted.append(numerator)
        return quotient

    monkeypatch.setattr(LaurentPolynomial, "divide_exact", divide_corrupted)
    belt = BipartiteBelt(exchange)
    with pytest.raises(BeltError, match="two distinct variables share a denominator vector"):
        belt.poly(0)
    assert len(corrupted) == 1


def spy_relabelings(monkeypatch):
    """Record, per call of the relabeling finder while a belt proves its
    expansions, what it found; the call for step s is the s-th, until one
    finds pi."""
    found = []
    relabeling = finite_type._relabeling

    def spy(state, state0, n):
        pi = relabeling(state, state0, n)
        found.append(pi)
        return pi

    monkeypatch.setattr(finite_type, "_relabeling", spy)
    return found


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("name,relabeled", [
    ("A2", True), ("A3", True), ("A5", True), ("D5", True), ("E6", True),
    ("A1", False), ("C2", False), ("D4", False), ("G2", False), ("F4", False),
])
def test_relabeling_is_found_at_h_plus_2_exactly_on_2h_plus_4_belts(
        monkeypatch, name, relabeled, frozen):
    dynkin = DynkinType.from_name(name)
    found = spy_relabelings(monkeypatch)
    belt = BipartiteBelt(catalog_exchange(dynkin, dynkin.rank if frozen else 0))
    assert belt.offers_expansions and not found
    belt.poly(0)
    h = dynkin.coxeter_number
    assert (belt.period == 2 * (h + 2)) == relabeled
    hits = [s + 1 for s, pi in enumerate(found) if pi is not None]
    assert hits == ([h + 2] if relabeled else [])
    if relabeled:
        pi = found[-1]
        # a nontrivial permutation of the mutable nodes; frozen ones fixed
        assert sorted(pi[:dynkin.rank]) == list(range(dynkin.rank))
        assert pi[:dynkin.rank] != tuple(range(dynkin.rank))
        assert pi[dynkin.rank:] == tuple(range(dynkin.rank, len(pi)))


@pytest.mark.parametrize("name,frozen", [("A5", 0), ("D5", 5), ("E6", 6)])
def test_first_request_proves_every_entry_before_the_relabeling_step(
        monkeypatch, name, frozen):
    # building divides nothing; the first poly call divides once per
    # exchange before the step h+2 where the seed comes back relabeled,
    # n(h+2)/2 of them, one per mutable variable: those not in step 0's
    # cluster, met first, and step 0's mutable cluster, met again; a second
    # request divides nothing
    divisors = []
    divide = LaurentPolynomial.divide_exact
    monkeypatch.setattr(LaurentPolynomial, "divide_exact",
                        lambda a, b: divisors.append(b) or divide(a, b))
    belt = BipartiteBelt(catalog_exchange(DynkinType.from_name(name), frozen))
    assert divisors == []
    found = spy_relabelings(monkeypatch)
    expansions = [belt.poly(e.id) for e in belt.entries]
    s0 = len(found)  # the finder ran for steps 1 to s0
    assert found[-1] is not None and s0 == belt.h + 2 == belt.period // 2
    met, want = set(belt.step(0).cluster_ids), []
    for s, moves in enumerate(belt._schedule[:s0]):
        for k, _, _, target in moves:
            met.add(target)
            want.append(belt.poly(belt.step(s).cluster_ids[k]))
    assert met == set(range(len(belt.entries)))
    assert divisors == want and len(want) == len(belt.mutable_ids)
    assert [p.min_exponents() for p in expansions] == [e.minexp for e in belt.entries]
    divisors.clear()
    found.clear()
    assert [belt.poly(e.id) for e in belt.entries] == expansions
    assert divisors == [] and found == []


def belt_record(belt):
    return (
        [(e.id, belt.poly(e.id), e.minexp, e.frozen, e.source_pos)
         for e in belt.entries],
        belt.steps, belt._schedule, belt.period, belt.mutable_ids, belt.frozen_ids,
    )


@pytest.mark.parametrize("name,frozen", [("A5", 0), ("D5", 5), ("E6", 6)])
def test_relabeled_half_equals_the_recomputed_one(monkeypatch, name, frozen):
    # oracle: with the finder made to report nothing, the proof walks the
    # second half too, dividing every exchange there again
    exchange = catalog_exchange(DynkinType.from_name(name), frozen)
    found = spy_relabelings(monkeypatch)
    stopped = belt_record(BipartiteBelt(exchange))
    assert any(pi is not None for pi in found)
    monkeypatch.setattr(finite_type, "_relabeling", lambda state, state0, n: None)
    assert belt_record(BipartiteBelt(exchange)) == stopped


UP_TO_RANK_8 = [f"{family}{rank}" for family, ranks in (
    ("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)), ("D", range(4, 9)),
    ("E", range(6, 9)), ("F", (4,)), ("G", (2,))) for rank in ranks]


@pytest.mark.parametrize("context", [
    f"{name}+{frozen}" for name in UP_TO_RANK_8
    for frozen in (0, DynkinType.from_name(name).rank)
] + ["gr25", "gr28", "gr36", "gr37", "gr38"])
def test_the_proof_meets_each_variable_once_but_step_0s_cluster(request, context):
    # before the proof's stop step (h+2 where the seed comes back
    # relabeled, else the period) the exchanges produce pairwise distinct
    # variables, and the ones already met are exactly step 0's mutable
    # cluster: every division proves a new variable or checks an initial one
    if context in ("gr25", "gr28"):
        from clustercones.grassmannian import GrassmannianCluster

        belt = GrassmannianCluster(2, int(context[3])).belt
    elif context.startswith("gr"):
        belt = request.getfixturevalue(context).belt
    else:
        name, _, frozen = context.partition("+")
        belt = BipartiteBelt(catalog_exchange(DynkinType.from_name(name), int(frozen)))
    state0, n = belt.step(0)[:2], belt.n
    stop = next((s for s in range(1, belt.period)
                 if finite_type._relabeling(belt.step(s)[:2], state0, n) is not None),
                belt.period)
    targets = [target for moves in belt._schedule[:stop] for *_, target in moves]
    assert len(set(targets)) == len(targets)
    initial = belt.step(0).cluster_ids
    assert set(targets) & set(initial) == set(initial[:n])


def test_relabeling_needs_the_conjugate_matrix_frozen_rows_included():
    belt = BipartiteBelt(catalog_exchange(DynkinType.from_name("A3"), 3))
    n = belt.n
    state0 = (belt.step(0).matrix, belt.step(0).cluster_ids)
    step = belt.step(6)
    state = (step.matrix, step.cluster_ids)
    assert finite_type._relabeling(state, state0, n) == (2, 1, 0, 3, 4, 5)
    assert finite_type._relabeling(state0, state0, n) == tuple(range(6))
    # the same permuted ids with a matrix that is not the conjugate: the
    # initial one, whose frozen arrows f_i -> x_i pi does not preserve
    assert state0[0] != step.matrix
    assert finite_type._relabeling((state0[0], step.cluster_ids), state0, n) is None
    # the conjugate except for one entry of a frozen row
    rows = [list(row) for row in step.matrix]
    rows[4][0] += 1
    tampered = tuple(tuple(row) for row in rows)
    assert finite_type._relabeling((tampered, step.cluster_ids), state0, n) is None
    # a cluster that is not the initial one, and frozen ids moved
    other = belt.step(1)
    assert finite_type._relabeling((other.matrix, other.cluster_ids), state0, n) is None
    moved = step.cluster_ids[:3] + (4, 3, 5)
    assert finite_type._relabeling((step.matrix, moved), state0, n) is None
    # state0 relabeled by a permutation that moves frozen nodes as well
    sigma = (2, 1, 0, 5, 4, 3)
    conjugate = tuple(tuple(state0[0][p][q] for q in sigma) for p in sigma)
    assert finite_type._relabeling((conjugate, sigma), state0, n) is None


@pytest.mark.parametrize("name,frozen", SYMBOLIC_WITH_FROZEN + [("E6", 6)])
def test_registry_corners_match_the_terms(name, frozen):
    # the corners a registry expansion carries out of the Laurent
    # arithmetic equal the ones read from its terms, and the min corner
    # is the min-plus vector the belt deduplicates by
    belt = BipartiteBelt(catalog_exchange(DynkinType.from_name(name), frozen))
    assert belt.offers_expansions
    for entry in belt.entries:
        poly = belt.poly(entry.id)
        assert poly.min_exponents() == poly._corner(min) == entry.minexp, belt.name(entry.id)
        assert poly.max_exponents() == poly._corner(max), belt.name(entry.id)


@pytest.mark.parametrize("name,wrong", [("A3", 1), ("A3", 16), ("C2", 4), ("E6", 30)])
def test_min_exponent_divergence_is_caught(name, wrong):
    # the registry vector of the variable that the wrong-th exchange of
    # the period produces is made one no variable has, once from an
    # exchange of A3's relabeled half (its 16th), which the proof does not
    # walk; the expansion's own corners, which never come from the
    # min-plus walk, must disagree with it
    belt = BipartiteBelt(catalog_exchange(DynkinType.from_name(name)))
    targets = [target for moves in belt._schedule for *_, target in moves]
    entry = belt.entries[targets[wrong - 1]]
    entry.minexp = (entry.minexp[0] - 100,) + entry.minexp[1:]
    with pytest.raises(BeltError, match="tropical min-exponent bookkeeping diverged"):
        belt.poly(0)


@pytest.mark.parametrize("name,frozen", SYMBOLIC_WITH_FROZEN)
def test_seed_mutation_along_the_belt_reproduces_the_registry(name, frozen):
    belt = BipartiteBelt(catalog_exchange(DynkinType.from_name(name), frozen))
    seed = Seed.initial(belt.exchange)
    for s in range(belt.period):
        step = belt.step(s)
        assert seed.exchange.matrix == step.matrix
        for k in step.sources:
            seed = seed.mutate(k)
        ids = belt.step(s + 1).cluster_ids
        assert seed.cluster == tuple(belt.poly(id) for id in ids), s


def test_weight_walk_homogeneity():
    # a grading of the initial seed makes every exchange homogeneous, and
    # the weights are the valuations along it
    ex = catalog_exchange(DynkinType("A", 1), frozen_count=1)
    belt = BipartiteBelt(ex)
    assert ex.grading_defect([-1, 0]) is None
    wts = belt.valuation_walk([-1, 0])
    assert wts[belt.mutable_ids[0]] == -1
    assert wts[belt.mutable_ids[1]] == 1
    assert wts[belt.frozen_ids[0]] == 0
    assert ex.grading_defect([1, 1]).startswith(
        "exchange relation is not homogeneous at x1 (degree gap")
    assert ex.grading_defect([1]) == "need one weight per node"


def test_e8_belt_tropical_is_fast():
    t0 = time.perf_counter()
    belt = BipartiteBelt(catalog_exchange(DynkinType("E", 8)))
    elapsed = time.perf_counter() - t0
    assert len(belt.mutable_ids) == 128
    assert belt.period == 32 and belt.seed_count == 32
    assert elapsed < 5.0
    assert not belt.offers_expansions


def test_e6_belt_symbolic_default():
    belt = BipartiteBelt(catalog_exchange(DynkinType("E", 6)))
    assert belt.offers_expansions
    assert len(belt.mutable_ids) == 42
    assert belt.period == 28 and belt.seed_count == 14


def test_big_type_counts():
    for name, count in (("E7", 70), ("F4", 28), ("G2", 8), ("B4", 20), ("D5", 25)):
        belt = BipartiteBelt(catalog_exchange(DynkinType.from_name(name)))
        assert len(belt.mutable_ids) == count, name


# the exchange functions against the five-callable ring oracle of conftest

WALK_CONTEXTS = [(name, f) for name in CATALOG for f in (0, DynkinType.from_name(name).rank)
                 ] + [("E7", 0), ("E8", 0), ("E8", 2)]


def typed(walk):
    """A walk's values with their types, so that an int and an equal
    Fraction do not compare equal."""
    return {id: (type(v), v) for id, v in walk.items()}


def units(size):
    return [tuple(int(i == j) for i in range(size)) for j in range(size)]


@pytest.mark.parametrize("name,frozen", WALK_CONTEXTS)
def test_valuation_walks_match_the_ring_oracle(name, frozen):
    # from every start step, along int and Fraction betas, and many int
    # rays at once in one packed walk
    belt = BipartiteBelt(catalog_exchange(DynkinType.from_name(name), frozen))
    size, p = belt.exchange.size, belt.period
    rng = random.Random(f"{name}+{frozen}")
    rays = []
    for s in range(p):
        ints = [rng.randint(-9, 9) for _ in range(size)]
        halves = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(size)]
        for beta in (ints, halves, [Fraction(b) for b in ints]):
            assert typed(belt.valuation_walk(beta, s)) == typed(
                ring_walk(belt, VALUATIONS, list(beta), s)), (s, beta)
        rays.append((ints, s + p * rng.randint(0, 2)))
    walks = [ring_walk(belt, VALUATIONS, list(beta), s) for beta, s in rays]
    assert belt.valuation_columns(rays) == [[w[e.id] for w in walks] for e in belt.entries]


@pytest.mark.parametrize("name,frozen", WALK_CONTEXTS)
def test_frames_and_dedup_keys_match_the_minplus_oracle(name, frozen):
    # the frames are the packed valuations along unit rays, and the
    # registry's min exponent vectors come from the tuple exchange while
    # the belt is built; both equal the min-plus tuple walk of the oracle
    belt = BipartiteBelt(catalog_exchange(DynkinType.from_name(name), frozen))
    size = belt.exchange.size
    for s in range(belt.period):
        assert unit_frame(belt, s) == ring_walk(belt, minplus_ring(size), units(size), s), s
    initial = ring_walk(belt, minplus_ring(size), units(size), 0)
    assert {e.id: e.minexp for e in belt.entries} == initial
    assert belt._by_minexp == {minexp: id for id, minexp in initial.items()}
    assert belt.offers_expansions == (len(belt.mutable_ids) <= 50)


@pytest.mark.parametrize("context", [f"{name}+{frozen}" for name, frozen in WALK_CONTEXTS]
                         + ["gr36", "gr37", "gr38"])
def test_compatibility_degrees_match_the_per_step_frames(request, context):
    # the two frames of steps 0 and 1, shifted along the belt, give every
    # degree that the frame of gamma's own source step gives
    if context.startswith("gr"):
        belt = request.getfixturevalue(context).belt
    else:
        name, _, frozen = context.partition("+")
        belt = BipartiteBelt(catalog_exchange(DynkinType.from_name(name), int(frozen)))
    frames = {}
    positive = 0
    for gamma in belt.mutable_ids:
        s, node = belt.entries[gamma].source_pos
        if s not in frames:
            frames[s] = unit_frame(belt, s)
        for omega in belt.mutable_ids:
            degree = compatibility_degree(belt, gamma, omega)
            assert degree == max(-frames[s][omega][node], 0), (s, gamma, omega)
            positive += degree > 0
    # source steps past 1 read their degrees shifted
    assert positive > 0 and (max(frames) > 1 or len(belt.mutable_ids) == 2)


def test_gr38_rays_and_kernel_alphas_match_the_ring_oracle(gr38):
    belt, U = gr38.belt, gr38.U
    rays = [(list(alpha), 0) for alpha in U.kernel] + [
        (list(ray.beta), ray.step) for ray in U.rays]
    walks = [ring_walk(belt, VALUATIONS, list(beta), s) for beta, s in rays]
    for (beta, s), want in zip(rays, walks):
        assert typed(belt.valuation_walk(beta, s)) == typed(want)
    assert belt.valuation_columns(rays) == [[w[e.id] for w in walks] for e in belt.entries]
    for beta, s in rays[::9]:
        halves = [Fraction(b, 2) for b in beta]
        assert typed(belt.valuation_walk(halves, s)) == typed(
            ring_walk(belt, VALUATIONS, list(halves), s))


# names


def scanned_id(belt, name):
    """The id a name resolves to by a scan: display names in their order,
    then the root labels of mutable variables, the first match winning."""
    for id, nm in belt._names.items():
        if nm == name:
            return id
    for e in belt.entries:
        if not e.frozen and belt.root_label(e.id) == name:
            return e.id
    return None


def every_name(belt):
    return (set(belt._names.values())
            | {belt.root_label(e.id) for e in belt.entries} | {"x0", "p[999]"})


def test_renaming_rebuilds_the_name_index():
    belt = BipartiteBelt(catalog_exchange(DynkinType("A", 3), 1))
    assert [belt.id_by_name(nm) for nm in ("x1", "x2", "x3", "f1")] == [0, 1, 2, 3]
    last, other = belt.mutable_ids[-1], belt.mutable_ids[-2]
    label = belt.root_label(last)
    assert belt.id_by_name(label) == last
    assert belt.id_by_name(belt.root_label(3)) is None  # frozen: no root label
    belt.rename({0: "alpha"})
    assert belt.id_by_name("alpha") == 0 and belt.id_by_name("x1") is None
    # a display name comes before another variable's root label
    belt.rename({other: label})
    assert belt.id_by_name(label) == other
    # a repeated display name resolves to the first id in display order
    belt.rename({2: "dup", 1: "dup"})
    assert belt.id_by_name("dup") == 1
    belt.rename({1: "x2"})
    assert belt.id_by_name("dup") == 2
    for name in every_name(belt):
        assert belt.id_by_name(name) == scanned_id(belt, name), name


def test_name_index_matches_the_scan(gr38):
    from clustercones.context import _catalog_context

    for belt in (gr38.belt, _catalog_context("D4", 2).belt, BipartiteBelt(
            catalog_exchange(DynkinType("E", 6)))):
        names = every_name(belt)
        assert len(names) > len(belt.entries)
        for name in names:
            assert belt.id_by_name(name) == scanned_id(belt, name), name
