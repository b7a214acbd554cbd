"""Dynkin catalog, recognition, belts, compatibility degrees."""

import random
import time
from fractions import Fraction

import pytest

from clustercones.finite_type import (
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
from clustercones.seeds import ExchangeData, Seed


def P(nvars, text):
    return LaurentPolynomial.parse(nvars, text)


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


def test_find_bipartite_seed_path():
    path_ex = ExchangeData(3, 0, [[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    path = find_bipartite_seed_path(path_ex)
    assert path == (0,)
    mutated = path_ex
    for k in path:
        mutated = mutated.mutate(k)
    assert is_bipartite_orientation(mutated.mutable_matrix(), 3)
    assert recognize_dynkin(mutated.mutable_matrix(), (1, 1, 1)) == DynkinType("A", 3)


def test_find_bipartite_seed_path_rejects_infinite_type():
    markov = ExchangeData(3, 0, [[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
    with pytest.raises(NotFiniteTypeError):
        find_bipartite_seed_path(markov, cap=2000)


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
    row = [belt.compatibility_degree(x1, w) for w in others]
    assert row == [0, 1, 2, 1, 0]
    x4 = ids[3]
    assert belt.compatibility_degree(x1, x4) == 2
    assert belt.compatibility_degree(x4, x1) == 1
    # same-cluster pairs are compatible
    assert belt.compatibility_degree(x1, ids[1]) == 0


def test_belt_rejects_non_bipartite_and_infinite():
    path_ex = ExchangeData(3, 0, [[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    with pytest.raises(NotFiniteTypeError):
        BipartiteBelt(path_ex)
    affine = ExchangeData(2, 0, [[0, 2], [-2, 0]])
    with pytest.raises(NotFiniteTypeError):
        BipartiteBelt(affine)


def test_tropical_mode_matches_symbolic():
    for name in ("A3", "C2", "D4", "B3", "G2"):
        ex = catalog_exchange(DynkinType.from_name(name), frozen_count=1)
        sym = BipartiteBelt(ex, symbolic=True)
        trop = BipartiteBelt(ex, symbolic=False)
        assert sym.period == trop.period
        assert [e.minexp for e in sym.entries] == [e.minexp for e in trop.entries]
        assert [st.cluster_ids for st in sym.steps] == [
            st.cluster_ids for st in trop.steps
        ]
        with pytest.raises(Exception):
            trop.poly(trop.mutable_ids[-1])


def test_value_walk_matches_symbolic_evaluation():
    rng = random.Random(41)
    belt = BipartiteBelt(catalog_exchange(DynkinType("A", 3), frozen_count=2))
    size = belt.exchange.size
    for _ in range(5):
        point = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(size)]
        values = belt.value_walk(point)
        for id in belt.mutable_ids + belt.frozen_ids:
            assert values[id] == belt.poly(id).evaluate(point)


SYMBOLIC_WITH_FROZEN = [("A3", 3), ("C2", 2), ("G2", 0), ("D4", 2)]


@pytest.mark.parametrize("name,frozen", SYMBOLIC_WITH_FROZEN)
def test_frames_agree_with_value_walks_from_every_step(name, frozen):
    belt = BipartiteBelt(catalog_exchange(DynkinType.from_name(name), frozen))
    assert belt.symbolic
    rng = random.Random(53)
    size = belt.exchange.size
    for s in range(belt.period):
        point = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(size)]
        values = belt.value_walk(point, start_step=s)
        assert [values[id] for id in belt.step(s).cluster_ids] == point
        frame = belt.frame(s)
        assert frame.keys() == values.keys() == set(range(len(belt.entries)))
        # the registry polynomials live in the cluster of step 0
        initial = [values[id] for id in belt.step(0).cluster_ids]
        for id, poly in frame.items():
            assert poly.evaluate(point) == values[id], (s, belt.name(id))
            assert belt.poly(id).evaluate(initial) == values[id], (s, belt.name(id))


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
    ex = catalog_exchange(DynkinType("A", 1), frozen_count=1)
    belt = BipartiteBelt(ex)
    wts = belt.weight_walk([-1, 0])
    assert wts[belt.mutable_ids[0]] == -1
    assert wts[belt.mutable_ids[1]] == 1
    assert wts[belt.frozen_ids[0]] == 0
    with pytest.raises(ValueError):
        belt.weight_walk([1, 1])


def test_e8_belt_tropical_is_fast():
    t0 = time.perf_counter()
    belt = BipartiteBelt(catalog_exchange(DynkinType("E", 8)))
    elapsed = time.perf_counter() - t0
    assert len(belt.mutable_ids) == 128
    assert belt.period == 32 and belt.seed_count == 32
    assert elapsed < 5.0
    assert not belt.symbolic


def test_e6_belt_symbolic_default():
    belt = BipartiteBelt(catalog_exchange(DynkinType("E", 6)))
    assert belt.symbolic
    assert len(belt.mutable_ids) == 42
    assert belt.period == 28 and belt.seed_count == 14


def test_big_type_counts():
    for name, count in (("E7", 70), ("F4", 28), ("G2", 8), ("B4", 20), ("D5", 25)):
        belt = BipartiteBelt(catalog_exchange(DynkinType.from_name(name)))
        assert len(belt.mutable_ids) == count, name
