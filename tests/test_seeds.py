"""Exchange data, cluster mutation, y-dynamics, seed files."""

import random
from math import gcd

import pytest

from conftest import (
    GR26_SEED,
    Seed,
    mutate_exchange,
    parse_laurent as P,
    textbook_mutation,
    y_seed_from_cluster,
)

from clustercones.laurent import LaurentPolynomial
from clustercones.seeds import (
    _LaneOverflow,
    _packed_exchange,
    ExchangeData,
    dump_seed_data,
    load_seed_file,
    mutate_matrix,
)


C2 = ExchangeData(2, 0, [[0, 1], [-2, 0]], weights=[2, 1])
A3_BIP = ExchangeData(3, 0, [[0, 1, 0], [-1, 0, -1], [0, 1, 0]])


def test_matrix_mutation_involution_and_known_values():
    assert mutate_matrix(C2.matrix, 0, 2) == ((0, -1), (2, 0))
    # path orientation 1 -> 2 -> 3 mutated in the middle closes a 3-cycle
    path = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
    assert mutate_matrix(path, 1, 3) == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))
    rng = random.Random(3)
    for _ in range(50):
        mat = _random_exchange(rng)
        n = len(mat)
        k = rng.randrange(n)
        assert mutate_matrix(mutate_matrix(mat, k, n), k, n) == tuple(
            tuple(row) for row in mat
        )


def _random_exchange(rng, n=None):
    """Random skew-symmetric integer matrix (unit weights)."""
    n = n or rng.randint(2, 4)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b = rng.randint(-2, 2)
            mat[i][j] = b
            mat[j][i] = -b
    return tuple(tuple(row) for row in mat)


def test_exchange_data_validates_skew_symmetrizability():
    with pytest.raises(ValueError):
        ExchangeData(2, 0, [[0, 1], [-2, 0]])  # needs weights (2, 1)
    ok = ExchangeData(2, 0, [[0, 1], [-2, 0]], weights=[2, 1])
    assert mutate_exchange(ok, 0).matrix == ((0, -1), (2, 0))


def test_frozen_frozen_entries_survive_mutation_untouched():
    ex = ExchangeData(1, 2, [[0, 1, -1], [-1, 0, 7], [1, 0, 0]])
    mut = mutate_exchange(ex, 0)
    assert mut.matrix[1][2] == 7
    assert mut.matrix[1][0] == 1 and mut.matrix[0][1] == -1


def _random_extended_exchange(rng):
    """Random skew-symmetrizable matrix with 1-4 mutable and 0-3 frozen
    indices, weights in 1..3, and arbitrary frozen-frozen entries."""
    n, m = rng.randint(1, 4), rng.randint(0, 3)
    size = n + m
    weights = [rng.randint(1, 3) for _ in range(size)]
    mat = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if i >= n:
                mat[i][j], mat[j][i] = rng.randint(-3, 3), rng.randint(-3, 3)
                continue
            g = gcd(weights[i], weights[j])
            c = rng.choice((0, 0, 1, -1, 2, -2))
            mat[i][j], mat[j][i] = c * weights[j] // g, -c * weights[i] // g
    return ExchangeData(n, m, mat, weights)


def test_matrix_mutation_matches_the_textbook_rule():
    rng = random.Random(41)
    reused = changed = 0
    for _ in range(150):
        ex = _random_extended_exchange(rng)
        n, mat = ex.n, ex.matrix
        for _ in range(6):
            k = rng.randrange(n)
            got = mutate_matrix(mat, k, n)
            assert got == textbook_mutation(mat, k, n)
            # list rows give the same tuples
            assert mutate_matrix([list(row) for row in mat], k, n) == got
            for i, row in enumerate(mat):
                if i >= n:
                    assert got[i][n:] == row[n:]
                if i != k and not row[k]:
                    assert got[i] is row
                    reused += 1
                else:
                    changed += 1
            # the result is again skew-symmetrizable with the same weights
            ex = ExchangeData(n, ex.m, got, ex.weights)
            mat = ex.matrix
    assert reused > 500 and changed > 500


def test_c2_cluster_variable_sequence():
    # alternating source mutations of the C2 bipartite seed
    seed = Seed.initial(C2)
    seed = seed.mutate(0)
    assert seed.cluster[0] == P(2, "x1^-1*x2 + x1^-1")
    seed = seed.mutate(1)
    assert seed.cluster[1] == P(2, "x1^-2*x2^-1 + 2*x1^-2 + x1^-2*x2 + x2^-1")
    seed = seed.mutate(0)
    assert seed.cluster[0] == P(2, "x1^-1*x2^-1 + x1^-1 + x1*x2^-1")
    seed = seed.mutate(1)
    assert seed.cluster[1] == P(2, "x2^-1 + x1^2*x2^-1")
    seed = seed.mutate(0)
    assert seed.cluster[0] == LaurentPolynomial.variable(2, 0)
    seed = seed.mutate(1)
    assert seed.cluster[1] == LaurentPolynomial.variable(2, 1)
    assert seed.exchange.matrix == C2.matrix


def test_exchange_relation_with_frozen_coefficients():
    # one mutable node with one frozen in-arrow: x * x' = 1 + f
    ex = ExchangeData(1, 1, [[0, -1], [1, 0]], names=["x1", "f1"])
    seed = Seed.initial(ex).mutate(0)
    assert seed.cluster[0] == P(2, "x1^-1*x2 + x1^-1")


def test_mutation_carries_a_grading_to_a_grading():
    # the lemma behind ExchangeData.grading_defect: a grading of a seed,
    # with alpha_k replaced by the degree of the exchange relation at k
    # minus alpha_k, is a grading of its mutation at k
    rng = random.Random(43)
    walked = 0
    for _ in range(150):
        start = _random_extended_exchange(rng)
        for alpha in start.kernel_basis():
            ex, alpha = start, list(alpha)
            for _ in range(6):
                assert ex.grading_defect(alpha) is None
                k = rng.randrange(ex.n)
                degree = sum(b * a for b, a in zip(ex.matrix[k], alpha) if b > 0)
                alpha[k] = degree - alpha[k]
                ex = mutate_exchange(ex, k)
            walked += 1
    assert walked > 100


def test_laurent_phenomenon_random_walks():
    # mutation in random directions always divides exactly
    rng = random.Random(17)
    for _ in range(25):
        mat = _random_exchange(rng, 3)
        ex = ExchangeData(3, 0, mat)
        seed = Seed.initial(ex)
        for _ in range(6):
            k = rng.randrange(3)
            seed = seed.mutate(k)  # raises NotDivisible on any failure
        assert all(bool(c) for c in seed.cluster)


def test_extended_rank_and_kernel():
    ex = ExchangeData(1, 1, [[0, -1], [1, 0]], names=["x1", "f1"])
    assert ex.is_full_rank()
    basis = ex.kernel_basis()
    assert basis == [(-1, 0)] or basis == [(1, 0)]
    no_frozen = ExchangeData(2, 0, [[0, 1], [-1, 0]])
    assert no_frozen.is_full_rank()
    assert no_frozen.kernel_basis() == []


def y_value_equal(y, i, other):
    """Whether y-value i of y equals other, both as (numerator,
    denominator) pairs: cross-multiplied, so no division is needed."""
    num, den = y.values[i]
    onum, oden = other
    return num * oden == onum * den


def test_y_mutation_is_an_involution():
    rng = random.Random(29)
    for _ in range(30):
        mat = _random_exchange(rng)
        n = len(mat)
        ex = ExchangeData(n, 0, mat)
        seed = Seed.initial(ex)
        y = y_seed_from_cluster(seed)
        k = rng.randrange(n)
        back = y.mutate(k).mutate(k)
        assert back.exchange.matrix == ex.matrix
        for i in range(n):
            assert y_value_equal(y, i, back.values[i])


def test_y_dynamics_intertwines_cluster_mutation():
    # y-values of a mutated seed = y-mutation of the seed's y-values
    rng = random.Random(31)
    cases = [C2, A3_BIP]
    for _ in range(10):
        cases.append(ExchangeData(3, 0, _random_exchange(rng, 3)))
    for ex in cases:
        seed = Seed.initial(ex)
        for depth in range(4):
            k = rng.randrange(ex.n)
            mutated = seed.mutate(k)
            lhs = y_seed_from_cluster(mutated)
            rhs = y_seed_from_cluster(seed).mutate(k)
            assert lhs.exchange.matrix == rhs.exchange.matrix
            for i in range(ex.n):
                assert y_value_equal(lhs, i, rhs.values[i])
            seed = mutated




def test_seed_file_round_trip_and_y_values():
    ex = load_seed_file(GR26_SEED)
    assert ex.n == 3 and ex.m == 6
    assert ex.names[:3] == ("P15", "P14", "P24")
    assert ex.is_full_rank()
    again = load_seed_file(dump_seed_data(ex))
    assert again.matrix == ex.matrix and again.names == ex.names

    y = y_seed_from_cluster(Seed.initial(ex))
    idx = {name: i for i, name in enumerate(ex.names)}
    # y at the P24 node multiplies the targets of its out-arrows over the
    # sources of its in-arrows
    num, den = y.values[idx["P24"]]
    size = ex.size
    p = {name: LaurentPolynomial.variable(size, i) for i, name in enumerate(ex.names)}
    assert num == p["P14"] * p["P23"]
    assert den == p["P12"] * p["P34"]


def test_seed_file_rejects_bad_input():
    with pytest.raises(ValueError):
        load_seed_file(
            {"nodes": [{"name": "a"}, {"name": "a"}], "arrows": []}
        )
    with pytest.raises(ValueError):
        load_seed_file(
            {
                "nodes": [{"name": "a"}, {"name": "b"}],
                "arrows": [
                    {"from": "a", "to": "b"},
                    {"from": "b", "to": "a"},
                ],
            }
        )
    with pytest.raises(ValueError):
        load_seed_file(
            {
                "nodes": [{"name": "a"}, {"name": "b", "weight": 3}],
                "arrows": [{"from": "a", "to": "b", "mult": 2}],
            }
        )


def test_entries_just_below_the_exponent_limit_are_accepted():
    data = {"nodes": [{"name": "a", "weight": 2}, {"name": "f", "frozen": True}],
            "arrows": [{"from": "f", "to": "a", "mult": 8190}]}
    assert load_seed_file(data).matrix == ((0, -4095), (8190, 0))
    data["arrows"][0]["mult"] = 8191
    with pytest.raises(ValueError, match="weights do not symmetrize"):
        load_seed_file(data)
    data["nodes"][0]["weight"] = 1
    assert load_seed_file(data).matrix == ((0, -8191), (8191, 0))


def _pack(values, width):
    """sum v_r 2**(width r), lane 0 lowest."""
    return sum(v << width * r for r, v in enumerate(values))


def _unpack(packed, width, lanes):
    top = 1 << (width - 1)
    packed += sum(top << width * r for r in range(lanes))
    return [(packed >> width * r & ((1 << width) - 1)) - top for r in range(lanes)]


def _checked(exchange, values, pos, neg, old, width, lanes, want, bound):
    """exchange(values, pos, neg, old) unpacked is want when every lane
    of want lies in the checked range [-bound, bound), and raises
    _LaneOverflow otherwise."""
    if all(-bound <= v < bound for v in want):
        assert _unpack(exchange(values, pos, neg, old), width, lanes) == want
    else:
        with pytest.raises(_LaneOverflow):
            exchange(values, pos, neg, old)


@pytest.mark.parametrize("width,headroom", [(16, 2), (16, 4), (32, 3), (24, 1)])
def test_packed_valuations_are_lanewise_min_plus(width, headroom):
    # one packed exchange (prod pos + prod neg) / old gives the lanewise
    # min of two monomials, lanewise sums and multiples when both
    # monomials are the same, and lanewise differences by old
    rng = random.Random(width * 10 + headroom)
    lanes = 9
    exchange = _packed_exchange(width, lanes, headroom)
    bound = 1 << (width - 2 - headroom)  # the checked range [-M, M)
    one, both = ((0, 1),), ((0, 1), (1, 1))
    for _ in range(300):
        a = [rng.randrange(-bound, bound) for _ in range(lanes)]
        b = [rng.randrange(-bound, bound) for _ in range(lanes)]
        a[0], b[0] = -bound, bound - 1  # the ends of the range
        pa, pb = _pack(a, width), _pack(b, width)
        assert _unpack(exchange([pa, pb], one, ((1, 1),), 0), width, lanes) == list(map(min, a, b))
        assert _unpack(exchange([pa, pb], ((1, 1),), one, 0), width, lanes) == list(map(min, a, b))
        _checked(exchange, [pa, pb], both, both, 0, width, lanes,
                 [x + y for x, y in zip(a, b)], bound)
        _checked(exchange, [pa], ((0, 3),), ((0, 3),), 0, width, lanes, [3 * x for x in a], bound)
        assert exchange([pa], (), (), 0) == 0
        _checked(exchange, [pa, pb], one, one, pb, width, lanes,
                 [x - y for x, y in zip(a, b)], bound)


def test_packed_division_refuses_each_lane_just_outside_its_range():
    width, headroom, lanes = 16, 3, 5
    exchange = _packed_exchange(width, lanes, headroom)
    bound = 1 << (width - 2 - headroom)
    one = ((0, 1),)
    for r in range(lanes):
        for v in (bound - 1, -bound):
            inside = _pack([v if i == r else 0 for i in range(lanes)], width)
            assert exchange([inside], one, one, 0) == inside
        for v in (bound, -bound - 1, 3 * bound, -3 * bound):
            with pytest.raises(_LaneOverflow):
                exchange([_pack([v if i == r else 1 for i in range(lanes)], width)], one, one, 0)
