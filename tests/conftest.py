"""Shared test fixtures and oracles: seed-file dicts, cluster structures,
and hand-written references for the package's arithmetic, used by several
suites."""

import operator
import re
from fractions import Fraction
from math import prod
from typing import Callable, NamedTuple

import pytest


# Laurent polynomials written out by hand: a reader of serialize()'s text
# format, a constructor from exponent vectors, and exact evaluation, the
# oracle for every walk that computes values without expanding polynomials


def laurent_from_terms(nvars, items):
    """The Laurent polynomial sum coeff * x^exps over the (exps, coeff)
    pairs of items; terms with equal exponents add up, and zero ones go."""
    from clustercones.laurent import LaurentPolynomial, pack_exponents

    terms = {}
    for exps, coeff in items:
        if len(exps) != nvars:
            raise ValueError("exponent vector length mismatch")
        key = pack_exponents(exps)
        c = terms.get(key, 0) + coeff
        if c:
            terms[key] = c
        elif key in terms:
            del terms[key]
    return LaurentPolynomial(nvars, terms)


_TOKEN = re.compile(r"\s*(x(\d+)(\^(-?\d+))?|(-?\d+)|([+*-]))")


def parse_laurent(nvars, text):
    """Parse the serialize() format (whitespace-tolerant)."""
    terms = []
    sign = 1
    coeff = None
    exps = None
    pos = 0

    def flush():
        nonlocal sign, coeff, exps
        if exps is None and coeff is None:
            raise ValueError(f"dangling operator in {text!r}")
        c = sign * (1 if coeff is None else coeff)
        terms.append((exps if exps is not None else [0] * nvars, c))
        sign, coeff, exps = 1, None, None

    expect_factor = True
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad token at offset {pos} in {text!r}")
            break
        pos = m.end()
        if m.group(6):
            op = m.group(6)
            if op == "*":
                expect_factor = True
                continue
            if expect_factor and op == "-":
                sign = -sign
                continue
            if expect_factor:
                continue
            flush()
            if op == "-":
                sign = -1
            expect_factor = True
        elif m.group(5) is not None:
            value = int(m.group(5))
            if not expect_factor:
                flush()
            if value < 0:
                sign *= -1
                value = -value
            coeff = value if coeff is None else coeff * value
            expect_factor = False
        else:
            if not expect_factor:
                flush()
            idx = int(m.group(2)) - 1
            if not 0 <= idx < nvars:
                raise ValueError(f"variable x{idx + 1} out of range in {text!r}")
            e = int(m.group(4)) if m.group(4) else 1
            if exps is None:
                exps = [0] * nvars
            exps[idx] += e
            expect_factor = False
    if exps is not None or coeff is not None:
        flush()
    elif not terms:
        raise ValueError(f"empty polynomial string {text!r}")
    return laurent_from_terms(nvars, terms)


def laurent_value(poly, point):
    """Exact value of a Laurent polynomial at a point with nonzero
    coordinates, term by term over Fractions."""
    if len(point) != poly.nvars:
        raise ValueError("point length mismatch")
    return sum((Fraction(coeff) * prod(Fraction(x) ** e for x, e in zip(point, exps))
                for exps, coeff in poly.terms()), Fraction(0))


# the exchange relation over a ring of five callables: the oracle for the
# package's exchange functions (seeds._valuation_exchange and the others),
# written term by term and walked from each belt step's matrix rows


class Ring(NamedTuple):
    """The operations an exchange walk needs, as plain callables."""

    one: Callable[[], object]
    mul: Callable[[object, object], object]
    pow: Callable[[object, int], object]
    add: Callable[[object, object], object]
    div: Callable[[object, object], object]


def ring_monomial(ring, values, terms):
    """Product of values[j] ** b over the (j, b) pairs of terms."""
    acc = None
    for j, b in terms:
        f = values[j] if b == 1 else ring.pow(values[j], b)
        acc = f if acc is None else ring.mul(acc, f)
    return ring.one() if acc is None else acc


def ring_exchange(ring, values, pos, neg, old):
    """The exchange relation: (prod values^pos + prod values^neg) / old."""
    return ring.div(
        ring.add(ring_monomial(ring, values, pos), ring_monomial(ring, values, neg)), old)


def row_split(row):
    """Positive and (negated) negative (index, exponent) pairs of a matrix row."""
    return (tuple((j, b) for j, b in enumerate(row) if b > 0),
            tuple((j, -b) for j, b in enumerate(row) if b < 0))


def ring_walk(belt, ring, values, start=0):
    """One period of the belt from step start over a ring, read off each
    step's matrix and sources (not the belt's walk schedule): values holds
    the cluster of step start by node and is updated in place; returns
    the value of every registry variable."""
    out = dict(zip(belt.step(start).cluster_ids, values))
    for s in range(start, start + belt.period):
        step, after = belt.step(s), belt.step(s + 1).cluster_ids
        for k in step.sources:
            pos, neg = row_split(step.matrix[k])
            values[k] = out[after[k]] = ring_exchange(ring, values, pos, neg, values[k])
    return out


def mutate_exchange(exchange, k):
    """The exchange data mutated at mutable index k by seeds.mutate_matrix,
    with its weights and names."""
    from clustercones.seeds import ExchangeData, mutate_matrix

    return ExchangeData(exchange.n, exchange.m, mutate_matrix(exchange.matrix, k, exchange.n),
                        exchange.weights, exchange.names)


def textbook_mutation(matrix, k, n):
    """b'_ij = -b_ij if i or j is k, b_ij for two frozen indices, and
    b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2 otherwise."""
    size = len(matrix)
    out = [list(row) for row in matrix]
    for i in range(size):
        for j in range(size):
            b_ij, b_ik, b_kj = matrix[i][j], matrix[i][k], matrix[k][j]
            if k in (i, j):
                out[i][j] = -b_ij
            elif i < n or j < n:
                out[i][j] = b_ij + (abs(b_ik) * b_kj + b_ik * abs(b_kj)) // 2
    return tuple(tuple(row) for row in out)


def ring_replay(grass, ring, vals):
    """A value system, indexed by grid node, walked over a ring along the
    re-basing path of a GrassmannianCluster's belt, from the grid's
    matrix."""
    from clustercones.seeds import mutate_matrix

    matrix = grass.grid.matrix
    for node in grass.belt.path:
        pos, neg = row_split(matrix[node])
        vals[node] = ring_exchange(ring, vals, pos, neg, vals[node])
        matrix = mutate_matrix(matrix, node, grass.grid.n)
    return vals


def fraction_ring():
    """The exchange relation's operations over exact Fractions."""
    return Ring(lambda: Fraction(1), operator.mul, operator.pow,
                operator.add, operator.truediv)


def laurent_ring(nvars):
    """The exchange relation's operations over Laurent polynomials."""
    from clustercones.laurent import LaurentPolynomial

    return Ring(lambda: LaurentPolynomial.one(nvars), operator.mul, operator.pow,
                operator.add, lambda a, b: a.divide_exact(b))


# valuations at t -> 0 along x = t^beta, ints or Fractions
VALUATIONS = Ring(lambda: 0, operator.add, operator.mul, min, operator.sub)


def minplus_ring(nvars):
    """Componentwise minimum exponents, as tuples."""
    return Ring(
        lambda: (0,) * nvars,
        lambda a, b: tuple(map(operator.add, a, b)),
        lambda a, e: tuple(e * x for x in a),
        lambda a, b: tuple(map(min, a, b)),
        lambda a, b: tuple(map(operator.sub, a, b)),
    )


# seeds that carry their cluster: the per-mutation oracles for the belt's
# walks (Seed, Laurent expansions) and for the y-pattern (YSeed)


class Seed:
    """Exchange data plus a cluster of Laurent polynomials."""

    __slots__ = ("exchange", "cluster")

    def __init__(self, exchange, cluster):
        if len(cluster) != exchange.size:
            raise ValueError("cluster length mismatch")
        self.exchange = exchange
        self.cluster = tuple(cluster)

    @classmethod
    def initial(cls, exchange):
        from clustercones.laurent import LaurentPolynomial

        size = exchange.size
        cluster = [LaurentPolynomial.variable(size, i) for i in range(size)]
        return cls(exchange, cluster)

    def mutate(self, k):
        """Exchange substitution at mutable index k, by exact Laurent
        division, which doubles as a proof that the new variable is again
        a Laurent polynomial."""
        from clustercones.laurent import LaurentPolynomial
        from clustercones.seeds import _product_exchange, _split

        ex = self.exchange
        if not 0 <= k < ex.n:
            raise IndexError(f"mutation index {k} is not mutable")
        pos, neg = _split(enumerate(ex.matrix[k]))
        cluster = list(self.cluster)
        relation = _product_exchange(LaurentPolynomial.divide_exact, LaurentPolynomial.one(ex.size))
        cluster[k] = relation(self.cluster, pos, neg, self.cluster[k])
        return Seed(mutate_exchange(ex, k), cluster)

    def __repr__(self):
        return f"<Seed n={self.exchange.n} m={self.exchange.m}>"


class YSeed:
    """Y-dynamics seed: one subtraction-free rational pair per mutable index.

    Values are (numerator, denominator) pairs of Laurent polynomials in
    whatever ambient variables the caller chose; equality of values is
    decided by cross-multiplication, so pairs need not be reduced.
    """

    __slots__ = ("exchange", "values")

    def __init__(self, exchange, values):
        if len(values) != exchange.n:
            raise ValueError("one y-value per mutable index required")
        self.exchange = exchange
        self.values = tuple(values)

    def mutate(self, k):
        ex = self.exchange
        if not 0 <= k < ex.n:
            raise IndexError(f"mutation index {k} is not mutable")
        yk_num, yk_den = self.values[k]
        new_values = []
        for i in range(ex.n):
            if i == k:
                new_values.append((yk_den, yk_num))
                continue
            num, den = self.values[i]
            b = ex.matrix[i][k]
            if b:
                # b > 0: y_i * (y_k / (1 + y_k))^b; b < 0: y_i * (1 + y_k)^|b|
                total = yk_num + yk_den
                gain, loss = (yk_num, total) if b > 0 else (total, yk_den)
                num, den = num * gain ** abs(b), den * loss ** abs(b)
            new_values.append((num, den))
        return YSeed(mutate_exchange(ex, k), new_values)


def y_seed_from_cluster(seed):
    """The y-values attached to a seed: y_i = prod_j cluster_j ^ B[i][j]."""
    from clustercones.laurent import LaurentPolynomial
    from clustercones.seeds import _monomial, _split

    ex = seed.exchange
    one = LaurentPolynomial.one(ex.size)
    values = []
    for i in range(ex.n):
        pos, neg = _split(enumerate(ex.matrix[i]))
        values.append(
            (_monomial(seed.cluster, pos, one), _monomial(seed.cluster, neg, one))
        )
    return YSeed(ex, values)


def compatibility_degree(belt, gamma, omega):
    """Exponent of the gamma-variable in the denominator of omega, written
    in the cluster at gamma's source seed: max(-val, 0), val the valuation
    BipartiteBelt._unit_valuations reads off the belt's unit frames (its
    docstring has the derivation). Zero when the two share a cluster, and
    for omega == gamma."""
    if belt.entries[gamma].frozen or belt.entries[omega].frozen:
        raise ValueError("compatibility degrees are between mutable variables")
    return max(-belt._unit_valuations(omega, (gamma,))[0], 0)


def unit_frame(belt, s):
    """Min exponents of every registry variable in the cluster of belt
    step s, by id: its valuations along the unit rays of every node at
    step s, from one packed walk that starts there. The per-step oracle
    for compatibility_degree, which reads the walks from steps 0 and 1
    only."""
    size = belt.exchange.size
    units = [(tuple(int(i == j) for i in range(size)), s) for j in range(size)]
    return {e.id: tuple(column) for e, column in zip(
        belt.entries, belt.valuation_columns(units))}


def value_walk(belt, point, start_step=0):
    """Exact values of every registry variable, given positive values for
    the cluster of belt step start_step (by node): one walk of the belt
    over Fractions, the oracle for the package's integer and min-plus
    walks."""
    if len(point) != belt.exchange.size:
        raise ValueError("need one value per node")
    return ring_walk(belt, fraction_ring(), [Fraction(v) for v in point], start_step)


def _balanced(a, b):
    if a != b:
        raise ValueError(f"exchange relation is not homogeneous ({a} != {b})")
    return a


def weight_ring():
    """Additive torus weights, where a sum is defined only between equal
    weights, so a walk over it checks every exchange relation it meets
    for homogeneity: the oracle for ExchangeData.grading_defect and for
    the valuation walks that give the package's weights."""
    return Ring(lambda: 0, operator.add, operator.mul, _balanced, operator.sub)


def weight_walk(belt, alpha):
    """Torus weights of every registry variable for the weights alpha of
    the belt's initial cluster (by node), by one walk over weight_ring:
    over ints if alpha is integral and over Fractions otherwise. Raises
    ValueError at the first exchange relation that is not homogeneous."""
    if len(alpha) != belt.exchange.size:
        raise ValueError("need one weight per node")
    values = [Fraction(a) for a in alpha]
    if all(v.denominator == 1 for v in values):
        values = [v.numerator for v in values]
    return ring_walk(belt, weight_ring(), values, 0)


def packed_lanes(U):
    """Every registry variable's lanes of a UMatrix's packed ints, by id:
    its weights under the vectors of U.kernel, then its column of the
    dual basis G."""
    from clustercones.finite_type import _lane_unpacker

    unpack = _lane_unpacker(U.width, len(U.kernel) + U.num_cols)
    return [list(unpack(p)) for p in U.packed]


def u_variable_at(belt, s, k):
    """The ratio read off node k of belt step s: the out/in split of that
    node's matrix row, over the variable there times the one at node k of
    step s + 1. The matrix-row oracle for the belt's source records, which
    also reads a node that is not mutated at its step (the variable there
    is then its own "partner")."""
    from clustercones.seeds import _split
    from clustercones.uvars import UVariable

    st = belt.step(s)
    ids = st.cluster_ids
    gamma, partner = ids[k], belt.step(s + 1).cluster_ids[k]
    pos, neg = _split(enumerate(st.matrix[k]))
    numerator = {ids[j]: b for j, b in pos}
    vector = dict(numerator)
    for id in (gamma, partner):
        vector[id] = vector.get(id, 0) - 1
    return UVariable(gamma, partner, s, k, numerator,
                     {ids[j]: b for j, b in neg}, vector)


def kernel_weights(U):
    """The weights of every registry variable under each vector of
    U.kernel, as one {id: weight} dict per vector, read off the leading
    lanes of U's packed ints."""
    lanes = packed_lanes(U)
    return [{id: lane[i] for id, lane in enumerate(lanes)}
            for i in range(len(U.kernel))]


def content_walks(grass):
    """The column contents of a GrassmannianCluster by the oracle: each
    column's 0/1 vector on the grid walked over weight_ring along the
    re-basing path, then along the belt. Returns the column vectors the
    path ends with and {registry id: content}."""
    alphas = [ring_replay(grass, weight_ring(), [int(c in J) for J in grass._grid_sets])
              for c in range(1, grass.n + 1)]
    walks = [weight_walk(grass.belt, alpha) for alpha in alphas]
    return alphas, {id: tuple(w[id] for w in walks) for id in grass.belt.row_order}


def registry_values(grass, point):
    """Exact value of every registry variable of a GrassmannianCluster at a
    totally positive point, rational parameters allowed: the grid seeded
    with the point's minors, walked over Fractions along the re-basing
    path and then the belt."""
    vals = [Fraction(point.minor(J)) for J in grass._grid_sets]
    return value_walk(grass.belt, ring_replay(grass, fraction_ring(), vals))


def ratio_value(vector, values):
    """Value of a ratio vector {id: exponent} at exact registry values, as
    value_walk returns them."""
    acc = Fraction(1)
    for id, e in vector.items():
        acc *= values[id] ** e
    return acc


# oracles for the package's linear algebra and cones: determinants by
# linalg.rref, the dense face of the double description core and of U's
# rows, and the unimodular-minor reading of linalg.rref


def det_bareiss(matrix):
    """Exact determinant of an integer matrix, fraction-free: the scale d
    of one linalg.rref pass, which stays the signed determinant of a
    square nonsingular matrix."""
    from clustercones.linalg import rref

    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    _, pivots, d, _ = rref(matrix)
    return d if len(pivots) == n else 0


def dense_ratio(U, vector):
    """Exponents of a ratio dict in the row order of a UMatrix."""
    out = [0] * U.num_rows
    for id, e in vector.items():
        out[U.row_index[id]] = e
    return out


def dense_lam(powers, num_cols):
    """The u-exponents lam over all num_cols columns, from the (column,
    entry) pairs of its powers, every other entry Fraction(0); None for
    None. The dense form tests compare certificates and rays in."""
    if powers is None:
        return None
    lam = [Fraction(0)] * num_cols
    for j, l in powers:
        lam[j] = l
    return lam


def double_description(equalities, dim):
    """Extreme rays of {x >= 0, Ex = 0} as primitive integer tuples,
    sorted lexicographically: cones._double_description on the rows'
    (column, coefficient) pairs, its rays made dense."""
    from clustercones.cones import _double_description

    if any(len(row) != dim for row in equalities):
        raise ValueError("equality row has wrong length")
    rays = _double_description(
        [[(c, a) for c, a in enumerate(row) if a] for row in equalities], dim)
    return sorted(tuple(ray.get(i, 0) for i in range(dim)) for ray in rays)


def unimodular_minor_search(rows):
    """Row subset whose square minor has determinant +-1, or None.

    One `rref` of the rows, pivoting on the smallest entry at each column,
    is the greedy search: with a pivot in every column, its scale d is +-
    the minor on the pivot rows (the Bareiss invariant), so |d| = 1 names
    a unimodular minor, which det_bareiss confirms independently. Rows of
    lower rank or a non-unit d give None, which proves only that this one
    greedy pass found no unit minor; rows whose lattice has index > 1
    (every maximal minor then shares a factor) always give None.
    """
    from clustercones.linalg import rref

    _, pivots, d, origin = rref(rows)
    if len(pivots) != len(rows[0]) or abs(d) != 1:
        return None
    chosen = sorted(origin[:len(pivots)])
    return chosen if abs(det_bareiss([rows[i] for i in chosen])) == 1 else None


# Rank-3 seed with six frozen Plucker coordinates of Gr(2,6) attached.
# P15 and P24 are the two sources of the bipartite orientation, P14 the
# sink. Full rank, unlike the bare three-node seed.
GR26_SEED = {
    "nodes": [
        {"name": "P15"},
        {"name": "P14"},
        {"name": "P24"},
        {"name": "P12", "frozen": True},
        {"name": "P23", "frozen": True},
        {"name": "P34", "frozen": True},
        {"name": "P45", "frozen": True},
        {"name": "P56", "frozen": True},
        {"name": "P16", "frozen": True},
    ],
    "arrows": [
        {"from": "P15", "to": "P14"},
        {"from": "P24", "to": "P14"},
        {"from": "P14", "to": "P12"},
        {"from": "P12", "to": "P24"},
        {"from": "P24", "to": "P23"},
        {"from": "P34", "to": "P24"},
        {"from": "P14", "to": "P45"},
        {"from": "P45", "to": "P15"},
        {"from": "P15", "to": "P56"},
        {"from": "P16", "to": "P15"},
        {"from": "P56", "to": "P16"},
        {"from": "P23", "to": "P34"},
    ],
}

# Orbit representatives of the Plucker cone on the 3x7 structure, each
# factored into full-cone extreme ratios, in the shared table format.
GR37_ORBIT_TABLE = """
[pluecker]
p[247]*p[123]/(p[237]*p[124]) : v[124]
p[247]*p[157]/(p[257]*p[147]) : v[257] v[246|357] v[256]
p[346]*p[256]/(p[356]*p[246]) : v[356] v[124|356] v[246|357] v[146|357]
p[256]*p[247]/(p[257]*p[246]) : v[257] v[157] v[246|357] v[146|357]
p[346]*p[247]/(p[347]*p[246]) : v[347] v[246|357] v[146|357]
p[256]*p[157]/(p[257]*p[156]) : v[257] v[246|357] v[247] v[237]
"""


@pytest.fixture(scope="session")
def gr26():
    from clustercones.grassmannian import GrassmannianCluster

    return GrassmannianCluster(2, 6)


@pytest.fixture(scope="session")
def gr36():
    from clustercones.grassmannian import GrassmannianCluster

    return GrassmannianCluster(3, 6)


@pytest.fixture(scope="session")
def gr37():
    from clustercones.grassmannian import GrassmannianCluster

    return GrassmannianCluster(3, 7)


@pytest.fixture(scope="session")
def gr38():
    from clustercones.grassmannian import GrassmannianCluster

    return GrassmannianCluster(3, 8)
