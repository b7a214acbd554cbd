"""Exact linear algebra helpers.

The integer routines are checked against a textbook Fraction
Gauss-Jordan kept here as the oracle. ExactSolver, a Bareiss inverse of a
full-column-rank matrix, lives here too: it is the oracle for the
u-exponents the dual basis gives (tests/test_cones.py).
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from clustercones.linalg import (
    det_bareiss,
    primitive_vector,
    rank,
    right_kernel_basis,
    rref,
    solve,
)


class ExactSolver:
    """Repeated exact solves of A @ x = b for a fixed full-column-rank A.

    Picks row indices making a square invertible submatrix S once (one
    rref of A^T) and stores S^-1 = M / d (one rref of [S | I]); each solve
    is then an integer product M @ b plus an integer residual check of
    every row of A against d * b.
    """

    def __init__(self, matrix):
        ncols = len(matrix[0]) if matrix else 0
        _, pivots, _, _ = rref([[row[c] for row in matrix] for c in range(ncols)])
        if len(pivots) != ncols:
            raise ValueError("matrix does not have full column rank")
        block = [
            list(matrix[r]) + [int(i == j) for j in range(ncols)]
            for i, r in enumerate(pivots)
        ]
        rows, _, self.scale, _ = rref(block)
        # M's columns index the pivot rows, so they index rhs directly
        self.inverse = [
            [(pivots[j], m) for j, m in enumerate(row[ncols:]) if m]
            for row in rows
        ]
        self.rows = [[(j, a) for j, a in enumerate(row) if a] for row in matrix]

    def solve(self, rhs):
        """Solution vector, or None when rhs is outside the column span."""
        if len(rhs) != len(self.rows):
            raise ValueError("rhs length mismatch")
        x = [sum(m * rhs[r] for r, m in row) for row in self.inverse]
        d = self.scale
        for row, b in zip(self.rows, rhs):
            if sum(a * x[j] for j, a in row) != d * b:
                return None
        return [Fraction(num, d) for num in x]


def reference_rref(matrix):
    """Reduced row echelon form over Fractions: (rows, pivots, signed
    product of the pivots), the last being the determinant of a square
    nonsingular input."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    det = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            det = -det
        pv = rows[r][c]
        det *= pv
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots, det


def reference_kernel(matrix):
    ncols = len(matrix[0])
    rows, pivots, _ = reference_rref(matrix)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        denom = 1
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in v]
        g = gcd(*ints)
        if next(x for x in ints if x) < 0:
            g = -g
        basis.append(tuple(x // g for x in ints))
    return basis


def reference_solve(matrix, rhs):
    ncols = len(matrix[0])
    rows, pivots, _ = reference_rref([list(r) + [b] for r, b in zip(matrix, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return x


def matvec(matrix, x):
    return [sum(a * b for a, b in zip(row, x)) for row in matrix]


def random_matrix(rng):
    """Small integer matrix; a third are made rank deficient by copying
    a combination of earlier rows, a quarter carry Fraction entries."""
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    density = rng.choice([0.3, 0.6, 1.0])
    mat = [
        [rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if nrows > 1 and rng.random() < 1 / 3:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[rng.randrange(nrows - 1)])]
    if rng.random() < 1 / 4:
        mat = [[Fraction(x, rng.randint(1, 3)) for x in row] for row in mat]
    return mat


def random_cases(count=200, seed=11):
    rng = random.Random(seed)
    return [(random_matrix(rng), rng) for _ in range(count)]


def test_rref_pivots():
    rows, pivots, d, origin = rref([[2, 4, 6], [1, 2, 4]])
    assert pivots == [0, 2]
    assert all(isinstance(x, int) for row in rows for x in row)
    assert [Fraction(x, d) for x in rows[0]] == [1, 2, 0]
    assert [Fraction(x, d) for x in rows[1]] == [0, 0, 1]
    # column 0 pivots on its smallest entry, the 1 of input row 1
    assert origin == [1, 0]
    assert d == det_bareiss([[2, 6], [1, 4]])


def test_rref_matches_fraction_elimination_on_random_matrices():
    scales = set()
    for mat, _ in random_cases():
        rows, pivots, d, _ = rref(mat)
        ref_rows, ref_pivots, _ = reference_rref(mat)
        assert pivots == ref_pivots
        assert all(isinstance(x, int) for row in rows for x in row)
        assert [[Fraction(x, d) for x in row] for row in rows] == ref_rows
        assert rank(mat) == len(ref_pivots)
        scales.add(abs(d))
    assert scales - {1}  # the scale is not always a unit


def test_rref_reports_the_pivot_rows_of_its_scale():
    rng = random.Random(13)
    full = 0
    for _ in range(200):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 5)
        if rng.random() < 1 / 2:  # tall
            nrows = max(nrows, ncols + rng.randint(0, 3))
        mat = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0
                for _ in range(ncols)] for _ in range(nrows)]
        _, pivots, d, origin = rref(mat)
        assert sorted(origin) == list(range(nrows))
        chosen = origin[:len(pivots)]
        # d is +- the minor on the pivot rows and pivot columns
        minor = [[mat[i][c] for c in pivots] for i in chosen]
        assert abs(det_bareiss(minor)) == abs(d)
        if len(pivots) == ncols:
            full += 1
            assert abs(det_bareiss([mat[i] for i in chosen])) == abs(d)
    assert full > 50


def test_kernel_and_solve_match_fraction_elimination_on_random_matrices():
    deficient = outside = 0
    for mat, rng in random_cases():
        ncols = len(mat[0])
        assert right_kernel_basis(mat) == reference_kernel(mat)
        if rank(mat) < min(len(mat), ncols):
            deficient += 1
        inside = matvec(mat, [rng.randint(-3, 3) for _ in range(ncols)])
        x = solve(mat, inside)
        assert x == reference_solve(mat, inside)
        assert matvec(mat, x) == inside
        anywhere = [rng.randint(-5, 5) for _ in mat]
        x = solve(mat, anywhere)
        assert x == reference_solve(mat, anywhere)
        if x is None:
            outside += 1
        else:
            assert matvec(mat, x) == anywhere
    assert deficient > 20 and outside > 20


def test_exact_solver_matches_fraction_elimination_on_random_matrices():
    solved = refused = 0
    for mat, rng in random_cases(seed=12):
        mat = [[int(x) for x in row] for row in mat]
        ncols = len(mat[0])
        if rank(mat) < ncols:
            with pytest.raises(ValueError):
                ExactSolver(mat)
            continue
        solver = ExactSolver(mat)
        inside = matvec(mat, [rng.randint(-3, 3) for _ in range(ncols)])
        assert solver.solve(inside) == reference_solve(mat, inside)
        solved += 1
        anywhere = [rng.randint(-5, 5) for _ in mat]
        expected = reference_solve(mat, anywhere)
        assert solver.solve(anywhere) == expected
        refused += expected is None
    assert solved > 50 and refused > 20


def test_rank_and_kernel():
    mat = [[1, 2, 3], [2, 4, 6]]
    assert rank(mat) == 1
    basis = right_kernel_basis(mat)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in mat)
        g = 0
        for x in v:
            g = gcd(g, x)
        assert g == 1
        first = next(x for x in v if x)
        assert first > 0


def test_primitive_vector():
    assert primitive_vector([Fraction(1, 2), Fraction(-3, 4)]) == (2, -3)
    assert primitive_vector([-2, 4]) == (1, -2)
    assert primitive_vector([0, Fraction(-2, 3), 4]) == (0, 1, -6)
    with pytest.raises(ValueError):
        primitive_vector([0, 0])


def test_solve_consistent_and_not():
    x = solve([[1, 1], [1, -1]], [3, 1])
    assert x == [Fraction(2), Fraction(1)]
    assert solve([[1, 1], [2, 2]], [1, 3]) is None


def test_det_bareiss_matches_random_fraction_elimination():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        d = det_bareiss(mat)
        _, ref_pivots, ref_det = reference_rref(mat)
        assert d == (ref_det if len(ref_pivots) == n else 0)
        # eliminating [A | I] gives [s I | M] with A^-1 = M / s
        rows, pivots, s, _ = rref([row + [int(i == j) for j in range(n)]
                                for i, row in enumerate(mat)])
        if d == 0:
            assert pivots[:n] != list(range(n))
        else:
            assert pivots == list(range(n)) and s == d
            inverse = [row[n:] for row in rows]
            # A * M == s * I exactly
            for i in range(n):
                for j in range(n):
                    acc = sum(mat[i][k] * inverse[k][j] for k in range(n))
                    assert acc == (s if i == j else 0)


def test_det_known():
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[2]]) == 2
    assert det_bareiss([[-1, 0], [0, 1]]) == -1
    assert det_bareiss([[0, 0, 1], [0, -1, 0], [1, 0, 0]]) == 1
    with pytest.raises(ValueError):
        det_bareiss([[1, 2]])


def test_exact_solver_residual_check():
    mat = [[1, 0], [0, 1], [1, 1]]
    solver = ExactSolver(mat)
    assert solver.solve([2, 3, 5]) == [Fraction(2), Fraction(3)]
    assert solver.solve([2, 3, 6]) is None
    with pytest.raises(ValueError):
        ExactSolver([[1, 2], [2, 4]])


def test_exact_solver_with_a_non_unit_scale():
    solver = ExactSolver([[2, 0], [0, 3], [1, 1]])
    assert abs(solver.scale) == 6
    assert solver.solve([2, 3, 2]) == [Fraction(1), Fraction(1)]
    assert solver.solve([1, 1, Fraction(5, 6)]) == [Fraction(1, 2), Fraction(1, 3)]
    assert solver.solve([2, 3, 3]) is None
    assert solver.solve([1, 1, 1]) is None
    with pytest.raises(ValueError):
        solver.solve([1, 1])
