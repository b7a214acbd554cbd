"""Exact linear algebra over the integers.

One routine does every elimination: `rref`, a fraction-free Gauss-Jordan
elimination (Bareiss 1968). Each step replaces a row by
(p * row - f * pivot_row) / d, where p is the new pivot, f the row's
entry in the pivot column and d the previous pivot; the division is
exact because every entry stays, up to sign, a minor of the input
(Nakos, Turner and Williams 1997). All pivots end equal to one scale d,
so the reduced row echelon form is the integer result divided by d, and
no Fraction is built during elimination. Rational input is scaled row by
row to integers first.

`rank`, `right_kernel_basis`, `solve` and `det_bareiss` read off one
`rref`. `ExactSolver` uses two: one of U^T picks the pivot rows of U, one
of [S | I] inverts the square block S as M / d. A solve is then a sparse
integer product M @ rhs, an integer residual check U @ (M @ rhs) == d *
rhs on every row, and only at the end the Fractions num / d.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

__all__ = [
    "rref",
    "rank",
    "right_kernel_basis",
    "solve",
    "det_bareiss",
    "ExactSolver",
    "hermite_column_reduce",
    "primitive_vector",
]


def _integral(row: Sequence[Fraction | int]) -> list[int]:
    """The row times the lcm of its denominators."""
    den = lcm(*(x.denominator for x in row))
    return [int(x * den) for x in row]


def rref(matrix: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free reduced row echelon form: (rows, pivot columns, d).

    rows are integers; the first len(pivots) carry the pivots, each equal
    to d, with zeros elsewhere in every pivot column, so rows / d is the
    reduced row echelon form of matrix. Sign changes keep the
    determinant (a swap negates the row moved down, a negative pivot row
    is negated together with the next row), so for a square nonsingular
    matrix d is its determinant.
    """
    a = [_integral(row) for row in matrix]
    pivots: list[int] = []
    prev = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        # positive pivots keep runs of unit pivots equal, so rows with a
        # zero in column c need no rescaling
        if p != r:
            a[r], a[p] = a[p], [-x for x in a[r]]
        if a[r][c] < 0 and r + 1 < len(a):
            a[r] = [-x for x in a[r]]
            a[r + 1] = [-x for x in a[r + 1]]
        prow = a[r]
        piv = prow[c]
        for i, row in enumerate(a):
            f = row[c]
            if i == r or not f and piv == prev:
                continue
            a[i] = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
        pivots.append(c)
        prev = piv
    return a, pivots, prev


def rank(matrix: Sequence[Sequence[Fraction | int]]) -> int:
    return len(rref(matrix)[1])


def primitive_vector(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Scale a rational vector to integers with gcd 1, first nonzero positive."""
    ints = _integral(vec)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def right_kernel_basis(matrix: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Primitive integer basis of {v : matrix @ v = 0}.

    One basis vector per free column, read off the reduced echelon form
    and rescaled to a primitive integer vector with first nonzero entry
    positive.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots, d = rref(matrix)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = d
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc]
        basis.append(primitive_vector(v))
    return basis


def solve(
    matrix: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> list[Fraction] | None:
    """One exact solution of matrix @ x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows, pivots, d = rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(rows, pivots):
        x[pc] = Fraction(row[ncols], d)
    return x


def det_bareiss(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix, fraction-free."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    _, pivots, d = rref(matrix)
    return d if len(pivots) == n else 0


class ExactSolver:
    """Repeated exact solves of A @ x = b for a fixed full-column-rank A.

    Picks row indices making a square invertible submatrix S once and
    stores S^-1 = M / d, then each solve is an integer product M @ b plus
    an integer residual check of every row of A against d * b.
    """

    def __init__(self, matrix: Sequence[Sequence[int]]):
        ncols = len(matrix[0]) if matrix else 0
        _, pivots, _ = rref([[row[c] for row in matrix] for c in range(ncols)])
        if len(pivots) != ncols:
            raise ValueError("matrix does not have full column rank")
        block = [
            list(matrix[r]) + [int(i == j) for j in range(ncols)]
            for i, r in enumerate(pivots)
        ]
        rows, _, self.scale = rref(block)
        # M's columns index the pivot rows, so they index rhs directly
        self.inverse = [
            [(pivots[j], m) for j, m in enumerate(row[ncols:]) if m]
            for row in rows
        ]
        self.rows = [[(j, a) for j, a in enumerate(row) if a] for row in matrix]

    def solve(self, rhs: Sequence[Fraction | int]) -> list[Fraction] | None:
        """Solution vector, or None when rhs is outside the column span."""
        if len(rhs) != len(self.rows):
            raise ValueError("rhs length mismatch")
        x = [sum(m * rhs[r] for r, m in row) for row in self.inverse]
        d = self.scale
        for row, b in zip(self.rows, rhs):
            if sum(a * x[j] for j, a in row) != d * b:
                return None
        return [Fraction(num, d) for num in x]


def hermite_column_reduce(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Column-style Hermite normal form of an integer matrix.

    Unimodular column operations only, so the selected-rows determinant of
    the result matches the original up to sign. Used to expose unit pivots
    for the unimodular minor search.
    """
    a = [list(row) for row in matrix]
    if not a:
        return []
    nrows, ncols = len(a), len(a[0])
    col = 0
    for row in range(nrows):
        if col >= ncols:
            break
        # euclid out the row entries to the right of col
        while True:
            nonzero = [c for c in range(col, ncols) if a[row][c]]
            if not nonzero:
                break
            cmin = min(nonzero, key=lambda c: abs(a[row][c]))
            if cmin != col:
                for r in range(nrows):
                    a[r][col], a[r][cmin] = a[r][cmin], a[r][col]
            done = True
            for c in range(col + 1, ncols):
                if a[row][c]:
                    q = a[row][c] // a[row][col]
                    for r in range(nrows):
                        a[r][c] -= q * a[r][col]
                    if a[row][c]:
                        done = False
            if done:
                break
        if a[row][col]:
            if a[row][col] < 0:
                for r in range(nrows):
                    a[r][col] = -a[r][col]
            col += 1
    return a
