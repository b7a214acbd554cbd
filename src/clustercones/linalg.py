"""Exact linear algebra over the integers.

One routine does every elimination: `rref`, a fraction-free Gauss-Jordan
elimination (Bareiss 1968). Each step replaces a row by
(p * row - f * pivot_row) / d, where p is the new pivot, f the row's
entry in the pivot column and d the previous pivot; the division is
exact because every entry stays, up to sign, a minor of the input
(Nakos, Turner and Williams 1997). All pivots end equal to one scale d,
so the reduced row echelon form is the integer result divided by d, and
no Fraction is built during elimination. Rational input is scaled row by
row to integers first; integer rows are taken as they are.

At each column the pivot is the nonzero entry of smallest magnitude
among the rows not yet used, the first such row on ties. The choice of
pivot rows changes neither the pivot columns nor the reduced echelon
form rows / d, which are unique, so `rank`, `right_kernel_basis`
(primitive rescalings of kernel vectors read off rows / d) and `solve`
read the same results off any choice. Swaps negate the row moved down,
so for a square nonsingular matrix d stays its signed determinant, which
`det_bareiss` reads. For any matrix, d is +- the minor on the pivot rows
and pivot columns, and `rref` reports which input row each output row
came from; with full column rank, a unit d is a unimodular row minor.
Small pivots make the pass a greedy search for a unit minor, which the
tests' `unimodular_minor_search` reads off the u-exponent matrices of
Gr(3,6), Gr(3,7) and Gr(3,8) that the paper's integer factorizations
rest on.
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
    "primitive_vector",
]


def _integral(row: Sequence[Fraction | int]) -> list[int]:
    """The row times the lcm of its denominators; an all-int row is copied
    as it is."""
    if set(map(type, row)) <= {int}:
        return list(row)
    den = lcm(*(x.denominator for x in row))
    return [int(x * den) for x in row]


def rref(
    matrix: Sequence[Sequence[Fraction | int]],
) -> tuple[list[list[int]], list[int], int, list[int]]:
    """Fraction-free reduced row echelon form: (rows, pivot columns, d, origin).

    rows are integers; the first len(pivots) carry the pivots, each equal
    to d, with zeros elsewhere in every pivot column, so rows / d is the
    reduced row echelon form of matrix. origin[i] is the input row that
    output row i came from. Sign changes keep the determinant (a swap
    negates the row moved down, a negative pivot row is negated together
    with the next row), so for a square nonsingular matrix d is its
    determinant, and in general d is +- the minor of matrix on the rows
    origin[:len(pivots)] and the pivot columns.
    """
    a = [_integral(row) for row in matrix]
    origin = list(range(len(a)))
    pivots: list[int] = []
    prev = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        # the smallest nonzero entry among the unused rows; min keeps the first
        p = min((i for i in range(r, len(a)) if a[i][c]),
                key=lambda i: abs(a[i][c]), default=None)
        if p is None:
            continue
        # positive pivots keep runs of unit pivots equal, so rows with a
        # zero in column c need no rescaling
        if p != r:
            a[r], a[p] = a[p], [-x for x in a[r]]
            origin[r], origin[p] = origin[p], origin[r]
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
    return a, pivots, prev, origin


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
    rows, pivots, d, _ = rref(matrix)
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
    rows, pivots, d, _ = rref([list(row) + [b] for row, b in zip(matrix, rhs)])
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
    _, pivots, d, _ = rref(matrix)
    return d if len(pivots) == n else 0
