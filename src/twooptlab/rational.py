"""Exact integer/rational linear algebra for tiny, ill-conditioned systems."""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularMatrixError


def _row_reduce(matrix, cols: int) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Gauss-Jordan elimination over the first ``cols`` columns, over rationals.

    Returns the reduced rows, the pivot columns in increasing order, and the
    product of the pivots times the sign of the row swaps; that product is 0
    as soon as a column has no pivot, so for a square matrix it is the
    determinant.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots: list[int] = []
    det = Fraction(1)
    for col in range(cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        inv = rows[rank][col]
        det *= inv
        rows[rank] = [x / inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots, det


def determinant_exact(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    return int(_row_reduce(matrix, n)[2])


def solve_exact(matrix, rhs) -> list[Fraction]:
    """Solve a square system exactly over rationals; raises on rank loss."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("need a square matrix and a matching right-hand side")
    rows, pivots, _ = _row_reduce([list(row) + [b] for row, b in zip(matrix, rhs)], n)
    if len(pivots) < n:
        col = next(c for c in range(n) if c not in pivots)
        raise SingularMatrixError(f"exact pivot vanished in column {col}")
    return [row[n] for row in rows]
