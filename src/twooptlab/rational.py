"""Exact integer/rational linear algebra for tiny, ill-conditioned systems."""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularMatrixError


def solve_exact(matrix, rhs) -> list[Fraction]:
    """Solve a square system exactly over rationals; raises on rank loss.

    Gauss-Jordan elimination on the augmented rows; a column with no non-zero
    entry left to pivot on means the matrix is singular.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("need a square matrix and a matching right-hand side")
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(f"exact pivot vanished in column {col}")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col]
        rows[col] = [x / inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n] for row in rows]
