from fractions import Fraction

import pytest

from twooptlab.errors import SingularMatrixError
from twooptlab.rational import determinant_exact, solve_exact
from twooptlab.rng import substream


def test_bareiss_matches_cofactor_expansion_on_small_matrices():
    def cofactor_det(m):
        if len(m) == 1:
            return m[0][0]
        total = 0
        for col in range(len(m)):
            minor = [row[:col] + row[col + 1 :] for row in m[1:]]
            total += (-1) ** col * m[0][col] * cofactor_det(minor)
        return total

    rng = substream(5, "bareiss")
    for _ in range(30):
        size = int(rng.integers(1, 5))
        m = [[int(rng.integers(-9, 10)) for _ in range(size)] for _ in range(size)]
        assert determinant_exact(m) == cofactor_det(m)


def test_bareiss_detects_singular():
    assert determinant_exact([[1, 2], [2, 4]]) == 0


def test_solve_round_trip():
    rng = substream(6, "solve")
    for _ in range(25):
        size = int(rng.integers(1, 6))
        a = [[int(rng.integers(-9, 10)) for _ in range(size)] for _ in range(size)]
        if determinant_exact(a) == 0:
            continue
        x = [Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 7))) for _ in range(size)]
        b = [sum(a[r][c] * x[c] for c in range(size)) for r in range(size)]
        assert solve_exact(a, b) == x


def test_solve_raises_on_singular():
    with pytest.raises(SingularMatrixError):
        solve_exact([[1, 2], [2, 4]], [1, 2])
