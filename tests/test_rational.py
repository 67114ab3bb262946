from fractions import Fraction

import pytest

from twooptlab.errors import SingularMatrixError
from twooptlab.rational import solve_exact
from twooptlab.rng import substream


def test_solve_round_trip():
    rng = substream(6, "solve")
    for _ in range(25):
        size = int(rng.integers(1, 6))
        a = [[int(rng.integers(-9, 10)) for _ in range(size)] for _ in range(size)]
        x = [Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 7))) for _ in range(size)]
        b = [sum(a[r][c] * x[c] for c in range(size)) for r in range(size)]
        try:
            assert solve_exact(a, b) == x
        except SingularMatrixError:
            pass  # a singular draw has no unique solution to compare


def test_solve_raises_on_singular():
    with pytest.raises(SingularMatrixError):
        solve_exact([[1, 2], [2, 4]], [1, 2])
