import math

import numpy as np
import pytest

from twooptlab import (
    build_two_opt_polytope,
    count_two_optimal_exact,
    enumerate_two_changes,
    estimate_volume_rejection,
    estimate_volume_telescoping,
    pair_count,
    pair_index,
    random_instance,
)
from twooptlab.polytopes import Polytope


def simplex(dim: int) -> Polytope:
    return Polytope.from_rows(dim, [({i: 1.0 for i in range(dim)}, 1.0)])


def test_two_opt_polytope_shape():
    p = build_two_opt_polytope(5)
    assert p.dim == 10
    assert len(p.rows) == 5 == len(enumerate_two_changes(5))
    for coeffs, rhs in p.rows:
        assert rhs == 0.0
        values = sorted(v for _, v in coeffs)
        assert values == [-1.0, -1.0, 1.0, 1.0]
        assert sum(v for _, v in coeffs) == 0.0


def test_two_opt_polytope_hand_row():
    p = build_two_opt_polytope(5)
    # Removing tour-edges at positions 0 and 2 constrains w01+w23 <= w02+w13;
    # that move is first in enumeration order.
    coeffs = dict(p.rows[0][0])
    n = 5
    assert coeffs[pair_index(0, 1, n)] == 1.0
    assert coeffs[pair_index(2, 3, n)] == 1.0
    assert coeffs[pair_index(0, 2, n)] == -1.0
    assert coeffs[pair_index(1, 3, n)] == -1.0


def test_rejection_empty_polytope_is_exactly_one():
    est = estimate_volume_rejection(Polytope.from_rows(3, []), 100, seed=0)
    assert est.estimate == 1.0 and est.stderr == 0.0


def test_rejection_halfspace_symmetry():
    half = Polytope.from_rows(2, [({0: 1.0, 1: -1.0}, 0.0)])
    est = estimate_volume_rejection(half, 200_000, seed=1)
    assert abs(est.estimate - 0.5) <= 3 * est.stderr


def test_rejection_simplex_dim5():
    est = estimate_volume_rejection(simplex(5), 400_000, seed=2)
    assert abs(est.estimate - 1 / 120) <= 3 * est.stderr


def test_rejection_zero_acceptance_is_flagged():
    impossible = Polytope.from_rows(2, [({0: 1.0}, -1.0)])
    est = estimate_volume_rejection(impossible, 1000, seed=3)
    assert est.estimate == 0.0
    assert est.zero_acceptance


def test_rejection_deterministic_given_seed_and_workers():
    p = build_two_opt_polytope(5)
    a = estimate_volume_rejection(p, 50_000, seed=9, workers=3)
    b = estimate_volume_rejection(p, 50_000, seed=9, workers=3)
    assert a.estimate == b.estimate
    c = estimate_volume_rejection(p, 50_000, seed=9, workers=1)
    assert abs(a.estimate - c.estimate) <= 3 * math.hypot(a.stderr, c.stderr)


def test_telescoping_empty_polytope():
    est = estimate_volume_telescoping(Polytope.from_rows(4, []), 200, seed=0)
    assert est.estimate == 1.0


def test_telescoping_matches_rejection_n6():
    p = build_two_opt_polytope(6)
    tele = estimate_volume_telescoping(p, 600, seed=4)
    rej = estimate_volume_rejection(p, 300_000, seed=5)
    assert not tele.degenerate
    assert abs(tele.estimate - rej.estimate) <= 3 * math.hypot(tele.stderr, rej.stderr)


def test_telescoping_simplex_dim3():
    est = estimate_volume_telescoping(simplex(3), 4000, seed=6)
    assert abs(est.estimate - 1 / 6) <= 3 * est.stderr


def test_telescoping_degenerate_phase_aborts_with_partial_report():
    impossible = Polytope.from_rows(2, [({0: 1.0, 1: 1.0}, 0.5), ({0: 1.0}, -1.0)])
    est = estimate_volume_telescoping(impossible, 300, seed=7)
    assert est.degenerate
    assert est.estimate == 0.0
    assert len(est.phases) < 2


def test_telescoping_rejects_tiny_phase_budget():
    with pytest.raises(ValueError):
        estimate_volume_telescoping(simplex(2), 50, seed=0)


def test_rejection_volume_matches_census_probability():
    # By symmetry the volume is the mean fraction of the 12 canonical tours
    # at n = 5 that are 2-optimal, measured exactly per random instance.
    rej = estimate_volume_rejection(build_two_opt_polytope(5), 1_000_000, seed=11)
    fractions = np.array(
        [count_two_optimal_exact(random_instance(5, s)) / 12 for s in range(4000)]
    )
    census_stderr = fractions.std(ddof=1) / math.sqrt(len(fractions))
    assert abs(fractions.mean() - rej.estimate) <= 3 * math.hypot(census_stderr, rej.stderr)


def test_dense_matches_sparse_rows():
    p = build_two_opt_polytope(6)
    a, b = p.dense()
    assert a.shape == (9, pair_count(6))
    assert np.all(b == 0.0)
    assert np.all(a.sum(axis=1) == 0.0)
    assert np.all(np.abs(a).sum(axis=1) == 4.0)
