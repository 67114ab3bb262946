import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from twooptlab import (
    BOUND_CONSTANT,
    TwoChange,
    build_chord_disjoint_set,
    counting_bounds,
    estimate_interaction_factor,
    figure_sweep,
    interaction_slope,
    log_expected_count_bound,
    log_per_tour_bound,
    log_product_bound,
)
from twooptlab import bounds
from twooptlab.bounds import INTERACTION_CHUNK_ROWS, interaction_matrix, interaction_values
from twooptlab.chords import ChordDisjointSet
from twooptlab.polytopes import MCEstimate
from twooptlab.rng import MC_BATCH_COORDINATES, POOL_MIN_SAMPLES, split_budget, substream

SINGLE_PAIR = ChordDisjointSet(
    n=5,
    moves=(TwoChange(0, 2),),
    k_by_edge=(1, 0, 1, 0, 0),
    stage_of_move=(1,),
)

EMPTY_SET = ChordDisjointSet(n=5, moves=(), k_by_edge=(0,) * 5, stage_of_move=())


def test_single_pair_matches_quadrature_oracle():
    # E[exp(-XY)] over unit half-normals: exp(-xy) exp(-(x^2+y^2)/2) is
    # exp(-(x+y)^2/2), whose positive-quadrant integral is pi/2, so the
    # normalized expectation is exactly 2/pi.
    oracle, err = integrate.dblquad(
        lambda y, x: (2 / math.pi) * math.exp(-x * y - (x * x + y * y) / 2),
        0,
        12,
        0,
        12,
    )
    assert err < 1e-7
    assert oracle == pytest.approx(2 / math.pi, abs=1e-7)
    est = estimate_interaction_factor(SINGLE_PAIR, 400_000, seed=1)
    assert abs(est.estimate - oracle) <= 3 * est.stderr


def test_empty_set_gives_exactly_one():
    est = estimate_interaction_factor(EMPTY_SET, 10, seed=0)
    assert est.estimate == 1.0 and est.stderr == 0.0


def test_interaction_estimates_stay_in_unit_interval():
    for n in (5, 9, 17):
        est = estimate_interaction_factor(build_chord_disjoint_set(n), 50_000, seed=2)
        assert 0.0 < est.estimate <= 1.0


def test_interaction_is_pointwise_monotone_in_pairs():
    s = build_chord_disjoint_set(9)
    a_full, active = interaction_matrix(s)
    # Drop one coupling: the damping factor can only grow, sample by sample.
    a_reduced = a_full.copy()
    nz = np.argwhere(a_reduced > 0)[0]
    a_reduced[nz[0], nz[1]] = 0.0
    a_reduced[nz[1], nz[0]] = 0.0
    x = np.abs(substream(3, "monotone").standard_normal((5000, len(active))))
    assert np.all(interaction_values(a_full, x) <= interaction_values(a_reduced, x))


def test_interaction_deterministic_given_seed_and_workers():
    s = build_chord_disjoint_set(9)
    a = estimate_interaction_factor(s, 40_000, seed=4, workers=2)
    b = estimate_interaction_factor(s, 40_000, seed=4, workers=2)
    assert a.estimate == b.estimate


def test_bound_constant_value():
    assert BOUND_CONSTANT == pytest.approx(math.sqrt(math.pi / 2) * math.exp(-1 / (9 * math.pi)), rel=1e-15)
    assert round(BOUND_CONSTANT, 5) == 1.20976
    assert BOUND_CONSTANT < 1.2098


def test_log_bound_formulas():
    assert log_per_tour_bound(9) == pytest.approx(
        9 * math.log(BOUND_CONSTANT) - 0.5 * math.log(math.factorial(7)), rel=1e-12
    )
    assert log_expected_count_bound(9) == pytest.approx(
        9 * math.log(1.2098) + 0.5 * math.log(math.factorial(9)), rel=1e-12
    )


def test_counting_bounds_chain_consistency():
    report = counting_bounds(9, samples=50_000, seed=5)
    s = build_chord_disjoint_set(9)
    assert report.log_product_factor == log_product_bound(s)
    # Setting the interaction factor to one recovers the product factor exactly.
    assert report.log_chain_bound == pytest.approx(
        math.log(report.interaction.estimate) + report.log_product_factor, rel=1e-12
    )
    assert report.verdicts["chain_at_most_product_factor"]
    assert report.verdicts["interaction_in_unit_interval"]
    assert report.log_sqrt_factorial == pytest.approx(0.5 * math.log(math.factorial(9)), rel=1e-12)


def test_counting_bounds_no_underflow_up_to_1025():
    for n in (257, 1025):
        report = counting_bounds(n, samples=200, seed=6)
        for value in (
            report.log_per_tour_bound,
            report.log_expected_count_bound,
            report.log_chain_bound,
            report.log_sqrt_factorial,
        ):
            assert math.isfinite(value)


def underflowed_interaction(s, samples, seed, workers=1):
    # What the plain Monte Carlo returns at n = 4097: every weight is 0.0.
    return MCEstimate(estimate=0.0, stderr=0.0, samples=samples)


def test_interaction_underflow_is_a_named_error(monkeypatch):
    # The error names n and the underflow, not the bare "math domain error".
    monkeypatch.setattr(bounds, "estimate_interaction_factor", underflowed_interaction)
    with pytest.raises(ValueError, match="n=9 underflowed to 0.0"):
        counting_bounds(9, samples=20)
    with pytest.raises(ValueError, match="n=9 underflowed to 0.0"):
        interaction_slope([9, 17], samples=20, seed=0)


def test_interaction_slope_structure():
    res = interaction_slope([9, 17], samples=30_000, seed=7)
    assert res["ns"] == [9, 17]
    assert res["slope"] < 0.0
    assert len(res["log_estimates"]) == 2
    assert res["implied_base"] == math.exp(-res["slope"])


def test_interaction_slope_refuses_fewer_than_two_sizes():
    for ns in ([17], [17, 17]):
        with pytest.raises(ValueError, match="two distinct sizes"):
            interaction_slope(ns, samples=1000, seed=0)


def test_quadratic_tail_bound_spot_check():
    # Numeric spot check of the inequality the per-move tail bound rests on:
    # (2 - x)^2 / 2 <= exp(-x^2 / 2) for 1 <= x <= 2.
    xs = np.linspace(1.0, 2.0, 10_001)
    assert np.all(0.5 * (2.0 - xs) ** 2 <= np.exp(-(xs**2) / 2.0))


def test_figure_sweep_rows():
    rows = figure_sweep([5, 6], samples=50_000, seed=8)
    assert [row["n"] for row in rows] == [5, 6]
    for row in rows:
        assert set(row) == {
            "n",
            "estimate",
            "stderr",
            "log_bound_a",
            "log_bound_b",
            "log_ref_sqrt_factorial",
        }
        assert row["estimate"] > 0.0
    assert rows[0]["estimate"] > rows[1]["estimate"]


def test_interaction_batches_are_bounded_by_coordinates(draw_shapes):
    # n = 257 has 255 active edges: 100,000-row batches would draw 25.5M
    # coordinates, so the rows shrink to fit 13.2M.  Each batch, pinned by
    # its total, is drawn in chunks of INTERACTION_CHUNK_ROWS rows.
    shapes = draw_shapes(bounds, "run_batches")
    estimate_interaction_factor(build_chord_disjoint_set(257), 60_000, seed=0)
    pinned = [(51_764, 255), (8_236, 255)]
    rows = INTERACTION_CHUNK_ROWS
    assert shapes == [(min(rows, m - lo), d) for m, d in pinned for lo in range(0, m, rows)]
    assert all(m * width <= MC_BATCH_COORDINATES for m, width in shapes)
    assert all(m * width <= rows * 255 for m, width in shapes)


@pytest.mark.parametrize("n, workers", [(17, 1), (65, 2), (257, 3)])
def test_interaction_equals_one_full_product_per_batch(n, workers):
    # The kernel reduces x @ a in row chunks; the sums must be those of one
    # product over each worker's whole (share, d) draw, bit for bit.
    s = build_chord_disjoint_set(n)
    a, _ = interaction_matrix(s)
    samples = POOL_MIN_SAMPLES + 1
    total = total_sq = 0.0
    for w, share in enumerate(split_budget(samples, workers)):
        x = np.abs(substream(4, f"interaction-factor:{n}", w).standard_normal((share, a.shape[0])))
        vals = interaction_values(a, x)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / samples
    est = estimate_interaction_factor(s, samples, 4, workers=workers)
    assert est.estimate == mean
    assert est.stderr == math.sqrt(max(total_sq / samples - mean * mean, 0.0) / samples)


def test_interaction_peak_memory_is_the_draws_plus_one_chunk():
    # Each of two workers holds one 1,024 x 63 chunk of half-normal draws,
    # its product with a, and its share's 50,000 per-sample values: about
    # 3 MB in all.  Drawing each share whole peaks at ~54 MB, and a full
    # (m, d) product per batch, with a separate abs() copy, at ~73 MB.
    s = build_chord_disjoint_set(65)
    tracemalloc.start()
    try:
        estimate_interaction_factor(s, 100_000, 5, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6_000_000
