import inspect
import math
import tracemalloc

import numpy as np
import pytest

from twooptlab import (
    build_two_opt_polytope,
    count_two_optimal_exact,
    enumerate_two_changes,
    estimate_volume_rejection,
    estimate_volume_telescoping,
    equicorrelated_spec,
    identity_spec,
    orthant_prob_mc,
    pair_count,
    pair_index,
    random_instance,
    truncated_moments_mc,
    verify_chord_disjoint,
)
from twooptlab.orthants import _gibbs_orthant_draws
from twooptlab import polytopes
from twooptlab.polytopes import Polytope, _hit_and_run_chains
from twooptlab.rng import MC_BATCH_COORDINATES, MC_CHUNK_COORDINATES, run_batches, substream

from conftest import chunked_draws


def simplex(dim: int) -> Polytope:
    return Polytope(np.ones((1, dim)), np.ones(1))


def test_two_opt_polytope_shape():
    p = build_two_opt_polytope(5)
    assert p.dim == 10
    assert len(p.rows) == 5 == len(enumerate_two_changes(5))
    for row, rhs in zip(p.rows, p.rhs):
        assert rhs == 0.0
        values = sorted(row[row != 0.0])
        assert values == [-1.0, -1.0, 1.0, 1.0]
        assert row.sum() == 0.0


def test_two_opt_polytope_hand_row():
    p = build_two_opt_polytope(5)
    # Removing tour-edges at positions 0 and 2 constrains w01+w23 <= w02+w13;
    # that move is first in enumeration order.
    coeffs = p.rows[0]
    n = 5
    assert coeffs[pair_index(0, 1, n)] == 1.0
    assert coeffs[pair_index(2, 3, n)] == 1.0
    assert coeffs[pair_index(0, 2, n)] == -1.0
    assert coeffs[pair_index(1, 3, n)] == -1.0


def test_rejection_empty_polytope_is_exactly_one():
    est = estimate_volume_rejection(Polytope(np.zeros((0, 3)), np.zeros(0)), 100, seed=0)
    assert est.estimate == 1.0 and est.stderr == 0.0


def test_rejection_halfspace_symmetry():
    half = Polytope(np.array([[1.0, -1.0]]), np.zeros(1))
    est = estimate_volume_rejection(half, 200_000, seed=1)
    assert abs(est.estimate - 0.5) <= 3 * est.stderr


def test_rejection_simplex_dim5():
    est = estimate_volume_rejection(simplex(5), 400_000, seed=2)
    assert abs(est.estimate - 1 / 120) <= 3 * est.stderr


def test_rejection_zero_acceptance_is_flagged():
    impossible = Polytope(np.array([[1.0, 0.0]]), np.array([-1.0]))
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


def lazy_draws_completed(a, b, draw, samples, seed, tag, workers):
    """Replay ``hit_rate``'s documented draws as full (m, dim) points.

    Per batch of ``rng.run_batches`` and in block order, each block's columns
    not drawn yet are drawn, in increasing order and by the ``Generator``
    method ``draw``, for the points that passed every earlier block.  The
    columns a rejected point never got (and the columns no row reads) are
    then filled from a separate substream, batch by batch in result order,
    so every point is a complete i.i.d. point.
    """
    dim = a.shape[1]
    edges = [0]
    while edges[-1] < len(b):
        edges.append(min(len(b), 2 * edges[-1] + 4))

    def replay(stream, m):
        u = np.full((m, dim), np.nan)
        drawn = np.zeros(dim, dtype=bool)
        alive = np.ones(m, dtype=bool)
        for first, stop in zip(edges[:-1], edges[1:]):
            cols = np.flatnonzero(np.any(a[first:stop] != 0, axis=0))
            new = cols[~drawn[cols]]
            if len(new):
                u[np.ix_(alive, new)] = getattr(stream, draw)((alive.sum(), len(new)))
                drawn[new] = True
            block = u[alive][:, cols] @ a[first:stop, cols].T <= b[first:stop]
            alive[alive] = np.all(block, axis=1)
        return u

    for batch, u in enumerate(run_batches(seed, tag, samples, workers, dim, replay)):
        missing = np.isnan(u)
        completion = substream(seed, "lazy-draws-completion", batch)
        u[missing] = getattr(completion, draw)(missing.sum())
        yield u


@pytest.mark.parametrize("workers", [1, 3])
def test_rejection_screening_counts_what_the_full_test_counts(workers):
    # Lazy row-block screening must count exactly the points that pass every
    # row at once, once the columns a rejected point was never drawn are
    # filled in; n = 5 splits its 5 rows into blocks of 4 and 1.  The last
    # budget spans 100,000-point batches (with one worker) and row chunks.
    seed = 13
    for n, samples in [(n, 60_000) for n in range(4, 13)] + [(8, 250_000)]:
        p = build_two_opt_polytope(n)
        expected = sum(
            int(np.all(u @ p.rows.T <= p.rhs, axis=1).sum())
            for u in lazy_draws_completed(
                p.rows, p.rhs, "random", samples, seed, f"volume-rejection:{p.dim}", workers
            )
        )
        est = estimate_volume_rejection(p, samples, seed, workers=workers)
        assert round(est.estimate * samples) == expected, n


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("family", [identity_spec, equicorrelated_spec])
def test_orthant_screening_counts_what_the_full_test_counts(family, workers):
    # The orthant MC screens the rows of -L, L the lower-triangular factor,
    # so row i draws x_i only for the points that passed rows 0..i-1 (in
    # blocks); on the completed draws it must count z = L x > 0 exactly.  The
    # last budget spans 100,000-point batches (with one worker) and row chunks.
    seed = 14
    for d, samples in [(d, 60_000) for d in range(5, 13)] + [(8, 250_000)]:
        spec = family(d)
        rows, rhs = -spec.chol_covariance, np.zeros(d)
        expected = sum(
            int(np.all(x @ spec.chol_covariance.T > 0.0, axis=1).sum())
            for x in lazy_draws_completed(
                rows, rhs, "standard_normal", samples, seed, "orthant-mc", workers
            )
        )
        est = orthant_prob_mc(spec, samples, seed, workers=workers)
        assert round(est.estimate * samples) == expected, d


def test_rejection_batches_are_bounded_by_coordinates(draw_shapes):
    # A batch holds at most 200,000 x 66 coordinates (the n = 12 polytope's
    # width), so n = 40 (780 coordinates per point) never draws a 78M-float
    # batch.  Batches of 100,000 points draw the 13 columns of the first
    # block, then each later block's new columns for its survivors only; the
    # pins are those per-block totals, each drawn in row chunks of at most
    # MC_CHUNK_COORDINATES coordinates of the block's width.
    shapes = draw_shapes(polytopes, "run_batches")
    estimate_volume_rejection(build_two_opt_polytope(40), 100_000, seed=0)
    assert max(m * dim for m, dim in shapes) <= 200_000 * 66 == MC_BATCH_COORDINATES
    assert max(m * dim for m, dim in shapes) <= MC_CHUNK_COORDINATES
    pins = {
        8: [
            (100_000, 13), (12_643, 11), (711, 4),
            (100_000, 13), (12_558, 11), (708, 4),
            (50_000, 13), (6_371, 11), (378, 4),
            (100_000, 13), (12_676, 11), (760, 4),
            (100_000, 13), (12_617, 11), (741, 4),
            (50_000, 13), (6_416, 11), (389, 4),
        ],
        12: [
            (100_000, 13), (12_608, 19), (718, 15), (8, 19),
            (100_000, 13), (12_497, 19), (797, 15), (8, 19),
            (50_000, 13), (6_310, 19), (382, 15), (4, 19),
            (100_000, 13), (12_762, 19), (690, 15), (16, 19),
            (100_000, 13), (12_454, 19), (733, 15), (11, 19),
            (50_000, 13), (6_337, 19), (369, 15), (4, 19),
        ],
    }
    for n, pinned in pins.items():
        shapes.clear()
        estimate_volume_rejection(build_two_opt_polytope(n), 500_000, seed=0, workers=2)
        assert shapes == chunked_draws(pinned), n
        assert max(m * dim for m, dim in shapes) <= MC_CHUNK_COORDINATES, n


def test_rejection_peak_memory_is_one_chunk_of_draws():
    # Each block walks its survivors in row chunks of 2**17 coordinates
    # (1 MB), so the first block's 100,000 x 13 uniforms (10.4 MB) are never
    # held at once; drawing each block whole peaks at ~14 MB.
    p = build_two_opt_polytope(12)
    tracemalloc.start()
    try:
        estimate_volume_rejection(p, 200_000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6_000_000


def test_rejection_draws_few_coordinates_per_sample(draw_shapes):
    # The first block of 4 rows reads 13 of n = 12's 66 columns and rejects
    # about 87% of the points, so a sample costs ~15.5 uniforms, not 66.
    shapes = draw_shapes(polytopes, "run_batches")
    samples = 400_000
    estimate_volume_rejection(build_two_opt_polytope(12), samples, seed=0)
    assert sum(m * width for m, width in shapes) <= 20 * samples


def test_rejection_never_draws_an_unread_column(draw_shapes):
    shapes = draw_shapes(polytopes, "run_batches")
    half = Polytope(np.array([[1.0, -1.0, 0.0]]), np.zeros(1))
    est = estimate_volume_rejection(half, 200_000, seed=1)
    assert shapes and all(width == 2 for _, width in shapes)
    assert abs(est.estimate - 0.5) <= 3 * est.stderr


@pytest.mark.parametrize(
    "n, samples, p_ref, se_ref",
    # perfbench/reference.json, "fixed_tour_probability": 20M uniform draws
    # at n = 8, 50M at n = 10, each tested against every row at once.
    [(8, 2_000_000, 0.00121185, 7.779400425410367e-06),
     (10, 4_000_000, 5.188e-05, 1.0186001027449388e-06)],
)
def test_rejection_matches_full_draw_reference_probability(n, samples, p_ref, se_ref):
    # Past n = 5 the later blocks draw columns lazily; the census check at
    # n = 5 never reaches one.
    est = estimate_volume_rejection(build_two_opt_polytope(n), samples, seed=17, workers=2)
    assert abs(est.estimate - p_ref) <= 3 * math.hypot(est.stderr, se_ref)


def test_rejection_streams_whose_first_block_reads_every_column_are_unchanged():
    # n = 5's first block and the simplex's one row read every column in
    # natural order, so the draws are one (m, dim) array as before lazy
    # columns; the values are pinned from that full-draw estimator.
    five = estimate_volume_rejection(build_two_opt_polytope(5), 300_000, seed=7, workers=3)
    assert five.estimate == 0.08972333333333334
    assert estimate_volume_rejection(simplex(5), 300_000, seed=7).estimate == 0.00823


def test_telescoping_empty_polytope():
    est = estimate_volume_telescoping(Polytope(np.zeros((0, 4)), np.zeros(0)), 200, seed=0)
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
    impossible = Polytope(np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([0.5, -1.0]))
    est = estimate_volume_telescoping(impossible, 300, seed=7)
    assert est.degenerate
    assert est.estimate == 0.0
    assert len(est.phases) < 2


def test_telescoping_certain_rows_have_zero_stderr():
    # Rows every box point satisfies: each phase accepts every chain, every
    # leave-one-lineage-out estimate is 1, and the jackknife spread is 0.
    loose = Polytope(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), np.array([1.0, 2.0]))
    est = estimate_volume_telescoping(loose, 100, seed=8)
    assert est.estimate == 1.0 and est.stderr == 0.0
    assert est.phases == (1.0, 1.0)


def test_telescoping_box_corner_mean_over_seeds():
    # Volume 0.5 * 0.1 * 0.05.  At 100 chains per phase a lineage of 10
    # chains often has no sample accepted by the 0.1 row and restarts from
    # the pooled accepted samples; the mean over seeds must stay unbiased.
    corner = Polytope(np.eye(3), np.array([0.5, 0.1, 0.05]))
    runs = [estimate_volume_telescoping(corner, 100, seed=s) for s in range(60)]
    assert not any(r.degenerate for r in runs)
    assert all(r.stderr > 0.0 for r in runs)  # never NaN; inf when one lineage holds every hit
    est = np.array([r.estimate for r in runs])
    assert abs(est.mean() - 0.0025) <= 3 * est.std(ddof=1) / math.sqrt(len(est))


def test_telescoping_same_seed_same_result():
    p = build_two_opt_polytope(6)
    a = estimate_volume_telescoping(p, 150, seed=12)
    b = estimate_volume_telescoping(p, 150, seed=12)
    assert a.estimate == b.estimate and a.stderr == b.stderr
    assert a.phases == b.phases
    assert a.phases != estimate_volume_telescoping(p, 150, seed=13).phases


@pytest.mark.parametrize(
    "p", [build_two_opt_polytope(6), simplex(5)], ids=["two-opt-6", "simplex-5"]
)
def test_hit_and_run_chains_stay_inside(p):
    a, b = p.rows, p.rhs
    eye = np.eye(p.dim)
    g = np.vstack([a, eye, -eye])
    h = np.concatenate([b, np.ones(p.dim), np.zeros(p.dim)])
    box = substream(0, "starts").random((50_000, p.dim))
    inside = box[np.all(box @ a.T <= b, axis=1)]
    x = np.tile(inside[0], (200, 1))  # every chain shares one interior start
    for burn_in, thin in ((0, 1), (3, 20)):
        x = _hit_and_run_chains(x, a, b, thin, burn_in, substream(0, "chains", thin))
        assert x.shape == (200, p.dim)
        assert np.all(x @ g.T <= h + 1e-12)
    assert len(np.unique(x, axis=0)) == 200


def test_hit_and_run_chain_on_a_face_stays_finite():
    # With the box, the row x0 <= 0 leaves only the face x0 = 0: every chord
    # through a start is a single point.  Half the starts also sit on a box
    # corner.  Chains must stay put there, without NaN from 0/0 slacks.
    face = Polytope(np.array([[1.0, 0.0, 0.0]]), np.zeros(1))
    a, b = face.rows, face.rhs
    starts = np.tile([0.0, 0.5, 0.5], (100, 1))
    starts[::2, 1:] = 0.0
    x = _hit_and_run_chains(starts, a, b, 30, 0, substream(1, "face"))
    assert not np.isnan(x).any()
    assert np.all(x[:, 0] <= 1e-12) and np.all((x >= 0.0) & (x <= 1.0))


def test_chain_parameters_read_by_the_benchmark_tracer():
    tele = inspect.signature(estimate_volume_telescoping).parameters
    assert {"p", "samples_per_phase", "burn_in", "thin"} <= set(tele)
    assert tele["burn_in"].default == 0
    assert len(build_two_opt_polytope(6).rows) == 9  # the tracer's phase count
    gibbs = inspect.signature(_gibbs_orthant_draws).parameters
    assert gibbs["burn_in"].default == 1000 and gibbs["thin"].default == 10
    moments = inspect.signature(truncated_moments_mc).parameters
    assert {"spec", "accepted_samples", "workers", "sampler"} <= set(moments)
    assert {"s"} <= set(inspect.signature(verify_chord_disjoint).parameters)


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
    a, b = p.rows, p.rhs
    assert a.shape == (9, pair_count(6))
    assert np.all(b == 0.0)
    assert np.all(a.sum(axis=1) == 0.0)
    assert np.all(np.abs(a).sum(axis=1) == 4.0)
