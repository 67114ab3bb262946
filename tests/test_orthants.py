import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import log_ndtr, ndtri_exp

from conftest import RecordingStream, chunked_draws

from twooptlab import (
    CovarianceSpec,
    NotPositiveDefiniteError,
    equicorrelated_spec,
    identity_spec,
    orthant_moment_bound,
    orthant_prob_mc,
    reduced_orthant_bound,
    second_moment_formula,
    truncated_moments_mc,
)
from twooptlab import orthants, polytopes, rng
from twooptlab.orthants import (
    MIN_ACCEPT_RATE,
    _gibbs_orthant_draws,
    _rejection_orthant_draws,
    amemiya_residuals,
    equicorrelated_closed_forms,
    equicorrelated_g_sum,
)
from twooptlab.rng import MC_BATCH_COORDINATES, MC_BATCH_ROWS, MC_CHUNK_COORDINATES, substream


# A precision with no symmetry between coordinates and negative off-diagonals.
ASYMMETRIC_PRECISION = np.array(
    [
        [1.0, 0.3, -0.2, 0.1, 0.0],
        [0.3, 1.5, 0.25, -0.1, 0.2],
        [-0.2, 0.25, 0.8, 0.05, -0.15],
        [0.1, -0.1, 0.05, 1.2, 0.3],
        [0.0, 0.2, -0.15, 0.3, 0.9],
    ]
)


def genz_orthant(spec: CovarianceSpec) -> float:
    mvn = stats.multivariate_normal(cov=spec.covariance, seed=0, abseps=1e-7, releps=1e-7)
    return mvn.cdf(np.full(spec.d, np.inf), lower_limit=np.zeros(spec.d))


def bivariate_orthant(rho: float) -> float:
    return 0.25 + math.asin(rho) / (2 * math.pi)


def test_spec_validation():
    with pytest.raises(ValueError):
        CovarianceSpec.from_precision([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        CovarianceSpec.from_precision([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        CovarianceSpec.from_precision(5.0)
    with pytest.raises(ValueError):
        equicorrelated_spec(1)


def test_equicorrelated_closed_forms_d2_hand_values():
    forms = equicorrelated_closed_forms(2)
    assert forms["det_precision"] == pytest.approx(15 / 16, rel=1e-15)
    assert forms["sigma_diag"] == pytest.approx(16 / 15, rel=1e-15)
    assert forms["sigma_off"] == pytest.approx(-4 / 15, rel=1e-15)
    spec = equicorrelated_spec(2)
    assert spec.covariance[0, 0] == pytest.approx(16 / 15, rel=1e-12)
    assert spec.covariance[0, 1] == pytest.approx(-4 / 15, rel=1e-12)


@pytest.mark.parametrize("d", [2, 5, 10, 25, 50])
def test_equicorrelated_closed_forms_match_dense_linear_algebra(d):
    spec = equicorrelated_spec(d)
    forms = equicorrelated_closed_forms(d)
    assert abs(np.linalg.det(spec.precision) - forms["det_precision"]) <= 1e-10 * forms["det_precision"]
    assert abs(spec.covariance[0, 0] - forms["sigma_diag"]) <= 1e-10 * abs(forms["sigma_diag"])
    assert abs(spec.covariance[0, 1] - forms["sigma_off"]) <= 1e-10 * abs(forms["sigma_off"])
    off = spec.covariance[~np.eye(d, dtype=bool)]
    assert np.allclose(off, forms["sigma_off"], rtol=1e-10)


def test_orthant_mc_identity_d3():
    est = orthant_prob_mc(identity_spec(3), 200_000, seed=3)
    assert abs(est.estimate - 0.125) <= 3 * est.stderr


def test_orthant_mc_equicorrelated_d2_closed_form():
    est = orthant_prob_mc(equicorrelated_spec(2), 200_000, seed=4)
    assert abs(est.estimate - bivariate_orthant(-0.25)) <= 3 * est.stderr


def test_orthant_mc_never_exceeds_half():
    for d, seed in ((2, 5), (4, 6), (7, 7)):
        est = orthant_prob_mc(equicorrelated_spec(d), 100_000, seed=seed)
        assert est.estimate <= 0.5 + 3 * est.stderr


def test_orthant_mc_deterministic_given_seed_and_workers():
    spec = equicorrelated_spec(3)
    a = orthant_prob_mc(spec, 60_000, seed=8, workers=3)
    b = orthant_prob_mc(spec, 60_000, seed=8, workers=3)
    assert a.estimate == b.estimate


def test_orthant_mc_batches_are_bounded_by_coordinates(draw_shapes):
    # 200,000 rows of d = 256 would draw 51M coordinates at once, so batches
    # hold 51,562 points.  Each draws the 4 columns of the first row block,
    # then each later block's new columns for its survivors only; once none
    # survive, the batch stops drawing.  The pins are those per-block totals,
    # each drawn in row chunks of at most MC_CHUNK_COORDINATES coordinates of
    # the block's width.
    shapes = draw_shapes(polytopes, "run_batches")
    orthant_prob_mc(identity_spec(256), 60_000, seed=0)
    pinned = [(51_562, 4), (3_309, 8), (14, 16), (8_438, 4), (529, 8), (1, 16)]
    assert shapes == chunked_draws(pinned)
    assert all(m * width <= MC_BATCH_COORDINATES for m, width in shapes)
    assert all(m * width <= MC_CHUNK_COORDINATES for m, width in shapes)


def test_orthant_mc_draws_few_coordinates_per_sample(draw_shapes):
    # Half the points fail each identity row, so a sample costs ~4.5 normals
    # (the first block's 4, then a sixteenth of the points draw 8 more), not 64.
    shapes = draw_shapes(polytopes, "run_batches")
    samples = 200_000
    orthant_prob_mc(identity_spec(64), samples, seed=0)
    assert shapes and sum(m * width for m, width in shapes) <= 6 * samples


def test_orthant_mc_streams_up_to_d4_are_unchanged():
    # Up to d = 4 the first row block reads every column in order, so the
    # draws are one (m, d) array and the counts are those of the full
    # z = x L' > 0 test on it, pinned here.
    assert orthant_prob_mc(identity_spec(3), 200_000, seed=5).estimate == 0.12644
    assert orthant_prob_mc(equicorrelated_spec(2), 200_000, seed=5).estimate == 0.210055
    assert orthant_prob_mc(equicorrelated_spec(4), 200_000, seed=5, workers=3).estimate == 0.039505


def test_rejection_moment_batches_are_capped_from_the_first(monkeypatch):
    # A budget above MC_BATCH_ROWS is not proposed in one batch.
    shapes = []
    make = orthants.substream
    monkeypatch.setattr(orthants, "substream", lambda *keys: RecordingStream(make(*keys), shapes))
    moments = truncated_moments_mc(identity_spec(2), 150_000, seed=0)
    assert moments.sampler == "rejection" and moments.samples == 150_000
    assert shapes[0] == (MC_BATCH_ROWS, 2)
    assert max(m for m, _ in shapes) <= MC_BATCH_ROWS


@pytest.mark.parametrize(
    "spec, samples, sampler",
    [(equicorrelated_spec(4), 3_000, "rejection"),
     (CovarianceSpec.from_precision(np.eye(8) + 10 * np.ones((8, 8))), 200, "gibbs"),
     (equicorrelated_spec(9), 100, "gibbs")],
    ids=["rejection", "collapse", "gibbs"],
)
def test_moments_draw_one_stream_whatever_the_worker_count(spec, samples, sampler):
    runs = [truncated_moments_mc(spec, samples, seed=30, workers=w) for w in (1, 3, 50)]
    assert {(m.matrix.tobytes(), m.sampler, m.acceptance_rate) for m in runs} == {
        (runs[0].matrix.tobytes(), sampler, runs[0].acceptance_rate)
    }
    if sampler == "rejection":
        _, accepted, attempted = _rejection_orthant_draws(
            spec, samples, substream(30, "truncated-moments", 0)
        )
        assert runs[0].acceptance_rate == accepted / attempted


@pytest.mark.skipif(rng._openblas_threads() is None, reason="no OpenBLAS thread control found")
def test_rejection_moments_run_on_one_blas_thread(monkeypatch):
    get, _ = rng._openblas_threads()
    before = get()
    seen = []
    draws = orthants._rejection_orthant_draws

    def recording(*args):
        seen.append(get())
        return draws(*args)

    monkeypatch.setattr(orthants, "_rejection_orthant_draws", recording)
    truncated_moments_mc(equicorrelated_spec(6), 20_000, seed=1)
    assert seen == [1] and get() == before


def test_truncated_moments_identity_spec():
    moments = truncated_moments_mc(identity_spec(3), 30_000, seed=9)
    assert moments.sampler == "rejection"
    diag = moments.diagonal()
    off = 2 / math.pi
    for i in range(3):
        assert abs(diag[i] - 1.0) <= 3 * moments.stderr[i, i]
        for j in range(3):
            if i != j:
                assert abs(moments.matrix[i, j] - off) <= 3 * moments.stderr[i, j]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_amemiya_identity_equicorrelated(d):
    spec = equicorrelated_spec(d)
    moments = truncated_moments_mc(spec, 30_000, seed=10 + d)
    residuals = amemiya_residuals(spec, moments)
    # Conservative error: weighted sum of entry stderrs per row.
    tol = 3 * (np.abs(spec.precision) * moments.stderr).sum(axis=1)
    assert np.all(np.abs(residuals) <= tol)


def test_amemiya_identity_rejection_with_negative_off_diagonals():
    # The half-normal proposal is exact only because P - lam I is positive
    # semi-definite; a proposal with precision diag(P) leaves P - diag(P),
    # which is not copositive here, and its clipped acceptance is biased.
    spec = CovarianceSpec.from_precision(ASYMMETRIC_PRECISION)
    moments = truncated_moments_mc(spec, 30_000, seed=26, sampler="rejection")
    assert moments.sampler == "rejection"
    residuals = amemiya_residuals(spec, moments)
    tol = 3 * (np.abs(spec.precision) * moments.stderr).sum(axis=1)
    assert np.all(np.abs(residuals) <= tol)


def test_rejection_collapse_switches_to_gibbs():
    # Strongly positively correlated precision: the half-normal proposal
    # accepts (almost) nothing and the coordinate chain takes over.
    spec = CovarianceSpec.from_precision(np.eye(8) + 10 * np.ones((8, 8)))
    moments = truncated_moments_mc(spec, 200, seed=27, sampler="rejection")
    assert moments.sampler == "gibbs"
    assert moments.acceptance_rate < MIN_ACCEPT_RATE
    assert np.all(moments.draws > 0.0)


def test_gibbs_and_rejection_cross_validate_at_d5():
    spec = equicorrelated_spec(5)
    rej = truncated_moments_mc(spec, 15_000, seed=20, sampler="rejection")
    gib = truncated_moments_mc(spec, 15_000, seed=21, sampler="gibbs")
    assert rej.sampler == "rejection" and gib.sampler == "gibbs"
    diff = np.abs(rej.matrix - gib.matrix)
    tol = 3 * np.hypot(rej.stderr, gib.stderr)
    assert np.all(diff <= tol)


def test_gibbs_error_bars_are_calibrated():
    # 40 seeded Gibbs runs against one long rejection reference: the z-scores
    # of E[Z_0^2] and E[Z_0 Z_1] must look standard normal.  The reference
    # error is common to every z, so it widens the bound on their mean and
    # leaves their spread alone.  Each check has false-alarm rate alpha.
    alpha, runs = 1e-4, 40
    spec = equicorrelated_spec(6)
    ref = truncated_moments_mc(spec, 400_000, seed=1000, sampler="rejection")
    gibbs = [truncated_moments_mc(spec, 2_000, seed=s, sampler="gibbs") for s in range(runs)]
    for entry in [(0, 0), (0, 1)]:
        se = np.array([g.stderr[entry] for g in gibbs])
        z = (np.array([g.matrix[entry] for g in gibbs]) - ref.matrix[entry]) / se
        shared = ref.stderr[entry] * np.mean(1.0 / se)  # sd of the reference's part of mean(z)
        mean_bound = stats.norm.isf(alpha / 2) * math.sqrt(1.0 / runs + shared**2)
        sd_bound = math.sqrt(stats.chi2.isf(alpha, runs - 1) / (runs - 1))
        assert abs(z.mean()) <= mean_bound
        assert z.std(ddof=1) <= sd_bound


def test_gibbs_conditional_at_a_zero_mean_is_the_half_normal():
    # One coordinate: every update has t = 0 and is an independent draw.
    draws = truncated_moments_mc(identity_spec(1), 4_000, seed=3, sampler="gibbs").draws
    assert stats.kstest(draws[:, 0], stats.halfnorm.cdf).pvalue >= 1e-4


def test_gibbs_matches_rejection_with_positive_conditional_means():
    # A negative precision off-diagonal puts every conditional mean above 0,
    # far enough (t above 8.3) that ndtr(t) rounds to 1.
    spec = CovarianceSpec.from_precision([[1.0, -0.97], [-0.97, 1.0]])
    rej = truncated_moments_mc(spec, 20_000, seed=5, sampler="rejection")
    gib = truncated_moments_mc(spec, 20_000, seed=6, sampler="gibbs")
    assert rej.sampler == "rejection" and gib.sampler == "gibbs"
    assert np.all(np.abs(rej.matrix - gib.matrix) <= 3 * np.hypot(rej.stderr, gib.stderr))


@pytest.mark.parametrize("sampler", ["Rejection", "hit-and-run", ""])
def test_unknown_sampler_is_refused(sampler):
    # A misspelled name must not silently run the Gibbs chain under that name.
    with pytest.raises(ValueError, match="'rejection' or 'gibbs'"):
        truncated_moments_mc(identity_spec(3), 20, 0, sampler=sampler)


def reference_gibbs_draws(precision, count, rng, burn_in, thin):
    """The coordinate-update chains run in x itself, one update at a time."""
    diag = np.diag(precision)
    cond_sd = 1.0 / np.sqrt(diag)
    coupling = -precision / diag[:, None]
    np.fill_diagonal(coupling, 0.0)
    chains = math.isqrt(count)
    kept = -(-count // chains)
    x = np.ones((chains, len(diag)))
    out = np.empty((kept, chains, len(diag)))
    for sweep in range(burn_in + kept * thin):
        log_tail = np.log1p(-rng.random((len(diag), chains)))
        for i in range(len(diag)):
            mu = x @ coupling[i]
            v = mu - cond_sd[i] * ndtri_exp(log_ndtr(mu / cond_sd[i]) + log_tail[i])
            x[:, i] = np.where(v > 0.0, v, 1e-12)
        if sweep >= burn_in and (sweep + 1 - burn_in) % thin == 0:
            out[(sweep - burn_in) // thin] = x
    return out.reshape(-1, len(diag))[:count]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=2, max_value=40))
def test_gibbs_matches_the_reference_chain_on_any_diagonal(d, seed, count):
    # Random SPD precisions with non-unit diagonals: the unit-scale chain and
    # the chain run in x see the same uniforms and differ only by rounding.
    shape = substream(seed, "property-precision")
    a = shape.standard_normal((d, d))
    scale = np.diag(shape.uniform(0.5, 2.0, d))
    precision = scale @ (a @ a.T + d * np.eye(d)) @ scale
    spec = CovarianceSpec.from_precision(precision)
    draws = _gibbs_orthant_draws(spec, count, substream(seed, "property-chain"), burn_in=20, thin=2)
    expected = reference_gibbs_draws(spec.precision, count, substream(seed, "property-chain"), 20, 2)
    np.testing.assert_allclose(draws, expected, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "spec",
    [equicorrelated_spec(d) for d in range(2, 13)] + [identity_spec(d) for d in (1, 5, 16)],
    ids=[f"equicorrelated-{d}" for d in range(2, 13)] + [f"identity-{d}" for d in (1, 5, 16)],
)
def test_gibbs_on_a_unit_diagonal_is_the_reference_chain_bit_for_bit(spec):
    draws = _gibbs_orthant_draws(spec, 40, substream(spec.d, "unit-diagonal"), burn_in=30, thin=3)
    expected = reference_gibbs_draws(spec.precision, 40, substream(spec.d, "unit-diagonal"), 30, 3)
    assert draws.tobytes() == expected.tobytes()


def test_gibbs_draws_are_pinned():
    # Pins the chain's random stream and arithmetic: the bytes of 50 draws.
    draws = _gibbs_orthant_draws(equicorrelated_spec(12), 50, substream(7, "pin"))
    assert draws.shape == (50, 12)
    assert (
        hashlib.sha256(draws.tobytes()).hexdigest()
        == "7598b2fb51b31a386bdb6d48363c4c6b84619778243de247d1a8d47baaa3c257"
    )


@pytest.mark.parametrize(
    "spec, sampler",
    [(equicorrelated_spec(9), None),
     (CovarianceSpec.from_precision(np.eye(8) + 10 * np.ones((8, 8))), "rejection")],
    ids=["gibbs-from-the-start", "after-rejection-collapse"],
)
def test_gibbs_draws_the_whole_budget_in_one_call(spec, sampler, monkeypatch):
    # One call draws the whole budget, so the chain count and the burn-in
    # are the same however many workers are asked for.
    counts = []
    chain = orthants._gibbs_orthant_draws

    def recording(spec, count, rng, **kwargs):
        counts.append(count)
        return chain(spec, count, rng, **kwargs)

    monkeypatch.setattr(orthants, "_gibbs_orthant_draws", recording)
    moments = truncated_moments_mc(spec, 200, seed=11, workers=50, sampler=sampler)
    assert moments.sampler == "gibbs" and moments.samples == 200
    assert counts == [200]


def test_gibbs_moments_with_one_worker_are_pinned():
    # With one worker the chain runs on worker 0's stream, or on the
    # collapsing worker's stream where its proposals stopped; these bytes pin
    # both streams.
    def digest(moments):
        return hashlib.sha256(moments.matrix.tobytes()).hexdigest()

    gibbs = truncated_moments_mc(equicorrelated_spec(12), 500, seed=11)
    assert digest(gibbs) == "754595f0d7e65e3f03b4198fbfdaa012bf627e3ca6a800e0b60ee5c28e602ece"
    spec = CovarianceSpec.from_precision(np.eye(8) + 10 * np.ones((8, 8)))
    collapsed = truncated_moments_mc(spec, 200, seed=27, sampler="rejection")
    assert collapsed.sampler == "gibbs"
    assert digest(collapsed) == "5b1aa4c78e45c31b27ecd9a01b3177a41e5e2f224b28708c2304df1ce7be83b9"


def test_gibbs_selected_beyond_rejection_cap():
    moments = truncated_moments_mc(equicorrelated_spec(9), 400, seed=22)
    assert moments.sampler == "gibbs"
    assert np.all(moments.draws > 0.0)


def test_second_moment_formula_identity_kills_corrections():
    result = second_moment_formula(identity_spec(4))
    assert np.allclose(result.values, 1.0, atol=1e-14)


def test_second_moment_formula_limit_value():
    # The 2/pi lower bound approaches 1 - 4/(9 pi) for large dimension.
    value = second_moment_formula(equicorrelated_spec(200)).values[0]
    assert abs(value - (1 - 4 / (9 * math.pi))) < 2 / 200


def test_second_moment_formula_modes_order():
    # The 2/pi substitution is a lower bound on the pair density entering a
    # negative total coefficient, so it can only raise the evaluation.
    spec = equicorrelated_spec(4)
    moments = truncated_moments_mc(spec, 40_000, seed=23)
    mc_mode = second_moment_formula(spec, draws=moments.draws)
    lb_mode = second_moment_formula(spec)
    assert np.all(lb_mode.values >= mc_mode.values - 1e-9)
    assert np.all(mc_mode.pair_densities[np.triu_indices(spec.d, 1)] >= 2 / math.pi)


def test_second_moment_formula_matches_sampled_moments_d3():
    spec = equicorrelated_spec(3)
    moments = truncated_moments_mc(spec, 60_000, seed=24)
    evaluated = second_moment_formula(spec, draws=moments.draws).values
    diag = moments.diagonal()
    # KDE bias at this sample size stays within a few percent; allow a loose
    # band on top of the MC error.
    tol = 3 * np.diag(moments.stderr) + 0.02
    assert np.all(np.abs(evaluated - diag) <= tol)


def test_second_moment_formula_matches_reference_loop():
    # Per-pair KDE and the triple sum over g_ikq, written out term by term, on
    # a covariance with no symmetry between coordinates.
    spec = CovarianceSpec.from_precision(ASYMMETRIC_PRECISION)
    draws = truncated_moments_mc(spec, 3_000, seed=25, workers=2).draws
    n, d = draws.shape
    sigma = spec.covariance

    def pair_density(k, q):
        zk, zq = draws[:, k], draws[:, q]
        hk = zk.std(ddof=1) * n ** (-1.0 / 6.0)
        hq = zq.std(ddof=1) * n ** (-1.0 / 6.0)
        kern = np.exp(-0.5 * (zk / hk) ** 2) * np.exp(-0.5 * (zq / hq) ** 2)
        return 4.0 * float(kern.mean()) / (2.0 * math.pi * hk * hq)

    pairs = [(k, q) for k in range(d) for q in range(k + 1, d)]
    kde = {(k, q): pair_density(k, q) for k, q in pairs}
    kde.update({(q, k): v for (k, q), v in kde.items()})
    lower = {(k, q): 2.0 / math.pi for k in range(d) for q in range(d)}
    for given, f in ((draws, kde), (None, lower)):
        expected = [
            sigma[i, i]
            + sum(
                sigma[i, k] * (sigma[i, q] - sigma[k, q] * sigma[i, k] / sigma[k, k]) * f[(k, q)]
                for k in range(d)
                for q in range(d)
                if q != k
            )
            for i in range(d)
        ]
        result = second_moment_formula(spec, draws=given)
        assert result.values == pytest.approx(expected, rel=1e-12)
        off = [(k, q) for k in range(d) for q in range(d) if q != k]
        used = [result.pair_densities[pair] for pair in off]
        assert used == pytest.approx([f[pair] for pair in off], rel=1e-12)
        assert np.all(np.diag(result.pair_densities) == 0.0)


def test_moment_bound_identity_plugin():
    d = 5
    log_bound = orthant_moment_bound(identity_spec(d), np.ones(d))
    assert log_bound == pytest.approx(-(d - 1) * math.log(2.0), rel=1e-12)
    # Bound 2^(1-d) vs truth 2^(-d): valid with factor-2 slack.
    assert math.exp(log_bound) >= 2.0**-d


@pytest.mark.parametrize("d", [2, 6])
def test_moment_bound_dominates_mc_truth(d):
    spec = equicorrelated_spec(d)
    moments = truncated_moments_mc(spec, 30_000, seed=30 + d)
    log_bound = orthant_moment_bound(spec, moments.diagonal())
    mc = orthant_prob_mc(spec, 200_000, seed=40 + d)
    assert math.exp(log_bound) >= mc.estimate - 3 * mc.stderr


@pytest.mark.parametrize(
    "spec",
    [equicorrelated_spec(d) for d in range(2, 9)] + [identity_spec(d) for d in range(2, 7)],
    ids=[f"equicorrelated-{d}" for d in range(2, 9)] + [f"identity-{d}" for d in range(2, 7)],
)
def test_sampled_moment_bound_against_genz_qmc(spec):
    moments = truncated_moments_mc(spec, 20_000, seed=50 + spec.d)
    assert moments.sampler == "rejection"
    assert math.log(genz_orthant(spec)) <= orthant_moment_bound(spec, moments.diagonal())


def test_reduced_bound_dominates_d2_truth():
    assert reduced_orthant_bound(2) >= math.log(bivariate_orthant(-0.25))


def test_reduced_bound_beats_trivial_at_d7():
    assert reduced_orthant_bound(7) < -(7 - 1) * math.log(2.0)


def test_reduced_bound_asymptotic_slope():
    xs = np.array([8.0, 16.0, 32.0, 64.0])
    ys = np.array([reduced_orthant_bound(int(d)) for d in xs])
    slope = np.polyfit(xs, ys, 1)[0]
    target = -(math.log(2.0) + 2.0 / (9.0 * math.pi))
    assert abs(slope - target) <= 0.1 * abs(target)


def test_g_sum_is_negative_and_converges():
    for d in (2, 3, 8, 64, 512):
        assert equicorrelated_g_sum(d) < 0.0
    assert equicorrelated_g_sum(10_000) == pytest.approx(-2 / 9, abs=1e-3)


def test_g_sum_closed_form_matches_dense_sum():
    # sum over k != q of g_0kq, term by term from the dense covariance.
    for d in list(range(2, 65)) + [200]:
        sigma = equicorrelated_spec(d).covariance
        row = sigma[0]
        g = row[:, None] * (row[None, :] - sigma * row[:, None] / np.diag(sigma)[:, None])
        np.fill_diagonal(g, 0.0)
        assert equicorrelated_g_sum(d) == pytest.approx(math.fsum(g.ravel()), rel=1e-12), d


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 12, 16])
def test_reduced_bound_against_genz_qmc(d):
    spec = equicorrelated_spec(d)
    assert math.log(genz_orthant(spec)) <= reduced_orthant_bound(d)
    lower = second_moment_formula(spec).values
    assert orthant_moment_bound(spec, lower) == pytest.approx(reduced_orthant_bound(d), rel=1e-12)
