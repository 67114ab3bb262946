"""Multivariate-normal orthant probabilities, truncated moments, and bounds.

The positive orthant probability of a zero-mean normal vector admits an
upper bound in terms of the orthant-conditioned second moments: with
precision diagonal entries q_i and conditioned moments m_i = E[X_i^2 | all
coordinates positive],

    P(all coordinates positive) <= exp(0.5 * sum_i q_i m_i) / (2^(d-1) e^(d/2)).

The equicorrelated family (unit precision diagonal, off-diagonal 1/(2d))
is the worst case extracted from the chord-disjoint construction; its
covariance and determinant have closed forms, and plugging the 2/pi lower
bound on the pair densities into the second-moment identity gives a fully
finite-d evaluable bound of order 2^(-d) exp(-2d / (9 pi)).

Conditioned moments are sampled exactly by rejection up to dimension 8: the
proposal is i.i.d. half-normals with precision lam I, lam the smallest
eigenvalue of the precision P, accepted with probability
exp(-x'(P - lam I)x / 2).  Beyond dimension 8, or when that acceptance
collapses, isqrt(samples) lock-step coordinate-update Gibbs chains make
every draw.  The chains run in unit conditional scale, y_i = x_i sqrt(P_ii),
so every conditional is a unit-variance normal truncated at 0; a coordinate
that rounds below 1e-12 (in y units) or to NaN is set to 1e-12.  Each call
draws from one stream, whatever the worker count.
Rejection draws in batches of at most ``rng.batch_rows(d)`` rows.  The
orthant probability itself is one call to ``polytopes.hit_rate``, the
hit-or-miss screen behind the polytope volume.

Importing this module loads numpy only; ``scipy.special`` loads on the first
Gibbs draw, so processes that never run a Gibbs chain never import scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError
from .polytopes import MCEstimate, hit_rate
from .rng import batch_rows, one_blas_thread, substream

REJECTION_DIM_CAP = 8
MIN_ACCEPT_RATE = 1e-4


@dataclass(frozen=True)
class CovarianceSpec:
    """Precision matrix plus derived covariance and sampling factor."""

    d: int
    precision: np.ndarray
    covariance: np.ndarray
    chol_covariance: np.ndarray

    @classmethod
    def from_precision(cls, precision) -> "CovarianceSpec":
        precision = np.asarray(precision, dtype=float)
        if precision.ndim != 2 or precision.shape[0] != precision.shape[1]:
            raise ValueError(f"precision must be a square matrix, got shape {precision.shape}")
        d = precision.shape[0]
        if d < 1:
            raise ValueError(f"need d >= 1, got d={d}")
        if not np.allclose(precision, precision.T, atol=1e-12):
            raise ValueError("precision must be symmetric")
        try:
            np.linalg.cholesky(precision)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("precision is not positive definite") from exc
        covariance = np.linalg.inv(precision)
        residual = np.abs(covariance @ precision - np.eye(d)).max()
        if residual > 1e-10:
            raise NotPositiveDefiniteError(
                f"covariance inversion residual {residual:.2e} exceeds 1e-10"
            )
        return cls(
            d=d,
            precision=precision,
            covariance=covariance,
            chol_covariance=np.linalg.cholesky(covariance),
        )


def identity_spec(d: int) -> CovarianceSpec:
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    return CovarianceSpec.from_precision(np.eye(d))


def equicorrelated_closed_forms(d: int) -> dict:
    """Exact determinant and covariance entries for the 1/(2d) family."""
    det = (3 * d - 1) / (2 * d - 1) * ((2 * d - 1) / (2 * d)) ** d
    scale = 2 * d / (2 * d - 1)
    return {
        "det_precision": det,
        "sigma_diag": scale * (1.0 - 1.0 / (3 * d - 1)),
        "sigma_off": -scale / (3 * d - 1),
    }


def equicorrelated_spec(d: int) -> CovarianceSpec:
    """Unit precision diagonal with constant off-diagonal 1/(2d)."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    precision = np.full((d, d), 1.0 / (2 * d))
    np.fill_diagonal(precision, 1.0)
    return CovarianceSpec.from_precision(precision)


def orthant_prob_mc(spec: CovarianceSpec, samples: int, seed: int, workers: int = 1) -> MCEstimate:
    """P(L x > 0), x standard normal and L the lower-triangular covariance factor.

    ``hit_rate`` tests -L x <= 0 (equal up to a null set); row i reads only
    x_0..x_i, so coordinates are drawn only for the points still inside.
    """
    rows, rhs = -spec.chol_covariance, np.zeros(spec.d)
    return hit_rate(rows, rhs, "standard_normal", samples, seed, "orthant-mc", workers)


@dataclass(frozen=True)
class TruncatedMoments:
    """Second moments of the orthant-conditioned distribution."""

    matrix: np.ndarray
    stderr: np.ndarray
    samples: int
    sampler: str
    acceptance_rate: float | None
    draws: np.ndarray  # retained for density evaluation

    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix).copy()


def _rejection_orthant_draws(spec: CovarianceSpec, count: int, rng):
    """Exact orthant-conditioned draws by rejection from a half-normal proposal.

    With precision P and lam its smallest eigenvalue, the target density on
    the positive orthant is proportional to exp(-x'Px / 2) = exp(-lam|x|^2 / 2)
    * exp(-x'(P - lam I)x / 2).  The first factor is i.i.d. half-normals of
    variance 1/lam; P - lam I is positive semi-definite, so the second factor
    is at most 1 and serves as the acceptance probability (accept when a
    standard exponential is at least x'(P - lam I)x / 2).  The accepted points
    are exact i.i.d. draws of N(0, P^-1) conditioned on the positive orthant.

    Each batch is sized for the draws still missing at the rate observed so
    far, capped at ``rng.batch_rows(d)``; the first batch assumes every
    proposal is accepted.  Returns ``(draws, accepted, attempted)``.  Once
    ``10 * batch_rows(d)`` proposals have accepted fewer than
    ``MIN_ACCEPT_RATE`` of them, ``draws`` is None and the caller switches to
    the Gibbs chains.  That is the weak case of this proposal: a
    precision with a tiny eigenvalue (strongly positively correlated
    coordinates) is poorly dominated by the isotropic half-normal.
    """
    lam = float(np.linalg.eigvalsh(spec.precision)[0])
    excess = spec.precision - lam * np.eye(spec.d)
    scale = 1.0 / math.sqrt(lam)
    rows = batch_rows(spec.d)
    draws = []
    attempted = 0
    accepted = 0
    batch = min(count, rows)
    while accepted < count:
        x = np.abs(rng.standard_normal((batch, spec.d))) * scale
        half_quad = 0.5 * ((x @ excess) * x).sum(axis=1)
        keep = x[rng.standard_exponential(batch) >= half_quad]
        attempted += batch
        accepted += len(keep)
        draws.append(keep)
        rate = accepted / attempted
        if attempted >= 10 * rows and rate < MIN_ACCEPT_RATE:
            return None, accepted, attempted
        missing = count - accepted  # 10% over the expected need: one batch usually ends it
        batch = rows if accepted == 0 else min(rows, math.ceil(1.1 * missing / rate))
    return np.vstack(draws)[:count], accepted, attempted


def _gibbs_orthant_draws(spec: CovarianceSpec, count: int, rng,
                         burn_in: int = 1000, thin: int = 10):
    """Lock-step coordinate-update chains; each conditional is a positive-truncated normal.

    ``math.isqrt(count)`` chains start at the all-ones point and advance as
    one (chains, d) array, coordinate i on every chain at once; each runs
    ``burn_in`` sweeps, then keeps its point every ``thin`` sweeps.  Draw k
    is chain k mod chains at its (k // chains)-th kept sweep.

    The chains run in unit conditional scale, y_i = x_i sqrt(P_ii), where
    every conditional has standard deviation 1 and mean y @ coupling[i],
    coupling = -P_ij / sqrt(P_ii P_jj) with a zero diagonal; the draws are
    scaled back by 1 / sqrt(P_ii) on return.  With mu the conditional mean,
    y_i = mu - ndtri_exp(log_ndtr(mu) + log(1 - u)) keeps full precision
    where ndtr(mu), the mass above 0, is tiny and where it rounds to 1 (mu
    above about 8.3, where 1 - ndtr(mu) is 0).  A y_i below 1e-12 (in y
    units), or NaN, is set to 1e-12, a guard against rounding at the
    boundary.  Each update writes through ``out=`` into buffers allocated
    once, so a coordinate costs six ufunc calls on (chains,) arrays and
    allocates nothing.  On a unit precision diagonal every rescaling is
    exact, so the draws are those of the same chain run in x, bit for bit.
    """
    from scipy.special import log_ndtr, ndtri_exp  # the only scipy use; kept off the import path

    root_diag = np.sqrt(np.diag(spec.precision))
    coupling = -spec.precision / np.outer(root_diag, root_diag)
    np.fill_diagonal(coupling, 0.0)
    chains = math.isqrt(count)
    kept = -(-count // chains)
    y = np.tile(root_diag, (chains, 1))  # the all-ones point in x
    out = np.empty((kept, chains, spec.d))
    mu = np.empty(chains)
    z = np.empty(chains)
    log_tail = np.empty((spec.d, chains))
    # Views made once: slicing a column per update costs as much as a ufunc call.
    updates = list(zip((y[:, i] for i in range(spec.d)), coupling, log_tail))
    for sweep in range(burn_in + kept * thin):
        rng.random((spec.d, chains), out=log_tail)
        np.negative(log_tail, out=log_tail)
        np.log1p(log_tail, out=log_tail)  # log(1 - u), once per sweep
        for column, row, tail in updates:
            np.matmul(y, row, out=mu)
            log_ndtr(mu, out=z)
            z += tail
            ndtri_exp(z, out=z)
            np.subtract(mu, z, out=z)
            np.fmax(z, 1e-12, out=column)
        if sweep >= burn_in and (sweep + 1 - burn_in) % thin == 0:
            out[(sweep - burn_in) // thin] = y
    return out.reshape(-1, spec.d)[:count] / root_diag


def truncated_moments_mc(
    spec: CovarianceSpec,
    accepted_samples: int,
    seed: int,
    workers: int = 1,
    sampler: str | None = None,
) -> TruncatedMoments:
    """Sampled E[Z_i Z_j] under positive-orthant conditioning.

    ``sampler`` is "rejection" or "gibbs"; None picks rejection up to
    dimension 8 and Gibbs beyond, and any other name raises ValueError.
    Every draw comes from ``substream(seed, "truncated-moments", 0)``;
    ``workers`` is kept in the signature and not read.  ``acceptance_rate``
    is the rejection sampler's accepted over attempted proposals.
    isqrt(accepted_samples) lock-step chains make every Gibbs draw, also
    when an acceptance rate below 1e-4 switches the call to Gibbs (recorded
    on the result).
    The moments are reduced one matrix row at a time, so no (samples, d, d)
    array is built.
    """
    if accepted_samples < 2:
        raise ValueError("accepted_samples must be >= 2")
    if sampler is None:
        sampler = "rejection" if spec.d <= REJECTION_DIM_CAP else "gibbs"
    elif sampler not in ("rejection", "gibbs"):
        raise ValueError(f"sampler must be 'rejection' or 'gibbs', got {sampler!r}")
    # The trailing 0 (worker 0's key) keeps one-worker and Gibbs-from-the-start
    # calls byte-identical to the moments they have always drawn.
    stream = substream(seed, "truncated-moments", 0)
    z, accepted, attempted = None, 0, 0
    if sampler == "rejection":
        with one_blas_thread():
            z, accepted, attempted = _rejection_orthant_draws(spec, accepted_samples, stream)
        if z is None:
            sampler = "gibbs"  # acceptance collapsed; switch and record
    if z is None:
        z = _gibbs_orthant_draws(spec, accepted_samples, stream)
    matrix = np.empty((spec.d, spec.d))
    spread = np.empty((spec.d, spec.d))
    for i in range(spec.d):
        products = z * z[:, [i]]
        matrix[i] = products.mean(axis=0)
        spread[i] = products.std(axis=0, ddof=1)
    return TruncatedMoments(
        matrix=matrix,
        stderr=spread / math.sqrt(len(z)),
        samples=len(z),
        sampler=sampler,
        acceptance_rate=accepted / attempted if attempted else None,
        draws=z,
    )


def amemiya_residuals(spec: CovarianceSpec, moments: TruncatedMoments) -> np.ndarray:
    """Per-coordinate deviation of sum_j precision_ij E[Z_i Z_j] from 1."""
    return (spec.precision * moments.matrix).sum(axis=1) - 1.0


def _pair_densities_at_origin(draws: np.ndarray) -> np.ndarray:
    """Product-Gaussian KDE of every (Z_k, Z_q) density at (0, 0), zero diagonal.

    Both coordinates live on (0, inf), so the kernel mass at the corner is
    recovered by reflecting across both axes (a factor of 4 at the origin).
    """
    n = len(draws)
    h = draws.std(axis=0, ddof=1) * n ** (-1.0 / 6.0)
    kern = np.exp(-0.5 * (draws / h) ** 2)
    f = 4.0 * (kern.T @ kern) / n / (2.0 * math.pi * np.outer(h, h))
    np.fill_diagonal(f, 0.0)
    return f


@dataclass(frozen=True)
class SecondMomentEvaluation:
    values: np.ndarray
    pair_densities: np.ndarray  # d x d, zero diagonal: the F_kq(0,0) the values used


def second_moment_formula(
    spec: CovarianceSpec, draws: np.ndarray | None = None
) -> SecondMomentEvaluation:
    """Second-moment identity E[X_i^2] = sigma_ii + sum_kq g_ikq F_kq(0,0).

    With orthant-conditioned ``draws`` the pair densities at the origin are
    their kernel density estimate; without, every pair takes the provable
    lower bound 2/pi.
    """
    sigma = spec.covariance
    if draws is None:
        f = np.full((spec.d, spec.d), 2.0 / math.pi)
        np.fill_diagonal(f, 0.0)
    else:
        f = _pair_densities_at_origin(draws)
    # sum_kq g_ikq F_kq with g_ikq = sigma_ik sigma_iq - sigma_ik^2 sigma_kq / sigma_kk.
    diag = np.diag(sigma)
    corrections = ((sigma @ f) * sigma).sum(axis=1)
    corrections -= (sigma * sigma) @ ((f * sigma).sum(axis=1) / diag)
    values = diag + corrections
    return SecondMomentEvaluation(values=values, pair_densities=f)


def orthant_moment_bound(spec: CovarianceSpec, moments) -> float:
    """Log upper bound on the positive orthant probability from conditioned moments."""
    moments = np.asarray(moments, dtype=float)
    if moments.shape != (spec.d,):
        raise ValueError(f"need {spec.d} conditioned second moments")
    quad = 0.5 * float(np.diag(spec.precision) @ moments)
    return quad - (spec.d - 1) * math.log(2.0) - spec.d / 2.0


def equicorrelated_g_sum(d: int) -> float:
    """Three-case closed evaluation of the g_kq correction sum for the family."""
    scale_sq = (2 * d / (2 * d - 1)) ** 2
    u = 3 * d - 1
    v = 3 * d - 2
    case1 = (d - 1) * (d - 2) * scale_sq / u**2 * (1.0 + 1.0 / v)
    case3 = -(d - 1) * scale_sq / u * (1.0 - 1.0 / u - 1.0 / (u * v))
    return case1 + case3  # the k = i case contributes zero


def reduced_orthant_bound(d: int) -> float:
    """Finite-d log bound for the equicorrelated family, no asymptotics absorbed.

    Composes the closed-form covariance, the second-moment identity with
    every pair density replaced by its 2/pi lower bound, and the moment
    bound; the correction sum is negative, so the substitution keeps the
    bound valid.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    forms = equicorrelated_closed_forms(d)
    moment = forms["sigma_diag"] + (2.0 / math.pi) * equicorrelated_g_sum(d)
    # Unit precision diagonal: the quadratic term is d * moment / 2.
    return 0.5 * d * moment - (d - 1) * math.log(2.0) - d / 2.0
