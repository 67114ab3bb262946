"""Half-space systems over edge-weight space and their volume estimators.

Fixing the reference tour (0, 1, ..., n-1), the event "this tour is
2-optimal under i.i.d. uniform weights" is the event that the weight vector
lands in the polytope cut out of the unit box by one inequality per
2-change: removed weights minus added weights <= 0.  The rows come from the
shared move table ``core.move_quadruples``, the same table the exact census
scans, and are written straight into one dense (rows, dim) matrix that every
estimator reads.  The volume of the polytope equals the probability that a
fixed tour is 2-optimal, so the census mean over random instances divided by
the tour count is an independent check on it.  Two estimators are kept:
plain rejection sampling by ``hit_rate``, the one hit-or-miss screen over
linear rows (``orthants.orthant_prob_mc`` calls it too), which tests the rows
in blocks of doubling width against the points that survived the earlier
blocks, drawing each coordinate only when the first block that reads it comes
up and only for those survivors, one row chunk of ``rng.MC_CHUNK_COORDINATES``
coordinates at a time; and a telescoped product of conditional acceptance
rates.
The telescoping estimator adds one row per phase and samples each phase with
many hit-and-run chains advanced in lock-step as one (chains, dim) array.
Each phase's chains start at the previous phase's accepted samples, which
are already distributed as the new target, so no burn-in is spent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import move_quadruples, pair_count, pair_index
from .rng import MC_CHUNK_COORDINATES, run_batches, split_budget, substream


@dataclass(frozen=True, eq=False)
class Polytope:
    """Rows ``rows @ w <= rhs`` inside the implicit unit box [0,1]^dim.

    ``rows`` is the dense (m, dim) float matrix and ``rhs`` the (m,) vector.
    """

    rows: np.ndarray
    rhs: np.ndarray

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def build_two_opt_polytope(n: int) -> Polytope:
    """One row per 2-change on the reference tour; n(n-3)/2 rows in total."""
    quads = move_quadruples(n)
    rows = np.zeros((len(quads), pair_count(n)))
    for r, (a, b, c, d) in enumerate(quads):
        rows[r, [pair_index(a, b, n), pair_index(c, d, n)]] = 1.0
        rows[r, [pair_index(a, c, n), pair_index(b, d, n)]] = -1.0
    return Polytope(rows, np.zeros(len(quads)))


@dataclass(frozen=True)
class VolumeEstimate:
    estimate: float
    stderr: float
    samples: int
    method: str
    zero_acceptance: bool = False
    degenerate: bool = False
    phases: tuple[float, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    stderr: float
    samples: int


def hit_rate(
    rows: np.ndarray, rhs: np.ndarray, draw: str, samples: int, seed: int, tag: str, workers: int = 1
) -> MCEstimate:
    """Fraction of points x with i.i.d. coordinates satisfying ``rows @ x <= rhs``.

    Coordinates come from the ``Generator`` method named ``draw``, in the
    batches of ``rng.run_batches(seed, tag, ...)``.  The rows are tested in
    blocks of doubling width (4, 8, 16, ...), each against only the points
    that passed every earlier block.  Each batch draws, in block order, the
    survivors' values of each block's new columns, those in increasing
    order, and stops at the first block that leaves none; columns no row
    reads are never drawn, so a system without rows has rate 1.  A block
    walks its survivors in chunks of max(1, ``MC_CHUNK_COORDINATES`` //
    width) rows, ``width`` its columns so far: it draws one chunk's new
    columns, tests the chunk and keeps its passing rows before the next.
    The draws fill the stream in the order of one (survivors, new columns)
    array per block, so the count is that of whole-block draws.  A counted
    point still has i.i.d. coordinates in every column a row reads and
    passes every row: the count is binomial.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    edges = [0]
    while edges[-1] < len(rhs):
        edges.append(min(len(rhs), 2 * edges[-1] + 4))  # blocks of 4, 8, 16, ... rows
    # Columns in the order the blocks first read them; each block's test
    # reads the first `width` of them.
    order: list[int] = []
    read = np.zeros(rows.shape[1], dtype=bool)
    blocks = []
    for first, stop in zip(edges[:-1], edges[1:]):
        first_read = np.flatnonzero(np.any(rows[first:stop] != 0, axis=0) & ~read)
        read[first_read] = True
        order.extend(first_read)
        blocks.append((rows[first:stop, order], rhs[first:stop, None], len(order)))

    def batch(stream, m: int) -> int:
        x = np.empty((m, 0))
        for a, b, width in blocks:
            new = width - x.shape[1]
            step = max(1, MC_CHUNK_COORDINATES // width)
            kept = []
            for lo in range(0, len(x), step):
                chunk = x[lo : lo + step]
                if new:
                    fresh = getattr(stream, draw)((len(chunk), new))
                    chunk = np.hstack([chunk, fresh]) if chunk.shape[1] else fresh
                # (rows, points) so that the all() runs down the long axis.
                kept.append(chunk[np.all(a @ chunk.T <= b, axis=0)])
            x = np.concatenate(kept)
            if not len(x):
                break  # no survivors: the later blocks would draw (0, k) arrays
        return len(x)

    est = sum(run_batches(seed, tag, samples, workers, rows.shape[1], batch)) / samples
    return MCEstimate(est, math.sqrt(est * (1.0 - est) / samples), samples)


def estimate_volume_rejection(
    p: Polytope, samples: int, seed: int, workers: int = 1
) -> VolumeEstimate:
    """Fraction of uniform box points satisfying every row, by ``hit_rate``."""
    est = hit_rate(p.rows, p.rhs, "random", samples, seed, f"volume-rejection:{p.dim}", workers)
    return VolumeEstimate(est.estimate, est.stderr, samples, "rejection", est.estimate == 0.0)


def _hit_and_run_chains(starts, a, b, thin, burn_in, rng):
    """Advance one hit-and-run chain per row of ``starts`` in lock-step.

    The box is folded into the row system G x <= h with G = [a; I; -I] and
    h = [b; 1; 0].  Each of the ``burn_in + thin`` steps draws a Gaussian
    direction per chain and moves it to a uniform point of its chord; rows
    with |G u| <= 1e-14 are ignored, and a chain whose chord is empty
    (numerically stuck on a face) stays put.  Returns each chain's final
    point.
    """
    x = np.array(starts, dtype=float)
    k, dim = x.shape
    eye = np.eye(dim)
    g_t = np.ascontiguousarray(np.vstack([a, eye, -eye]).T)
    h = np.concatenate([b, np.ones(dim), np.zeros(dim)])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(burn_in + thin):
            u = rng.standard_normal((k, dim))
            gu = u @ g_t
            t = (h - x @ g_t) / gu
            hi = np.where(gu > 1e-14, t, np.inf).min(axis=1)
            lo = np.where(gu < -1e-14, t, -np.inf).max(axis=1)
            step = np.where(hi > lo, lo + (hi - lo) * rng.random(k), 0.0)
            x += step[:, None] * u
            np.clip(x, 0.0, 1.0, out=x)
    return x


TELESCOPING_PILOT = 2000  # uniform box points that rank the rows before phase 0
TELESCOPING_LINEAGES = 10


def _pilot_row_order(p: Polytope, seed: int) -> list[int]:
    """Rows ordered by increasing acceptance impact on uniform box samples."""
    u = substream(seed, "telescoping-pilot").random((TELESCOPING_PILOT, p.dim))
    rates = (u @ p.rows.T <= p.rhs).mean(axis=0)
    return sorted(range(len(p.rows)), key=lambda r: (-rates[r], r))


def estimate_volume_telescoping(
    p: Polytope,
    samples_per_phase: int,
    seed: int,
    thin: int = 50,
    burn_in: int = 0,
) -> VolumeEstimate:
    """Product of conditional row-acceptance rates, one hit-and-run phase per row.

    Phase k samples the polytope of the first k-1 rows (box always active)
    and estimates the fraction satisfying row k.  Phase 0 draws i.i.d.
    uniforms from the box.  Every later phase runs ``samples_per_phase``
    chains in lock-step and takes each chain's point after
    ``burn_in + thin`` steps.  The accepted samples of phase k already lie
    in the polytope that phase k+1 samples, distributed as its target, so
    chains warm-started on them need no burn-in and ``burn_in`` defaults
    to 0.

    The chains form ``TELESCOPING_LINEAGES`` replica lineages; chain c of a
    lineage restarts at that lineage's accepted sample ``c mod hits`` (the
    pooled accepted samples if the lineage has none).  Chains sharing a
    start are correlated, so ``stderr`` is the delete-one-lineage jackknife
    of log(estimate) rather than a binomial formula.  A phase with zero
    accepted samples flags the estimate as degenerate and aborts with the
    partial product.
    """
    if samples_per_phase < 100:
        raise ValueError("samples_per_phase must be >= 100")
    if len(p.rows) == 0:
        return VolumeEstimate(estimate=1.0, stderr=0.0, samples=0, method="telescoping")
    order = _pilot_row_order(p, seed)
    rng = substream(seed, "telescoping-chain")
    sizes = np.array(split_budget(samples_per_phase, TELESCOPING_LINEAGES))
    edges = np.concatenate([[0], np.cumsum(sizes)])
    factors: list[float] = []
    lineage_hits = []
    for phase, row in enumerate(order):
        if phase == 0:
            # No rows active yet: box samples are exact i.i.d. uniforms.
            samples = rng.random((samples_per_phase, p.dim))
        else:
            active = order[:phase]
            samples = _hit_and_run_chains(starts, p.rows[active], p.rhs[active], thin, burn_in, rng)
        ok = samples @ p.rows[row] <= p.rhs[row]
        hits = int(ok.sum())
        if hits == 0:
            return VolumeEstimate(
                estimate=0.0,
                stderr=float("nan"),
                samples=(phase + 1) * samples_per_phase,
                method="telescoping",
                degenerate=True,
                phases=tuple(factors),
            )
        factors.append(hits / samples_per_phase)
        lineage_hits.append(np.add.reduceat(ok, edges[:-1], dtype=int))
        starts = np.empty_like(samples)
        for first, stop in zip(edges[:-1], edges[1:]):
            accepted = samples[first:stop][ok[first:stop]]
            if len(accepted) == 0:
                accepted = samples[ok]
            starts[first:stop] = accepted[np.arange(stop - first) % len(accepted)]
    estimate = math.prod(factors)
    hits_by_lineage = np.array(lineage_hits)  # (phases, lineages)
    rest = hits_by_lineage.sum(axis=1, keepdims=True) - hits_by_lineage
    if np.all(rest > 0):
        # Delete-one-lineage jackknife of log(estimate).
        loo = np.log(rest / (samples_per_phase - sizes)).sum(axis=0)
        var_log = (TELESCOPING_LINEAGES - 1) * np.mean((loo - loo.mean()) ** 2)
        stderr = estimate * math.sqrt(var_log)
    else:
        stderr = math.inf  # one lineage holds every hit of some phase
    return VolumeEstimate(
        estimate=estimate,
        stderr=stderr,
        samples=len(order) * samples_per_phase,
        method="telescoping",
        phases=tuple(factors),
    )
