"""Counting bounds for 2-optimal tours and the estimators feeding them.

The per-tour 2-optimality probability is bounded by the product of
sqrt(pi / (2 k_e)) over participating edges of the chord-disjoint move set,
damped by the interaction factor: the half-normal expectation of
exp(-sum over removed-edge pairs of x_e x_f / sqrt(k_e k_f)).  Everything is
kept in natural-log space; the raw quantities underflow well before n = 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chords import ChordDisjointSet, build_chord_disjoint_set, log_product_bound
from .polytopes import MCEstimate, build_two_opt_polytope, estimate_volume_rejection
from .rng import run_batches

# sqrt(pi/2) * exp(-1/(9 pi)): base of the per-tour probability bound.
BOUND_CONSTANT = math.sqrt(math.pi / 2.0) * math.exp(-1.0 / (9.0 * math.pi))
EXPECTED_COUNT_BASE = 1.2098
# Sample rows per draw and per x @ a product: 0.5 MB of draws at n = 65.  The
# product's last bits depend on its row count (at d = 255, 9-37 of 8,192
# rows change under chunks of 256-8,192 rows), so another size changes the
# estimates' bytes.
INTERACTION_CHUNK_ROWS = 1024


def interaction_matrix(s: ChordDisjointSet) -> tuple[np.ndarray, list[int]]:
    """Symmetric pair-coupling matrix over edges with positive participation."""
    active = [p for p in range(s.n) if s.k_by_edge[p] > 0]
    slot = {p: idx for idx, p in enumerate(active)}
    a = np.zeros((len(active), len(active)))
    for move in s.moves:
        e, f = slot[move.i], slot[move.j]
        w = 1.0 / math.sqrt(s.k_by_edge[move.i] * s.k_by_edge[move.j])
        a[e, f] += w
        a[f, e] += w
    return a, active


def interaction_values(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(-sum_pairs x_e x_f w_ef) per sample row; decreasing in every coupling."""
    quad = 0.5 * np.einsum("ij,ij->i", x @ a, x)
    return np.exp(-quad)


def estimate_interaction_factor(
    s: ChordDisjointSet, samples: int, seed: int, workers: int = 1
) -> MCEstimate:
    """Mean interaction weight over i.i.d. unit half-normal edge variables."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not s.moves:
        return MCEstimate(estimate=1.0, stderr=0.0, samples=samples)
    a, _ = interaction_matrix(s)

    def batch(stream, m: int) -> tuple[float, float]:
        vals = np.empty(m)
        for lo in range(0, m, INTERACTION_CHUNK_ROWS):
            x = stream.standard_normal((min(INTERACTION_CHUNK_ROWS, m - lo), a.shape[0]))
            np.abs(x, out=x)
            vals[lo : lo + INTERACTION_CHUNK_ROWS] = interaction_values(a, x)
        return float(vals.sum()), float((vals * vals).sum())

    total = 0.0
    total_sq = 0.0
    for batch_sum, batch_sq in run_batches(
        seed, f"interaction-factor:{s.n}", samples, workers, a.shape[0], batch
    ):
        total += batch_sum
        total_sq += batch_sq
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return MCEstimate(estimate=mean, stderr=math.sqrt(var / samples), samples=samples)


def _log_interaction(n: int, est: MCEstimate) -> float:
    if est.estimate == 0.0:
        raise ValueError(
            f"the interaction factor at n={n} underflowed to 0.0 in double precision,"
            " so its log is undefined"
        )
    return math.log(est.estimate)


@dataclass(frozen=True)
class BoundReport:
    """Log-space bound table for one construction size."""

    n: int
    log_per_tour_bound: float  # c^n / sqrt((n-2)!)
    log_expected_count_bound: float  # 1.2098^n * sqrt(n!)
    log_chain_bound: float  # interaction estimate * product factor
    log_chain_stderr: float
    log_sqrt_factorial: float  # conjectured expected-count reference
    log_product_factor: float
    interaction: MCEstimate
    verdicts: dict


def log_per_tour_bound(n: int) -> float:
    return n * math.log(BOUND_CONSTANT) - 0.5 * math.lgamma(n - 1)


def log_expected_count_bound(n: int) -> float:
    return n * math.log(EXPECTED_COUNT_BASE) + 0.5 * math.lgamma(n + 1)


def counting_bounds(n: int, samples: int = 200_000, seed: int = 0, workers: int = 1) -> BoundReport:
    """Evaluate the full bound chain at n = 2^k + 1."""
    s = build_chord_disjoint_set(n)
    product = log_product_bound(s)
    interaction = estimate_interaction_factor(s, samples, seed, workers=workers)
    log_chain = _log_interaction(n, interaction) + product
    # Relative MC error propagates additively in log space.
    log_stderr = interaction.stderr / interaction.estimate
    return BoundReport(
        n=n,
        log_per_tour_bound=log_per_tour_bound(n),
        log_expected_count_bound=log_expected_count_bound(n),
        log_chain_bound=log_chain,
        log_chain_stderr=log_stderr,
        log_sqrt_factorial=0.5 * math.lgamma(n + 1),
        log_product_factor=product,
        interaction=interaction,
        verdicts={
            "chain_at_most_product_factor": log_chain <= product,
            "interaction_in_unit_interval": 0.0 < interaction.estimate <= 1.0,
        },
    )


def interaction_slope(ns, samples: int, seed: int, workers: int = 1) -> dict:
    """Least-squares slope of log interaction estimates against n.

    ``implied_base`` is exp(-slope), the base b of the fitted b^-n decay.
    """
    ns = list(ns)
    if len(set(ns)) < 2:
        raise ValueError(f"a slope needs at least two distinct sizes, got {ns}")
    logs = []
    for n in ns:
        est = estimate_interaction_factor(
            build_chord_disjoint_set(n), samples, seed, workers=workers
        )
        logs.append((n, _log_interaction(n, est), est))
    xs = np.array([row[0] for row in logs], dtype=float)
    ys = np.array([row[1] for row in logs])
    slope, intercept = np.polyfit(xs, ys, 1)
    return {
        "ns": ns,
        "log_estimates": [row[1] for row in logs],
        "stderrs": [row[2].stderr / row[2].estimate for row in logs],
        "slope": float(slope),
        "intercept": float(intercept),
        "implied_base": math.exp(-float(slope)),
    }


def figure_sweep(ns, samples: int, seed: int, workers: int = 1) -> list[dict]:
    """Volume-vs-reference rows for the decay plot of the fixed-tour probability."""
    ns = list(ns)
    if not ns:
        raise ValueError("the figure sweep needs at least one size, got an empty range")
    rows = []
    for n in ns:
        est = estimate_volume_rejection(build_two_opt_polytope(n), samples, seed + n, workers=workers)
        rows.append(
            {
                "n": n,
                "estimate": est.estimate,
                "stderr": est.stderr,
                "log_bound_a": log_per_tour_bound(n),
                "log_bound_b": log_expected_count_bound(n),
                "log_ref_sqrt_factorial": -0.5 * math.lgamma(n + 1),
            }
        )
    return rows
