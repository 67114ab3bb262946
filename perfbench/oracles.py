"""Independent oracles for the benchmark's checks.

Nothing here calls twooptlab: each oracle recomputes its quantity from the
definition (numpy brute force), from a closed form, from scipy's Genz QMC, or
from a pinned high-sample reference in ``reference.json``.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path
from statistics import NormalDist

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Per-check false-alarm probability for stochastic checks.  A run makes at
# most a few hundred of them, so a correct estimator on a fresh stream fails
# a run with probability well under 1e-3.
ALPHA = 1e-6
# Normal quantile matching ALPHA two-sided (about 4.9).
Z_ALPHA = NormalDist().inv_cdf(1 - ALPHA / 2)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def move_positions(n: int) -> list[tuple[int, int, int, int]]:
    """Tour positions (i, i+1, j, j+1 mod n) of every 2-change on an n-cycle."""
    return [
        (i, i + 1, j, (j + 1) % n)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]


@lru_cache(maxsize=4)
def _permutations(k: int) -> np.ndarray:
    """All permutations of range(k) as a (k!, k) int8 array, lexicographic."""
    perms = np.zeros((1, 0), dtype=np.int8)
    for size in range(1, k + 1):
        # Prefix every permutation of range(size-1) with each head value and
        # shift the tail entries at or above the head up by one.
        blocks = []
        for head in range(size):
            tail = perms + (perms >= head)
            blocks.append(np.hstack([np.full((len(perms), 1), head, np.int8), tail.astype(np.int8)]))
        perms = np.vstack(blocks)
    return perms


def canonical_tour_blocks(n: int):
    """Canonical tours (vertex 0 first, second vertex < last) in blocks by second vertex."""
    rest = _permutations(n - 2)
    for second in range(1, n):
        others = np.array([v for v in range(1, n) if v != second], dtype=np.int8)
        tails = others[rest]
        tails = tails[tails[:, -1] > second]
        if len(tails):
            block = np.empty((len(tails), n), dtype=np.int8)
            block[:, 0] = 0
            block[:, 1] = second
            block[:, 2:] = tails
            yield block


def count_two_optimal(w: np.ndarray) -> int:
    """Brute-force 2-optimal canonical tour count for a weight matrix.

    The improvement of each move is formed as ((w_ab + w_cd) - w_ac) - w_bd,
    the same floating-point order as the program's census, so float ties
    resolve identically.
    """
    n = w.shape[0]
    moves = move_positions(n)
    count = 0
    for tours in canonical_tour_blocks(n):
        alive = tours.astype(np.intp)
        for i, i1, j, j1 in moves:
            a, b, c, d = alive[:, i], alive[:, i1], alive[:, j], alive[:, j1]
            delta = w[a, b] + w[c, d] - w[a, c] - w[b, d]
            alive = alive[delta <= 0]
            if not len(alive):
                break
        count += len(alive)
    return count


def weight_matrix(instance: dict) -> np.ndarray:
    """Dense symmetric matrix from an instance JSON dict (pairs in lexicographic order)."""
    n = instance["n"]
    dtype = np.int64 if instance["mode"] == "exact" else np.float64
    w = np.zeros((n, n), dtype=dtype)
    iu = np.triu_indices(n, 1)
    w[iu] = np.asarray(instance["weights"], dtype=dtype)
    return w + w.T


def reference_tour_two_optimal(weights: np.ndarray, n: int) -> np.ndarray:
    """Rows of per-pair weights (lexicographic pairs) leaving tour 0..n-1 2-optimal."""
    index = {}
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            index[(i, j)] = index[(j, i)] = k
            k += 1
    alive = np.arange(len(weights))
    for i, i1, j, j1 in move_positions(n):
        cols = weights[alive]
        delta = cols[:, index[i, i1]] + cols[:, index[j, j1]] - cols[:, index[i, j]] - cols[:, index[i1, j1]]
        alive = alive[delta <= 0]
    mask = np.zeros(len(weights), dtype=bool)
    mask[alive] = True
    return mask


def binomial_ok(hits: int, trials: int, p_ref: float, p_ref_se: float) -> bool:
    """Hits consistent with Binomial(trials, p) for p within 5 reference SEs of p_ref."""
    from scipy import stats

    p_lo = max(p_ref - 5 * p_ref_se, 0.0)
    p_hi = min(p_ref + 5 * p_ref_se, 1.0)
    lo = stats.binom.ppf(ALPHA / 2, trials, p_lo)
    hi = stats.binom.isf(ALPHA / 2, trials, p_hi)
    return bool(lo <= hits <= hi)


def normal_ok(estimate: float, stderr: float, ref: float, ref_se: float) -> bool:
    return abs(estimate - ref) <= Z_ALPHA * math.sqrt(stderr**2 + ref_se**2)


def spread_ok(values: list[float], sd: float) -> bool:
    """Sample variance of normal values not above the chi-square upper tail for spread sd."""
    from scipy import stats

    k = len(values)
    return bool((k - 1) * float(np.var(values, ddof=1)) <= sd**2 * stats.chi2.isf(ALPHA, k - 1))


@lru_cache(maxsize=8)
def equicorrelated_orthant(d: int) -> float:
    """Positive-orthant probability of the equicorrelated family by Genz QMC.

    The precision has unit diagonal and off-diagonal 1/(2d); the QMC seed is
    fixed, so the value is deterministic.
    """
    from scipy import stats

    precision = np.full((d, d), 1.0 / (2 * d))
    np.fill_diagonal(precision, 1.0)
    mvn = stats.multivariate_normal(
        mean=np.zeros(d), cov=np.linalg.inv(precision), seed=0, abseps=1e-7, releps=1e-7
    )
    return float(mvn.cdf(np.full(d, np.inf), lower_limit=np.zeros(d)))


def amemiya_ok(precision: np.ndarray, draws: np.ndarray, batches: int = 50) -> bool:
    """Check sum_j P_ij E[Z_i Z_j | Z > 0] = 1 for every i.

    The identity follows from integrating by parts against the truncated
    density.  Errors use batch means over the draws in chain order, which
    accounts for autocorrelation.
    """
    from scipy import stats

    per_draw = draws * (draws @ precision)  # z_i * (P z)_i
    usable = len(per_draw) - len(per_draw) % batches
    means = per_draw[:usable].reshape(batches, -1, per_draw.shape[1]).mean(axis=1)
    centre = per_draw.mean(axis=0)
    se = means.std(axis=0, ddof=1) / math.sqrt(batches)
    t_crit = stats.t.isf(ALPHA / 2, batches - 1)
    return bool(np.all(np.abs(centre - 1.0) <= t_crit * se))


def chord_construction_ok(n: int, moves: list, k: list) -> bool:
    """Added chords pairwise distinct, counts consistent, every count 0..n-3 present."""
    chords = set()
    counts = [0] * n
    for i, j in moves:
        for chord in ((i, j), tuple(sorted(((i + 1) % n, (j + 1) % n)))):
            if chord in chords:
                return False
            chords.add(chord)
        counts[i] += 1
        counts[j] += 1
    if counts != list(k):
        return False
    if set(range(n - 2)) - set(counts):
        return False
    positive = math.prod(c for c in counts if c > 0)
    return positive == ((n - 1) // 2 - 1) * math.factorial(n - 3)
