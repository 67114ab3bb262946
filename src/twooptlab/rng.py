"""Deterministic random-stream derivation and the one Monte Carlo batch loop.

Every stochastic routine draws from a substream keyed by (seed, purpose tag,
extra indices).  Splitting a sample budget over workers uses per-worker
substreams, so the pooled result depends only on (seed, worker count), never
on scheduling.  Worker w's stream does not depend on the worker count, and
workers with nothing to draw get no stream at all.

Batch sizes are decided here, not by the samplers: a sampler states its row
width (coordinates per draw) and draws ``batch_rows(width)`` rows at a time,
at most ``MC_BATCH_ROWS`` rows and ``MC_BATCH_COORDINATES`` coordinates.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

MC_BATCH_ROWS = 100_000  # draws per numpy batch at most
# Coordinates per batch at most: 200,000 draws of the n = 12 polytope's 66
# coordinates (~106 MB of float64), so wider draws come in fewer rows.
MC_BATCH_COORDINATES = 13_200_000


def _entropy_words(key) -> list[int]:
    if isinstance(key, str):
        data = key.encode("utf-8")
        return [int.from_bytes(data[i : i + 4], "little") for i in range(0, len(data), 4)]
    value = int(key)
    if value < 0:
        raise ValueError("stream keys must be non-negative")
    return [value]


def substream(seed: int, *keys) -> np.random.Generator:
    """Generator keyed by (seed, *keys); bit-stable across runs."""
    entropy: list[int] = _entropy_words(seed)
    for key in keys:
        entropy.extend(_entropy_words(key))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def split_budget(total: int, workers: int) -> list[int]:
    """Near-equal per-worker sample counts summing to ``total``."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    base, extra = divmod(total, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def batch_rows(width: int) -> int:
    """Rows per batch for draws of ``width`` coordinates each."""
    return max(1, min(MC_BATCH_ROWS, MC_BATCH_COORDINATES // width))


def worker_shares(
    seed: int, tag: str, total: int, workers: int
) -> Iterator[tuple[np.random.Generator, int]]:
    """Yield (substream(seed, tag, w), share) for each worker w with a non-zero share.

    The shares are those of ``split_budget``; only the first min(workers,
    total) workers have one, so no stream is made for the rest.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    base, extra = divmod(total, workers)
    for w in range(min(workers, total)):
        yield substream(seed, tag, w), base + (1 if w < extra else 0)


def mc_batches(
    seed: int, tag: str, total: int, workers: int, width: int
) -> Iterator[tuple[np.random.Generator, int]]:
    """Yield (stream, m): each worker's share, cut into batches of ``batch_rows(width)`` rows."""
    rows = batch_rows(width)
    for stream, share in worker_shares(seed, tag, total, workers):
        for done in range(0, share, rows):
            yield stream, min(rows, share - done)
