"""Deterministic random-stream derivation.

Every stochastic routine draws from a substream keyed by (seed, purpose tag,
extra indices).  Splitting a sample budget over workers uses per-worker
substreams, so the pooled result depends only on (seed, worker count), never
on scheduling.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


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


def worker_streams(seed: int, tag: str, workers: int) -> list[np.random.Generator]:
    return [substream(seed, tag, w) for w in range(workers)]


def mc_batches(
    seed: int, tag: str, total: int, workers: int, batch: int
) -> Iterator[tuple[np.random.Generator, int]]:
    """Yield (stream, m): each worker's substream draws its budget share in batches of <= batch."""
    for stream, budget in zip(worker_streams(seed, tag, workers), split_budget(total, workers)):
        for done in range(0, budget, batch):
            yield stream, min(batch, budget - done)
