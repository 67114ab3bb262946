"""Deterministic random-stream derivation and the one Monte Carlo batch loop.

Every stochastic routine draws from a substream keyed by (seed, purpose tag,
extra indices).  ``split_budget`` is the one share rule and ``run_batches``
the one per-worker loop: worker w draws its share from ``substream(seed, tag,
w)``, which does not depend on the worker count, and workers with nothing to
draw get no stream at all.

Batch sizes are decided here, not by the samplers: a sampler states its row
width (coordinates per draw) and draws ``batch_rows(width)`` rows at a time,
at most ``MC_BATCH_ROWS`` rows and ``MC_BATCH_COORDINATES`` coordinates.  A
batch is consumed in row chunks: ``polytopes.hit_rate`` draws and screens at
most ``MC_CHUNK_COORDINATES`` coordinates at a time, in the stream order of
whole-batch draws, so chunking changes no result.

From ``POOL_MIN_SAMPLES`` samples up, ``run_batches`` runs the workers'
shares on threads, one share at a time per thread, with OpenBLAS held to one
thread meanwhile.  It returns the batch results in worker-then-batch order,
and the callers fold them in that order, so every result depends only on the
seed and the worker count, never on the thread count or on scheduling.
"""

from __future__ import annotations

import contextlib
import functools
import os
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

T = TypeVar("T")

MC_BATCH_ROWS = 100_000  # draws per numpy batch at most
# Coordinates per batch at most: 200,000 draws of the n = 12 polytope's 66
# coordinates (~106 MB of float64), so wider draws come in fewer rows.
MC_BATCH_COORDINATES = 13_200_000
# Coordinates per row chunk at most (1 MB of float64): ``polytopes.hit_rate``
# draws and screens a batch one chunk at a time, so no thread holds a whole
# batch of draws.  Rejection volume at n = 8 and 12 (400,000 samples, 1 and
# 2 workers, lower quartile of 30 calls on a 2-CPU machine): chunks of 2**15
# to 2**18 coordinates ran at 0.84-1.02x the time of whole-batch draws,
# fixed 1,024-row chunks at 1.03-1.27x.
MC_CHUNK_COORDINATES = 2**17
# Smallest sample budget run on more than one thread.  Below it, handing the
# shares to pool threads costs about what the second core saves: on a 2-CPU
# machine, pooled calls took up to 1.13x the serial time at 6,000 samples
# and up to 1.07x at 10,000, but 0.66-0.90x at 15,000 (rejection volume at
# n = 5-12, orthant Monte Carlo at d = 6 and 12, interaction factor at
# n = 17, 65 and 257).
POOL_MIN_SAMPLES = 15_000


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
    """Non-increasing non-zero shares of ``total``, at most 1 apart, for min(workers, total) workers."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    base, extra = divmod(total, workers)
    return [base + (1 if w < extra else 0) for w in range(min(workers, total))]


def batch_rows(width: int) -> int:
    """Rows per batch for draws of ``width`` coordinates each."""
    return max(1, min(MC_BATCH_ROWS, MC_BATCH_COORDINATES // width))


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None.

    Resolved on first use, never at import, so a run that never pins BLAS
    does not import ``ctypes`` and ``glob``.
    """
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold numpy's OpenBLAS to one thread, process-wide, for the block; a
    no-op where that control is not found.  The few-column batch products run
    under it keep their bytes, and a second BLAS thread only spins on a core
    (rejection moments, d = 6, 20,000 samples: 42 ms CPU a call at two BLAS
    threads, 19 ms at one, on a 2-CPU machine)."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one (Linux), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _executor() -> ThreadPoolExecutor:
    """The pool behind every pooled call: one thread per usable CPU but the caller's.

    Made on the first pooled call and kept: threads made per call cost
    0.5 ms or more a call, which a small call would notice.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_usable_cpus() - 1, thread_name_prefix="twooptlab-mc")


os.register_at_fork(after_in_child=_executor.cache_clear)  # a forked child has no pool threads


def run_batches(
    seed: int, tag: str, total: int, workers: int, width: int,
    batch: Callable[[np.random.Generator, int], T],
) -> list[T]:
    """``batch(stream, m)`` over each worker's share, cut into ``batch_rows(width)``-row batches.

    Worker w draws its share, ``split_budget(total, workers)[w]``, from
    ``substream(seed, tag, w)``.  Results come back in worker-then-batch
    order.  Each worker's batches run in order on one thread.  min(workers
    with a share, usable CPUs) threads, the calling thread and the threads
    of one pool kept for the process, take the workers round-robin and make
    each stream only when its share starts, so no more streams are alive
    than threads.  They run under ``one_blas_thread``.  Budgets under
    ``POOL_MIN_SAMPLES``, and every call when the OpenBLAS thread control
    cannot be found, run on the calling thread alone.
    """
    sizes = split_budget(total, workers)
    count = len(sizes)  # workers with a share
    rows = batch_rows(width)

    def share(w: int) -> list[T]:
        stream = substream(seed, tag, w)
        return [batch(stream, min(rows, sizes[w] - done)) for done in range(0, sizes[w], rows)]

    threads = min(count, _usable_cpus()) if total >= POOL_MIN_SAMPLES else 1
    if threads == 1 or _openblas_threads() is None:
        return [result for w in range(count) for result in share(w)]
    shares: list[list[T]] = [[] for _ in range(count)]

    def lane(first: int) -> None:
        for w in range(first, count, threads):
            shares[w] = share(w)

    with one_blas_thread():
        others = [_executor().submit(lane, first) for first in range(1, threads)]
        try:
            lane(0)
        finally:
            for other in others:  # no lane outlives the call, even when one raises
                other.exception()
        for other in others:
            other.result()
    return [result for results in shares for result in results]
