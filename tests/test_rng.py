import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twooptlab import rng
from twooptlab.bounds import estimate_interaction_factor, interaction_slope
from twooptlab.chords import build_chord_disjoint_set
from twooptlab.orthants import equicorrelated_spec, identity_spec, orthant_prob_mc
from twooptlab.polytopes import build_two_opt_polytope, estimate_volume_rejection
from twooptlab.rng import (
    MC_BATCH_COORDINATES,
    MC_BATCH_ROWS,
    POOL_MIN_SAMPLES,
    batch_rows,
    run_batches,
    split_budget,
    substream,
)

CPUS = rng._usable_cpus()


def assert_pooled(stream_threads, workers):
    """The streams were made on more than one thread, and on no more than the
    workers or the CPUs, unless one CPU leaves the caller alone."""
    if CPUS == 1:
        assert len(stream_threads) == 1
    else:
        assert 1 < len(stream_threads) <= min(workers, CPUS)


def test_batch_rows_respects_both_caps():
    for width in range(1, 3001):
        rows = batch_rows(width)
        assert 1 <= rows <= MC_BATCH_ROWS
        assert rows * width <= MC_BATCH_COORDINATES


def per_worker_batches(batches):
    """Group consecutive batches drawn from one stream object."""
    groups = []
    for stream, m in batches:
        if groups and groups[-1][0] is stream:
            groups[-1][1].append(m)
        else:
            groups.append((stream, [m]))
    return [sizes for _, sizes in groups]


@pytest.mark.parametrize(
    "total, workers, width",
    [(250_001, 3, 66), (1_000_000, 2, 300), (7, 10, 5), (0, 4, 1), (9, 1, 10**8)],
)
def test_each_workers_batches_sum_to_its_share(total, workers, width):
    batches = run_batches(5, "share", total, workers, width, lambda stream, m: (stream, m))
    assert all(1 <= m <= batch_rows(width) for _, m in batches)
    assert [sum(sizes) for sizes in per_worker_batches(batches)] == split_budget(total, workers)


def test_workers_without_a_share_yield_nothing():
    assert run_batches(1, "empty", 0, 4, 3, lambda stream, m: m) == []
    assert split_budget(3, 8) == [1, 1, 1]
    assert run_batches(1, "few", 3, 8, 1, lambda stream, m: m) == [1, 1, 1]
    with pytest.raises(ValueError):
        split_budget(5, 0)
    with pytest.raises(ValueError):
        run_batches(1, "none", 5, 0, 1, lambda stream, m: m)


@given(st.integers(0, 10**6), st.integers(-2, 10**4))
def test_split_budget_gives_near_equal_non_zero_shares(total, workers):
    if workers < 1:
        with pytest.raises(ValueError):
            split_budget(total, workers)
        return
    shares = split_budget(total, workers)
    assert len(shares) == min(workers, total)
    assert sum(shares) == total
    assert all(a >= b for a, b in zip(shares, shares[1:]))
    assert not shares or shares[0] - shares[-1] <= 1


def test_worker_streams_do_not_depend_on_the_worker_count():
    few = run_batches(2, "count", 100, 2, 4, lambda stream, m: stream.random(4))
    many = run_batches(2, "count", 100, 7, 4, lambda stream, m: stream.random(4))
    assert len(few) == 2
    for a, b in zip(few, many):
        assert np.array_equal(a, b)


def test_batched_draws_equal_one_unbatched_draw(monkeypatch):
    got = run_batches(3, "draws", 250_001, 1, 1, lambda stream, m: stream.random((m, 1)))
    assert [len(x) for x in got] == [100_000, 100_000, 50_001]
    assert np.array_equal(np.concatenate(got), substream(3, "draws", 0).random((250_001, 1)))
    # Several coordinates per row: a small coordinate cap forces 85-row batches.
    monkeypatch.setattr(rng, "MC_BATCH_COORDINATES", 600)
    got = run_batches(4, "rows", 200, 1, 7, lambda stream, m: stream.standard_normal((m, 7)))
    assert [len(x) for x in got] == [85, 85, 30]
    assert np.array_equal(np.vstack(got), substream(4, "rows", 0).standard_normal((200, 7)))


def test_a_million_workers_with_ten_samples_make_ten_streams(monkeypatch):
    made = []

    def counting_substream(*keys):
        made.append(keys)
        return substream(*keys)

    monkeypatch.setattr(rng, "substream", counting_substream)
    assert run_batches(0, "wide", 10, 10**6, 5, lambda stream, m: m) == [1] * 10
    assert len(made) == 10


def draw_sums(stream, m):
    return float(stream.random((m, 3)).sum())


@pytest.mark.parametrize("workers", [2, 3, 7])
def test_pooled_batches_equal_serial_batches(workers, on_one_cpu, stream_threads):
    # 250,001 samples of width 300 make 44,000-row batches, so each worker's
    # share spans several batches, and their order must survive the threads.
    call = lambda: run_batches(6, "pooled", 250_001, workers, 300, draw_sums)  # noqa: E731
    pooled = call()
    assert_pooled(stream_threads, workers)
    serial = on_one_cpu(call)
    assert pooled == serial
    assert len(pooled) == sum(-(-share // batch_rows(300)) for share in split_budget(250_001, workers))


def test_small_budgets_stay_on_the_calling_thread(stream_threads):
    run_batches(6, "small", POOL_MIN_SAMPLES - 1, 7, 3, draw_sums)
    assert stream_threads == {threading.get_ident()}


def test_streams_alive_never_outnumber_threads(monkeypatch):
    lock = threading.Lock()
    alive = [0, 0]  # now, most at once
    make = rng.substream

    class Counted:
        def __init__(self, stream):
            self._stream = stream
            with lock:
                alive[0] += 1
                alive[1] = max(alive[1], alive[0])

        def __getattr__(self, name):
            return getattr(self._stream, name)

        def __del__(self):
            with lock:
                alive[0] -= 1

    monkeypatch.setattr(rng, "substream", lambda *keys: Counted(make(*keys)))
    for workers in (1, 2, 7, 50):
        alive[1] = 0
        run_batches(8, "alive", 70_000, workers, 5, draw_sums)
        assert 1 <= alive[1] <= min(workers, CPUS), workers
        assert alive[0] == 0


@pytest.mark.skipif(rng._openblas_threads() is None, reason="no OpenBLAS thread control found")
def test_blas_threads_are_pinned_during_a_pooled_call_and_restored():
    get, _ = rng._openblas_threads()
    before = get()
    seen = []

    def batch(stream, m):
        seen.append(get())
        return m

    run_batches(9, "blas", 40_000, 4, 5, batch)
    assert get() == before
    if CPUS > 1:
        assert set(seen) == {1}

    def failing(stream, m):
        raise RuntimeError("batch failed")

    with pytest.raises(RuntimeError, match="batch failed"):
        run_batches(9, "blas", 40_000, 4, 5, failing)
    assert get() == before


THREAD_COUNT_SCRIPT = """
import os, sys, threading
cpus = int(sys.argv[1]) or len(os.sched_getaffinity(0))
os.sched_getaffinity = lambda pid: set(range(cpus))
from twooptlab.rng import run_batches
base = threading.active_count()
for workers in (1, 2, 3, 7):
    counts = []
    def batch(stream, m):
        counts.append(threading.active_count())
        return m
    run_batches(1, "threads", 21_000, workers, 5, batch)
    limit = base + min(workers, cpus) - 1
    assert max(counts) <= limit, (workers, max(counts), limit)
    assert threading.active_count() <= limit
print("ok")
"""


@pytest.mark.parametrize("cpus", [0, 3], ids=["usable-cpus", "three-cpus"])
def test_threads_never_outnumber_shares_or_cpus(cpus):
    # A fresh interpreter, so the pool threads counted are this call's own.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", THREAD_COUNT_SCRIPT, str(cpus)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_pooling_needs_no_affinity_call(monkeypatch, on_one_cpu):
    # Where os.sched_getaffinity is missing (macOS, Windows) the usable CPUs
    # come from os.cpu_count(), and a pooled budget gives the serial result.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    call = lambda: estimate_volume_rejection(build_two_opt_polytope(6), 20_000, 1, workers=2)  # noqa: E731
    assert call() == on_one_cpu(call)


@pytest.mark.parametrize("workers", [2, 3, 7])
def test_pooled_estimators_equal_serial_estimators(workers, on_one_cpu, stream_threads):
    samples = POOL_MIN_SAMPLES

    def estimates():
        out = [estimate_interaction_factor(build_chord_disjoint_set(n), samples, 11, workers=workers)
               for n in (17, 65, 257)]
        out += [estimate_volume_rejection(build_two_opt_polytope(n), samples, 12, workers=workers)
                for n in range(5, 13)]
        out += [orthant_prob_mc(spec, samples, 13, workers=workers)
                for spec in (identity_spec(9), equicorrelated_spec(12))]
        out.append(interaction_slope([17, 33], samples, 14, workers=workers))
        return out

    pooled = estimates()
    assert_pooled(stream_threads, workers)
    assert pooled == on_one_cpu(estimates)
