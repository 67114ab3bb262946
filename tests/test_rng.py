import numpy as np
import pytest

from twooptlab import rng
from twooptlab.rng import (
    MC_BATCH_COORDINATES,
    MC_BATCH_ROWS,
    batch_rows,
    mc_batches,
    split_budget,
    substream,
    worker_shares,
)


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
    batches = list(mc_batches(5, "share", total, workers, width))
    assert all(1 <= m <= batch_rows(width) for _, m in batches)
    shares = [share for share in split_budget(total, workers) if share > 0]
    assert [sum(sizes) for sizes in per_worker_batches(batches)] == shares
    assert [share for _, share in worker_shares(5, "share", total, workers)] == shares


def test_workers_without_a_share_yield_nothing():
    assert list(mc_batches(1, "empty", 0, 4, 3)) == []
    shares = list(worker_shares(1, "few", 3, 8))
    assert [share for _, share in shares] == [1, 1, 1]
    with pytest.raises(ValueError):
        list(worker_shares(1, "none", 5, 0))


def test_worker_streams_do_not_depend_on_the_worker_count():
    few = [stream.random(4) for stream, _ in worker_shares(2, "count", 100, 2)]
    many = [stream.random(4) for stream, _ in worker_shares(2, "count", 100, 7)]
    for a, b in zip(few, many):
        assert np.array_equal(a, b)


def test_batched_draws_equal_one_unbatched_draw(monkeypatch):
    batches = list(mc_batches(3, "draws", 250_001, 1, 1))
    assert [m for _, m in batches] == [100_000, 100_000, 50_001]
    got = np.concatenate([stream.random((m, 1)) for stream, m in batches])
    assert np.array_equal(got, substream(3, "draws", 0).random((250_001, 1)))
    # Several coordinates per row: a small coordinate cap forces 85-row batches.
    monkeypatch.setattr(rng, "MC_BATCH_COORDINATES", 600)
    batches = list(mc_batches(4, "rows", 200, 1, 7))
    assert [m for _, m in batches] == [85, 85, 30]
    got = np.vstack([stream.standard_normal((m, 7)) for stream, m in batches])
    assert np.array_equal(got, substream(4, "rows", 0).standard_normal((200, 7)))


def test_a_million_workers_with_ten_samples_make_ten_streams(monkeypatch):
    made = []

    def counting_substream(*keys):
        made.append(keys)
        return substream(*keys)

    monkeypatch.setattr(rng, "substream", counting_substream)
    batches = list(mc_batches(0, "wide", 10, 10**6, 5))
    assert [m for _, m in batches] == [1] * 10
    assert len(made) == 10
