import os
import threading

import pytest

from twooptlab import rng


def chunked_draws(totals):
    """The draws ``polytopes.hit_rate`` makes for its per-block draw totals.

    ``totals`` lists, in order, one (survivors, new columns) pair per block
    that drew, as if each block drew its survivors' new columns at once.  A
    block whose columns so far number ``width`` draws them in chunks of
    ``max(1, rng.MC_CHUNK_COORDINATES // width)`` rows.  Survivors never grow
    within a batch, so a total larger than the one before starts a batch.
    """
    draws, width, last = [], 0, 0
    for m, new in totals:
        width = new if m > last else width + new
        last = m
        step = max(1, rng.MC_CHUNK_COORDINATES // width)
        draws.extend((min(step, m - lo), new) for lo in range(0, m, step))
    return draws


class RecordingStream:
    """Generator stand-in that records the shape of every 2-d array it draws."""

    def __init__(self, stream, shapes):
        self._stream = stream
        self._shapes = shapes

    def __getattr__(self, name):
        draw = getattr(self._stream, name)

        def recorded(size=None, *args, **kwargs):
            if isinstance(size, tuple):
                self._shapes.append(size)
            return draw(size, *args, **kwargs)

        return recorded


@pytest.fixture
def draw_shapes(monkeypatch):
    """``draw_shapes(module, name)`` wraps ``rng.run_batches``, bound as
    ``module.name``, so that the 2-d draw shapes of its streams land in the
    returned list.

    Each batch records its own draws, and the records are appended in the
    order of its results, worker then batch, whichever threads ran the batches.
    """
    shapes = []

    def record(module, name):
        loop = getattr(module, name)

        def recording(*args):
            *head, batch = args

            def recorded(stream, m):
                drawn = []
                return batch(RecordingStream(stream, drawn), m), drawn

            results = loop(*head, recorded)
            for _, drawn in results:
                shapes.extend(drawn)
            return [result for result, _ in results]

        monkeypatch.setattr(module, name, recording)
        return shapes

    return record


@pytest.fixture
def on_one_cpu(monkeypatch):
    """``on_one_cpu(call)`` returns ``call()`` run as if one CPU were usable, so
    that ``rng.run_batches`` runs every share on the calling thread.  Where the
    platform has no ``os.sched_getaffinity`` it is added for the call."""

    def run(call):
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            return call()

    return run


@pytest.fixture
def stream_threads(monkeypatch):
    """The set of threads that ``rng.run_batches`` made its streams on."""
    idents = set()
    make = rng.substream

    def recording(*keys):
        idents.add(threading.get_ident())
        return make(*keys)

    monkeypatch.setattr(rng, "substream", recording)
    return idents
