import pytest


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
    """``draw_shapes(module, loop)`` wraps the worker loop ``module.loop`` so
    that the 2-d draw shapes of the streams it yields land in the returned list."""
    shapes = []

    def record(module, name):
        loop = getattr(module, name)

        def recording(*args):
            for stream, m in loop(*args):
                yield RecordingStream(stream, shapes), m

        monkeypatch.setattr(module, name, recording)
        return shapes

    return record
