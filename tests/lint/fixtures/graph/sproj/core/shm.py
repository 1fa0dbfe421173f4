"""RL008 fixture: every creation here escapes ownership a different way."""

from multiprocessing.shared_memory import SharedMemory

from sproj.core.engine import Sink


def unbound():
    SharedMemory(create=True, size=64)


def returned():
    segment = SharedMemory(create=True, size=64)
    return segment


def unguarded():
    segment = SharedMemory(create=True, size=64)
    segment.buf[0] = 1
    return segment.name


def leaky_transfer():
    segment = SharedMemory(create=True, size=64)
    try:
        fill(segment)
    except Exception:
        segment.unlink()
        raise
    return Sink(segment).name


def fill(segment):
    segment.buf[0] = 1
