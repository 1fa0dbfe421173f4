"""RL008 fixture: owner-module shapes that pass, plus receiver classes."""

from multiprocessing.shared_memory import SharedMemory


class Holder:
    """Documented owner: stores the segment and unlinks it."""

    def __init__(self, segment):
        self._segment = segment

    def unlink(self):
        self._segment.close()
        self._segment.unlink()


class Sink:
    """Stores the segment but never unlinks it: not a documented owner."""

    def __init__(self, segment):
        self._segment = segment
        self.name = segment.name


def managed(size):
    with SharedMemory(create=True, size=size) as segment:
        return segment.name


def finally_unlinked(size):
    segment = SharedMemory(create=True, size=size)
    try:
        return segment.name
    finally:
        segment.unlink()


def transferred(size):
    segment = SharedMemory(create=True, size=size)
    try:
        segment.buf[0] = 1
    except Exception:
        segment.unlink()
        raise
    return Holder(segment)
