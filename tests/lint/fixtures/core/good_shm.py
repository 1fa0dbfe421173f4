"""RL008 fixture: well-managed segments, still outside the owner modules."""

from multiprocessing.shared_memory import SharedMemory


def finally_unlinks():
    segment = SharedMemory(create=True, size=64)
    try:
        return bytes(segment.buf[:8])
    finally:
        segment.close()
        segment.unlink()


def context_managed():
    with SharedMemory(create=True, size=64) as segment:
        return segment.name


def attach_only(name):
    segment = SharedMemory(name=name)
    try:
        return bytes(segment.buf[:8])
    finally:
        segment.close()
