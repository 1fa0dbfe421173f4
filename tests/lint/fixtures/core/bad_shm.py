"""RL008 fixture: segments created outside the owner modules, never unlinked."""

from multiprocessing import shared_memory
from multiprocessing.shared_memory import SharedMemory


def leaks_plain():
    segment = SharedMemory(create=True, size=64)
    return segment.name


def leaks_qualified():
    segment = shared_memory.SharedMemory(create=True, size=64, name="x")
    segment.close()
    return segment
