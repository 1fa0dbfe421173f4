"""A fixed kernel that measures how fast the host runs right now.

On a shared host the benchmark's cores slow by up to ~1.6x for minutes
at a time while neighbours contend for caches and memory, and every
timing of the program moves with it.  Each measured process therefore
also times this kernel, once before and once after its timed phase, and
the runner scales the process's timings by
``NOMINAL_S / (mean kernel time)``: a timing then reads as the seconds
the work would take on a host where the kernel takes ``NOMINAL_S``.

The kernel is the benchmark's own code and never changes with the
program under test.  It imitates the sweep's hot loops -- an hour-by-hour
Python loop over numpy columns of a year of hourly data, and a pure
Python loop over hourly float lists -- so that contention slows it in
the same proportion as the sweep.  A workload that keeps several cores
busy runs one copy of the kernel per core at once, in forked processes,
so that the kernel sees the same cores the workload does.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List, Tuple

import numpy as np

#: The kernel time that scaled timings are expressed at: a fixed round
#: figure of the order of what the kernel takes on a 2-vCPU Xeon VM
#: (0.07-0.14 s measured there, depending on contention).
NOMINAL_S = 0.1

_HOURS = 8760
_COLUMNS = 64
_CAPACITY = 3.0

_Inputs = Tuple[np.ndarray, np.ndarray, List[float], List[float]]


def _inputs() -> _Inputs:
    """The kernel's fixed inputs, independent of the workload seed."""
    rng = np.random.default_rng(12345)
    demand = rng.random((_HOURS, _COLUMNS))
    supply = rng.random((_HOURS, _COLUMNS)) * 1.2
    return demand, supply, demand[:, 0].tolist(), supply[:, 0].tolist()


def _timed(inputs: _Inputs) -> float:
    """Seconds one pass of the kernel takes."""
    demand, supply, demand_list, supply_list = inputs
    start = time.perf_counter()
    level = np.zeros(_COLUMNS)
    capacity = np.full(_COLUMNS, _CAPACITY)
    grid_import = np.empty((_HOURS, _COLUMNS))
    for hour in range(_HOURS):
        gap = supply[hour] - demand[hour]
        charge = np.minimum(np.maximum(gap, 0.0), capacity - level)
        discharge = np.minimum(np.maximum(-gap, 0.0), level)
        level += charge - discharge
        grid_import[hour] = np.maximum(-gap, 0.0) - discharge
    for _ in range(6):
        energy = 0.0
        imports: List[float] = [0.0] * _HOURS
        for index, (want, have) in enumerate(zip(demand_list, supply_list)):
            gap = have - want
            if gap > 0.0:
                room = _CAPACITY - energy
                energy += gap if gap < room else room
            else:
                take = -gap if -gap < energy else energy
                energy -= take
                imports[index] = -gap - take
    return time.perf_counter() - start


def run(copies: int = 1) -> float:
    """Mean seconds of one kernel pass, with ``copies`` passes at once.

    One copy runs in this process.  More run in forked children, started
    together and each waited for.  The inputs are built untimed and
    released on return, so that they do not stay in the process's memory.
    """
    inputs = _inputs()
    if copies == 1:
        return _timed(inputs)
    children = []
    for _ in range(copies):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: time one pass, report it, exit at once
            os.close(read_end)
            try:
                os.write(write_end, repr(_timed(inputs)).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    times = []
    for pid, read_end in children:
        with os.fdopen(read_end) as pipe:
            report = pipe.read()
        os.waitpid(pid, 0)
        times.append(float(report))
    return statistics.mean(times)
