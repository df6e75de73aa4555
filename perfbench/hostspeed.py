"""Host speed from a fixed reference computation, to rescale timings.

The benchmark host is shared: the same call can take twice as long from
one second to the next, whatever the program does. Each timed region is
bracketed by a reference computation that does not touch orientkit (a
pure-Python loop and a numpy gather), and the time is rescaled by the
reference's measured duration over its nominal one. For a call that
uses a pool, the reference runs once alone and once on as many
processes as the call uses, and the two slowdowns are combined. A
slowdown of 1.0 means the host ran the reference in REF_NOMINAL_S, about
its median on an idle 2-CPU sandbox.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import statistics
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

REF_LOOP = 100_000
REF_NOMINAL_S = 0.015


@functools.cache
def _reference_arrays():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.random(200_000), rng.integers(0, 200_000, 200_000)


def reference_s() -> float:
    data, index = _reference_arrays()
    t0 = perf_counter()
    s = 0
    for i in range(REF_LOOP):
        s += i * i
    for _ in range(4):
        (data[index] * 0.5 + data).sum()
    return perf_counter() - t0


class HostSpeed:
    """Slowdown against nominal, measured on up to `processes` processes at once."""

    def __init__(self, processes: int):
        self.helpers = None
        if processes > 1:
            # fork, not spawn: spawn would also start multiprocessing's
            # resource-tracker daemon, which outlives close().
            self.helpers = ProcessPoolExecutor(
                processes - 1, mp_context=multiprocessing.get_context("fork"))
        self.slowdown(processes)  # warm the reference (and start helpers) before timing

    def slowdown(self, processes: int) -> float:
        # A pooled call runs partly on one process (reading, plotting,
        # starting the pool) and partly on all of them, so it is rescaled
        # by the geometric mean of the reference run alone and at once.
        # Another tenant busy on one CPU slows only the second of these.
        solo = reference_s()
        if processes == 1:
            return solo / REF_NOMINAL_S
        futures = [self.helpers.submit(reference_s) for _ in range(processes - 1)]
        times = [reference_s()] + [f.result() for f in futures]
        return math.sqrt(solo * statistics.fmean(times)) / REF_NOMINAL_S

    def timed(self, fn, processes: int = 1):
        """(result, elapsed seconds, mean slowdown just before and just after) of fn()."""
        before = self.slowdown(processes)
        t0 = perf_counter()
        result = fn()
        elapsed = perf_counter() - t0
        return result, elapsed, (before + self.slowdown(processes)) / 2

    def close(self) -> None:
        if self.helpers is not None:
            self.helpers.shutdown(wait=True, cancel_futures=True)
            self.helpers = None
