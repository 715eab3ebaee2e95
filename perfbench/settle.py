"""Waiting for the host to run the benchmark at full speed before a timed step."""

from __future__ import annotations

import os
import time


class Settle:
    """Holds each timed step back until the host runs this process at full speed.

    The host of the reference machine takes away a varying share of each vCPU
    for one to ten seconds at a time, which slows everything by up to 1.6x.
    Before a step, a 20k-step Python loop is timed; while it runs more than
    15% slower than the fastest loop seen, the step waits (at most 2 s).  The
    process is pinned to the vCPU where the loop ran fastest at start, and
    the subprocesses it starts inherit the pinning, so probe and step share a
    CPU.  The step's own time is measured as before; only when it starts moves.
    """

    TOL = 1.15
    MAX_WAIT = 2.0

    def __init__(self):
        self.cpus = os.sched_getaffinity(0)
        cpus = sorted(self.cpus)
        speed = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(self._probe() for _ in range(10))
        fastest = min(speed, key=speed.get)
        os.sched_setaffinity(0, {fastest})
        self.best = speed[fastest]

    @staticmethod
    def _probe() -> float:
        t = time.perf_counter()
        s = 0
        for i in range(20000):
            s += i * i
        return time.perf_counter() - t

    def __call__(self) -> None:
        deadline = time.perf_counter() + self.MAX_WAIT
        while True:
            p = self._probe()
            self.best = min(self.best, p)
            if p <= self.TOL * self.best or time.perf_counter() > deadline:
                return
            time.sleep(0.02)

    def release(self) -> None:
        """Give the process back every CPU it had before."""
        os.sched_setaffinity(0, self.cpus)
