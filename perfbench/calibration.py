"""Rescaling wall times to a reference machine speed.

On a shared host the CPU speed a process gets drifts, by up to 1.7x within
seconds, with what other tenants run, and every pure-Python loop slows
alike.  So the benchmark brackets each timed unit with runs of a fixed
calibration loop and rescales the unit's wall time to a machine that runs
the loop REFERENCE_RATE times a second.  A workload that keeps several
processors busy is calibrated on as many at once, by helper processes.
A calibration lasts CAL_SHARE of the unit it follows (at least CAL_MIN_S),
so that its own noise stays small against the unit's.
"""
from __future__ import annotations

import multiprocessing
import statistics
from time import perf_counter

CAL_BLOCK = 100_000
CAL_MIN_S = 0.03
CAL_SHARE = 0.05
REFERENCE_RATE = 1e7


def loop_speed(min_s: float) -> float:
    """Calibration-loop iterations per second, measured over min_s or more."""
    t0 = perf_counter()
    done = 0
    while True:
        s = 0
        for i in range(CAL_BLOCK):
            s += i * i & 7
        done += CAL_BLOCK
        elapsed = perf_counter() - t0
        if elapsed >= min_s:
            return done / elapsed


def _helper(conn) -> None:
    while (min_s := conn.recv()) is not None:
        conn.send(loop_speed(min_s))


def reference_seconds(wall_s: float, speed_before: float, speed_after: float) -> float:
    """wall_s rescaled to a machine running the loop at REFERENCE_RATE."""
    return wall_s * (speed_before + speed_after) / 2 / REFERENCE_RATE


class Calibrator:
    """Measures the loop speed on `cores` processors at once; use it as a
    context manager so that its helper processes are stopped."""

    def __init__(self, cores: int = 1):
        self.cores = cores
        self._helpers: list = []

    def __enter__(self) -> "Calibrator":
        # Fork, not spawn: spawn starts multiprocessing's resource-tracker
        # process, which nothing waits for and which outlives the benchmark.
        ctx = multiprocessing.get_context("fork")
        for _ in range(self.cores - 1):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(child,), daemon=True)
            proc.start()
            self._helpers.append((proc, parent))
        return self

    def __exit__(self, *exc) -> None:
        for proc, conn in self._helpers:
            conn.send(None)
        for proc, conn in self._helpers:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()

    def speed(self, after_wall_s: float = 0.0) -> float:
        min_s = max(CAL_MIN_S, CAL_SHARE * after_wall_s)
        for _, conn in self._helpers:
            conn.send(min_s)
        speeds = [loop_speed(min_s)] + [conn.recv() for _, conn in self._helpers]
        return statistics.fmean(speeds)
