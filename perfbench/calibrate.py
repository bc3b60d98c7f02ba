"""The machine's speed at the moment, from a fixed pure-Python loop.

The cores of a shared host change speed by up to a factor of two within a
second and drift by a third between runs minutes apart, as other tenants
come and go. `/proc/stat` shows almost no steal and CPU time tracks wall
time, so it is the cores themselves that slow down, and no statistic of wall
times alone holds still. rolecomms' game loop is plain Python float
arithmetic (math.sqrt, cos, atan2, small tuples, calls), so a loop of the
same kind slows down alike.

The benchmark times this loop on a round's core(s) just before and just
after the round, and reports the round's times in reference seconds: wall
seconds times REFERENCE_S over the loop's time. A reference second is a wall
second on a machine where the loop takes REFERENCE_S, about its median on
the 2-vCPU machine where the baseline was recorded. The loop imports nothing
from rolecomms, so no change to the program moves it.
"""

from __future__ import annotations

import math
import os
import statistics
import time

ITERATIONS = 15000
REFERENCE_S = 0.016


def _step(x, y, vx, vy, ox, oy):
    dx = x - ox
    dy = y - oy
    d = math.sqrt(dx * dx + dy * dy) + 1e-3
    f = 1.0 / (d * d)
    vx = 0.9 * vx + f * dx / d - 0.01 * x
    vy = 0.9 * vy + f * dy / d - 0.01 * y
    speed = math.sqrt(vx * vx + vy * vy)
    if speed > 1.0:
        vx /= speed
        vy /= speed
    return x + 0.05 * vx, y + 0.05 * vy, vx, vy


def _loop(iterations: int) -> float:
    """A point pushed around eight fixed obstacles, as the field law does."""
    obstacles = [(2.0 * math.cos(0.7 * k), 2.0 * math.sin(1.3 * k)) for k in range(8)]
    x, y, vx, vy = 1.0, 0.5, 0.0, 0.0
    trail = []
    for i in range(iterations):
        ox, oy = obstacles[i & 7]
        x, y, vx, vy = _step(x, y, vx, vy, ox, oy)
        heading = math.atan2(vy, vx)
        trail.append((x + math.cos(heading), y + math.sin(heading)))
        if len(trail) > 64:
            trail.clear()
    return x + y


def loop_seconds(cores) -> float:
    """Mean wall time of the loop on each of cores; the affinity is restored."""
    saved = os.sched_getaffinity(0)
    times = []
    try:
        for core in cores:
            os.sched_setaffinity(0, {core})
            start = time.perf_counter()
            _loop(ITERATIONS)
            times.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, saved)
    return statistics.fmean(times)


def reference_per_wall(loop_before: float, loop_after: float) -> float:
    """Reference seconds per wall second while the loop took these times."""
    return REFERENCE_S / (0.5 * (loop_before + loop_after))
