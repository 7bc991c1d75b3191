"""Host speed, from a fixed reference computation run next to each pass.

On a shared virtual machine the speed the host gives this process drifts:
within one run, bursts from other tenants slow a pass by up to 2x, and
between runs minutes apart even the fastest pass of a run moved by about
2x. The reference is a fixed piece of pure-Python work of the same kind as
the simulators (attribute and dict access, float arithmetic, small lists,
calls); it imports nothing from ``repro``, so no change to the program
moves it. Timing it on both sides of each pass gives the host's speed at
that moment, and dividing a pass's time by it removes the host's share of
the pass's time: see :func:`scaled`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

#: Seconds one reference rep takes in one process on the host the bounds
#: were set on (a 2-vCPU Xeon KVM guest), idle.
REP_S = 0.0025
#: Reference time run after each pass, as a share of the pass's wall time.
SHARE = 0.25
#: Shortest reference window (s).
MIN_WINDOW_S = 0.05


class _Cell:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: int, value: float) -> None:
        self.key, self.value, self.hits = key, value, 0


def _rep() -> float:
    table = {}
    total = 0.0
    for i in range(3000):
        key = i % 97
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key, float(i))
        cell.hits += 1
        cell.value = cell.value * 0.5 + (i % 13) * 1.25
        total += cell.value / (1.0 + cell.hits)
        row = [cell.value, total, float(cell.hits)]
        total -= min(row) * 1e-9 + sum(row) * 1e-12
    return total


@dataclass(frozen=True)
class Speed:
    """Wall and CPU seconds one reference rep took."""

    wall_s: float
    cpu_s: float

    def between(self, other: "Speed") -> "Speed":
        """The mean of two readings, for a pass run between them."""
        return Speed(
            (self.wall_s + other.wall_s) / 2, (self.cpu_s + other.cpu_s) / 2
        )


def _measure(seconds: float) -> Speed:
    reps = 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while True:
        _rep()
        reps += 1
        wall = time.perf_counter() - wall0
        if wall >= seconds:
            break
    return Speed(wall / reps, (time.process_time() - cpu0) / reps)


def measure(seconds: float, processes: int = 1) -> Speed:
    """Run whole reference reps for at least ``seconds`` of wall time.

    With ``processes=2`` a forked copy runs the reference at the same
    time and the reading is the mean of the two: a host can run two busy
    processes more slowly than one, and a pass that keeps two pool
    workers busy should be scaled by that speed.
    """
    if processes == 1:
        return _measure(seconds)
    if processes != 2:
        raise ValueError(f"processes must be 1 or 2, not {processes}")
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the copy: report its reading and exit at once
        try:
            os.close(read_fd)
            speed = _measure(seconds)
            os.write(write_fd, f"{speed.wall_s} {speed.cpu_s}".encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            mine = _measure(seconds)
            wall, cpu = (float(x) for x in pipe.read().split())
        finally:
            os.waitpid(pid, 0)
    return mine.between(Speed(wall, cpu))


def window(pass_wall_s: float) -> float:
    """Reference time to run after a pass of ``pass_wall_s`` seconds."""
    return max(MIN_WINDOW_S, SHARE * pass_wall_s)


def scaled(seconds: float, per_rep_s: float) -> float:
    """``seconds`` measured while a reference rep took ``per_rep_s``,
    expressed at a host speed where a rep takes ``REP_S``."""
    return seconds * REP_S / per_rep_s
