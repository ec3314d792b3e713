"""A reference loop that measures the host's current speed.

On a shared virtual machine the speed one process gets drifts by up to
1.7x within seconds (measured on a 2-vCPU Xeon VM); CPU time drifts with
it, because the core itself runs slower, not because the process waits.
``block()`` is a fixed piece of interpreter work (tuple indexing, dict
lookups and integer arithmetic, with no allocation the garbage collector
tracks, so it does not move the program's collections).  Timing it next to
and during each operation gives the speed the operation ran at, and
``scaled()`` turns a wall time into seconds at a fixed reference speed:
the time the operation would take on a host where one block takes
``BLOCK_S``.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

BLOCK_LOOPS = 1500
# Nominal time of one block: about its time on an idle 2-vCPU Xeon VM.
BLOCK_S = 250e-6
# While an operation runs, a timer signal runs one block this often.
PERIOD_S = 5e-3

_KEYS = tuple(f"key{i}" for i in range(512))
_TABLE = {k: i for i, k in enumerate(_KEYS)}


def block() -> int:
    h = 0
    for i in range(BLOCK_LOOPS):
        k = _KEYS[(i * 7) & 511]
        h = (h * 31 + _TABLE[k] + len(k)) & 0xFFFFFF
    return h


def timed_block() -> float:
    started = time.perf_counter()
    block()
    return time.perf_counter() - started


def scaled(wall_s: float, block_s: float) -> float:
    """Wall time converted to the reference speed."""
    return wall_s * BLOCK_S / block_s


class Timing:
    net_s = 0.0     # wall time of the operation without the blocks
    block_s = 0.0   # mean time of one block around and during it


class Probe:
    """Times operations together with reference blocks run before, during
    (from a SIGALRM handler, every PERIOD_S) and after each one."""

    def __init__(self):
        self._spent = 0.0
        self._count = 0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self._spent += timed_block()
        self._count += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def around(self):
        timing = Timing()
        before = timed_block()
        self._spent, self._count = 0.0, 0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        started = time.perf_counter()
        try:
            yield timing
        finally:
            wall = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
            inside, count = self._spent, self._count
            after = timed_block()
            timing.net_s = wall - inside
            timing.block_s = (before + inside + after) / (count + 2)
