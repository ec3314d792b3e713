"""In-memory spans with garbage-collector accounting.

A span is opened around each call into a layer of the program.  The
tracer keeps every span in a list (name, start, end, parent, op id, GC
pause, collections) and only aggregates when asked, so recording costs one
``perf_counter`` pair per span.  Pauses reported through ``gc.callbacks``
are charged to the innermost open span.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP, GC_S, GC0, GC_ALL = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._gc_started = 0.0

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        if not self._open:
            return
        span = self.spans[self._open[-1]]
        span[GC_S] += time.perf_counter() - self._gc_started
        span[GC_ALL] += 1
        if info["generation"] == 0:
            span[GC0] += 1

    @contextmanager
    def span(self, name: str, op: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, op, 0.0, 0, 0]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def to_json(spans: list[list]) -> list[dict]:
    keys = ("name", "start", "end", "parent", "op", "gc_s", "gc0", "gc_all")
    return [dict(zip(keys, s)) for s in spans]
