"""In-memory spans around calls into the program's public functions.

A span is ``(span_id, name, start, end, parent_id, ok)``. The parent is the
innermost open span on the calling thread; a call made on a worker thread
with no open span of its own is parented to the innermost open span on the
main thread (the ``score_corpus`` or ``classify_corpus`` call that owns the
pool). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int | None, bool]] = []
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped in a span called ``name``. ``observe(result)``
        runs after a successful call, outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if parent is None and stack is not self._main_stack:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    parent = None
            span_id = next(self._ids)
            stack.append(span_id)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, ok))
            if observe is not None:
                observe(result)
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: count, errors, total and self seconds, and every
        duration in microseconds. Self time is a span's duration minus the
        part of its interval that its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, dict] = {}
        for span_id, name, start, end, _, ok in self.spans:
            entry = out.setdefault(name, {"count": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0, "durations_us": []})
            duration = end - start
            entry["count"] += 1
            entry["errors"] += not ok
            entry["total_s"] += duration
            entry["self_s"] += duration - _covered(children.get(span_id, ()), start, end)
            entry["durations_us"].append(duration * 1e6)
        return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def tail_percentile(samples: list[float], pct: float) -> float:
    """The ``pct`` percentile, lowered to the highest percentile that still
    has at least ten samples beyond it (nearest rank; 0 without samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(math.ceil(len(ordered) * pct / 100.0), len(ordered) - 10)
    return ordered[max(rank, 1) - 1]
