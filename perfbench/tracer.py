"""Spans with self time, and counters, recorded from outside the package.

The benchmark records a span around each call it makes into orientkit and
wraps the public names that one orientkit module binds from another (for
example `orientkit.anchors.rotated_iou`). A span's self time is its
duration minus the time covered by spans opened inside it, so the self
times of all spans under one root add up to the root's duration. Spans
and counters stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[float] = []  # time covered by children of each open span

    def _record(self, name: str) -> list[float]:
        return self.spans.setdefault(name, [0, 0.0, 0.0])

    def _close(self, rec: list[float], dt: float) -> None:
        child = self._stack.pop()
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child
        if self._stack:
            self._stack[-1] += dt

    @contextmanager
    def span(self, name: str):
        rec = self._record(name)
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(rec, perf_counter() - t0)

    def wrap(self, fn, name: str, on_result=None):
        """`fn` with a span around every call; `on_result(tracer, result)` sees each result."""
        rec = self._record(name)
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec, perf_counter() - t0)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def as_dict(self) -> dict:
        return {
            "spans": {
                name: {"calls": int(c), "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.spans.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


@contextmanager
def patched(tracer: Tracer, targets):
    """Wrap each `(module, attribute, span_name, on_result)` for the duration.

    A name that the module no longer has is skipped: it records no span
    and does not fail the run.
    """
    saved = []
    for module, attr, name, on_result in targets:
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(fn, name, on_result))
    try:
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
