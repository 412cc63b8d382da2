"""Spans recorded around calls into the program's layers.

The benchmark's traced run wraps each public call it makes into a
layer (``sim``, ``decode``, ``deform``, ``serve``, ``eval``) in a
:meth:`Tracer.span`.  A span is ``(op, name, start, end)``: ``op`` is
the timed operation it belongs to, or ``None`` for set-up work.  Spans
stay in memory and are folded into per-layer metrics when the run ends.
"""

from __future__ import annotations

import statistics
import threading
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder; safe to record from worker threads."""

    def __init__(self) -> None:
        self.spans: list[tuple[int | None, str, float, float]] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, op: int | None = None):
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            with self._lock:
                self.spans.append((op, name, start, end))

    def durations(self, name: str) -> list[float]:
        """Seconds of every span called ``name``, set-up and ops alike."""
        return [end - start for _, n, start, end in self.spans if n == name]

    def median_ms(self, name: str) -> float:
        """Median duration of ``name`` spans in ms (0 when never called)."""
        values = self.durations(name)
        return statistics.median(values) * 1e3 if values else 0.0

    def op_total(self, op: int, prefixes: tuple[str, ...]) -> float:
        """Seconds op ``op`` spent in spans whose name starts with a prefix."""
        return sum(
            end - start
            for o, n, start, end in self.spans
            if o == op and n.startswith(prefixes)
        )
