"""Harness-owned spans around the calls into each layer.

The program's own tracer stays off; these spans are recorded from the
benchmark's files so that deleting or moving a span inside the program
cannot change what is measured. Spans live in memory and are written
out as JSON when the run ends. Durations are calibrated like every other
time (``stats.Clock``): when a root span closes, the yardstick is measured
and its factor applies to the root and everything under it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from benchmarks.harness.stats import Clock


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the span that caused this one
    query: Optional[str]  # spans of one operation share this id
    scale: float = 1.0  # calibrated seconds per measured second

    @property
    def duration(self) -> float:
        return (self.end - self.start) * self.scale


class Recorder:
    """Collects spans on one thread; nesting gives the parent links."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, query: Optional[str] = None) -> Iterator[int]:
        parent = self._open[-1] if self._open else None
        if query is None and parent is not None:
            query = self.spans[parent].query
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, query)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield index
        finally:
            record.end = time.perf_counter()
            self._open.pop()
            if parent is None and self.clock is not None:
                scale = self.clock.speed()
                for span in self.spans[index:]:
                    span.scale = scale

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                parent = self.spans[span.parent]
                overlap = min(span.end, parent.end) - max(span.start, parent.start)
                covered[span.parent] += max(0.0, overlap) * span.scale
        return [span.duration - covered[i] for i, span in enumerate(self.spans)]

    def to_json(self) -> list[dict]:
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": s.name,
                "start_ms": (s.start - origin) * 1e3,
                "end_ms": (s.end - origin) * 1e3,
                "parent": s.parent,
                "query": s.query,
                "scale": s.scale,
            }
            for s in self.spans
        ]
