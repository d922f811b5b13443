"""Nested wall-clock spans for the query pipeline.

A :class:`Tracer` records one :class:`TraceSpan` tree per traced
region. :meth:`Tracer.span` is a context manager::

    tracer = Tracer(enabled=True)
    with tracer.span("query", oql="count(Cities)"):
        with tracer.span("parse"):
            ...
        with tracer.span("execute"):
            ...

When the tracer is disabled (the default for a fresh
:class:`~repro.db.database.Database`), ``span`` returns a shared no-op
context manager: no span objects are allocated, no clock is read, and
the traced code runs as if the ``with`` statement were absent. This is
what lets one pipeline serve traced and untraced queries alike: with
observability off a phase boundary costs one attribute test.

Spans export two ways: :meth:`Tracer.to_events` flattens every finished
root into a list of JSON-ready event dicts (one per span, with a
``parent`` index), and :func:`render_span` draws one root as an
indented tree with durations — the form the REPL prints. The schema
is documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

#: Every phase of the query pipeline, in pipeline order. This is the
#: single source of truth shared by the tracer, the cache's skip logic
#: (a compile-cache hit marks the skipped subset as cached, see
#: :meth:`Tracer.mark_cached`) and the telemetry phase histograms — so a phase
#: renamed here renames everywhere. ``lint`` is the ``strict=True``
#: stage of ``compile``: it reads the term ``translate`` just made.
PIPELINE_PHASES = (
    "parse",
    "translate",
    "lint",
    "typecheck",
    "normalize",
    "plan",
    "optimize",
    "jit",
    "execute",
)

#: The front half a compilation-cache hit skips (``execute`` always
#: runs; ``lint`` is a per-call flag, honored even on hits). ``jit``
#: only appears when plan compilation is enabled (``REPRO_JIT``).
COMPILE_PHASES = (
    "parse",
    "translate",
    "typecheck",
    "normalize",
    "plan",
    "optimize",
    "jit",
)


#: How many finished root spans a :class:`Tracer` retains (the newest).
MAX_ROOTS = 1024


@dataclass
class TraceSpan:
    """One timed region: a name, a duration, metadata and children."""

    name: str
    start: float  # perf_counter seconds, comparable within one process
    duration: float = 0.0  # seconds; 0.0 while the span is still open
    meta: dict[str, Any] = field(default_factory=dict)
    children: list["TraceSpan"] = field(default_factory=list)

    @property
    def duration_ms(self) -> float:
        return self.duration * 1e3

    def child(self, name: str) -> Optional["TraceSpan"]:
        """The first direct child called ``name``, or None."""
        for span in self.children:
            if span.name == name:
                return span
        return None

    def phase_times_ms(self) -> dict[str, float]:
        """Direct children as a ``{name: milliseconds}`` mapping.

        Repeated phase names accumulate (e.g. two ``execute`` attempts).
        """
        out: dict[str, float] = {}
        for span in self.children:
            out[span.name] = out.get(span.name, 0.0) + span.duration_ms
        return out

    def to_dict(self) -> dict[str, Any]:
        """Nested JSON-ready form of this span subtree."""
        out: dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 6),
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


#: The shared do-nothing context manager used while tracing is off.
_NULL_SPAN = nullcontext()


class Tracer:
    """Collects nested spans; a null object when ``enabled`` is False.

    >>> tracer = Tracer(enabled=True)
    >>> with tracer.span("query") as q:
    ...     with tracer.span("parse"):
    ...         pass
    >>> [child.name for child in tracer.roots[-1].children]
    ['parse']
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: the newest :data:`MAX_ROOTS` finished top-level spans, oldest
        #: first — a ring, so a long traced session stays bounded
        self.roots: deque[TraceSpan] = deque(maxlen=MAX_ROOTS)
        # The open-span stack is thread-local: two threads tracing
        # through one shared Tracer must each see their own nesting, or
        # a span opened on thread A would adopt thread B's children and
        # the pop order would corrupt both trees. ``roots`` stays shared
        # (guarded by ``_roots_lock``) so every thread's finished
        # top-level spans land in one exportable list.
        self._stacks = threading.local()
        self._roots_lock = threading.Lock()

    @property
    def _stack(self) -> list[TraceSpan]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def span(self, name: str, **meta: Any):
        """A context manager timing ``name``; no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return self._timed(name, meta)

    @contextmanager
    def _timed(self, name: str, meta: dict[str, Any]) -> Iterator[TraceSpan]:
        span = TraceSpan(name, time.perf_counter(), meta=dict(meta))
        stack = self._stack
        parent = stack[-1] if stack else None
        stack.append(span)
        try:
            yield span
        finally:
            span.duration = time.perf_counter() - span.start
            stack.pop()
            self._finished(span, parent)

    def _finished(self, span: TraceSpan, parent: Optional[TraceSpan]) -> None:
        if parent is not None:
            parent.children.append(span)
        else:
            with self._roots_lock:
                self.roots.append(span)

    def attach(self, name: str, start: float, duration: float, **meta: Any) -> None:
        """Attach an already-measured span under the current open span.

        For work timed on another thread (e.g. a parallel partition
        worker): the worker records ``perf_counter`` start/duration
        itself, and the coordinating thread attaches the finished span
        to its own open trace. No-op while tracing is off.
        """
        if not self.enabled:
            return
        span = TraceSpan(name, start, duration=duration, meta=dict(meta))
        stack = self._stack
        self._finished(span, stack[-1] if stack else None)

    def mark_cached(self, *names: str) -> None:
        """Record zero-duration spans for phases a cache hit skipped.

        Without this, a compile-cache hit would make ``parse`` …
        ``optimize`` silently vanish from the trace tree; instead each
        skipped phase appears with ``meta={"cached": True}`` and renders
        as ``(cached)``. No-op while tracing is off.
        """
        if not self.enabled:
            return
        stack = self._stack
        parent = stack[-1] if stack else None
        now = time.perf_counter()
        for name in names:
            self._finished(TraceSpan(name, now, meta={"cached": True}), parent)

    def reset(self) -> None:
        """Drop every finished span (open spans are unaffected)."""
        with self._roots_lock:
            self.roots.clear()

    def to_events(self) -> list[dict[str, Any]]:
        """Every retained finished span as a flat, JSON-ready event list.

        Events appear in pre-order; ``parent`` is the index of the
        enclosing span's event (None for roots) and ``start_ms`` is
        relative to the first retained root.
        """
        events: list[dict[str, Any]] = []
        roots = self._retained()
        if not roots:
            return events
        epoch = roots[0].start

        def walk(span: TraceSpan, parent: Optional[int]) -> None:
            index = len(events)
            event: dict[str, Any] = {
                "name": span.name,
                "start_ms": round((span.start - epoch) * 1e3, 6),
                "duration_ms": round(span.duration_ms, 6),
                "parent": parent,
            }
            if span.meta:
                event["meta"] = dict(span.meta)
            events.append(event)
            for child in span.children:
                walk(child, index)

        for root in roots:
            walk(root, None)
        return events

    def render(self) -> str:
        """All retained roots as indented trees, one line per span."""
        return "\n".join(render_span(root) for root in self._retained())

    def _retained(self) -> list[TraceSpan]:
        # A copy: a deque may not be appended to while it is iterated.
        with self._roots_lock:
            return list(self.roots)


def render_span(span: TraceSpan, indent: int = 0) -> str:
    """One span subtree as an indented tree with durations."""
    pad = "  " * indent
    if span.meta.get("cached"):
        lines = [f"{pad}{span.name:<12}  (cached)"]
    else:
        lines = [f"{pad}{span.name:<12} {span.duration_ms:9.3f} ms"]
    lines.extend(render_span(child, indent + 1) for child in span.children)
    return "\n".join(lines)
