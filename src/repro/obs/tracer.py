"""One record per query, and the session tracer that keeps span trees.

Every query a :class:`~repro.db.database.Database` runs gets one
:class:`QueryRecord`, and the pipeline writes each phase it runs into
the record's slot for it — one slot per :data:`PIPELINE_PHASES` entry
plus ``cache`` (:data:`SLOTS`). The record itself times a phase::

    record = QueryRecord("count(Cities)")
    with record.phase("parse"):
        ...
    with record.phase("execute"):
        ...
    record.finish()
    record.phases_ms()  # {"parse": 0.11, "execute": 1.4}

A phase costs two ``time.perf_counter_ns`` reads and a slot write,
always: there is no enabled/disabled fork. Phases are sequential (none
is timed inside another), so one record times one phase at a time. A
compile- or result-cache hit marks the phases it skipped as cached
(:attr:`QueryRecord.cached`) instead of timing them.

Everything that reports a query's time reads its finished record: the
``QueryResult``, EXPLAIN ANALYZE, the query log, telemetry's phase
histograms and — only while it is enabled — the session
:class:`Tracer`, which builds one :class:`TraceSpan` tree from the
record (:meth:`QueryRecord.to_span`) and retains it. Span trees export
two ways: :meth:`Tracer.to_events` flattens every retained root into a
list of JSON-ready event dicts (one per span, with a ``parent`` index),
and :func:`render_span` draws one root as an indented tree with
durations — the form the REPL prints. The schema is documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Optional

#: Every phase of the query pipeline, in pipeline order: the schema of
#: a :class:`QueryRecord` (with ``cache``, :data:`SLOTS`), so the result,
#: EXPLAIN ANALYZE, the query log, the span tree and the telemetry phase
#: histograms all name the same phases — a phase renamed here renames
#: everywhere. ``lint`` is the ``strict=True`` stage of ``compile``: it
#: reads the term ``translate`` just made.
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

#: A query record's slots: the compile- and result-cache lookups, then
#: every pipeline phase.
SLOTS = ("cache",) + PIPELINE_PHASES

_SLOT = {name: index for index, name in enumerate(SLOTS)}

#: How many finished root spans a :class:`Tracer` retains (the newest).
MAX_ROOTS = 1024


class QueryRecord:
    """One query's phase times, total time, cache outcome and error.

    :meth:`phase` returns the record itself as the context manager that
    times the named slot; a slot entered twice (an ``execute`` that fell
    back to the interpreter) accumulates.
    """

    __slots__ = (
        "oql", "cache", "cached", "error", "ns", "starts", "start_ns", "total_ns",
        "_slot", "_t0",
    )

    def __init__(self, oql: str) -> None:
        self.oql = oql
        #: the cache outcome, e.g. ``{"compile": "hit", "result": "miss"}``
        #: (``compile`` may also be ``"prepared"``, ``result`` ``"bypass"``)
        self.cache: dict[str, str] = {}
        #: the phases a cache hit skipped, in pipeline order
        self.cached: tuple[str, ...] = ()
        #: the error class of a failed query (None while it has not failed)
        self.error: Optional[str] = None
        #: nanoseconds spent per slot (None: the query never entered it)
        self.ns: list[Optional[int]] = [None] * len(SLOTS)
        #: ``perf_counter_ns`` when each slot was first entered
        self.starts: list[int] = [0] * len(SLOTS)
        self.total_ns = 0
        self.start_ns = perf_counter_ns()

    def phase(self, name: str) -> "QueryRecord":
        """Time slot ``name`` for the length of a ``with`` block."""
        self._slot = _SLOT[name]
        return self

    def __enter__(self) -> None:
        self._t0 = perf_counter_ns()

    def __exit__(self, *exc: Any) -> None:
        elapsed = perf_counter_ns() - self._t0
        slot = self._slot
        spent = self.ns[slot]
        if spent is None:
            self.ns[slot] = elapsed
            self.starts[slot] = self._t0
        else:
            self.ns[slot] = spent + elapsed

    def finish(self, error: Optional[BaseException] = None) -> None:
        """Stop the query's clock; ``error`` is why it failed, if it did."""
        self.total_ns = perf_counter_ns() - self.start_ns
        if error is not None:
            self.error = type(error).__name__

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    def phases_ms(self) -> dict[str, float]:
        """``{slot: milliseconds}`` in :data:`SLOTS` order: every slot
        the query entered, and 0.0 for each phase a cache hit skipped."""
        out: dict[str, float] = {}
        for name, spent in zip(SLOTS, self.ns):
            if spent is not None:
                out[name] = spent / 1e6
            elif name in self.cached:
                out[name] = 0.0
        return out

    def to_span(self) -> "TraceSpan":
        """The record as a span tree: a ``query`` root with one child
        per slot, a cached phase as a zero-length child marked
        ``cached``."""
        start = self.start_ns / 1e9
        root = TraceSpan("query", start, self.total_ns / 1e9)
        for slot, name in enumerate(SLOTS):
            spent = self.ns[slot]
            if spent is not None:
                root.children.append(TraceSpan(name, self.starts[slot] / 1e9, spent / 1e9))
            elif name in self.cached:
                root.children.append(TraceSpan(name, start, meta={"cached": True}))
        return root


@dataclass
class TraceSpan:
    """One timed region: a name, a duration, metadata and children."""

    name: str
    start: float  # perf_counter seconds, comparable within one process
    duration: float = 0.0  # seconds
    meta: dict[str, Any] = field(default_factory=dict)
    children: list["TraceSpan"] = field(default_factory=list)

    @property
    def duration_ms(self) -> float:
        return self.duration * 1e3

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


class Tracer:
    """The session's retained span trees, one root per traced query.

    A :class:`~repro.db.database.Database` hands its tracer each
    finished or failed query's record while ``enabled`` is True
    (:meth:`add`); ``enabled`` also asks for per-operator wall time.

    >>> tracer = Tracer(enabled=True)
    >>> record = QueryRecord("count(Cities)")
    >>> with record.phase("parse"):
    ...     pass
    >>> record.finish()
    >>> [child.name for child in tracer.add(record).children]
    ['parse']
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: the newest :data:`MAX_ROOTS` query roots, oldest first — a
        #: ring, so a long traced session stays bounded
        self.roots: deque[TraceSpan] = deque(maxlen=MAX_ROOTS)
        # ``roots`` is shared by every thread that runs queries.
        self._roots_lock = threading.Lock()

    def add(self, record: QueryRecord) -> TraceSpan:
        """Retain ``record``'s span tree; returns its root."""
        root = record.to_span()
        with self._roots_lock:
            self.roots.append(root)
        return root

    def reset(self) -> None:
        """Drop every retained root."""
        with self._roots_lock:
            self.roots.clear()

    def to_events(self) -> list[dict[str, Any]]:
        """Every retained span as a flat, JSON-ready event list.

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
