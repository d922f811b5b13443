"""One record per query: the phase times every reader reads.

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
``QueryResult``, EXPLAIN ANALYZE, telemetry's phase histograms and —
only while :meth:`~repro.db.database.Database.profile` is on — the
query log, the session's one history. The log and EXPLAIN ANALYZE share
the record's one JSON form, :meth:`QueryRecord.as_dict`; the schema is
documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Optional

#: Every phase of the query pipeline, in pipeline order: the schema of
#: a :class:`QueryRecord` (with ``cache``, :data:`SLOTS`), so the result,
#: EXPLAIN ANALYZE, the query log and the telemetry phase histograms all
#: name the same phases — a phase renamed here renames everywhere.
#: ``lint`` is the ``strict=True`` stage of ``compile``: it reads the
#: term ``translate`` just made.
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


class QueryRecord:
    """One query's phase times, total time, cache outcome and error.

    :meth:`phase` returns the record itself as the context manager that
    times the named slot; a slot entered twice (an ``execute`` that fell
    back to the interpreter) accumulates.
    """

    __slots__ = (
        "oql", "cache", "cached", "error", "ns", "start_ns", "total_ns",
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

    def as_dict(self) -> dict[str, Any]:
        """The record's one JSON form, which the query log and EXPLAIN
        ANALYZE both carry: ``total_ms`` and ``phases_ms`` rounded to the
        microsecond, and ``cache`` when a cache was consulted."""
        out: dict[str, Any] = {
            "total_ms": round(self.total_ms, 3),
            "phases_ms": {name: round(ms, 3) for name, ms in self.phases_ms().items()},
        }
        if self.cache:
            out["cache"] = dict(self.cache)
        return out
