"""Structured query logging: one JSON line per executed query.

The session's one history of queries: each database owns one
:class:`QueryLog`, recording while
:meth:`Database.profile <repro.db.database.Database.profile>` has it on
(or ``:profile on`` in the REPL). Each entry carries everything needed
to find a regression after the fact without storing the query text
itself: a wall-clock ``ts`` stamp, a stable hash of the OQL, the
engine that answered it, the phase and total times of the query's
:class:`~repro.db.database.QueryResult` (its
:meth:`~repro.db.database.QueryResult.as_dict` form, which EXPLAIN
ANALYZE also carries), the executor's row counters, and the
normalizer's rule-fire counts. A failed query's entry names its
error class instead of the engine, counters and rule fires.

Timing sources: every *duration* in an entry (``total_ms``,
``phases_ms``) comes from the result's ``time.perf_counter_ns`` reads;
``ts`` is the **only** wall-clock (``time.time``) field in the
observability layer — it stamps when the event happened, never how
long anything took (the timing-source regression test enforces this
split repo-wide).

A ``slow_ms`` threshold marks entries ``"slow": true`` when the whole
query (not just execution) exceeded it — the usual first filter when
tailing the log. Entry schema in ``docs/OBSERVABILITY.md``.

Logs can stream to a file with size-based rotation: give ``path`` and
``max_bytes`` and the log rolls ``query.log -> query.log.1 -> ...``
before a write would cross the limit, keeping ``backups`` old files
(oldest deleted). Rotation never splits an entry across files.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Optional

from repro.errors import ReproError


#: How many entries a :class:`QueryLog` keeps in memory (the newest);
#: the sink and the file see every entry.
MAX_ENTRIES = 1024


def oql_fingerprint(oql: str) -> str:
    """A short stable identifier for one query text (sha256 prefix)."""
    return hashlib.sha256(oql.strip().encode("utf-8")).hexdigest()[:12]


def query_log_entry(result: Any, slow_ms: Optional[float] = None) -> dict[str, Any]:
    """Build the JSON-ready log entry for one finished or failed
    :class:`~repro.db.database.QueryResult`."""
    entry: dict[str, Any] = {
        "event": "query",
        # Wall clock by design: a log reader correlates entries with
        # the outside world. All durations stay on perf_counter.
        "ts": round(time.time(), 6),
        "oql_sha256": oql_fingerprint(result.oql),
        **result.as_dict(),
    }
    if result.error is not None:
        entry["error"] = type(result.error).__name__
    else:
        entry["engine"] = result.engine
        stats = result.stats
        if stats is not None:
            entry["stats"] = stats.as_dict()
        entry["rule_fires"] = dict(sorted(result.trace.rule_counts().items()))
    if slow_ms is not None:
        entry["slow"] = result.total_ms >= slow_ms
    return entry


class QueryLog:
    """The session's one query history, optionally streamed as JSONL.

    A :class:`~repro.db.database.Database` owns one log for its whole
    life and hands it each finished or failed query's result while
    :attr:`enabled` is True; :meth:`~repro.db.database.Database.profile`
    switches it, and switching it on takes new settings (:meth:`reset`).

    Its settings are :meth:`reset`'s arguments. ``sink`` is any
    ``str -> None`` callable (e.g. ``print``, a file's ``write`` wrapped
    to add newlines, or a REPL's output function), called under the
    log's one lock, so it must not run a query of the profiled database
    itself; when None the entries
    are only kept on :attr:`entries` (a bounded window of the newest
    ones). ``path`` additionally appends each line to a file, rotated
    before any write that would push the file past ``max_bytes``
    (``None`` disables rotation); ``backups`` old files are kept as
    ``path.1..path.N``. A
    ``path`` that cannot be opened for appending is rejected with a
    :class:`~repro.errors.ReproError` before any setting changes, so no
    query fails for a logging reason.
    """

    def __init__(self) -> None:
        #: whether the owning database records its queries here
        self.enabled = False
        #: the newest :data:`MAX_ENTRIES` entries, oldest first
        self.entries: deque[dict[str, Any]] = deque(maxlen=MAX_ENTRIES)
        # One lock covers entries, the sink, and the rotate+append file
        # sequence: without it, concurrent Database.run callers sharing
        # a profile() log could interleave half-written lines or race a
        # rotation against an in-flight append (losing the line into the
        # just-rolled file).
        self._lock = threading.Lock()
        self.reset()

    def reset(
        self,
        sink: Optional[Callable[[str], None]] = None,
        slow_ms: Optional[float] = None,
        path: Optional[str] = None,
        max_bytes: Optional[int] = None,
        backups: int = 3,
    ) -> None:
        """Take new settings and start a fresh history (no entries, no
        rotations), or raise and change nothing when ``path`` cannot be
        written."""
        if path is not None:
            path = os.fspath(path)
            try:
                open(path, "ab").close()
            except OSError as err:
                raise ReproError(
                    f"cannot write the query log to {path!r}: {err.strerror}"
                ) from err
        with self._lock:
            self.sink = sink
            self.slow_ms = slow_ms
            self.path = path
            self.max_bytes = max_bytes
            self.backups = max(0, backups)
            #: file rollovers performed so far
            self.rotations = 0
            self.entries.clear()

    def record(self, result: Any) -> dict[str, Any]:
        """Append (and emit) the entry for one finished or failed query.

        Thread-safe: concurrent recorders serialize on an internal lock
        so JSONL lines never interleave and rotation never splits or
        drops an entry. The entry is serialized only when a sink or a
        file receives it.
        """
        entry = query_log_entry(result, self.slow_ms)
        with self._lock:
            self.entries.append(entry)
            if self.sink is None and self.path is None:
                return entry
            line = json.dumps(entry, sort_keys=True)
            if self.sink is not None:
                self.sink(line)
            if self.path is not None:
                self._write_line(line)
        return entry

    # -- file sink with size-based rotation ---------------------------------------

    def _write_line(self, line: str) -> None:
        data = (line + "\n").encode("utf-8")
        if self.max_bytes is not None:
            try:
                size = os.path.getsize(self.path)
            except OSError:
                size = 0
            if size > 0 and size + len(data) > self.max_bytes:
                self._rotate()
        with open(self.path, "ab") as handle:
            handle.write(data)

    def rotate(self) -> None:
        """Roll ``path`` to ``path.1`` (shifting older backups up, the
        oldest falling off); the next write starts a fresh file."""
        with self._lock:
            self._rotate()

    def _rotate(self) -> None:
        """:meth:`rotate` under the caller's lock."""
        if self.path is None:
            return
        oldest = f"{self.path}.{self.backups}"
        if self.backups and os.path.exists(oldest):
            os.remove(oldest)
        for i in range(self.backups - 1, 0, -1):
            src = f"{self.path}.{i}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{i + 1}")
        if os.path.exists(self.path):
            if self.backups:
                os.replace(self.path, f"{self.path}.1")
            else:
                os.remove(self.path)
        self.rotations += 1

    def log_files(self) -> list[str]:
        """The current file plus existing backups, newest first."""
        if self.path is None:
            return []
        files = [self.path] if os.path.exists(self.path) else []
        for i in range(1, self.backups + 1):
            backup = f"{self.path}.{i}"
            if os.path.exists(backup):
                files.append(backup)
        return files

    def slow_queries(self) -> list[dict[str, Any]]:
        """Retained entries that crossed the ``slow_ms`` threshold."""
        with self._lock:  # a deque may not be appended to while iterated
            return [entry for entry in self.entries if entry.get("slow")]

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
