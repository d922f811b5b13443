"""Regenerate ``readers_golden.json``: what the readers of a query emit.

A query is read by three readers: the query log (one entry per run),
EXPLAIN ANALYZE (one document) and telemetry (the Prometheus text of
its registry). This script runs one fixed sequence on the demo travel
database with a cache and a private telemetry registry on — a miss, a
repeat hit, an alpha-variant, a prepared statement run twice, a query
on the interpreter, two failing queries, a ``verify=True`` run and two
EXPLAIN ANALYZE documents — and keeps every
field the readers emit that is not a time:

- query-log entries without ``ts`` and ``total_ms``, and ``phases_ms``
  as the list of phase names it reports (``slow_ms=0`` marks every
  entry slow, so the ``slow`` field is covered without a clock);
- EXPLAIN ANALYZE documents with the same two time fields so reduced;
- the Prometheus text without the ``repro_window_*`` gauges (a rate and
  a mean latency) and without the ``_bucket`` / ``_sum`` series of the
  two latency histograms (their ``_count`` series stay).

Run from the repository root::

    PYTHONPATH=<checkout>/src python tests/data/make_readers_golden.py

``tests/test_readers_golden.py`` holds the current ``src`` to the file.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Any

from repro.analysis.verifier import verification
from repro.db import demo_travel_database
from repro.jit.plan import clear_code_cache
from repro.obs.telemetry import MetricsRegistry, prometheus_text

GOLDEN = Path(__file__).with_name("readers_golden.json")

QUERY = "select distinct c.name from c in Cities"
#: the run sequence: ``(kind, argument)``; ``explain`` is EXPLAIN ANALYZE
SEQUENCE: tuple[tuple[str, Any], ...] = (
    ("run", QUERY),
    ("run", QUERY),  # a compile and a result hit
    ("run", "select distinct x.name from x in Cities"),  # alpha-variant
    ("run", "count(select h.name from c in Cities, h in c.hotels)"),
    ("prepared", {"min": 0}),
    ("prepared", {"min": 10**9}),
    ("interpret", "select distinct c.name from c in Cities where c.name = \"none\""),
    ("fail", "select n.name from n in Nowhere"),
    ("fail", "select distinct c.name from c in"),
    ("verify", "select struct(city: city, n: count(partition)) "
               "from c in Cities group by city: c.name"),
    ("explain", QUERY),
    ("explain", "select distinct struct(city: c.name, hotel: h.name) "
                "from c in Cities, h in c.hotels where h.stars > 2"),
)
PREPARED = "select distinct c.name from c in Cities where c.population > $min"

_TIMED_SERIES = re.compile(r"^repro_(query|phase)_seconds_(bucket|sum)\b|^repro_window_")


def untimed(doc: dict[str, Any]) -> dict[str, Any]:
    """``doc`` (a log entry or an EXPLAIN document) without its times:
    no ``ts`` or ``total_ms``, and the names of ``phases_ms`` in order."""
    out = {k: v for k, v in doc.items() if k not in ("ts", "total_ms")}
    if "phases_ms" in out:
        out["phases_ms"] = list(out["phases_ms"])
    return out


def untimed_prometheus(text: str) -> list[str]:
    """The exposition's lines but the time-valued series."""
    return [line for line in text.splitlines() if not _TIMED_SERIES.match(line)]


def readers() -> dict[str, Any]:
    """Run :data:`SEQUENCE` and return what every reader emitted."""
    clear_code_cache()
    db = demo_travel_database(num_cities=4, seed=7)
    db.disable_cache()  # the demo database reads REPRO_* flags
    db.enable_cache()
    registry = MetricsRegistry()
    db.enable_telemetry(registry)
    db.profile(True, slow_ms=0.0)
    prepared = None
    explained = []
    # REPRO_VERIFY must not move a cache outcome: verification is off
    # but where a step asks for it.
    with verification(False):
        for kind, arg in SEQUENCE:
            if kind == "run":
                db.run(arg)
            elif kind == "prepared":
                prepared = prepared or db.prepare(PREPARED)
                prepared.run(**arg)
            elif kind == "interpret":
                db.run(arg, engine="interpret")
            elif kind == "fail":
                try:
                    db.run(arg)
                except Exception:
                    pass
                else:
                    raise AssertionError(f"{arg!r} did not fail")
            elif kind == "verify":
                db.run(arg, verify=True)
            else:
                explained.append(untimed(db.explain_data(arg, analyze=True)))
    return {
        "query_log": [untimed(entry) for entry in db.query_log.entries],
        "explain_analyze": explained,
        "prometheus": untimed_prometheus(prometheus_text(registry)),
    }


def main() -> None:
    GOLDEN.write_text(json.dumps(readers(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
