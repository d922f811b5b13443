"""Timing-source audit: durations use the monotonic clock, wall-clock
stamps are for event timestamps only.

The observability layer's contract (documented in
``docs/OBSERVABILITY.md``): anything that measures *how long* — tracer
spans, operator metrics, telemetry histograms, benchmark medians — must
use ``time.perf_counter``/``perf_counter_ns`` (or ``time.monotonic``
for the rolling window), which never jump under NTP. Wall clock
(``time.time``/``time.time_ns``) is only legal for *when it happened*
fields: the query log's ``ts``. This test
scans the source so a stray ``time.time()`` duration can't creep in.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
BENCH = Path(__file__).resolve().parent.parent / "benchmarks"

#: The only files allowed to call the wall clock, and why.
WALL_CLOCK_ALLOWED = {
    "obs/querylog.py",  # the log entry's ts field (event stamp)
}

_WALL = re.compile(r"\btime\.time(_ns)?\s*\(")
_CODE = re.compile(r"^\s*(#|\"\"\"|''')")  # comment/docstring openers


def _wall_clock_files(root: Path) -> set[str]:
    offenders: set[str] = set()
    for path in root.rglob("*.py"):
        for line in path.read_text(encoding="utf-8").splitlines():
            if _CODE.match(line):
                continue
            if _WALL.search(line):
                offenders.add(path.relative_to(root).as_posix())
                break
    return offenders


class TestWallClockConfinement:
    def test_src_wall_clock_only_in_event_stamp_files(self):
        offenders = _wall_clock_files(SRC)
        assert offenders <= WALL_CLOCK_ALLOWED, (
            f"wall-clock call outside the allow-list: "
            f"{sorted(offenders - WALL_CLOCK_ALLOWED)} — durations must "
            "use time.perf_counter"
        )

    def test_benchmarks_never_use_wall_clock(self):
        assert _wall_clock_files(BENCH) == set()

    def test_allowed_files_actually_use_it(self):
        # If a stamp moves elsewhere, shrink the allow-list with it.
        assert _wall_clock_files(SRC) == WALL_CLOCK_ALLOWED


class TestDurationSources:
    def test_tracer_spans_use_perf_counter(self):
        text = (SRC / "obs" / "tracer.py").read_text(encoding="utf-8")
        assert "perf_counter" in text
        assert not _WALL.search(text)

    def test_operator_metrics_use_perf_counter(self):
        text = (SRC / "obs" / "metrics.py").read_text(encoding="utf-8")
        assert "perf_counter" in text
        assert not _WALL.search(text)

    def test_telemetry_durations_use_perf_counter(self):
        # The recorders are handed seconds; Database._run takes them.
        import inspect

        from repro.db.database import Database

        assert "perf_counter" in inspect.getsource(Database._run)
        text = (SRC / "obs" / "telemetry" / "instrument.py").read_text(
            encoding="utf-8"
        )
        assert not _WALL.search(text)

    def test_rolling_window_uses_monotonic(self):
        text = (SRC / "obs" / "telemetry" / "registry.py").read_text(
            encoding="utf-8"
        )
        assert "time.monotonic" in text
        assert not _WALL.search(text)

    def test_querylog_entries_carry_wall_clock_ts(self):
        from repro.db.database import demo_travel_database

        db = demo_travel_database(num_cities=3, seed=1)
        db.profile(True)
        db.run("count(Cities)")
        import time

        ts = db.query_log.entries[-1]["ts"]
        assert abs(ts - time.time()) < 60  # a real wall-clock stamp
