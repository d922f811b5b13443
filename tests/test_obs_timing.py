"""Timing-source audit: durations use the monotonic clock, wall-clock
stamps are for event timestamps only.

The observability layer's contract (documented in
``docs/OBSERVABILITY.md``): anything that measures *how long* — the query
result's phases, telemetry histograms, benchmark medians — must use
``time.perf_counter``/``perf_counter_ns`` (or ``time.monotonic`` for the
rolling window), which never jump under NTP. Wall clock
(``time.time``/``time.time_ns``) is only legal for *when it happened*
fields: the query log's ``ts``. This test
scans the source so a stray ``time.time()`` duration can't creep in, and
so that a query's execution has one clock: its result's ``execute`` slot.
"""

import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
TESTS = Path(__file__).resolve().parent

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
    def test_query_phases_use_perf_counter(self):
        text = (SRC / "db" / "database.py").read_text(encoding="utf-8")
        assert "perf_counter_ns" in text
        assert not _WALL.search(text)

    def test_src_reads_a_duration_clock_in_two_files(self):
        # the query result's phases, and the telemetry window's rate
        assert _duration_clock_files(SRC) == {
            "db/database.py": {"perf_counter_ns"},
            "obs/telemetry/registry.py": {"monotonic"},
        }

    def test_the_duration_scan_sees_code_not_prose(self):
        assert _duration_clocks("t = time.perf_counter_ns()\n") == {"perf_counter_ns"}
        assert _duration_clocks("from time import monotonic as m\n") == {"monotonic"}
        assert _duration_clocks('"""time.perf_counter_ns"""  # process_time()\n') == set()

    def test_telemetry_durations_use_perf_counter(self):
        # The recorder reads the query result's total, timed on perf_counter.
        import inspect

        from repro.db.database import QueryResult

        assert "perf_counter_ns" in inspect.getsource(QueryResult.finish)
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


#: the clocks that measure a duration
_DURATION_CLOCKS = {
    f"{name}{suffix}" for name in ("perf_counter", "monotonic", "process_time")
    for suffix in ("", "_ns")
}


def _duration_clocks(source: str) -> set[str]:
    """The duration clocks ``source`` names in code (not in strings or comments)."""
    return {
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.NAME and token.string in _DURATION_CLOCKS
    }


def _duration_clock_files(root: Path) -> dict[str, set[str]]:
    found = {
        path.relative_to(root).as_posix(): _duration_clocks(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    }
    return {path: clocks for path, clocks in found.items() if clocks}


class TestOneClockPerExecution:
    """EXPLAIN ANALYZE shows one execution time, the query result's."""

    QUERY = "select distinct h.name from c in Cities, h in c.hotels where h.stars >= 2"

    def test_the_roots_time_is_the_execute_phase(self):
        from repro.db.database import demo_travel_database
        from repro.obs.explain import render_explain

        db = demo_travel_database(num_cities=3, seed=1)
        doc = db.explain_data(self.QUERY, analyze=True)
        text = render_explain(doc)
        execute = re.search(r"\bexecute=(\d+\.\d{3})ms", text).group(1)
        assert re.findall(r"\btime=(\d+\.\d{3})ms", text) == [execute]
        assert f"{doc['phases_ms']['execute']:.3f}" == execute
        root = next(line for line in text.splitlines() if "time=" in line)
        assert root.startswith("Reduce")

    def test_no_plan_node_carries_a_time(self):
        from repro.db.database import demo_travel_database

        db = demo_travel_database(num_cities=3, seed=1)
        stack = [db.explain_data(self.QUERY, analyze=True)["plan"]]
        while stack:
            node = stack.pop()
            assert "actual_rows" in node
            assert not {"invocations", "time_ms", "self_time_ms"} & set(node), node
            stack.extend(node.get("children", ()))


#: a clock read: a call of one of the clocks, or one handed on uncalled
_CLOCK = re.compile(
    r"\b(?:perf_counter|monotonic|process_time)(?:_ns)?\s*\("
    r"|\btime\.(?:time|perf_counter|monotonic|process_time)(?:_ns)?\b"
)


class TestTestsReadNoClock:
    """A claim about work done is a count; a claim about time goes through
    the benchmark harness. This file, which audits the clocks, is the one
    test file that may name them."""

    def test_no_test_file_reads_a_clock(self):
        offenders = [
            f"{path.relative_to(TESTS).as_posix()}:{number}: {line.strip()}"
            for path in sorted(TESTS.rglob("*.py"))
            if path.name != Path(__file__).name
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if not _CODE.match(line) and _CLOCK.search(line)
        ]
        assert offenders == [], "tests/ reads no clock:\n" + "\n".join(offenders)

    def test_the_scan_sees_each_clock(self):
        for line in (
            "start = time.perf_counter()",
            "t = perf_counter_ns()",
            "time.monotonic()",
            "process_time()",
            "stamp = time.time()",
            "clock = time.perf_counter",
        ):
            assert _CLOCK.search(line), line
        assert not _CLOCK.search("assert 'perf_counter' in text")
