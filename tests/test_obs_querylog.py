"""The structured query log: fingerprints, entries, thresholds, sinks."""

import json

import pytest

from repro.db import demo_travel_database
from repro.errors import ReproError
from repro.obs.querylog import QueryLog, oql_fingerprint

QUERY = (
    "select distinct h.name from c in Cities, h in c.hotels "
    "where h.stars >= 2"
)


@pytest.fixture
def db():
    return demo_travel_database(num_cities=4, seed=7)


class TestFingerprint:
    def test_stable_and_short(self):
        assert oql_fingerprint("count(Cities)") == oql_fingerprint("count(Cities)")
        assert len(oql_fingerprint("count(Cities)")) == 12
        int(oql_fingerprint("count(Cities)"), 16)  # hex

    def test_whitespace_insensitive(self):
        assert oql_fingerprint(" count(Cities)\n") == oql_fingerprint("count(Cities)")

    def test_distinct_queries_differ(self):
        assert oql_fingerprint("count(Cities)") != oql_fingerprint("count(Hotels)")

    def test_untraced_runs_hash_nothing(self, db, count_calls):
        """Only the query log hashes the text: with tracing and telemetry
        off there is no log, so no sha256 is taken."""
        db.disable_telemetry()
        calls = count_calls(oql_fingerprint)
        for _ in range(3):
            db.run(QUERY)
        assert calls == []

    def test_traced_runs_hash_once_in_the_log(self, db, count_calls):
        db.profile(True)
        calls = count_calls(oql_fingerprint)
        db.run(QUERY)
        assert db.query_log.entries[-1]["oql_sha256"] == oql_fingerprint(QUERY)
        assert len(calls) == 1  # the log entry's


class TestEntry:
    def test_full_entry_shape(self, db):
        db.profile(True, slow_ms=60_000.0)
        result = db.run_detailed(QUERY)
        entry = db.query_log.entries[-1]
        assert entry["event"] == "query"
        assert entry["oql_sha256"] == oql_fingerprint(QUERY)
        assert entry["engine"] == "algebra"
        assert entry["total_ms"] >= 0
        assert "execute" in entry["phases_ms"]
        assert entry["stats"] == result.stats.as_dict()
        assert entry["rule_fires"] == dict(
            sorted(result.trace.rule_counts().items())
        )
        assert entry["slow"] is False
        json.dumps(entry)

    def test_no_threshold_no_slow_key(self, db):
        db.profile(True)
        db.run(QUERY)
        assert "slow" not in db.query_log.entries[-1]

    def test_failed_run_entry(self, db):
        db.profile(True, slow_ms=60_000.0)
        with pytest.raises(ReproError) as raised:
            db.run("select n.name from n in Nowhere")
        entry = db.query_log.entries[-1]
        assert entry["error"] == type(raised.value).__name__
        assert entry["oql_sha256"] == oql_fingerprint("select n.name from n in Nowhere")
        assert entry["total_ms"] >= 0 and "parse" in entry["phases_ms"]
        assert entry["slow"] is False
        assert not {"stats", "engine", "rule_fires"} & set(entry)
        json.dumps(entry)


class TestThreshold:
    def test_zero_threshold_marks_everything_slow(self, db):
        db.profile(True, slow_ms=0.0)
        db.run(QUERY)
        db.run("count(Cities)")
        assert [e["slow"] for e in db.query_log.entries] == [True, True]
        assert db.query_log.slow_queries() == list(db.query_log.entries)

    def test_high_threshold_marks_nothing(self, db):
        db.profile(True, slow_ms=60_000.0)
        db.run(QUERY)
        assert db.query_log.slow_queries() == []


class TestSink:
    def test_streams_one_json_line_per_query(self, db):
        lines = []
        db.profile(True, sink=lines.append)
        db.run(QUERY)
        db.run("count(Cities)")
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed == list(db.query_log.entries)
        assert parsed[1]["oql_sha256"] == oql_fingerprint("count(Cities)")

    def test_sorted_keys_for_stable_diffs(self, db):
        lines = []
        db.profile(True, sink=lines.append)
        db.run("count(Cities)")
        keys = list(json.loads(lines[0]))
        assert keys == sorted(keys)


class TestLifecycle:
    def test_record_returns_the_entry(self, db):
        db.profile(True)
        result = db.run_detailed("count(Cities)")
        log = QueryLog()
        entry = log.record(result.record, result)
        assert list(log.entries) == [entry]

    def test_clear(self, db):
        db.profile(True)
        db.run("count(Cities)")
        db.query_log.clear()
        assert list(db.query_log.entries) == []

    def test_long_traced_session_stays_bounded(self, monkeypatch):
        """``QueryLog.entries`` is a ring: ten times the bound of traced
        runs retains the newest bound's worth, the sink still sees every
        entry."""
        from repro.obs import querylog

        bound = 16
        monkeypatch.setattr(querylog, "MAX_ENTRIES", bound)
        db = demo_travel_database(num_cities=3, seed=11)
        db.disable_telemetry()
        lines: list[str] = []
        db.profile(True, slow_ms=0.0, sink=lines.append)
        for _ in range(10 * bound):
            db.run("count(Cities)")
        assert len(db.query_log.entries) == bound
        assert len(lines) == 10 * bound
        assert json.loads(lines[-1]) == db.query_log.entries[-1]
        assert len(db.query_log.slow_queries()) == bound
        db.query_log.clear()
        assert len(db.query_log.entries) == 0

    def test_interpreter_queries_are_logged_too(self, db):
        db.profile(True)
        db.run("count(Cities)")  # Call term: reference interpreter
        entry = db.query_log.entries[-1]
        assert entry["engine"] == "interpret"
        assert "execute" in entry["phases_ms"]
        assert "plan" not in entry["phases_ms"]


class TestProfile:
    """``profile()`` switches the database's one log: the same object
    for the database's whole life, a fresh history each time it is
    switched on, untouched by a call that fails."""

    def test_one_log_for_the_databases_life(self, db, tmp_path):
        log = db.query_log
        assert log.enabled is False and not log.entries
        db.profile(True)
        db.profile(False)
        db.profile(True, path=str(tmp_path / "q.log"), slow_ms=1.0)
        assert db.query_log is log

    def test_profile_on_again_starts_a_fresh_history(self, db):
        db.profile(True)
        db.run("count(Cities)")
        db.profile(True)
        db.run(QUERY)
        assert [e["oql_sha256"] for e in db.query_log.entries] == [oql_fingerprint(QUERY)]

    def test_profile_off_stops_recording_and_keeps_the_entries(self, db):
        db.profile(True)
        db.run(QUERY)
        db.profile(False)
        db.run("count(Cities)")
        assert db.query_log.enabled is False
        assert [e["oql_sha256"] for e in db.query_log.entries] == [oql_fingerprint(QUERY)]

    @pytest.mark.parametrize("enabled", [False, True], ids=["off", "on"])
    def test_a_failed_profile_changes_nothing(self, db, tmp_path, enabled):
        lines = []
        db.profile(True, sink=lines.append, slow_ms=60_000.0)
        db.run(QUERY)
        db.profile(enabled)
        log = db.query_log
        before = (dict(vars(log)), list(log.entries))
        with pytest.raises(ReproError, match="q.log"):
            db.profile(True, path=str(tmp_path / "no" / "such" / "q.log"))
        assert db.query_log is log
        assert (dict(vars(log)), list(log.entries)) == before
        assert log.enabled is enabled

    def test_entries_are_serialized_only_for_a_sink_or_a_file(
        self, db, tmp_path, monkeypatch
    ):
        from repro.obs import querylog

        dumped = []
        dumps = json.dumps

        def counting(*args, **kwargs):
            dumped.append(args[0])
            return dumps(*args, **kwargs)

        monkeypatch.setattr(querylog.json, "dumps", counting)
        db.profile(True)
        db.run(QUERY)
        assert dumped == []
        db.profile(True, sink=lambda line: None)
        db.run(QUERY)
        db.profile(True, path=str(tmp_path / "q.log"))
        db.run(QUERY)
        assert len(dumped) == 2

    def test_tracer_is_the_query_log_under_its_old_name(self, db):
        assert db.tracer is db.query_log
        db.tracer.enabled = True
        db.run(QUERY)
        assert len(db.query_log.entries) == 1
        with pytest.raises(AttributeError):
            db.tracer = None


class TestOneEntryPerRun:
    """Each run, failed or nested, is one record and one entry in the
    log."""

    def test_a_failed_run_is_one_entry(self, db):
        db.profile(True)
        db.run("count(Cities)")
        with pytest.raises(ReproError):
            db.run("select n.name from n in Nowhere")
        assert len(db.query_log.entries) == 2
        assert "error" in db.query_log.entries[-1]

    def test_a_query_inside_a_query_is_its_own_entry(self, db):
        inner_oql = "count(select h from c in Cities, h in c.hotels)"
        outer_oql = "select distinct hotels(c.name) from c in Cities where c.name != 'Bend'"
        inner = []

        def hotels(name):
            inner.append(db.run(inner_oql))
            return name

        db.register_function("hotels", hotels)
        db.disable_cache()  # every inner run executes (robust under REPRO_CACHE=1)
        db.profile(True)
        db.run(outer_oql)
        assert len(inner) >= 3  # once per city (verify mode may check a call twice)
        # the inner runs finish first, the outer one last: one entry each
        assert [entry["oql_sha256"] for entry in db.query_log.entries] == (
            [oql_fingerprint(inner_oql)] * len(inner) + [oql_fingerprint(outer_oql)]
        )


class TestFileRotation:
    def test_unwritable_path_is_rejected_up_front(self, db, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "q.log"
        with pytest.raises(ReproError, match="q.log"):
            db.profile(True, path=str(missing))
        db.run("count(Cities)")  # no query fails for a logging reason

    def test_writes_jsonl_to_path(self, db, tmp_path):
        log_path = tmp_path / "query.log"
        db.profile(True, path=str(log_path))
        db.run(QUERY)
        db.run("count(Cities)")
        lines = log_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert [json.loads(l) for l in lines] == list(db.query_log.entries)

    def test_rotates_before_crossing_max_bytes(self, db, tmp_path):
        log_path = tmp_path / "query.log"
        db.profile(True, path=str(log_path), max_bytes=400, backups=2)
        for _ in range(12):
            db.run("count(Cities)")
        log = db.query_log
        assert log.rotations >= 1
        # Current file stays under the cap; backups exist, newest first.
        assert log_path.stat().st_size <= 400
        files = log.log_files()
        assert files[0] == str(log_path)
        assert len(files) >= 2
        # No entry was split: every line in every file parses.
        total_lines = 0
        for path in files:
            for line in open(path, encoding="utf-8"):
                json.loads(line)
                total_lines += 1
        # backups=2 bounds retention, so we keep at most 3 files' worth
        assert total_lines <= 12
        assert total_lines == sum(
            len(open(p, encoding="utf-8").readlines()) for p in files
        )

    def test_backup_count_bounded(self, db, tmp_path):
        log_path = tmp_path / "query.log"
        db.profile(True, path=str(log_path), max_bytes=200, backups=1)
        for _ in range(20):
            db.run("count(Cities)")
        assert not (tmp_path / "query.log.2").exists()
        assert (tmp_path / "query.log.1").exists()

    def test_zero_backups_discards_old_files(self, db, tmp_path):
        log_path = tmp_path / "query.log"
        db.profile(True, path=str(log_path), max_bytes=200, backups=0)
        for _ in range(10):
            db.run("count(Cities)")
        assert db.query_log.rotations >= 1
        assert not (tmp_path / "query.log.1").exists()

    def test_manual_rotate_without_path_is_noop(self):
        log = QueryLog()
        log.rotate()
        assert log.rotations == 0

    def test_no_max_bytes_never_rotates(self, db, tmp_path):
        log_path = tmp_path / "query.log"
        db.profile(True, path=str(log_path))
        for _ in range(10):
            db.run("count(Cities)")
        assert db.query_log.rotations == 0
        assert db.query_log.log_files() == [str(log_path)]
