"""The query record: slots, cached phases, its one JSON form, and the
one record every reader reads."""

import json

import pytest

from repro.db import demo_travel_database
from repro.obs.telemetry.registry import MetricsRegistry
from repro.obs.querylog import query_log_entry
from repro.obs.tracer import PIPELINE_PHASES, SLOTS, QueryRecord

QUERY = "select distinct c.name from c in Cities"


def finished(*phases, cached=()):
    """A finished record that entered ``phases`` in order."""
    record = QueryRecord(QUERY)
    for name in phases:
        with record.phase(name):
            pass
    record.cached = tuple(cached)
    record.finish()
    return record


class TestQueryRecord:
    def test_slots_are_the_pipeline_phases_and_cache(self):
        assert set(SLOTS) == set(PIPELINE_PHASES) | {"cache"}
        assert len(SLOTS) == len(PIPELINE_PHASES) + 1

    def test_only_entered_slots_report(self):
        record = finished("parse", "execute")
        assert list(record.phases_ms()) == ["parse", "execute"]
        assert all(ms >= 0 for ms in record.phases_ms().values())
        assert record.total_ms >= max(record.phases_ms().values())

    def test_phase_times_accumulate_repeated_names(self):
        record = QueryRecord(QUERY)
        for _ in range(2):
            with record.phase("execute"):
                pass
        first = record.ns[SLOTS.index("execute")]
        with record.phase("execute"):
            pass
        assert record.ns[SLOTS.index("execute")] >= first
        assert list(record.phases_ms()) == ["execute"]

    def test_cached_phases_report_zero(self):
        record = finished("cache", "execute", cached=("parse", "normalize"))
        assert record.phases_ms()["parse"] == record.phases_ms()["normalize"] == 0.0
        assert set(record.phases_ms()) == {"cache", "parse", "normalize", "execute"}

    def test_slot_finishes_on_exception(self):
        record = QueryRecord(QUERY)
        with pytest.raises(ValueError):
            with record.phase("parse"):
                raise ValueError("boom")
        record.finish(ValueError("boom"))
        assert "parse" in record.phases_ms()
        assert record.error == "ValueError"

    def test_unknown_phase_is_rejected(self):
        with pytest.raises(KeyError):
            QueryRecord(QUERY).phase("nonsense")


class TestAsDict:
    """The record's one JSON form, which the query log and EXPLAIN
    ANALYZE both carry."""

    def test_rounded_times_and_no_cache_key_when_none_was_consulted(self):
        record = finished("parse", "execute", cached=("normalize",))
        doc = record.as_dict()
        assert list(doc) == ["total_ms", "phases_ms"]
        assert doc["total_ms"] == round(record.total_ms, 3)
        assert doc["phases_ms"] == {
            name: round(ms, 3) for name, ms in record.phases_ms().items()
        }
        json.dumps(doc)  # JSON-ready

    def test_cache_outcome_is_a_copy(self):
        record = finished("cache")
        record.cache["compile"] = "hit"
        doc = record.as_dict()
        assert doc["cache"] == {"compile": "hit"}
        doc["cache"]["stats"] = {}
        assert record.cache == {"compile": "hit"}


class TestOnePhaseRecord:
    """Every reader reads the query's one record: telemetry and EXPLAIN
    ANALYZE keep no history of their own, and the result, the query log,
    EXPLAIN ANALYZE and the phase histograms name the same phases
    (counts of calls and sets of names, not times)."""

    @pytest.fixture
    def db(self):
        db = demo_travel_database(num_cities=4, seed=7)
        db.disable_telemetry()  # robust when run under REPRO_TELEMETRY=1
        db.disable_cache()  # robust when run under REPRO_CACHE=1
        return db

    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    def test_telemetered_run_keeps_no_history(self, db, count_calls, cached):
        db.enable_telemetry(MetricsRegistry())
        if cached:
            db.enable_cache()
            db.run(QUERY)  # the next run is a compile-cache hit
        entries = count_calls(query_log_entry)
        result = db.run_detailed(QUERY)
        assert entries == [] and not db.query_log.entries
        assert "execute" in result.record.phases_ms() or result.cache["result"] == "hit"

    def test_explain_analyze_keeps_no_history(self, db, count_calls):
        entries = count_calls(query_log_entry)
        doc = db.explain_data(QUERY, analyze=True)
        assert entries == [] and not db.query_log.entries
        assert "execute" in doc["phases_ms"] and doc["total_ms"] >= 0

    def test_log_and_explain_carry_the_records_json_form(self, db, monkeypatch):
        db.enable_cache()
        db.profile(True)
        forms = []
        as_dict = QueryRecord.as_dict

        def spying(record):
            forms.append(as_dict(record))
            return forms[-1]

        monkeypatch.setattr(QueryRecord, "as_dict", spying)
        doc = db.explain_data(QUERY, analyze=True)
        entry = db.query_log.entries[-1]
        assert len(forms) == 2  # one for the entry, one for the document
        for name in ("total_ms", "phases_ms"):
            assert doc[name] == entry[name]
        assert doc["cache"]["compile"] == entry["cache"]["compile"]
        assert "stats" in doc["cache"] and "stats" not in entry["cache"]

    def test_every_reader_names_the_same_phases(self, db):
        registry = MetricsRegistry()
        db.enable_telemetry(registry)
        db.profile(True)
        result = db.run_detailed(QUERY)
        entry = db.query_log.entries[-1]
        doc = db.explain_data(QUERY, analyze=True)
        family = next(f for f in registry.collect() if f.name == "repro_phase_seconds")
        labels = {key[0] for key, _ in family.samples}
        phases = set(result.record.phases_ms())
        assert phases == set(entry["phases_ms"]) == set(doc["phases_ms"]) == labels
        assert phases <= set(PIPELINE_PHASES) | {"cache"}
        assert {"parse", "translate", "normalize", "execute"} <= phases
