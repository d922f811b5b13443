"""The query record: slots, cached phases, the span tree built from it,
its export forms, and the one record every reader reads."""

import json

import pytest

from repro.db import demo_travel_database
from repro.obs.telemetry.registry import MetricsRegistry
from repro.obs.tracer import (
    PIPELINE_PHASES,
    SLOTS,
    QueryRecord,
    Tracer,
    TraceSpan,
    render_span,
)

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


class TestTraceSpan:
    def test_duration_ms(self):
        assert TraceSpan("x", 0.0, 0.25).duration_ms == 250.0

    def test_to_dict_shape(self):
        span = TraceSpan("query", 0.0, 0.001, meta={"k": "v"})
        span.children.append(TraceSpan("parse", 0.0, 0.0002))
        doc = span.to_dict()
        assert doc["name"] == "query"
        assert doc["meta"] == {"k": "v"}
        assert [c["name"] for c in doc["children"]] == ["parse"]
        # leaves omit the optional keys entirely
        assert set(doc["children"][0]) == {"name", "duration_ms"}
        json.dumps(doc)  # JSON-ready

    def test_record_to_span(self):
        record = finished("parse", "execute", cached=("normalize",))
        root = record.to_span()
        assert root.name == "query" and root.meta == {}
        assert root.duration_ms == pytest.approx(record.total_ms)
        assert [c.name for c in root.children] == ["parse", "normalize", "execute"]
        cached = root.children[1]
        assert cached.meta == {"cached": True} and cached.duration == 0.0
        assert root.children[0].duration_ms == pytest.approx(record.phases_ms()["parse"])


class TestTracer:
    def test_disabled_by_default_and_empty(self):
        tracer = Tracer()
        assert tracer.enabled is False
        assert list(tracer.roots) == []
        assert tracer.to_events() == []
        assert tracer.render() == ""

    def test_add_retains_one_root_per_record(self):
        tracer = Tracer(enabled=True)
        first = tracer.add(finished("parse"))
        second = tracer.add(finished("execute"))
        assert list(tracer.roots) == [first, second]

    def test_reset_drops_finished_roots(self):
        tracer = Tracer(enabled=True)
        tracer.add(finished("parse"))
        tracer.reset()
        assert list(tracer.roots) == []


class TestEvents:
    def make_tracer(self):
        tracer = Tracer(enabled=True)
        tracer.add(finished("parse", "execute", cached=("normalize",)))
        tracer.add(finished())
        return tracer

    def test_preorder_and_parent_indices(self):
        events = self.make_tracer().to_events()
        assert [e["name"] for e in events] == [
            "query", "parse", "normalize", "execute", "query",
        ]
        assert [e["parent"] for e in events] == [None, 0, 0, 0, None]

    def test_start_ms_relative_to_first_root(self):
        events = self.make_tracer().to_events()
        assert events[0]["start_ms"] == 0.0
        assert all(e["start_ms"] >= 0.0 for e in events)
        json.dumps(events)  # JSON-ready

    def test_meta_only_where_present(self):
        events = self.make_tracer().to_events()
        assert events[2]["meta"] == {"cached": True}
        assert "meta" not in events[0] and "meta" not in events[1]


class TestRender:
    def test_render_span_indents_children(self):
        span = TraceSpan("query", 0.0, 0.002)
        span.children.append(TraceSpan("parse", 0.0, 0.001))
        text = render_span(span)
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert lines[1].startswith("  parse")
        assert "ms" in lines[0]

    def test_cached_child_renders_cached(self):
        text = render_span(finished("execute", cached=("parse",)).to_span())
        assert "parse" in text and "(cached)" in text

    def test_tracer_render_joins_roots(self):
        tracer = Tracer(enabled=True)
        tracer.add(finished("parse"))
        tracer.add(finished("execute"))
        rendered = tracer.render().splitlines()
        assert [line.split()[0] for line in rendered] == ["query", "parse", "query", "execute"]


class _Counting:
    """Counts constructions of ``cls`` while installed."""

    def __init__(self, monkeypatch, cls):
        self.made = 0
        original = cls.__init__

        def counting(obj, *args, **kwargs):
            self.made += 1
            original(obj, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)


class TestOnePhaseRecord:
    """Every reader reads the query's one record: telemetry and EXPLAIN
    ANALYZE build no tracer and no span, and the result, the query log,
    EXPLAIN ANALYZE and the phase histograms name the same phases
    (counts of constructions and sets of names, not times)."""

    @pytest.fixture
    def db(self):
        db = demo_travel_database(num_cities=4, seed=7)
        db.disable_telemetry()  # robust when run under REPRO_TELEMETRY=1
        db.disable_cache()  # robust when run under REPRO_CACHE=1
        return db

    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    def test_telemetered_run_builds_no_tracer_and_no_span(self, db, monkeypatch, cached):
        db.enable_telemetry(MetricsRegistry())
        if cached:
            db.enable_cache()
            db.run(QUERY)  # the next run is a compile-cache hit
        tracers = _Counting(monkeypatch, Tracer)
        spans = _Counting(monkeypatch, TraceSpan)
        result = db.run_detailed(QUERY)
        assert (tracers.made, spans.made) == (0, 0)
        assert result.span is None
        assert "execute" in result.record.phases_ms() or result.cache["result"] == "hit"

    def test_explain_analyze_builds_no_tracer(self, db, monkeypatch):
        tracers = _Counting(monkeypatch, Tracer)
        spans = _Counting(monkeypatch, TraceSpan)
        doc = db.explain_data(QUERY, analyze=True)
        assert (tracers.made, spans.made) == (0, 0)
        assert "execute" in doc["phases_ms"] and doc["total_ms"] >= 0

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
        assert phases == {child.name for child in result.span.children}
        assert phases <= set(PIPELINE_PHASES) | {"cache"}
        assert {"parse", "translate", "normalize", "execute"} <= phases
