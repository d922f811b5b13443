"""Phase spans: nesting, export forms, and the disabled no-op path."""

import json

from repro.obs.tracer import Tracer, TraceSpan, _NULL_SPAN, render_span


class TestDisabledTracer:
    def test_span_is_the_shared_null_context(self):
        tracer = Tracer()
        assert tracer.span("query") is _NULL_SPAN
        assert tracer.span("other", key="value") is _NULL_SPAN

    def test_null_context_yields_none_and_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("query") as span:
            assert span is None
        assert list(tracer.roots) == []
        assert tracer.to_events() == []
        assert tracer.render() == ""


class TestEnabledTracer:
    def test_nesting_and_roots(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query") as q:
            with tracer.span("parse"):
                pass
            with tracer.span("execute"):
                pass
        assert list(tracer.roots) == [q]
        assert [c.name for c in q.children] == ["parse", "execute"]
        assert q.duration > 0
        assert all(c.duration <= q.duration for c in q.children)

    def test_meta_is_kept_per_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query", oql_sha256="abc123") as q:
            pass
        assert q.meta == {"oql_sha256": "abc123"}

    def test_span_finishes_on_exception(self):
        tracer = Tracer(enabled=True)
        try:
            with tracer.span("query"):
                with tracer.span("parse"):
                    raise ValueError("boom")
        except ValueError:
            pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.duration > 0
        assert [c.name for c in root.children] == ["parse"]
        # the stack unwound: a new span is a fresh root, not a child
        with tracer.span("next"):
            pass
        assert [r.name for r in tracer.roots] == ["query", "next"]

    def test_reset_drops_finished_roots(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        tracer.reset()
        assert list(tracer.roots) == []


class TestTraceSpan:
    def test_child_lookup(self):
        span = TraceSpan("query", 0.0)
        parse = TraceSpan("parse", 0.0, 0.001)
        span.children.append(parse)
        assert span.child("parse") is parse
        assert span.child("missing") is None

    def test_phase_times_accumulate_repeated_names(self):
        span = TraceSpan("query", 0.0)
        span.children.append(TraceSpan("execute", 0.0, 0.001))
        span.children.append(TraceSpan("execute", 0.0, 0.002))
        span.children.append(TraceSpan("parse", 0.0, 0.0005))
        phases = span.phase_times_ms()
        assert abs(phases["execute"] - 3.0) < 1e-9
        assert abs(phases["parse"] - 0.5) < 1e-9

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


class TestEvents:
    def make_tracer(self):
        tracer = Tracer(enabled=True)
        with tracer.span("query", oql_sha256="aa"):
            with tracer.span("parse"):
                pass
            with tracer.span("execute"):
                pass
        with tracer.span("query"):
            pass
        return tracer

    def test_preorder_and_parent_indices(self):
        events = self.make_tracer().to_events()
        assert [e["name"] for e in events] == ["query", "parse", "execute", "query"]
        assert [e["parent"] for e in events] == [None, 0, 0, None]

    def test_start_ms_relative_to_first_root(self):
        events = self.make_tracer().to_events()
        assert events[0]["start_ms"] == 0.0
        assert all(e["start_ms"] >= 0.0 for e in events)
        json.dumps(events)  # JSON-ready

    def test_meta_only_where_present(self):
        events = self.make_tracer().to_events()
        assert events[0]["meta"] == {"oql_sha256": "aa"}
        assert "meta" not in events[1]


class TestRender:
    def test_render_span_indents_children(self):
        span = TraceSpan("query", 0.0, 0.002)
        span.children.append(TraceSpan("parse", 0.0, 0.001))
        text = render_span(span)
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert lines[1].startswith("  parse")
        assert "ms" in lines[0]

    def test_tracer_render_joins_roots(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        rendered = tracer.render()
        assert rendered.splitlines()[0].startswith("a")
        assert rendered.splitlines()[1].startswith("b")
