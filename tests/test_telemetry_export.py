"""The Prometheus exporter and the strict parser: the round-trip
contract and the HTTP endpoint."""

import math
import urllib.request

import pytest

from repro.obs.telemetry.export import PROMETHEUS_CONTENT_TYPE, prometheus_text
from tests.promparse import PromParseError, parse_prometheus_text
from repro.obs.telemetry.registry import MetricsRegistry
from repro.obs.telemetry.server import MetricsServer


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.flush(
        [
            ("repro_queries_total", ("algebra", "ok"), 3),
            ("repro_queries_total", ("none", "error"), 1),
            ("repro_cache_entries", ("compiled",), 7),
        ]
        + [("repro_query_seconds", (), v) for v in (0.0005, 0.005, 0.05, 900.0)],
        0.0,
    )
    return reg


class TestPrometheusRoundTrip:
    def test_scrape_parses_strictly(self, registry):
        families = parse_prometheus_text(prometheus_text(registry))
        assert set(families) >= {
            "repro_queries_total",
            "repro_cache_entries",
            "repro_query_seconds",
        }

    def test_counter_values_survive(self, registry):
        fams = parse_prometheus_text(prometheus_text(registry))
        q = fams["repro_queries_total"]
        assert q.type == "counter"
        assert q.value(engine="algebra", status="ok") == 3
        assert q.value(engine="none", status="error") == 1

    def test_histogram_buckets_cumulative(self, registry):
        fams = parse_prometheus_text(prometheus_text(registry))
        h = fams["repro_query_seconds"]
        assert h.type == "histogram"
        assert h.value("repro_query_seconds_count") == 4
        assert h.value("repro_query_seconds_bucket", le="0.001") == 1
        assert h.value("repro_query_seconds_bucket", le="0.1") == 3
        assert h.value("repro_query_seconds_bucket", le="500") == 3
        assert h.value("repro_query_seconds_bucket", le="+Inf") == 4
        assert h.value("repro_query_seconds_sum") == pytest.approx(900.0555)

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        weird = 'a"b\\c\nd'
        reg.flush([("repro_query_errors_total", (weird,), 1)], 0.0)
        fams = parse_prometheus_text(prometheus_text(reg))
        assert fams["repro_query_errors_total"].value(error=weird) == 1

    def test_empty_registry_is_valid(self):
        assert parse_prometheus_text(prometheus_text(MetricsRegistry())) == {}

    def test_content_type_pinned(self):
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


class TestStrictParser:
    def test_bad_metric_name(self):
        with pytest.raises(PromParseError):
            parse_prometheus_text("9bad_name 1\n")

    def test_unquoted_label_value(self):
        with pytest.raises(PromParseError):
            parse_prometheus_text("m{a=1} 1\n")

    def test_bad_escape(self):
        with pytest.raises(PromParseError):
            parse_prometheus_text('m{a="\\x"} 1\n')

    def test_duplicate_sample(self):
        with pytest.raises(PromParseError):
            parse_prometheus_text("m 1\nm 2\n")

    def test_non_contiguous_family(self):
        with pytest.raises(PromParseError):
            parse_prometheus_text("a 1\nb 1\na{x=\"y\"} 2\n")

    def test_bad_value(self):
        with pytest.raises(PromParseError):
            parse_prometheus_text("m one\n")

    def test_type_after_samples(self):
        with pytest.raises(PromParseError):
            parse_prometheus_text("m 1\n# TYPE m counter\n")

    def test_histogram_without_inf_bucket(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 1\n'
            "h_sum 0.05\n"
            "h_count 1\n"
        )
        with pytest.raises(PromParseError):
            parse_prometheus_text(text)

    def test_histogram_non_cumulative(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 0.05\n"
            "h_count 3\n"
        )
        with pytest.raises(PromParseError):
            parse_prometheus_text(text)

    def test_histogram_count_mismatch(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 0.05\n"
            "h_count 4\n"
        )
        with pytest.raises(PromParseError):
            parse_prometheus_text(text)

    def test_error_carries_line_number(self):
        try:
            parse_prometheus_text("ok 1\nbad@name 2\n")
        except PromParseError as err:
            assert err.lineno == 2
        else:  # pragma: no cover
            pytest.fail("expected PromParseError")

    def test_inf_and_nan_values(self):
        fams = parse_prometheus_text("m +Inf\nn NaN\n")
        assert fams["m"].value() == math.inf
        assert math.isnan(fams["n"].value())


class TestHttpEndpoint:
    def test_scrape_and_health(self, registry):
        server = MetricsServer(registry, port=0).start()
        try:
            with urllib.request.urlopen(server.url) as resp:
                assert resp.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
                body = resp.read().decode("utf-8")
            fams = parse_prometheus_text(body)
            assert fams["repro_queries_total"].value(
                engine="algebra", status="ok"
            ) == 3
            base = server.url[: -len("/metrics")]
            with urllib.request.urlopen(base + "/healthz") as resp:
                assert resp.read() == b"ok\n"
        finally:
            server.stop()

    def test_404(self, registry):
        server = MetricsServer(registry, port=0).start()
        try:
            base = server.url[: -len("/metrics")]
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(base + "/nope")
        finally:
            server.stop()
