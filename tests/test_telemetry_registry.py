"""The metrics registry: the flat catalog-keyed table, one flush per
query, windows, fingerprints — including exactness under concurrent
threads."""

import sys
import threading

import pytest

from repro.cache.core import CacheStats
from repro.cache.keys import fingerprint_term
from repro.errors import TelemetryError
from repro.obs.telemetry.fingerprint import FingerprintTable
from repro.obs.telemetry.registry import (
    DEFAULT_LATENCY_BUCKETS,
    WINDOW_SECONDS,
    MetricsRegistry,
    RollingWindow,
    get_registry,
    resolve_telemetry,
)

QUERIES = "repro_queries_total"
SECONDS = "repro_query_seconds"


@pytest.fixture
def registry():
    return MetricsRegistry()


def observe(registry, *values):
    registry.flush([(SECONDS, (), v) for v in values], 0.0)


class TestCounter:
    def test_inc_and_total(self, registry):
        registry.flush([("repro_rows_returned_total", (), 1)], 0.0)
        registry.flush([("repro_rows_returned_total", (), 4)], 0.0)
        assert registry.value("repro_rows_returned_total") == 5
        assert registry.total("repro_rows_returned_total") == 5

    def test_labels_split_children(self, registry):
        registry.flush(
            [(QUERIES, ("algebra", "ok"), 1), (QUERIES, ("interpret", "ok"), 2)], 0.0
        )
        assert registry.value(QUERIES, engine="algebra", status="ok") == 1
        assert registry.value(QUERIES, engine="interpret", status="ok") == 2
        assert registry.value(QUERIES, engine="none", status="error") == 0
        assert registry.total(QUERIES) == 3

    def test_unknown_family_rejected(self, registry):
        with pytest.raises(TelemetryError):
            registry.value("t_total")
        with pytest.raises(TelemetryError):
            registry.flush([("t_total", (), 1)], 0.0)
        assert registry.collect() == []

    def test_kind_mismatch_rejected(self, registry):
        with pytest.raises(TelemetryError):
            registry.value(SECONDS)
        with pytest.raises(TelemetryError):
            registry.total(SECONDS)
        with pytest.raises(TelemetryError):
            registry.histogram(QUERIES, engine="algebra", status="ok")

    def test_label_mismatch_rejected(self, registry):
        with pytest.raises(TelemetryError):
            registry.value(QUERIES, engine="algebra")
        with pytest.raises(TelemetryError):
            registry.histogram(SECONDS, phase="parse")
        with pytest.raises(TelemetryError):
            registry.flush([(QUERIES, ("algebra",), 1)], 0.0)
        assert registry.collect() == []  # a bad batch applies nothing


class TestGauge:
    def test_set_replaces(self, registry):
        registry.flush([("repro_cache_entries", ("compiled",), 10)], 0.0)
        registry.flush([("repro_cache_entries", ("compiled",), 7)], 0.0)
        assert registry.value("repro_cache_entries", store="compiled") == 7


class TestHistogram:
    def test_default_buckets_are_log_scale(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-5)
        assert DEFAULT_LATENCY_BUCKETS[-1] == pytest.approx(500.0)
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)

    def test_observe_updates_count_and_sum(self, registry):
        observe(registry, 0.001, 0.002, 0.004)
        h = registry.histogram(SECONDS)
        assert h.count == 3
        assert h.sum == pytest.approx(0.007)
        assert h.bounds == DEFAULT_LATENCY_BUCKETS
        assert sum(h.counts) == 3

    def test_quantile_within_one_bucket(self, registry):
        # The interpolated estimate must land in the same bucket as the
        # exact quantile.
        observe(registry, *([0.0005] * 50 + [0.05] * 40 + [0.5] * 10))
        h = registry.histogram(SECONDS)
        # exact p50 = 0.0005 (bucket (0.0002, 0.0005])
        assert 0.0002 < h.quantile(0.5) <= 0.0005
        # exact p90 = 0.05 (bucket (0.02, 0.05])
        assert 0.02 < h.quantile(0.9) <= 0.05
        # exact p99 = 0.5 (bucket (0.2, 0.5])
        assert 0.2 < h.quantile(0.99) <= 0.5

    def test_overflow_quantile_reports_last_bound(self, registry):
        observe(registry, 900.0)
        assert registry.histogram(SECONDS).quantile(0.99) == DEFAULT_LATENCY_BUCKETS[-1]

    def test_bad_quantile_rejected(self, registry):
        with pytest.raises(TelemetryError):
            registry.histogram(SECONDS).quantile(1.5)

    def test_empty_series_reads_zero(self, registry):
        h = registry.histogram("repro_phase_seconds", phase="parse")
        assert (h.count, h.sum, h.quantile(0.5)) == (0, 0.0, 0.0)


class TestRollingWindow:
    def test_rate_and_mean_with_fake_clock(self):
        now = [100.0]
        w = RollingWindow(clock=lambda: now[0])
        for _ in range(120):
            w.add(0.002)
        count, total = w.totals()
        assert count == 120
        assert w.rate() == pytest.approx(120 / WINDOW_SECONDS)
        assert w.mean() == pytest.approx(0.002)
        # Advance past the window: everything expires.
        now[0] += WINDOW_SECONDS + 1
        assert w.totals() == (0, 0.0)
        assert w.rate() == 0.0

    def test_slots_expire_individually(self):
        now = [0.0]
        w = RollingWindow(clock=lambda: now[0])
        w.add(1.0)
        now[0] = 30.0
        w.add(1.0)
        assert w.totals()[0] == 2
        now[0] = WINDOW_SECONDS + 1.0  # first slot (t=0) fell out, second (t=30) remains
        assert w.totals()[0] == 1


class TestRegistryCollect:
    def test_collect_sorted_and_snapshot_shape(self, registry):
        registry.flush([(QUERIES, ("algebra", "ok"), 1), ("repro_rows_returned_total", (), 3)], 0.01)
        snaps = registry.collect()
        names = [f.name for f in snaps]
        assert names == sorted(names)
        queries = next(f for f in snaps if f.name == QUERIES)
        assert (queries.kind, queries.label_names) == ("counter", ("engine", "status"))
        assert queries.samples == ((("algebra", "ok"), 1.0),)

    def test_windows_materialize_as_gauges(self, registry):
        registry.flush([(QUERIES, ("algebra", "ok"), 1)], 0.01)
        fams = {f.name: f for f in registry.collect()}
        assert "repro_window_qps" in fams
        assert fams["repro_window_latency_seconds"].samples == ((("60s",), 0.01),)

    def test_bridge_deltas(self, registry):
        stats = CacheStats()
        stats.compile_hits = 2
        registry.flush([], 0.0, cache_stats=stats)
        assert registry.value("repro_cache_events_total", event="compile_hits") == 2
        stats.compile_hits = 5
        registry.flush([], 0.0, cache_stats=stats)
        assert registry.value("repro_cache_events_total", event="compile_hits") == 5
        registry.flush([], 0.0, cache_stats=stats)
        assert registry.total("repro_cache_events_total") == 5

    def test_reset_clears_everything(self, registry):
        registry.flush(
            [(QUERIES, ("algebra", "ok"), 1)], 0.1, query=("abc", "q", 0.1, 1, "algebra", 0)
        )
        registry.reset()
        assert registry.collect() == []
        assert len(registry.fingerprints) == 0
        assert registry.window.totals() == (0, 0.0)


class TestFingerprints:
    def test_alpha_equivalent_terms_share_fingerprint(self):
        from repro.oql.parser import parse
        from repro.oql.translate import Translator
        from repro.types.schema import Schema

        t = Translator(Schema())
        a = t.translate(parse("select distinct c.name from c in Cities"))
        b = t.translate(parse("select distinct x.name from x in Cities"))
        assert fingerprint_term(a) == fingerprint_term(b)

    def test_distinct_queries_differ(self):
        from repro.oql.parser import parse
        from repro.oql.translate import Translator
        from repro.types.schema import Schema

        t = Translator(Schema())
        a = t.translate(parse("select c.name from c in Cities"))
        b = t.translate(parse("select c.zip from c in Cities"))
        assert fingerprint_term(a) != fingerprint_term(b)

    def test_top_orders_by_total_time(self):
        table = FingerprintTable()
        table.record("cold", oql="a", seconds=0.1, rows=1)
        table.record("hot", oql="b", seconds=1.0, rows=1)
        table.record("hot", oql="b", seconds=1.0, rows=1)
        top = table.top(2)
        assert [e.fingerprint for e in top] == ["hot", "cold"]
        assert top[0].count == 2
        assert top[0].mean_seconds == pytest.approx(1.0)

    def test_eviction_keeps_hottest(self):
        table = FingerprintTable(max_entries=2)
        table.record("a", oql="a", seconds=5.0, rows=1)
        table.record("b", oql="b", seconds=0.001, rows=1)
        table.record("c", oql="c", seconds=1.0, rows=1)
        fps = {e.fingerprint for e in table.top(10)}
        assert "a" in fps and "c" in fps and "b" not in fps
        assert len(table) == 2


class TestEnablement:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert resolve_telemetry(None) is None

    def test_env_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert resolve_telemetry(None) is get_registry()
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        assert resolve_telemetry(None) is None

    def test_explicit_values(self):
        reg = MetricsRegistry()
        assert resolve_telemetry(reg) is reg
        assert resolve_telemetry(False) is None
        assert resolve_telemetry(True) is get_registry()
        with pytest.raises(TelemetryError):
            resolve_telemetry("yes")


def _run_threads(target, count):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        pool = [threading.Thread(target=target, args=(i,)) for i in range(count)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(interval)


class TestThreadedStress:
    def test_exact_totals_under_contention(self, registry):
        threads, per_thread = 8, 500

        def work(worker):
            batch = [(QUERIES, (str(worker % 2), "ok"), 1), (SECONDS, (), 0.001)]
            for _ in range(per_thread):
                registry.flush(batch, 0.001)

        _run_threads(work, threads)
        total = threads * per_thread
        assert registry.total(QUERIES) == total
        assert registry.value(QUERIES, engine="0", status="ok") == total / 2
        hist = registry.histogram(SECONDS)
        assert hist.count == total
        assert hist.sum == pytest.approx(total * 0.001)
        assert registry.window.totals()[0] == total

    def test_fingerprint_table_threaded(self, registry):
        threads, per_thread = 6, 300

        def work(i):
            for _ in range(per_thread):
                registry.flush([], 0.001, query=(f"fp{i % 3}", "q", 0.001, 1, None, 0))

        _run_threads(work, threads)
        assert sum(e.count for e in registry.fingerprints.top(10)) == threads * per_thread
