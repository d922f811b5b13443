"""Telemetry wired through the Database: phase histograms, error
counters, cache bridging, hot-query advice, CLI/REPL surfaces, and the
telemetry-off parity guarantees."""

import os
import subprocess
import sys
import threading
import tracemalloc

import pytest

from repro.db.database import PIPELINE_PHASES, Database, demo_travel_database
from repro.errors import ReproError
from repro.obs.telemetry.cli import main as metrics_main
from repro.obs.telemetry.instrument import CATALOG, summary_lines
from repro.obs.telemetry.registry import MetricsRegistry


@pytest.fixture
def db():
    return demo_travel_database(num_cities=4, seed=7)


@pytest.fixture
def registry():
    return MetricsRegistry()


QUERY = "select distinct c.name from c in Cities"
NESTED_QUERY = (
    "select distinct h.name from h in "
    "(select h2 from c in Cities, h2 in c.hotels) where h.stars > 2"
)


class TestRunInstrumentation:
    def test_success_counter_and_latency(self, db, registry):
        db.enable_telemetry(registry)
        db.run(QUERY)
        db.run(QUERY)
        assert registry.value("repro_queries_total", engine="algebra", status="ok") == 2
        hist = registry.histogram("repro_query_seconds")
        assert hist.count == 2
        assert hist.sum > 0

    def test_phase_histograms_cover_pipeline(self, db, registry):
        db.enable_telemetry(registry)
        db.run(QUERY)
        phases = next(f for f in registry.collect() if f.name == "repro_phase_seconds")
        seen = {key[0] for key, _ in phases.samples}
        assert {"parse", "translate", "normalize", "execute"} <= seen
        assert seen <= set(PIPELINE_PHASES) | {"cache"}

    def test_error_counter_by_class(self, db, registry):
        db.enable_telemetry(registry)
        with pytest.raises(ReproError):
            db.run("select n.name from n in Nowhere")
        assert registry.value("repro_queries_total", engine="none", status="error") == 1
        assert registry.total("repro_query_errors_total") == 1

    def test_rows_and_rule_fires_recorded(self, db, registry):
        db.enable_telemetry(registry)
        # The nested select forces N9-flatten/N3-bind fires.
        value = db.run(NESTED_QUERY)
        assert registry.total("repro_rows_returned_total") == len(value)
        assert registry.total("repro_normalize_rule_fires_total") > 0

    def test_operator_and_executor_counters(self, db, registry):
        db.enable_telemetry(registry)
        result = db.run_detailed(QUERY)
        assert registry.total("repro_operator_rows_total") == sum(
            block.rows_out for block in result.metrics
        )
        assert registry.total("repro_executor_rows_total") > 0
        # a plan node per query is no work: that metric is gone
        assert "repro_operator_invocations_total" not in CATALOG

    def test_cache_bridge_deltas(self, db, registry):
        db.enable_telemetry(registry)
        db.enable_cache()
        db.run(QUERY)
        db.run(QUERY)
        events = "repro_cache_events_total"
        assert registry.value(events, event="compile_misses") == 1
        assert registry.value(events, event="compile_hits") == 1
        # A second bridge over the same cache must not double-count.
        assert registry.total(events) == sum(
            v for v in db.cache.stats.as_dict().values()
        )

    def test_cache_events_survive_stats_reset(self, db, registry):
        db.enable_telemetry(registry)
        db.enable_cache()
        db.run(QUERY)
        db.run(QUERY)
        db.cache.stats.reset()
        db.run(QUERY)  # a compile hit counted from zero again
        events = "repro_cache_events_total"
        assert registry.value(events, event="compile_hits") == 2
        assert registry.value(events, event="compile_misses") == 1

    def test_fingerprints_group_alpha_variants(self, db, registry):
        db.enable_telemetry(registry)
        db.run("select distinct c.name from c in Cities")
        db.run("select distinct x.name from x in Cities")
        top = registry.fingerprints.top(5)
        assert len(top) == 1
        assert top[0].count == 2

    def test_prepared_statements_recorded(self, db, registry):
        db.enable_telemetry(registry)
        q = db.prepare(
            "select distinct c.name from c in Cities where c.state = $state"
        )
        q.run(state="OR")
        q.run(state="WA")
        assert registry.total("repro_queries_total") == 2

    def test_verifier_violations_counted_from_the_error(self, db, registry, monkeypatch):
        from repro.analysis import verifier
        from repro.analysis.invariants import Violation
        from repro.errors import VerificationError

        db.disable_cache()  # a compile-cache hit normalizes (and verifies) nothing
        db.enable_telemetry(registry)
        db.run(NESTED_QUERY, verify=True)
        assert "repro_verifier_violations_total" not in {f.name for f in registry.collect()}
        planted = [Violation("scope", "planted"), Violation("types", "planted")]
        monkeypatch.setattr(verifier, "check_scope", lambda before, after: list(planted))
        with pytest.raises(VerificationError) as raised:
            db.run(NESTED_QUERY, verify=True)
        rule = raised.value.rule
        for invariant in ("scope", "types"):
            assert registry.value(
                "repro_verifier_violations_total", rule=rule, invariant=invariant
            ) == 1
        assert registry.total("repro_query_errors_total") == 1

    def test_registry_shared_across_databases(self, registry):
        a = demo_travel_database(num_cities=3, seed=1)
        b = demo_travel_database(num_cities=3, seed=2)
        a.enable_telemetry(registry)
        b.enable_telemetry(registry)
        a.run(QUERY)
        b.run(QUERY)
        assert registry.total("repro_queries_total") == 2

    def test_constructor_accepts_registry(self, registry):
        from repro.db.sample_data import make_travel_agency, travel_schema

        db = Database(travel_schema(), telemetry=registry)
        db.load_extents(make_travel_agency(num_cities=3, seed=1))
        db.run(QUERY)
        assert registry.histogram("repro_query_seconds").count == 1

    def test_disable_restores_off_path(self, db, registry):
        db.enable_telemetry(registry)
        db.run(QUERY)
        db.disable_telemetry()
        db.run(QUERY)
        assert registry.histogram("repro_query_seconds").count == 1

    def test_results_identical_with_and_without(self, db):
        plain = db.run(QUERY)
        db.enable_telemetry(MetricsRegistry())
        assert db.run(QUERY) == plain

    def test_query_log_override_does_not_leak(self, db, registry):
        db.enable_telemetry(registry)
        db.run(QUERY)
        assert db.query_log.enabled is False and not db.query_log.entries
        # A telemetered run still honours an explicitly enabled log.
        db.profile(True)
        db.run(QUERY)
        assert len(db.query_log.entries) == 1


class TestOneRecord:
    """Telemetry reads the execution's one record; it does not add
    another recorder (clock-free guards: counts of calls, not times)."""

    @pytest.mark.parametrize(
        "oql, rows",
        [
            ("max(select c.name from c in Cities)", 1),  # a string, not its length
            ("element(select distinct c from c in Cities where c.name = 'Salem')", 1),
            ("struct(n: count(Cities), total: sum(select c.population from c in Cities))", 1),
            ("count(Cities)", 1),
            ("select distinct c.name from c in Cities", 4),
            ("select c.state from c in Cities", None),
        ],
    )
    def test_rows_returned_is_the_reduce_cardinality(self, db, registry, oql, rows):
        db.enable_telemetry(registry)
        result = db.run_detailed(oql)
        if rows is None:  # a bag: one row per element
            rows = len(result.value)
        if result.metrics is not None:
            assert result.metrics.block(result.plan).rows_out == rows
        assert registry.total("repro_rows_returned_total") == rows
        assert registry.fingerprints.top(1)[0].rows == rows

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_telemetry_counts_the_same_traced_or_not(self, db, registry, traced):
        db.enable_telemetry(registry)
        db.query_log.enabled = traced
        result = db.run_detailed(NESTED_QUERY)
        assert len(db.query_log.entries) == traced
        ops = "repro_operator_rows_total"
        assert registry.value(ops, operator="Scan") == result.stats.rows_scanned == 4
        assert registry.value(ops, operator="Reduce") == len(result.value)
        # the execution's time is the query record's slot, traced or not
        assert registry.histogram("repro_phase_seconds", phase="execute").count == 1

    def test_fingerprint_is_paid_per_compile_not_per_run(self, db, registry, monkeypatch):
        from repro.cache import keys
        from repro.db import database

        calls = []
        canonical_term = keys.canonical_term

        def counting(term):
            calls.append(term)
            return canonical_term(term)

        for module in (database, keys):
            monkeypatch.setattr(module, "canonical_term", counting)
        db.enable_telemetry(registry)
        db.enable_cache()
        for _ in range(5):
            db.run(QUERY)
        assert len(calls) == 1  # the cache's key; the fingerprint reuses it
        assert registry.fingerprints.top(1)[0].count == 5
        db.disable_cache()
        db.run(QUERY)  # no cache: compiled afresh, fingerprinted once
        assert len(calls) == 2
        assert registry.fingerprints.top(1)[0].count == 6

    def test_hot_query_table_columns(self, db, registry):
        db.enable_telemetry(registry)
        db.run(QUERY)
        assert sorted(registry.fingerprints.top(1)[0].as_dict()) == [
            "count", "engines", "example_oql", "fingerprint", "index_probes",
            "max_ms", "mean_ms", "rows", "total_ms",
        ]

    def test_registry_reset_rebinds_families(self, db, registry):
        db.enable_telemetry(registry)
        db.run(QUERY)
        registry.reset()
        db.run(QUERY)
        assert registry.total("repro_queries_total") == 1


class _CountingLock:
    def __init__(self, lock):
        self.lock = lock
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


class TestOneFlush:
    """A telemetered run folds its increments locally and merges them
    with one flush: one acquisition of the registry's one lock (a
    count, not a time)."""

    JOIN = (
        "select distinct struct(city: c.name, hotel: h.name) "
        "from c in Cities, h in c.hotels where h.stars > 2"
    )

    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    def test_one_acquisition_per_run(self, db, registry, cached):
        lock = registry._lock = _CountingLock(registry._lock)
        db.enable_telemetry(registry)
        if cached:
            db.enable_cache()
        for run in (1, 2):
            db.run(self.JOIN)
            assert lock.acquired == run
        assert registry.total("repro_queries_total") == 2

    def test_one_acquisition_per_failing_run(self, db, registry):
        lock = registry._lock = _CountingLock(registry._lock)
        db.enable_telemetry(registry)
        with pytest.raises(ReproError):
            db.run("select n.name from n in Nowhere")
        assert lock.acquired == 1


class TestThreadedStress:
    def test_exact_totals_across_threads(self, registry):
        threads, per_thread = 6, 8
        db = demo_travel_database(num_cities=3, seed=5)
        db.enable_telemetry(registry)
        errors: list[Exception] = []

        def work():
            try:
                for _ in range(per_thread):
                    db.run(QUERY)
            except Exception as err:  # pragma: no cover
                errors.append(err)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert not errors
        total = threads * per_thread
        assert registry.total("repro_queries_total") == total
        assert registry.histogram("repro_query_seconds").count == total
        top = registry.fingerprints.top(1)
        assert top[0].count == total


class TestOffPathParity:
    def test_off_path_allocates_nothing_in_telemetry_modules(self, db):
        db.disable_telemetry()  # robust when run under REPRO_TELEMETRY=1
        db.run(QUERY)  # warm every lazy import on the off path
        tracemalloc.start()
        try:
            db.run(QUERY)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        telemetry = snapshot.filter_traces(
            [tracemalloc.Filter(True, "*/obs/telemetry/*")]
        )
        assert telemetry.statistics("filename") == []

    def test_off_database_has_no_registry(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        db = demo_travel_database(num_cities=3, seed=1)
        assert db.telemetry is None

    def test_default_database_imports_no_telemetry(self):
        code = (
            "import sys\n"
            "from repro.db.database import demo_travel_database\n"
            "demo_travel_database(num_cities=3, seed=1).run('count(Cities)')\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.obs.telemetry')))"
        )
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == "[]"

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        db = demo_travel_database(num_cities=3, seed=1)
        assert db.telemetry is not None


class TestSummaryAndAdvice:
    def test_summary_lines_shape(self, db, registry):
        db.enable_telemetry(registry)
        db.run(QUERY)
        lines = summary_lines(registry, db=db)
        text = "\n".join(lines)
        assert "queries: 1 ok, 0 failed" in text
        assert "latency: p50=" in text
        assert "hot queries" in text

    def test_ql402_advice_for_hot_unindexed_query(self, db, registry):
        db.enable_telemetry(registry)
        hot = "select c.name from c in Cities where c.state = 'OR'"
        for _ in range(4):
            db.run(hot)
        lines = "\n".join(summary_lines(registry, db=db))
        assert "QL402" in lines
        assert "create_index('Cities', 'state')" in lines

    def test_ql402_silent_for_hot_group_by(self, db, registry):
        from repro.obs.telemetry.advise import advise_hot_queries

        db.enable_telemetry(registry)
        hot = ("select struct(s: st, n: count(partition)) "
               "from c in Cities group by st: c.state")
        for _ in range(4):
            db.run(hot)
        assert registry.fingerprints.top(1)[0].count == 4
        assert advise_hot_queries(db, registry) == []

    def test_ql402_silent_once_indexed(self, db, registry):
        from repro.obs.telemetry.advise import advise_hot_queries

        db.enable_telemetry(registry)
        db.create_index("Cities", "state")
        hot = "select c.name from c in Cities where c.state = 'OR'"
        for _ in range(4):
            db.run(hot)
        assert advise_hot_queries(db, registry) == []


class TestCliAndRepl:
    def test_metrics_dump_prom_round_trips(self, capsys):
        from tests.promparse import parse_prometheus_text

        assert metrics_main(["dump", "--burst", "1"]) == 0
        out = capsys.readouterr().out
        families = parse_prometheus_text(out)
        assert "repro_queries_total" in families
        assert "repro_query_errors_total" in families

    def test_metrics_top(self, capsys):
        assert metrics_main(["top", "--burst", "1", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "queries:" in out
        assert "hot queries" in out

    def test_repl_stats_cycle(self, db):
        from repro.repl import Repl

        db.disable_telemetry()  # robust when run under REPRO_TELEMETRY=1
        out: list[str] = []
        repl = Repl(db, out=out.append)
        repl.handle(":stats")
        assert any("telemetry is off" in line for line in out)
        repl.handle(":stats on")
        repl.db.telemetry = MetricsRegistry()  # isolate from shared default
        repl.handle(QUERY)
        out.clear()
        repl.handle(":stats")
        assert any("queries: 1 ok" in line for line in out)
        repl.handle(":stats off")
        assert any("telemetry is off" in line for line in out)
