"""The JIT wired through the Database: enablement, reporting, cache and
verify-mode interplay, telemetry counters, QL501 advice and the REPL
toggle."""

from __future__ import annotations

import pytest

from repro.analysis.verifier import verification
from repro.cache import CacheConfig
from repro.db.database import (
    Database,
    demo_company_database,
    demo_travel_database,
)
from repro.errors import DatabaseError
from repro.jit import JITConfig, resolve_jit
from repro.jit.plan import _fuse
from repro.normalize import normalize_with_trace
from repro.obs.metrics import PlanMetrics
from repro.obs.telemetry.registry import MetricsRegistry
from repro.obs.tracer import COMPILE_PHASES, PIPELINE_PHASES
from repro.oql import parse


@pytest.fixture
def db():
    return demo_travel_database(num_cities=4, seed=7)


@pytest.fixture
def company():
    return demo_company_database(4, 60, seed=11)


QUERY = "select distinct c.name from c in Cities where c.state = 'OR'"
SCAN_QUERY = "select e.name from e in Employees where e.salary > 50000"
GROUP_QUERY = (
    "select struct(dno: dno, n: count(partition)) "
    "from e in Employees group by dno: e.dno"
)


class TestEnablement:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        assert demo_travel_database(num_cities=3, seed=7).jit is None

    def test_constructor_true(self):
        assert Database(jit=True).jit == JITConfig()

    def test_constructor_config(self):
        cfg = JITConfig()
        assert Database(jit=cfg).jit is cfg

    def test_constructor_false_means_off(self):
        assert Database(jit=False).jit is None

    def test_constructor_rejects_garbage(self):
        with pytest.raises(DatabaseError, match="jit must be"):
            Database(jit=42)

    def test_enable_disable_cycle(self, db):
        db.enable_jit()
        assert db.jit == JITConfig()
        db.disable_jit()
        assert db.jit is None

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "1")
        assert demo_travel_database(num_cities=3, seed=1).jit is not None

    def test_env_falsey_values_stay_off(self, monkeypatch):
        for value in ("", "0", "false", "off", "no"):
            monkeypatch.setenv("REPRO_JIT", value)
            assert demo_travel_database(num_cities=3, seed=1).jit is None

    def test_resolve_jit_table(self):
        assert resolve_jit(False) is None
        assert resolve_jit(True) == JITConfig()
        cfg = JITConfig()
        assert resolve_jit(cfg) is cfg
        with pytest.raises(DatabaseError):
            resolve_jit("fast please")


class TestReporting:
    def test_query_result_carries_jit_stats(self, db):
        db.enable_jit()
        result = db.run_detailed(QUERY)
        assert result.jit is not None
        assert result.jit["compiled"] >= 1
        assert result.jit["fallback"] == 0

    def test_pipeline_report_line(self, db):
        db.enable_jit()
        report = db.run_detailed(QUERY).pipeline_report()
        assert "jit:" in report and "compiled=" in report

    def test_no_jit_no_report(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        result = demo_travel_database(num_cities=4, seed=7).run_detailed(QUERY)
        assert result.jit is None
        assert "jit:" not in result.pipeline_report()

    def test_fallback_constructs_reported(self, company):
        company.enable_jit()
        # `exists` translates to a comprehension inside the predicate —
        # outside the compilable fragment.
        result = company.run_detailed(
            "select e.name from e in Employees "
            "where exists s in e.skills : s = 'oql'"
        )
        assert result.jit is not None and result.jit["fallback"] >= 1
        assert "Comprehension" in result.jit["constructs"]

    def test_jit_phase_in_registries(self):
        assert "jit" in PIPELINE_PHASES and "jit" in COMPILE_PHASES

    def test_jit_span_recorded_when_profiling(self, db):
        db.enable_jit()
        db.profile(True, sink=lambda line: None)
        result = db.run_detailed(QUERY)
        assert "jit" in result.span.phase_times_ms()


class TestExplainAnalyze:
    def _actuals(self, node):
        out = [(node["op"], node.get("actual_rows"), node.get("rows_in"))]
        for child in node.get("children", []):
            out.extend(self._actuals(child))
        return out

    def test_actual_rows_identical_on_and_off(self, company):
        off = company.explain_data(SCAN_QUERY, analyze=True)
        company.enable_jit()
        on = company.explain_data(SCAN_QUERY, analyze=True)
        assert self._actuals(off["plan"]) == self._actuals(on["plan"])


class TestCacheInterplay:
    def test_cached_entry_from_before_jit_still_compiles(self, company):
        # Compilation cache only: every run re-executes the cached plan,
        # so the jit report reflects what actually ran.
        company.enable_cache(CacheConfig(results=False))
        baseline = company.run(SCAN_QUERY)
        company.enable_jit()
        # The cached plan predates the JIT: _execute compiles it on
        # first post-enable execution.
        assert company.run(SCAN_QUERY) == baseline
        result = company.run_detailed(SCAN_QUERY)
        assert result.jit is not None and result.jit["compiled"] >= 1
        assert company.cache.stats.as_dict()["compile_hits"] >= 1

    def test_compile_with_jit_then_hit(self, company):
        company.enable_cache()
        company.enable_jit()
        first = company.run(SCAN_QUERY)
        assert company.run(SCAN_QUERY) == first
        assert company.cache.stats.as_dict()["compile_hits"] >= 1

    def test_shape_a_warm_compile_hit_generates_no_code(self, company, count_calls):
        """Experiment J1 end to end: with the compile cache on, a repeat runs
        the function the first run generated — no parse, no normalization,
        no code generation — and answers what the interpreter answers."""
        company.disable_parallel()  # a fan-out runs the loops, not the function
        company.enable_cache(CacheConfig(results=False))
        want = company.run(SCAN_QUERY, engine="interpret")
        company.enable_jit()
        work = [count_calls(fn) for fn in (parse, normalize_with_trace, _fuse)]
        assert company.run(SCAN_QUERY) == want
        assert all(work)
        for calls in work:
            calls.clear()
        result = company.run_detailed(SCAN_QUERY)
        assert result.value == want and result.jit["fallback"] == 0
        assert work == [[], [], []]

    def test_invalidation_recompiles(self, company):
        company.enable_cache()
        company.enable_jit()
        before = company.run_detailed(SCAN_QUERY)
        # Catalog change: compiled entries (and their jit'd plan nodes)
        # are invalidated wholesale; the rebuilt plan recompiles.
        company.load_extent("Lonely", [1, 2, 3])
        after = company.run_detailed(SCAN_QUERY)
        assert after.value == before.value
        assert after.jit is not None and after.jit["compiled"] >= 1

    def test_prepared_statement_with_jit(self, db):
        db.enable_cache()
        db.enable_jit()
        prepared = db.prepare(
            "select distinct c.name from c in Cities where c.state = $state"
        )
        expected = db.run(QUERY)
        assert prepared.run(state="OR") == expected
        assert prepared.run(state="OR") == expected


class TestVerifyMode:
    def test_verify_mode_passes_on_honest_closures(self, company):
        company.enable_jit()
        baseline = demo_company_database(4, 60, seed=11).run(SCAN_QUERY)
        with verification(True):
            assert company.run(SCAN_QUERY) == baseline

    @staticmethod
    def _corrupted_plan(company):
        """SCAN_QUERY's plan, its generated functions swapped for a wrong one."""
        from repro.jit.plan import precompile_plan

        plan = company.compile(SCAN_QUERY).plan
        precompile_plan(plan)
        plan.__dict__["jit_fused"] = dict.fromkeys((False, True), lambda *args: "corrupt")
        return plan

    # A plan's one compiled form is its function: a timed execution runs
    # the jit-off loops (tests/test_jit_fused.py corrupts the emitter instead).

    def test_a_timed_execution_runs_no_compiled_code(self, company):
        from repro.algebra import Executor

        baseline = company.run_detailed(SCAN_QUERY)
        company.enable_jit()
        plan = self._corrupted_plan(company)
        assert Executor(company.evaluator(), jit=company.jit).execute(plan) == "corrupt"
        timed = Executor(company.evaluator(), metrics=PlanMetrics(), jit=company.jit)
        assert timed.execute(plan) == baseline.value
        assert timed.stats == baseline.stats

    def test_the_jit_phase_stores_only_the_function_and_its_report(self, company):
        from repro.jit.plan import precompile_plan

        company.enable_jit()
        plan = company.compile(SCAN_QUERY).plan
        precompile_plan(plan)
        assert {"jit_fused", "jit_report"} <= set(vars(plan))
        for node in plan.walk():
            assert not any(callable(kept) for kept in vars(node).values())
            assert node is plan or not any(name.startswith("jit") for name in vars(node))


class TestTelemetryCounters:
    def test_jit_counters_recorded(self, db):
        registry = MetricsRegistry()
        db.enable_telemetry(registry)
        db.enable_jit()
        db.run(QUERY)
        counter = registry.counter(
            "repro_jit_expressions_total",
            "hot-path expressions prepared by the JIT, by outcome",
            labels=("status",),
        )
        assert counter.total() >= 1

    def test_no_jit_counters_when_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        db = demo_travel_database(num_cities=4, seed=7)
        registry = MetricsRegistry()
        db.enable_telemetry(registry)
        db.run(QUERY)
        assert all(
            key[0] != "compiled"
            for key, _ in registry.counter(
                "repro_jit_expressions_total",
                "hot-path expressions prepared by the JIT, by outcome",
                labels=("status",),
            ).items()
        )


class TestQL501:
    HOT = (
        "select e.name from e in Employees "
        "where exists s in e.skills : s = 'oql'"
    )

    def test_advice_names_construct(self, company):
        from repro.jit.advise import advise_jit_fallbacks

        registry = MetricsRegistry()
        company.enable_telemetry(registry)
        company.enable_jit()
        for _ in range(4):
            company.run(self.HOT)
        findings = advise_jit_fallbacks(company, registry)
        assert findings, "expected a QL501 for the dominant fallback query"
        assert findings[0].code == "QL501"
        assert "Comprehension" in findings[0].message

    def test_fully_compiled_hot_query_is_silent(self, company):
        from repro.jit.advise import advise_jit_fallbacks

        registry = MetricsRegistry()
        company.enable_telemetry(registry)
        company.enable_jit()
        for _ in range(4):
            company.run(SCAN_QUERY)
        assert advise_jit_fallbacks(company, registry) == []

    def test_summary_lines_surface_ql501(self, company):
        from repro.obs.telemetry.instrument import summary_lines

        registry = MetricsRegistry()
        company.enable_telemetry(registry)
        company.enable_jit()
        for _ in range(4):
            company.run(self.HOT)
        assert "QL501" in "\n".join(summary_lines(registry, db=company))


class TestRepl:
    def test_toggle(self, db):
        from repro.repl import Repl

        lines = []
        repl = Repl(db, out=lines.append)
        repl.handle(":jit on")
        assert db.jit is not None
        assert any("jit is on" in line for line in lines)
        repl.handle(":jit off")
        assert db.jit is None
        repl.handle(":jit sideways")
        assert any("usage: :jit on|off" in line for line in lines)

    def test_queries_run_with_jit_on(self, db):
        from repro.repl import Repl

        lines = []
        repl = Repl(db, out=lines.append)
        expected = repr(
            __import__("repro.values", fromlist=["to_python"]).to_python(
                db.run(QUERY)
            )
        )
        repl.handle(":jit on")
        repl.handle(QUERY)
        assert any(expected == line for line in lines)


class TestGroupBy:
    def test_group_by_parity_and_stats(self, company):
        company.disable_cache()  # a result-cache hit executes nothing: jit is None
        baseline = company.run(GROUP_QUERY)
        company.enable_jit()
        assert company.run(GROUP_QUERY) == baseline
        result = company.run_detailed(GROUP_QUERY)
        assert result.jit is not None and result.jit["compiled"] >= 1
