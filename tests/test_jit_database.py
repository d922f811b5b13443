"""Generated code wired through the Database: every run gets it, from a
plan's first; reporting, cache and verify-mode interplay, telemetry
counters, QL501 advice and the REPL."""

from __future__ import annotations

import pytest

from repro.analysis.verifier import verification
from repro.cache import CacheConfig
from repro.db import make_travel_agency, travel_schema
from repro.db.database import (
    PIPELINE_PHASES,
    Database,
    demo_company_database,
    demo_travel_database,
)
from repro.jit import JITConfig
from repro.jit.plan import _fuse, clear_code_cache
from repro.normalize import normalize_with_trace
from repro.obs.telemetry.registry import MetricsRegistry
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


class TestNoSwitch:
    def test_the_jit_argument_changes_nothing(self):
        values = []
        for jit in (False, True, JITConfig()):
            clear_code_cache()  # each database sees the shape first
            db = Database(travel_schema(), cache=False, parallel=False, jit=jit)
            db.load_extents(make_travel_agency(num_cities=4, seed=7))
            values.append([db.run_detailed(QUERY).jit for _ in range(2)])
        report = values[0][0]
        assert report is not None and values == [[report, report]] * 3

    def test_no_switch_is_left(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "0")
        db = demo_travel_database(num_cities=3, seed=7)
        db.disable_cache()
        assert not any(hasattr(db, name) for name in ("enable_jit", "disable_jit"))
        db.run(QUERY)
        assert db.run_detailed(QUERY).jit is not None


def twice(db, oql):
    """``oql``'s second run on ``db`` with no cache: a plan compiled
    afresh, its code from the code cache."""
    db.disable_cache()
    db.run(oql)
    return db.run_detailed(oql)


class TestReporting:
    def test_query_result_carries_jit_stats(self, db):
        result = twice(db, QUERY)
        assert result.jit is not None
        assert result.jit["compiled"] >= 1
        assert result.jit["fallback"] == 0

    def test_pipeline_report_line(self, db):
        report = twice(db, QUERY).pipeline_report()
        assert "jit:" in report and "compiled=" in report

    def test_a_first_run_has_its_report(self):
        db = demo_travel_database(num_cities=4, seed=7)
        db.disable_cache()
        result = db.run_detailed(QUERY)
        assert result.jit is not None and result.jit["compiled"] >= 1
        assert "jit:" in result.pipeline_report()

    def test_fallback_constructs_reported(self, company):
        # `exists` translates to a comprehension inside the predicate —
        # outside the compilable fragment.
        result = twice(
            company,
            "select e.name from e in Employees where exists s in e.skills : s = 'oql'",
        )
        assert result.jit is not None and result.jit["fallback"] >= 1
        assert "Comprehension" in result.jit["constructs"]

    def test_jit_phase_in_registries(self):
        assert "jit" in PIPELINE_PHASES

    def test_jit_phase_logged_when_profiling(self, db):
        db.profile(True, sink=lambda line: None)
        result = db.run_detailed(QUERY)
        assert "jit" in db.query_log.entries[-1]["phases_ms"]
        assert "jit" in result.phases_ms()


class TestExplainAnalyze:
    def _actuals(self, node):
        out = [(node["op"], node.get("actual_rows"), node.get("rows_in"))]
        for child in node.get("children", []):
            out.extend(self._actuals(child))
        return out

    def test_actual_rows_identical_on_and_off(self, company):
        off = company.explain_data(SCAN_QUERY, analyze=True)
        assert twice(company, SCAN_QUERY).jit is not None
        on = company.explain_data(SCAN_QUERY, analyze=True)
        assert self._actuals(off["plan"]) == self._actuals(on["plan"])


class TestCacheInterplay:
    def test_a_cached_entry_has_code_from_its_first_run(self, company):
        # Compilation cache only: every run re-executes the cached plan,
        # so the jit report reflects what actually ran.
        company.enable_cache(CacheConfig(results=False))
        first = company.run_detailed(SCAN_QUERY)
        assert first.jit is not None and first.jit["compiled"] >= 1
        assert company.run(SCAN_QUERY) == first.value
        assert company.cache.stats.as_dict()["compile_hits"] >= 1

    def test_compile_with_jit_then_hit(self, company):
        company.enable_cache()
        first = company.run(SCAN_QUERY)
        assert company.run(SCAN_QUERY) == first
        assert company.cache.stats.as_dict()["compile_hits"] >= 1

    def test_shape_a_warm_compile_hit_generates_no_code(self, company, count_calls):
        """Experiment J1 end to end: with the compile cache on, a repeat runs
        the function the first run generated — no parse, no normalization,
        no code generation — and answers what the interpreter answers."""
        company.enable_cache(CacheConfig(results=False))
        want = company.run(SCAN_QUERY, engine="interpret")
        work = [count_calls(fn) for fn in (parse, normalize_with_trace, _fuse)]
        assert company.run(SCAN_QUERY) == want
        assert all(work)
        for calls in work:
            calls.clear()
        result = company.run_detailed(SCAN_QUERY)
        assert result.value == want and result.jit["fallback"] == 0
        assert work == [[], [], []]

    def test_invalidation_reuses_the_code(self, company, count_calls):
        company.enable_cache()
        emitted = count_calls(_fuse)
        before = company.run_detailed(SCAN_QUERY)
        # Catalog change: compiled entries are invalidated wholesale; the
        # rebuilt plan has the same shape, so the code cache serves it.
        company.load_extent("Lonely", [1, 2, 3])
        after = company.run_detailed(SCAN_QUERY)
        assert after.value == before.value
        assert after.jit == before.jit and before.jit["compiled"] >= 1
        assert len(emitted) == 1

    def test_prepared_statement_with_jit(self, db):
        db.enable_cache()
        prepared = db.prepare(
            "select distinct c.name from c in Cities where c.state = $state"
        )
        expected = db.run(QUERY)
        assert prepared.run(state="OR") == expected
        assert prepared.run(state="OR") == expected


class TestVerifyMode:
    def test_verify_mode_passes_on_honest_closures(self, company):
        baseline = demo_company_database(4, 60, seed=11).run(SCAN_QUERY)
        with verification(True):
            assert twice(company, SCAN_QUERY).value == baseline

    def test_the_jit_phase_stores_only_the_function_and_its_report(self, company):
        from repro.jit.plan import precompile_plan

        plan = company.compile(SCAN_QUERY).plan
        precompile_plan(plan)
        assert {"jit_fused", "jit_report"} <= set(vars(plan))
        for node in plan.preorder():
            assert not any(callable(kept) for kept in vars(node).values())
            assert node is plan or not any(name.startswith("jit") for name in vars(node))


class TestTelemetryCounters:
    def test_jit_counters_recorded(self, db):
        registry = MetricsRegistry()
        db.enable_telemetry(registry)
        twice(db, QUERY)
        assert registry.total("repro_jit_expressions_total") >= 1

    def test_jit_counters_on_a_first_run(self):
        db = demo_travel_database(num_cities=4, seed=7)
        db.disable_cache()
        registry = MetricsRegistry()
        db.enable_telemetry(registry)
        db.run(QUERY)
        assert registry.value("repro_jit_expressions_total", status="compiled") >= 1


class TestQL501:
    HOT = (
        "select e.name from e in Employees "
        "where exists s in e.skills : s = 'oql'"
    )

    def test_advice_names_construct(self, company):
        from repro.obs.telemetry.advise import advise_jit_fallbacks

        registry = MetricsRegistry()
        company.enable_telemetry(registry)
        for _ in range(4):
            company.run(self.HOT)
        findings = advise_jit_fallbacks(company, registry)
        assert findings, "expected a QL501 for the dominant fallback query"
        assert findings[0].code == "QL501"
        assert "Comprehension" in findings[0].message

    def test_fully_compiled_hot_query_is_silent(self, company):
        from repro.obs.telemetry.advise import advise_jit_fallbacks

        registry = MetricsRegistry()
        company.enable_telemetry(registry)
        for _ in range(4):
            company.run(SCAN_QUERY)
        assert advise_jit_fallbacks(company, registry) == []

    def test_summary_lines_surface_ql501(self, company):
        from repro.obs.telemetry.instrument import summary_lines

        registry = MetricsRegistry()
        company.enable_telemetry(registry)
        for _ in range(4):
            company.run(self.HOT)
        assert "QL501" in "\n".join(summary_lines(registry, db=company))


class TestRepl:
    def test_there_is_no_jit_command(self, db):
        from repro.repl import Repl

        lines = []
        Repl(db, out=lines.append).handle(":jit on")
        assert any("unknown command" in line for line in lines)

    def test_repeated_queries_run_generated_code(self, db):
        from repro.repl import Repl
        from repro.values import to_python

        lines = []
        repl = Repl(db, out=lines.append)
        expected = repr(to_python(db.run(QUERY)))
        repl.handle(QUERY)
        repl.handle(QUERY)
        assert [line for line in lines if line == expected] == [expected] * 2


class TestGroupBy:
    def test_group_by_parity_and_stats(self, company):
        company.disable_cache()  # a result-cache hit executes nothing: jit is None
        baseline = company.run(GROUP_QUERY)
        result = company.run_detailed(GROUP_QUERY)
        assert result.value == baseline
        assert result.jit is not None and result.jit["compiled"] >= 1
