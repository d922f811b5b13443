"""The one pipeline: ``Database.compile`` -> ``Database._execute``.

Every way of answering a query (ad hoc with or without a cache, a
prepared statement, EXPLAIN) shares that pair, so these tests pin what
the sharing guarantees: one plan per query whoever asks, one error per
mistake whatever the mode, verification that a cache hit cannot skip,
and one decision, made by ``compile``, of which engine answers.
"""

import pytest

from repro.algebra.ops import Nest
from repro.algebra.physical import Executor
from repro.analysis.verifier import verification
from repro.db import Database, company_schema, make_company, make_travel_agency, travel_schema
from repro.errors import (
    DatabaseError,
    PlanError,
    ReproError,
    UnboundVariableError,
    VerificationError,
)
from repro.normalize import is_canonical
from repro.normalize.rules import DEFAULT_RULES, PLANNING_RULES
from repro.values import to_python

from tests.data.make_frontend_golden import corpus
from tests.test_analysis_verifier import MonoidSwap
from tests.test_compile_decides import REFUSED, ones_and_twos

GROUP_BY = (
    "select struct(dno: dno, n: count(partition)) "
    "from e in Employees group by dno: e.dno"
)
COMPREHENSION = "select distinct e.name from e in Employees where e.salary > 0"
CITY_NAMES = "select distinct c.name from c in Cities"


def company(cache=False) -> Database:
    """A company database with every mode pinned (robust under REPRO_*)."""
    db = Database(company_schema(), cache=cache, parallel=False, jit=False, telemetry=False)
    db.load_extents(make_company(num_departments=4, num_employees=40, seed=11))
    return db


def travel(cache=False) -> Database:
    db = Database(travel_schema(), cache=cache, parallel=False, jit=False, telemetry=False)
    db.load_extents(make_travel_agency(num_cities=4, seed=3))
    return db


# -- verification is not skipped on a compile-cache hit ----------------------


@pytest.fixture
def broken_normalizer(monkeypatch):
    """Normalize with a rule that silently turns every set into a bag."""
    import repro.db.database as database

    real = database.normalize_with_trace
    monkeypatch.setattr(
        database,
        "normalize_with_trace",
        lambda term: real(term, rules=(MonoidSwap(),) + tuple(DEFAULT_RULES)),
    )
    monkeypatch.delenv("REPRO_VERIFY", raising=False)


class TestVerifyOnCompileHit:
    def test_unverified_entry_is_rebuilt_under_verification(self, broken_normalizer):
        db = travel(cache=True)
        db.run(CITY_NAMES)  # the bad rule slips through unverified, and is cached
        assert db.run_detailed(CITY_NAMES).cache == {"compile": "hit", "result": "hit"}
        with pytest.raises(VerificationError):
            db.run(CITY_NAMES, verify=True)

    def test_pinned_prepared_entry_is_rebuilt_too(self, broken_normalizer):
        statement = travel(cache=False).prepare(CITY_NAMES)
        statement.run()
        with verification(True), pytest.raises(VerificationError):
            statement.run()

    def test_verified_rebuild_serves_no_unverified_result(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        db = travel(cache=True)
        value = db.run(CITY_NAMES)
        rebuilt = db.run_detailed(CITY_NAMES, verify=True)
        assert rebuilt.cache == {"compile": "miss", "result": "miss"}
        assert rebuilt.value == value
        # the verified entry (and the value it computed) now serve everyone
        again = db.run_detailed(CITY_NAMES, verify=True)
        assert again.cache == {"compile": "hit", "result": "hit"}
        assert db.run_detailed(CITY_NAMES).cache == {"compile": "hit", "result": "hit"}


# -- EXPLAIN shows the plan run executes --------------------------------------


def op_tree(node: dict) -> list:
    return [node["op"], [op_tree(child) for child in node.get("children", ())]]


@pytest.mark.parametrize("cache", [False, True])
def test_explain_of_group_by_is_the_nest_plan_run_executes(cache):
    db = company(cache)
    executed = db.run_detailed(GROUP_BY).plan
    assert any(isinstance(node, Nest) for node in executed.preorder())
    estimated = db.explain_data(GROUP_BY)
    analyzed = db.explain_data(GROUP_BY, analyze=True)
    assert estimated["engine"] == analyzed["engine"] == "algebra"
    assert op_tree(estimated["plan"]) == op_tree(analyzed["plan"])
    assert "Nest" in str(op_tree(estimated["plan"]))
    assert "Nest" in db.explain(GROUP_BY)
    assert "Nest" in db.explain(GROUP_BY, analyze=True)


# -- one error per mistake, whatever the mode ---------------------------------


@pytest.mark.parametrize("cache", [False, True])
def test_unbound_parameter_is_the_same_error_with_and_without_cache(cache):
    db = travel(cache)
    with pytest.raises(UnboundVariableError):
        db.run(
            "select distinct c.name from c in Cities where c.population > $min",
            typecheck=True,
        )


#: good and bad queries for the parity below: a lint error, a C/I error
#: under typecheck, an unbound parameter, an unknown name
PARITY = (
    CITY_NAMES,
    "select c.name from c in Cities",
    "sum(select distinct c.population from c in Cities)",
    "select distinct c.name from c in Cities where c.population > $min",
    "select distinct c.name from c in Citees",
)


def outcomes(cache: bool, how: str, oql: str, strict: bool, typecheck: bool) -> list:
    """Three runs of ``oql`` on a fresh database: each one's value, or its
    error's class and message."""
    db = travel(cache)
    if how == "prepared":
        try:
            statement = db.prepare(oql, typecheck=typecheck)
        except ReproError as exc:
            return [(type(exc), str(exc))]
        run = lambda: statement.run(**({"min": 0} if "$" in oql else {}))  # noqa: E731
    else:
        run = lambda: db.run(oql, strict=strict, typecheck=typecheck)  # noqa: E731
    seen = []
    for _ in range(3):  # a first run, then repeats (cache hits, when cached)
        try:
            seen.append(("value", run()))
        except ReproError as exc:
            seen.append((type(exc), str(exc)))
    return seen


@pytest.mark.parametrize("oql", PARITY)
@pytest.mark.parametrize(
    "how, strict, typecheck",
    [("ad hoc", False, False), ("ad hoc", True, False), ("ad hoc", False, True),
     ("prepared", False, False), ("prepared", False, True)],  # prepare has no strict
)
def test_same_outcomes_with_and_without_cache(oql, how, strict, typecheck):
    assert outcomes(False, how, oql, strict, typecheck) == outcomes(
        True, how, oql, strict, typecheck
    )


# -- EXPLAIN ANALYZE leaves the shared query log alone ------------------------


def test_explain_analyze_does_not_swap_the_query_log():
    db = travel()
    original = db.query_log
    seen = []

    def probe(value):
        seen.append(db.query_log is original)
        db.profile(True)  # a toggle during EXPLAIN must not be lost
        return value

    db.register_function("probe", probe)
    doc = db.explain_data("select distinct probe(c.name) from c in Cities", analyze=True)
    assert seen and all(seen)
    assert db.query_log is original and db.query_log.enabled
    assert "execute" in doc["phases_ms"]  # EXPLAIN reads the query's record


# -- compile decides the engine ------------------------------------------------


def runners(oql, make=company):
    """(label, db, thunk -> QueryResult) for each way of running ``oql``."""
    for cache in (False, True):
        db = make(cache)
        yield f"run cache={cache}", db, lambda db=db: db.run_detailed(oql)
        db = make(cache)
        statement = db.prepare(oql)
        yield f"prepared cache={cache}", db, statement.run_detailed


class TestFallbackChain:
    def test_a_plan_without_a_function_runs_on_the_interpreter(self):
        expected = to_python(ones_and_twos().run(REFUSED, engine="interpret"))
        for label, db, run in runners(REFUSED, ones_and_twos):
            for _ in range(2):
                result = run()
                assert to_python(result.value) == expected, label
                assert result.engine == "interpret", label
                assert result.plan is None and result.stats is None, label
            assert db.compile(REFUSED).plan is None, label

    @pytest.mark.parametrize("engine", ["algebra", "algbra", "fast"])
    @pytest.mark.parametrize("cache", [False, True])
    def test_an_unknown_engine_is_refused(self, engine, cache):
        db = company(cache)
        for way in (db.compile, db.run, db.run_detailed, db.prepare):
            with pytest.raises(DatabaseError, match="engine must be 'auto' or 'interpret'"):
                way(COMPREHENSION, engine=engine)
        assert db.run_detailed(COMPREHENSION, engine="auto").engine == "algebra"

    @pytest.mark.parametrize("oql", [GROUP_BY, COMPREHENSION])
    def test_a_plan_error_reaches_a_caller_of_the_executor(self, monkeypatch, oql):
        """Execution falls back on nothing: a compiled plan always has its
        function, so a ``PlanError`` there is a fault, and it propagates."""

        def execute(self, plan):
            raise PlanError("forced by the test")

        db = company()
        plan = db.compile(oql).plan
        monkeypatch.setattr(Executor, "execute", execute)
        with pytest.raises(PlanError, match="forced by the test"):
            Executor(db.evaluator(), db.catalog.index_mappings()).execute(plan)
        for label, db, run in runners(oql):
            with pytest.raises(PlanError, match="forced by the test"):
                run()


# -- compile normalizes once ----------------------------------------------------


class TestOneNormalization:
    """``compile`` hands ``build_plan`` its default normal form as is;
    these pin why that is enough."""

    def test_planning_rules_are_a_subset_of_the_default_rules(self):
        assert set(PLANNING_RULES) <= set(DEFAULT_RULES)

    def test_what_compile_plans_is_already_in_planning_normal_form(self):
        planned = 0
        for db in (travel(), company()):
            for source in corpus():
                try:
                    entry = db.compile(source)
                except ReproError:  # the corpus keeps its syntax errors
                    continue
                if entry.plan is not None:
                    planned += 1
                    assert is_canonical(entry.normalized, PLANNING_RULES), source
        assert planned > 100

    @pytest.mark.parametrize("cache", [False, True])
    def test_a_plannable_query_is_normalized_exactly_once(self, monkeypatch, cache):
        import repro.db.database as database
        from repro.normalize import engine

        calls = []
        real = engine.normalize_with_trace

        def counting(term, *args, **kwargs):
            calls.append(term)
            return real(term, *args, **kwargs)

        # ``normalize`` reaches it through the engine module, ``compile`` by name
        monkeypatch.setattr(engine, "normalize_with_trace", counting)
        monkeypatch.setattr(database, "normalize_with_trace", counting)
        db = company(cache)
        assert db.compile(COMPREHENSION).plan is not None
        assert len(calls) == 1
