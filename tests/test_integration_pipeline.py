"""End-to-end integration: a catalogue of OQL queries through every path.

Each query is answered three ways — interpreter on the raw translation,
interpreter on the normalized term, and the optimized algebra plan — and
all answers must coincide. This pins down the whole pipeline at once.
"""

import functools

import pytest

from repro.algebra import Executor, build_plan
from repro.calculus import var
from repro.calculus.ast import Comprehension
from repro.db import Database, demo_travel_database, make_company, make_travel_agency
from repro.eval import Evaluator
from repro.eval import evaluator as evaluator_module
from repro.eval.builtins import runtime_monoid_of
from repro.normalize import DEFAULT_RULES, normalize
from repro.normalize.rules import ExistentialFusion, FlattenGenerator
from repro.oql import translate_oql

TRAVEL_QUERIES = [
    "select distinct c.name from c in Cities",
    "select distinct c.name from c in Cities where c.population > 100000",
    "select h.name from c in Cities, h in c.hotels",
    "select distinct h.name from c in Cities, h in c.hotels "
    "where c.name = 'Portland' and h.stars >= 3",
    "select distinct r.beds from c in Cities, h in c.hotels, r in h.rooms",
    "select distinct c.name from c in Cities "
    "where exists h in c.hotels : h.stars = 5",
    "select distinct c.name from c in Cities "
    "where for all h in c.hotels : h.stars >= 1",
    "sum(select h.stars from c in Cities, h in c.hotels)",
    "max(select r.price from c in Cities, h in c.hotels, r in h.rooms)",
    "min(select r.price from c in Cities, h in c.hotels, r in h.rooms)",
    "count(select h from c in Cities, h in c.hotels)",
    "avg(select h.stars from c in Cities, h in c.hotels)",
    "select distinct struct(city: c.name, hotel: h.name) "
    "from c in Cities, h in c.hotels where h.stars = 5",
    "select distinct f from c in Cities, h in c.hotels, f in h.facilities",
    "select distinct c.name from c in Cities where 'pool' in "
    "flatten(select h.facilities from h in c.hotels)",
    "select h.name from c in Cities, h in c.hotels order by h.stars desc",
    "select distinct c.name from c in Cities where c.has_luxury()",
    "select struct(s: stars, n: count(partition)) "
    "from c in Cities, h in c.hotels group by stars: h.stars",
    "select distinct h.name from h in "
    "(select distinct x from c in Cities, x in c.hotels where c.name = 'Portland')",
    "element(select distinct c from c in Cities where c.name = 'Portland')",
    # the paper's running example, down to the rooms
    "select h.name from c in Cities, h in c.hotels, r in h.rooms "
    "where c.name = 'Portland' and r.beds = 3",
    "select distinct struct(city: c.name, best: max(select h.stars "
    "from h in c.hotels)) from c in Cities where exists h in c.hotels : "
    "h.stars >= 4 and 'pool' in h.facilities order by c.name",
]

COMPANY_QUERIES = [
    "select e.name from e in Employees where e.salary > 100000",
    "select distinct struct(e: e.name, d: d.name) "
    "from e in Employees, d in Departments where e.dno = d.dno",
    "select distinct d.name from d in Departments "
    "where exists e in Employees : e.dno = d.dno and e.salary > 150000",
    "sum(select e.salary from e in Employees)",
    "count(Employees)",
    "select distinct e.name from e in Employees where 'oql' in e.skills",
    "select struct(d: dno, total: sum(select p.salary from p in partition)) "
    "from e in Employees group by dno: e.dno",
    "select e.name from e in Employees order by e.salary desc, e.name",
    "select distinct e.name from e in Employees, d in Departments "
    "where e.dno = d.dno and d.floor > 5",
]


@pytest.mark.parametrize("query", TRAVEL_QUERIES)
def test_travel_queries_all_paths_agree(travel_db, query):
    _assert_paths_agree(travel_db, query)


@pytest.mark.parametrize("query", COMPANY_QUERIES)
def test_company_queries_all_paths_agree(company_db, query):
    _assert_paths_agree(company_db, query)


@pytest.mark.parametrize("query", COMPANY_QUERIES)
def test_company_queries_with_indexes(company_db, query):
    baseline = company_db.run(query, engine="interpret")
    company_db.create_index("Departments", "dno")
    company_db.create_index("Employees", "dno")
    assert company_db.run(query, engine="auto") == baseline


def test_results_scale_with_data():
    small = demo_travel_database(num_cities=2, seed=3)
    large = demo_travel_database(num_cities=8, seed=3)
    q = "count(select h from c in Cities, h in c.hotels)"
    assert small.run(q) < large.run(q)


def test_normalization_never_changes_results_on_catalogue(travel_db):
    for query in TRAVEL_QUERIES:
        term = travel_db.translate(query)
        ev = travel_db.evaluator()
        assert ev.evaluate(normalize(term)) == ev.evaluate(term), query


def test_company_pipeline_report_is_printable(company_db):
    result = company_db.run_detailed(COMPANY_QUERIES[1])
    report = result.pipeline_report()
    assert "Join" in report or "Unnest" in report


def _assert_paths_agree(db: Database, query: str) -> None:
    raw = db.translate(query)
    direct = db.evaluator().evaluate(raw)
    normalized_value = db.evaluator().evaluate(normalize(raw))
    auto = db.run(query, engine="auto")
    interp = db.run(query, engine="interpret")
    assert direct == normalized_value == auto == interp, query


# -- Experiments F1 and A1, counted: what normalization and the algebra save ---------

MEMBERSHIP = (
    "select distinct e.name from e in Employees "
    "where e.dno in (select d.dno from d in Departments where d.floor > 5)"
)
NESTED_FROM = (
    "select distinct h.name from h in "
    "(select distinct x from c in Cities, x in c.hotels) where h.stars = 5"
)


def test_shape_membership_reads_the_subquery_extent_once(count_calls):
    """Evaluated as written, the ``in`` subquery is recomputed per
    employee, and so is the fused join of its normal form; the plan's hash
    join reads Departments once, beside one pass over Employees."""
    employees, departments = 160, 16
    evaluator = Evaluator(make_company(departments, employees, seed=1))
    raw = translate_oql(MEMBERSHIP)
    canonical = normalize(raw)
    plan = build_plan(canonical)
    extent = evaluator.evaluate(var("Departments"))
    sources = count_calls(runtime_monoid_of)
    value = evaluator.evaluate(raw)
    assert sum(source is extent for source in sources) == employees
    sources.clear()
    assert evaluator.evaluate(canonical) == value
    assert sum(source is extent for source in sources) == employees
    executor = Executor(evaluator)
    assert executor.execute(plan) == value
    assert executor.stats.rows_scanned == employees + departments


def test_shape_nested_from_builds_no_intermediate_set(travel_db, monkeypatch):
    """The written form builds the ``from`` subquery's set and then
    iterates it; the normal form is one comprehension over each city's
    hotels."""
    evaluated = []
    comprehension = evaluator_module._DISPATCH[Comprehension]

    def counting(evaluator, term, env):
        evaluated.append(term)
        return comprehension(evaluator, term, env)

    monkeypatch.setitem(evaluator_module._DISPATCH, Comprehension, counting)
    raw = travel_db.translate(NESTED_FROM)
    canonical = normalize(raw)
    value = travel_db.evaluator().evaluate(raw)
    assert len(evaluated) == 2
    evaluated.clear()
    assert travel_db.evaluator().evaluate(canonical) == value
    assert evaluated == [canonical]


#: each F1 workload's answer, computed in plain Python from the extents
F1_ORACLES = {
    "nested-from": lambda world: frozenset(
        h.name for c in world["Cities"] for h in c.hotels if h.stars == 5
    ),
    "membership": lambda world: frozenset(
        e.name for e in world["Employees"]
        if e.dno in {d.dno for d in world["Departments"] if d.floor > 5}
    ),
}


@functools.lru_cache(maxsize=None)
def _f1_world(workload, size):
    if workload == "nested-from":
        return make_travel_agency(size, 5, 6, seed=1), NESTED_FROM
    return make_company(max(2, size // 10), size, seed=1), MEMBERSHIP


@pytest.mark.parametrize("size", [20, 80, 320])
@pytest.mark.parametrize("workload", list(F1_ORACLES))
@pytest.mark.parametrize("variant", ["raw", "normalized", "algebra"])
def test_pipelining_series(variant, workload, size):
    """Experiment F1's points: the term as written, its normal form and the
    plan of the normal form each give the answer the extents do."""
    world, oql = _f1_world(workload, size)
    evaluator = Evaluator(world)
    term = translate_oql(oql)
    if variant == "raw":
        value = evaluator.evaluate(term)
    elif variant == "normalized":
        value = evaluator.evaluate(normalize(term))
    else:
        value = Executor(evaluator).execute(build_plan(normalize(term)))
    assert value == F1_ORACLES[workload](world)


RULESETS = {
    "full": DEFAULT_RULES,
    "no-N11": tuple(r for r in DEFAULT_RULES if not isinstance(r, ExistentialFusion)),
    "no-N9": tuple(r for r in DEFAULT_RULES if not isinstance(r, FlattenGenerator)),
}


@pytest.mark.parametrize("ruleset", list(RULESETS))
def test_a1_rule_ablation(company_db, ruleset):
    """A plan built from a term normalized without one rule still answers
    what the reference does; without N11 the subquery stays a per-row
    predicate instead of becoming a join."""
    raw = company_db.translate(MEMBERSHIP)
    plan = build_plan(normalize(raw, rules=RULESETS[ruleset]), pre_normalize=False)
    executor = Executor(company_db.evaluator())
    assert executor.execute(plan) == company_db.evaluator().evaluate(raw)
    assert (executor.stats.rows_joined > 0) == (ruleset != "no-N11")
