"""Update programs (§4.2) run as algebra plans on the one executor.

The effect stage (``plan_effects``, behind both ``Database.run_calculus``
and ``run_update``) plans the paper's update comprehension — the victims a
closed comprehension's sub-plan, the ``+=`` / ``:=`` qualifiers effect
filters — and runs it as generated code. The reference interpreter is the
oracle: the same touched set, the same heap, the same error and, after a
failure, the same partial heap. Alongside: verify mode applies an effect
once, plan-check keeps filters on their side of an effect, EXPLAIN shows
both, and programs differing only in literals share one generated
function. A program with a second generator is the interpreter's: a plan
would test its filters, or materialise a Join input, ahead of effects.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra import Executor, build_plan
from repro.algebra.ops import Reduce, Scan, SelectOp, Unnest
from repro.analysis.plancheck import check_plan_rewrite, verify_plan
from repro.analysis.verifier import verification
from repro.calculus import const, eq, gt, lt, proj, rec, var
from repro.calculus.ast import (
    Assign,
    BinOp,
    Comprehension,
    Filter,
    Generator,
    MonoidRef,
    New,
    Update,
    Var,
)
from repro.db.database import Database
from repro.db.sample_data import travel_schema
from repro.errors import PlanError, ReproError, VerificationError
from repro.eval import Evaluator
from repro.jit import plan as jit_plan
from repro.jit.runtime import Runtime
from repro.objects import ObjectStore, add_to_field, run_update, set_field, update_where
from repro.obs.explain import plan_to_dict, render_explain
from repro.obs.telemetry import MetricsRegistry
from repro.values import Record

N_CITIES = 6


def _rows(n: int = N_CITIES) -> list[dict]:
    return [
        {"name": f"C{i}", "state": "OR" if i % 2 else "WA", "population": 1000 * (i + 1),
         "hotels": set(), "hotel_count": i % 4}
        for i in range(n)
    ]


def _db(n: int = N_CITIES) -> Database:
    db = Database(travel_schema())
    db.load_objects("Cities", "City", _rows(n))
    return db


def _outcome(run) -> tuple:
    """What running a program did: its value, or its error's class and text."""
    try:
        return ("value", run())
    except ReproError as err:
        return ("error", type(err).__name__, str(err))


def _both(program) -> tuple[tuple, tuple, Database, Database]:
    """``program`` on two databases with the same starting heap: through
    ``run_update`` and through the reference interpreter."""
    compiled, reference = _db(), _db()
    got = _outcome(lambda: run_update(program, compiled.evaluator()))
    want = _outcome(lambda: reference.evaluator().evaluate(program))
    return got, want, compiled, reference


def _c(field: str):
    return proj(var("c"), field)


# -- the property -----------------------------------------------------------------

_PREDICATES = st.one_of(
    st.none(),
    st.builds(lambda k: gt(_c("population"), const(k)), st.integers(0, 7000)),
    st.builds(lambda k: lt(_c("hotel_count"), const(k)), st.integers(0, 4)),
    st.builds(lambda i: eq(_c("name"), const(f"C{i}")), st.integers(0, N_CITIES)),
    st.builds(
        lambda i, k: BinOp("or", eq(_c("name"), const(f"C{i}")), gt(_c("hotel_count"), const(k))),
        st.integers(0, N_CITIES), st.integers(0, 3),
    ),
)

_UPDATES = st.one_of(
    st.builds(lambda k: add_to_field("hotel_count", const(k)), st.integers(-2, 3)),
    st.builds(lambda k: set_field("hotel_count", const(k)), st.integers(0, 9)),
    # reads the field it writes
    st.just(set_field("hotel_count", BinOp("+", _c("hotel_count"), _c("hotel_count")))),
    st.builds(lambda k: add_to_field("population", const(k)), st.integers(0, 500)),
    st.builds(lambda s: add_to_field("hotels", rec(name=const(s))), st.sampled_from("ab")),
    st.just(set_field("hotels", const(frozenset()))),
    st.just(set_field("state", const("ID"))),
    # fails on the victim whose population is the divisor's zero
    st.builds(
        lambda k: add_to_field(
            "hotel_count", BinOp("div", const(1), BinOp("-", _c("population"), const(k)))
        ),
        st.sampled_from([1000, 3000, 6000, 99]),
    ),
    # fails on every victim: a string onto a number
    st.just(add_to_field("population", const("x"))),
)


@given(_PREDICATES, st.lists(_UPDATES, min_size=1, max_size=3))
def test_compiled_updates_agree_with_the_reference(predicate, updates):
    program = update_where("Cities", "c", predicate, updates)
    got, want, compiled, reference = _both(program)
    assert got == want
    # after a failure too: the same partial heap (updates are not yet atomic)
    assert compiled.store.snapshot() == reference.store.snapshot()
    assert build_plan(program) is not None  # it was planned, not interpreted


def test_a_failure_leaves_the_interpreters_partial_heap():
    fails_on_c2 = add_to_field(
        "hotel_count", BinOp("div", const(1), BinOp("-", _c("population"), const(3000)))
    )
    program = update_where("Cities", "c", None, [fails_on_c2])
    got, want, compiled, reference = _both(program)
    assert got == want == ("error", "EvaluationError", "division by zero")
    start = _db().store.snapshot()
    changed = [oid for oid, state in compiled.store.snapshot().items() if state != start[oid]]
    assert changed and len(changed) < N_CITIES
    assert compiled.store.snapshot() == reference.store.snapshot()


# -- what runs ------------------------------------------------------------------------


def _executions(monkeypatch) -> list:
    calls: list = []
    execute = Executor.execute

    def counting(self, plan):
        calls.append(plan)
        return execute(self, plan)

    monkeypatch.setattr(Executor, "execute", counting)
    return calls


def test_the_papers_program_runs_on_the_executor(monkeypatch):
    executed = _executions(monkeypatch)
    db = _db()
    program = update_where("Cities", "c", gt(_c("population"), const(3000)),
                           [add_to_field("hotel_count", const(1))])
    touched = run_update(program, db.evaluator())
    (plan,) = executed
    assert isinstance(plan, Reduce) and len(touched) == 3
    (scan,) = [node for node in plan.walk() if isinstance(node, Scan) and node.sub is not None]
    assert [type(node) for node in scan.sub.walk()] == [Reduce, SelectOp, Scan]


def test_run_calculus_runs_an_update_through_compile(monkeypatch):
    """``run_calculus`` is ``run``: the program's entry comes from
    ``compile``'s effect stage, and the write, like the read before it,
    leaves a query-log entry with an ``execute`` phase."""
    executed = _executions(monkeypatch)
    db, reference = _db(), _db()
    db.profile(True)
    assert db.run("sum(select c.hotel_count from c in Cities)") == 7
    program = update_where("Cities", "c", lt(_c("hotel_count"), const(2)),
                           [set_field("state", const("ID"))])
    assert db.run_calculus(program) == reference.evaluator().evaluate(program)
    assert len(executed) == 2
    assert db.store.snapshot() == reference.store.snapshot()
    entry = db.compile(program)
    assert entry.phases == ("plan",) and entry.normalized is program and entry.plan is not None
    read, write = db.query_log.entries
    assert write["engine"] == "algebra" and "execute" in write["phases_ms"]
    assert "parse" in read["phases_ms"] and "parse" not in write["phases_ms"]
    # a pure term that normalizes below a comprehension is its own answer
    assert db.run_calculus(const(3)) == 3 and len(executed) == 2
    # a prepared program binds its lifted literals too
    assert db.prepare(program).run() == db.run_calculus(program)


def test_a_write_reads_a_view_as_a_query_does():
    """``compile`` expands the views a term names, an update program's
    victims included; each run plans the expanded program afresh."""
    db = _db()
    db.define("Big", "select distinct c from c in Cities where c.population > 3000")
    program = update_where("Big", "c", None, [add_to_field("hotel_count", const(1))])
    assert [len(db.run_calculus(program)) for _ in range(2)] == [3, 3]
    assert db.run("sum(select c.hotel_count from c in Cities)") == 7 + 6


def test_a_write_is_counted_by_telemetry():
    db = _db()
    registry = db.enable_telemetry(MetricsRegistry())
    db.run_calculus(update_where("Cities", "c", None, [add_to_field("hotel_count", const(1))]))
    assert registry.value("repro_queries_total", engine="algebra", status="ok") == 1
    assert len(registry.fingerprints) == 1


def test_verify_mode_applies_each_effect_once(monkeypatch):
    checks: list = []
    check = Runtime.check

    def counting(self, value, term, binding):
        checks.append(term)
        return check(self, value, term, binding)

    monkeypatch.setattr(Runtime, "check", counting)
    db = _db()
    before = db.run("sum(select c.hotel_count from c in Cities)")
    program = update_where("Cities", "c", None,
                           [add_to_field("hotel_count", const(1)), set_field("state", const("ID"))])
    with verification(True):
        touched = run_update(program, db.evaluator())
    assert len(touched) == N_CITIES
    assert db.run("sum(select c.hotel_count from c in Cities)") == before + N_CITIES
    assert checks  # the operands were checked, each effect applied once
    assert not any(isinstance(term, (Update, Assign)) for term in checks)


# -- what is planned ----------------------------------------------------------------------


def _victims(pred=None):
    quals = [Generator("c", Var("Cities"))] + ([Filter(pred)] if pred is not None else [])
    return Comprehension(MonoidRef("set"), Var("c"), tuple(quals))


def _program(*quals):
    return Comprehension(MonoidRef("set"), Var("c"), (Generator("c", _victims()), *quals))


BUMP = Filter(Update(Var("c"), "hotel_count", "+=", const(1)))


def _total_count():
    """``sum{ d.hotel_count | d <- Cities }``: 7 at the start, which a
    filter before the generator tests once and a pushed-down one per row."""
    return Comprehension(
        MonoidRef("sum"), proj(var("d"), "hotel_count"), (Generator("d", Var("Cities")),)
    )


@pytest.mark.parametrize("program", [
    pytest.param(Comprehension(MonoidRef("set"), New(var("c")), (Generator("c", _victims()),)),
                 id="new-in-head"),
    pytest.param(Comprehension(MonoidRef("set"), Var("c"), (BUMP, Generator("c", _victims()))),
                 id="effect-before-a-generator"),
    pytest.param(Comprehension(MonoidRef("set"), Var("c"), (
        Generator("c", _victims()),
        Filter(BinOp("and", Update(Var("c"), "hotel_count", "+=", const(1)), const(True))),
    )), id="effect-inside-a-filter"),
    pytest.param(_program(Filter(Update(Var("c"), "hotel_count", "+=", New(const(1))))),
                 id="effectful-operand"),
    pytest.param(Comprehension(MonoidRef("set"), Var("c"), (
        Filter(lt(_total_count(), const(10))), Generator("c", _victims()), BUMP,
    )), id="filter-before-the-generator"),
    pytest.param(_program(Generator("d", _victims()), BUMP), id="two-generators"),
])
def test_what_no_plan_takes_still_runs_on_the_interpreter(program):
    with pytest.raises(PlanError):
        build_plan(program)
    got, want, compiled, reference = _both(program)
    assert got == want
    assert compiled.store.snapshot() == reference.store.snapshot()


def _with_hotels(n_hotels: int) -> Database:
    db = Database(travel_schema())
    rows = _rows()
    for row in rows:
        row["hotels"] = {Record(name=f"h{j}") for j in range(n_hotels)}
    db.load_objects("Cities", "City", rows)
    return db


@pytest.mark.parametrize("second", [
    pytest.param(Generator("h", _c("hotels")), id="dependent"),
    pytest.param(Generator("d", Var("Cities")), id="independent"),
])
def test_a_filter_under_a_second_generator_sees_the_earlier_effects(second):
    """The interpreter tests ``c.hotel_count < 3`` once per (c, h) pair,
    after the earlier pairs' increments: a city starting at 0 stops at 3.
    Pushed down to ``Scan c`` — or into a Join's materialised input — it
    would be tested ahead of them, and the city would end at 5 or 6."""
    program = Comprehension(MonoidRef("set"), Var("c"), (
        Generator("c", Var("Cities")),
        second,
        Filter(lt(_c("hotel_count"), const(3))),
        BUMP,
    ))
    with pytest.raises(PlanError):
        build_plan(program)
    compiled, reference = _with_hotels(5), _with_hotels(5)
    assert run_update(program, compiled.evaluator()) == reference.evaluator().evaluate(program)
    assert compiled.store.snapshot() == reference.store.snapshot()
    assert compiled.run("select distinct c.hotel_count from c in Cities") == frozenset({3})


def test_filters_keep_their_side_of_an_effect():
    after = gt(_c("hotel_count"), const(2))
    plan = build_plan(_program(Filter(gt(_c("population"), const(0))), BUMP, Filter(after)))
    top = plan.child
    assert isinstance(top, SelectOp) and top.pred == after
    assert top.child.pred == BUMP.pred and "Effect" in top.child.label()
    verify_plan(plan)
    check_plan_rewrite("optimizer", plan, plan)


def test_plan_check_rejects_a_filter_moved_ahead_of_an_effect():
    after = gt(_c("hotel_count"), const(2))
    plan = build_plan(_program(BUMP, Filter(after)))
    effect = plan.child.child
    moved = Reduce(plan.monoid, plan.head, SelectOp(SelectOp(effect.child, after), effect.pred))
    verify_plan(moved)  # well-scoped on its own
    with pytest.raises(VerificationError, match="past an effect"):
        check_plan_rewrite("optimizer", plan, moved)


def test_plan_check_rejects_an_effect_off_its_reduce():
    """An effect below an Unnest would run once per hotel, not per city."""
    cities = Scan("c", Var("Cities"))
    effect = SelectOp(cities, BUMP.pred)
    plan = Reduce(MonoidRef("set"), Var("c"), Unnest(effect, "h", _c("hotels")))
    with pytest.raises(VerificationError, match="plan-effect"):
        verify_plan(plan)


def test_explain_of_an_update_shows_the_sub_plan_and_the_effect():
    program = update_where("Cities", "c", eq(_c("name"), const("C1")),
                           [add_to_field("hotel_count", const(1))])
    text = render_explain({"oql": str(program), "plan": plan_to_dict(build_plan(program))})
    lines = [line.split("  est~")[0].strip() for line in text.splitlines()[1:]]
    assert lines == [
        "Reduce set{ c }",
        "Effect (c.hotel_count += 1)",
        "Scan c <- set{ c | c <- Cities, (c.name = 'C1') }",
        "Reduce set{ c }",
        "Select (c.name = 'C1')",
        "Scan c <- Cities",
    ]


def test_db_explain_of_an_update_shows_the_plan_that_runs():
    """The plan ``run_calculus`` executes: binders numbered, literals
    lifted into the parameters its run binds."""
    program = update_where("Cities", "c", eq(_c("name"), const("C1")),
                           [add_to_field("hotel_count", const(1))])
    db = _db()
    text = db.explain(program)
    lines = [line.split("  est~")[0].strip() for line in text.splitlines() if "est~" in line]
    assert lines == [
        "Reduce set{ ~0 }",
        "Effect (~0.hotel_count += $~1)",
        "Scan ~0 <- set{ ~1 | ~1 <- Cities, (~1.name = $~0) }",
        "Reduce set{ ~1 }",
        "Select (~1.name = $~0)",
        "Scan ~1 <- Cities",
    ]
    assert db.explain_data(program)["engine"] == "algebra"
    assert db.run("sum(select c.hotel_count from c in Cities)") == 7  # EXPLAIN wrote nothing


@pytest.mark.parametrize("route", ["run_update", "run_calculus"])
def test_programs_differing_in_literals_share_one_function(route):
    db = _db(400)
    programs = [
        update_where("Cities", "c", eq(_c("name"), const(f"C{i}")),
                     [add_to_field("hotel_count", const(i % 3))])
        for i in range(400)
    ]
    run = db.run_calculus if route == "run_calculus" else (
        lambda program: run_update(program, db.evaluator()))
    code_before = len(jit_plan._CODE)
    touched = [run(program) for program in programs]
    assert all(len(t) == 1 for t in touched)
    assert len(jit_plan._CODE) - code_before <= 1
    assert db.run("sum(select c.hotel_count from c in Cities)") == sum(
        i % 4 + i % 3 for i in range(400))


# -- the heap's lookup ------------------------------------------------------------------------


def test_a_lookup_taken_before_restore_reads_the_restored_heap():
    store = ObjectStore()
    obj = store.new(Record(n=1))
    lookup = store.lookup
    saved = store.snapshot()
    store.assign(obj, Record(n=2))
    assert lookup(obj.oid) == Record(n=2)
    store.restore(saved)
    assert lookup(obj.oid) == Record(n=1) == store.deref(obj)
    store.restore(store.snapshot())  # restoring the heap's own copy keeps it
    assert lookup(obj.oid) == Record(n=1)


@pytest.mark.parametrize("state, message", [
    (None, "dangling OID"),
    (5, "cannot project field 'n' from int"),
    (Record(m=1), "record has no field 'n'"),
])
def test_an_inline_dereference_fails_as_the_interpreter_does(state, message):
    ev = Evaluator()
    obj = ev.store.new(state)
    if state is None:
        ev.store.delete(obj)
    ev.bind_global("Objs", (obj,))
    term = Comprehension(MonoidRef("bag"), proj(var("o"), "n"), (Generator("o", Var("Objs")),))
    errors = []
    for run in (lambda: Executor(ev).execute(build_plan(term)), lambda: ev.evaluate(term)):
        with pytest.raises(ReproError, match=message) as caught:
            run()
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
