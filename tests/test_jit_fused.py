"""The generated function against the reference evaluator.

Every execution of a plan runs its one generated Python function
(``repro.jit.plan``): plain, or — in verify mode — its checked variant,
which re-runs every operator-position expression on the interpreter. The
two must be one executor to an observer: the same
value and type, the same exception class and message (which row's error
comes first included), the same ``ExecutionStats`` and per-node counts,
the same final heap — and the reference evaluator's value.
"""

from __future__ import annotations

import traceback

import pytest
from hypothesis import given, settings

from repro.algebra import Executor, IndexScan, Join, Nest, Reduce, Scan, SelectOp, Unnest
from repro.algebra import Optimizer, build_plan
from repro.analysis.verifier import verification
from repro.cache import CacheConfig
from repro.calculus import comp, const, eq, filt, gen, gt, proj, var
from repro.calculus.ast import (
    BinOp,
    Const,
    Lambda,
    Let,
    MonoidRef,
    New,
    RecordCons,
    TupleCons,
    Update,
)
from repro.db import (
    Database,
    company_schema,
    demo_company_database,
    make_company,
    make_travel_agency,
    travel_schema,
)
from repro.errors import EvaluationError, PlanError, ReproError, VerificationError
from repro.eval import Evaluator
from repro.jit import Runtime
from repro.jit.plan import fused, pipeline_source, precompile_plan
from repro.normalize import normalize
from repro.obs.metrics import PlanMetrics
from repro.oql import translate_oql
from repro.values import Bag, Record, Vector
from tests.data.make_exec_stats_golden import queries
from tests.data.make_plans_golden import grouped_queries
from tests.test_normalize_property import _term_and_data
from tests.test_property_queries import _database, _query

#: each way of running a plan: in verify mode or not
WAYS = {
    "checked": True,
    "fused": False,
}

#: a compile cache keeps every compiled plan, results off
KEPT = {"cache": CacheConfig(results=False)}


def counts(metrics: PlanMetrics, plan: Reduce) -> list[tuple]:
    """Every node's counters, in plan order."""
    return [
        (type(node).__name__, b.rows_out, b.hash_builds, b.index_probes)
        for node, b in metrics.blocks(plan)
    ]


def profiled(db, oql):
    """``oql``'s result with session tracing on."""
    db.profile(True)
    try:
        return db.run_detailed(oql)
    finally:
        db.profile(False)


def outcome(run) -> tuple:
    """A value and its type, or an exception's class and message."""
    try:
        value = run()
    except ReproError as exc:
        return ("raised", type(exc), str(exc))
    return ("value", type(value), value)


def every_way(make_plan, make_evaluator, indexes=None, checked=True):
    """Run a plan every way, each on a fresh plan and world; all must agree.
    Returns the common observation. ``checked=False`` leaves verify mode
    out: its per-row differential re-runs every expression, heap effects
    included."""
    seen = {}
    for way, verify in WAYS.items():
        if verify and not checked:
            continue
        plan, evaluator = make_plan(), make_evaluator()
        with verification(verify):
            executor = Executor(evaluator, indexes)
        seen[way] = outcome(lambda: executor.execute(plan))  # noqa: B023
        if seen[way][0] == "value":
            seen[way] += (counts(executor.metrics, plan),)
        seen[way] += (evaluator.store.snapshot(),)
        assert fused(plan, verify) is not None, pipeline_source(plan, verify)
    assert all(observed == seen["fused"] for observed in seen.values()), seen
    return seen["fused"]


def term_ways(term, data):
    """:func:`every_way` of ``term``'s plan, and the reference evaluator."""
    seen = every_way(lambda: build_plan(term), lambda: Evaluator(data))
    assert seen[:3] == outcome(lambda: Evaluator(data).evaluate(term)), term
    return seen


# -- the corpora of the goldens ----------------------------------------------------


def _corpus():
    on = [*queries(KEPT), *grouped_queries(KEPT)]
    off = [*queries({}), *grouped_queries({})]
    for (label, db, oql, run_on), (_, _, _, run_off) in zip(on, off):
        yield pytest.param(db, oql, run_on, run_off, id=label)


@pytest.mark.parametrize("db, oql, run_on, run_off", _corpus())
def test_golden_corpus_against_reference(db, oql, run_on, run_off):
    off, on = run_off(), run_on()  # compiled afresh, then from a compile cache
    assert type(on.value) is type(off.value) and on.value == off.value
    if "$" not in oql:
        assert db.run(oql, engine="interpret") == on.value
    if on.plan is None:
        assert off.plan is None
        return
    assert on.jit is not None and off.jit is not None  # the function ran, both times
    assert on.stats == off.stats
    assert counts(on.metrics, on.plan) == counts(off.metrics, off.plan)
    if "$" not in oql:
        traced = profiled(db, oql)  # the same function, traced
        assert traced.value == on.value and db.query_log.entries[-1]["engine"] == "algebra"
        assert counts(traced.metrics, traced.plan) == counts(on.metrics, on.plan)


@pytest.mark.parametrize("db, oql, run_on, run_off", _corpus())
def test_golden_corpus_checked_variant(db, oql, run_on, run_off):
    """Verify mode runs each plan's checked function, never a fallback:
    the same value, stats and per-node counts as the unchecked one."""
    plain = run_on()
    with verification(True):
        checked = run_on()
    assert type(checked.value) is type(plain.value) and checked.value == plain.value
    if plain.plan is None:
        assert checked.plan is None
        return
    assert fused(checked.plan, True) is not None, pipeline_source(checked.plan, True)
    assert checked.jit is not None
    assert checked.stats == plain.stats
    assert counts(checked.metrics, checked.plan) == counts(plain.metrics, plain.plan)


def test_prepared_params_reach_the_generated_function():
    db = demo_company_database(4, 40, seed=3)
    oql = "select e.name from e in Employees where e.salary > $floor and e.dno = $dno"
    want = {
        (floor, dno): db.run(oql.replace("$floor", str(floor)).replace("$dno", str(dno)))
        for floor in (0, 60_000)
        for dno in (0, 1)
    }
    prepared = db.prepare(oql)  # kept: it has code, cache or no cache
    for _ in range(2):  # the second round runs the cached plan's function
        for (floor, dno), value in want.items():
            result = prepared.run_detailed(floor=floor, dno=dno)
            assert result.value == value and fused(result.plan) is not None
    assert "_lookup('$floor')" in pipeline_source(result.plan)


# -- experiment J1's workloads ----------------------------------------------------

#: Two predicate-heavy plans (a deep arithmetic filter on one extent, a
#: correlated multi-conjunct filter under two unnests) and two where row
#: plumbing, not expression evaluation, dominated.
J1 = {
    "scan-pred": ("company", (
        "sum(select 1 from e in Employees where "
        "(e.salary * 3 + e.age * 2 - e.dno) mod 7 < 5 and "
        "e.salary + e.age * e.dno > 10000 and "
        "(e.age - 20) * (e.age - 20) < 2000 and e.dno * e.dno >= 0 and "
        "(e.salary div 100 + e.age * 3) mod 11 != 5 and "
        "e.salary * 2 - e.age * e.dno + 17 > 0)"
    )),
    "unnest-pred": ("travel", (
        "sum(select 1 from c in Cities, h in c.hotels, r in h.rooms where "
        "r.price * 2 + r.beds * 10 > 300 and "
        "(r.price - 50) * (r.beds + 1) < 9000 and r.price mod 7 != 3 and "
        "(r.beds * r.beds + r.price div 10) mod 5 < 4 and "
        "r.price + r.beds * 3 - 7 > 60 and h.stars * 20 + r.price > 100 and "
        "(r.price * r.beds + h.stars) mod 13 != 6 and "
        "r.beds * 2 + h.stars * 3 > 4)"
    )),
    "cheap-pred": ("company", "sum(select 1 from e in Employees where e.salary > 40000)"),
    "record-head": ("company", (
        "select struct(n: e.name, s: e.salary + e.age) "
        "from e in Employees where e.salary > 30000"
    )),
}


@pytest.mark.parametrize("workload", list(J1))
def test_shape_fused(workload):
    """Each runs as one generated function with every expression compiled,
    plain and checked alike, counter for counter."""
    schema, oql = J1[workload]
    world = _j1_world(schema)
    make_plan = lambda: build_plan(normalize(translate_oql(oql)))  # noqa: E731
    every_way(make_plan, lambda: Evaluator(world))
    report = precompile_plan(make_plan())
    assert report["fallback"] == 0 and report["compiled"] > 0


@pytest.mark.parametrize("run", ["first", "second"])
@pytest.mark.parametrize("workload", list(J1))
def test_jit_series(workload, run):
    """J1 through ``Database.run``: from a query's first run, the plan that
    runs is one generated function with nothing left to interpret, and the
    answer is the reference interpreter's."""
    schema, oql = J1[workload]
    db = Database(company_schema() if schema == "company" else travel_schema(),
                  cache=False, parallel=False)
    db.load_extents(_j1_world(schema))
    result = db.run_detailed(oql)
    if run == "second":
        result = db.run_detailed(oql)
    assert result.value == db.run(oql, engine="interpret")
    assert fused(result.plan) is not None
    assert result.jit["fallback"] == 0 and result.jit["compiled"] > 0


def _j1_world(schema):
    if schema == "company":
        return make_company(20, 200, seed=3)
    return make_travel_agency(6, 4, 6, seed=3)


# -- generated queries ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(case=_term_and_data())
def test_random_comprehensions(case):
    term_ways(*case)


@settings(max_examples=60, deadline=None)
@given(query=_query(), db=_database())
def test_random_oql(query, db):
    db.disable_cache()  # every run executes (REPRO_CACHE=1 would serve the repeats)
    want = db.run_detailed(query)
    got = db.run_detailed(query)  # its code from the code cache
    traced = profiled(db, query)
    assert got.value == want.value == traced.value == db.run(query, engine="interpret"), query
    if got.plan is None:  # count(...) of a select is the interpreter's
        return
    assert got.stats == want.stats == traced.stats, query
    assert counts(got.metrics, got.plan) == counts(traced.metrics, traced.plan), query
    assert want.jit is not None and got.jit is not None, query


# -- hand-built plans: every template, every check ------------------------------------

ROWS = (
    Record(k=1, x=10, tags=("a", "b")),
    Record(k=2, x=20, tags=()),
    Record(k=1, x=30, tags=("c",)),
)
OTHER = frozenset({Record(k=1, y="p"), Record(k=1, y="q"), Record(k=3, y="r")})
WORLD = {"Ls": ROWS, "Rs": OTHER, "x": "a global", "scale": 2}


def world(**more):
    return lambda: Evaluator({**WORLD, **more})


def k(name):
    return proj(var(name), "k")


class TestTemplates:
    def test_indexed_scan_and_unnest(self):
        plan = lambda: Reduce(
            MonoidRef("list"),
            TupleCons((var("i"), var("j"), var("t"))),
            Unnest(Scan("a", var("Ls"), index_var="i"), "t", proj(var("a"), "tags"), "j"),
        )
        seen = every_way(plan, world())
        assert seen[2] == ((0, 0, "a"), (0, 1, "b"), (2, 0, "c"))

    def test_vector_source_with_and_without_positions(self):
        v = Vector.from_dense([7, 8, 9])
        for index_var, head in (("i", TupleCons((var("i"), var("e")))), (None, var("e"))):
            scan = Scan("e", var("V"), index_var)
            every_way(lambda: Reduce(MonoidRef("list"), head, scan), world(V=v))  # noqa: B023

    def test_indexed_scan_of_an_unordered_source(self):
        plan = lambda: Reduce(MonoidRef("sum"), var("i"), Scan("b", var("Rs"), "i"))
        seen = every_way(plan, world())
        assert seen[:2] == ("raised", EvaluationError) and "ordered collection" in seen[2]

    def test_scan_of_a_non_collection(self):
        plan = lambda: Reduce(MonoidRef("sum"), var("n"), Scan("n", var("scale")))
        assert every_way(plan, world())[0] == "raised"

    def test_object_sources_are_dereferenced(self):
        def evaluator():
            ev = Evaluator(WORLD)
            ev.bind_global("Box", ev.store.new((1, 2, 3)))
            ev.bind_global("Boxes", tuple(ev.store.new(Record(xs=(n, n))) for n in (4, 5)))
            return ev

        every_way(lambda: Reduce(MonoidRef("sum"), var("n"), Scan("n", var("Box"))), evaluator)
        nested = lambda: Reduce(
            MonoidRef("sum"),
            var("n"),
            Unnest(Scan("o", var("Boxes")), "n", proj(var("o"), "xs")),
        )
        assert every_way(nested, evaluator)[2] == 18

    def test_a_plan_variable_shadows_a_global(self):
        # ``x`` is a global and the Scan's variable; ``scale`` only a global.
        plan = lambda: Reduce(
            MonoidRef("list"),
            BinOp("*", proj(var("x"), "x"), var("scale")),
            SelectOp(Scan("x", var("Ls")), gt(proj(var("x"), "x"), const(10))),
        )
        seen = every_way(plan, world())
        assert seen[2] == (40, 60)
        assert "_lookup('scale')" in pipeline_source(plan())
        assert "_lookup('x')" not in pipeline_source(plan())

    def test_fallback_subterm_reads_two_plan_variables(self):
        # Let is outside the fragment: the interpreter is handed both locals.
        head = BinOp("+", Let("z", proj(var("a"), "x"), BinOp("+", var("z"), k("b"))), const(1))
        plan = lambda: Reduce(
            MonoidRef("bag"),
            head,
            Join(Scan("a", var("Ls")), Scan("b", var("Rs")), (k("a"),), (k("b"),)),
        )
        seen = every_way(plan, world())
        assert seen[2] == Bag([12, 12, 32, 32])
        assert "_fallback(" in pipeline_source(plan())

    def test_closure_valued_heads_keep_their_row(self):
        plan = lambda: Reduce(
            MonoidRef("list"),
            Lambda("v", BinOp("+", var("v"), proj(var("a"), "x"))),
            Scan("a", var("Ls")),
        )
        evaluator = Evaluator(WORLD)
        with verification(False):  # two closures never compare equal
            compiled = plan()
            fused(compiled)
            closures = Executor(evaluator).execute(compiled)
        assert [evaluator.apply_callable(fn, 1) for fn in closures] == [11, 21, 31]

    @pytest.mark.parametrize("keys", [1, 2], ids=["one-key", "two-keys"])
    def test_hash_join_of_a_join(self, keys):
        # The build side binds two variables; one of them again on the left.
        right = lambda: Join(Scan("b", var("Rs")), Scan("a", var("Ls")), (k("b"),), (k("a"),))
        left_keys = (k("c"), proj(var("c"), "x"))[:keys]
        right_keys = (k("b"), proj(var("a"), "x"))[:keys]
        plan = lambda: Reduce(
            MonoidRef("bag"),
            TupleCons((proj(var("c"), "x"), proj(var("a"), "x"), proj(var("b"), "y"))),
            Join(Scan("c", var("Ls")), right(), left_keys, right_keys),
        )
        seen = every_way(plan, world())
        assert len(seen[2]) == (8 if keys == 1 else 4)

    def test_loop_join_over_an_empty_side_still_drains_the_other(self):
        plan = lambda: Reduce(
            MonoidRef("sum"), const(1), Join(Scan("a", var("Ls")), Scan("b", var("None_")))
        )
        seen = every_way(plan, world(None_=()))
        assert seen[2] == 0 and ("Scan", 3, 0, 0) in seen[3]

    @pytest.mark.parametrize("keyed", [True, False], ids=["hash", "loop"])
    def test_join_residual_takes_the_select_test(self, keyed):
        keys = ((k("a"),), (k("b"),)) if keyed else ((), ())

        def plan(residual):
            return lambda: Reduce(
                MonoidRef("bag"),
                proj(var("b"), "y"),
                Join(Scan("a", var("Ls")), Scan("b", var("Rs")), *keys, residual=residual),
            )

        kept = every_way(plan(eq(proj(var("b"), "y"), const("p"))), world())
        assert kept[2] == Bag(["p", "p"] if keyed else ["p", "p", "p"])
        seen = every_way(plan(const(1)), world())  # truthy is not True
        assert seen[:2] == ("raised", EvaluationError)
        assert seen[2] == "qualifier predicate requires a boolean, got int: 1"

    def test_index_scan_with_and_without_its_index(self):
        probe = IndexScan("a", "Ls", "k", const(1))
        plan = lambda: Reduce(MonoidRef("sum"), proj(var("a"), "x"), probe)
        index = {("Ls", "k"): {1: [ROWS[0], ROWS[2]], 2: [ROWS[1]]}}
        seen = every_way(plan, world(), index)
        assert seen[2] == 40 and seen[3][1] == ("IndexScan", 2, 0, 1)
        assert every_way(plan, world())[2] == "no index on Ls.k for IndexScan"

    def test_nest_with_a_fold_predicate_under_a_having(self):
        folds = (
            ("n", MonoidRef("sum"), const(1), None),
            ("big", MonoidRef("list"), proj(var("a"), "x"), gt(proj(var("a"), "x"), const(10))),
            ("none", MonoidRef("max"), proj(var("a"), "x"), const(False)),
        )
        plan = lambda: Reduce(
            MonoidRef("list"),
            RecordCons(
                (("k", var("key")), ("n", var("n")), ("big", var("big")), ("m", var("none")))
            ),
            SelectOp(Nest(Scan("a", var("Ls")), (("key", k("a")),), folds), gt(var("n"), const(0))),
        )
        seen = every_way(plan, world())
        assert seen[2] == (
            Record(k=1, n=2, big=(30,), m=None),
            Record(k=2, n=1, big=(20,), m=None),
        )

    def test_nest_fold_predicate_must_be_boolean(self):
        folds = (("n", MonoidRef("sum"), const(1), proj(var("a"), "x")),)
        plan = lambda: Reduce(
            MonoidRef("list"), var("n"), Nest(Scan("a", var("Ls")), (("key", k("a")),), folds)
        )
        assert every_way(plan, world())[2].startswith("qualifier predicate requires a boolean")

    @pytest.mark.parametrize(
        "monoid",
        [
            MonoidRef("vec", element=MonoidRef("sum"), size=Const(3)),
            MonoidRef("sorted", key=Lambda("p", proj(var("p"), 0))),
            MonoidRef("oset"),
            MonoidRef("max"),
            MonoidRef("nonesuch"),
        ],
        ids=str,
    )
    def test_reduce_monoids(self, monoid):
        head = TupleCons((proj(var("a"), "x"), BinOp("-", k("a"), const(1))))
        every_way(lambda: Reduce(monoid, head, Scan("a", var("Ls"))), world())

    def test_vector_head_must_be_a_pair(self):
        monoid = MonoidRef("vec", element=MonoidRef("sum"), size=Const(3))
        plan = lambda: Reduce(monoid, proj(var("a"), "x"), Scan("a", var("Ls")))
        assert "vector comprehension head" in every_way(plan, world())[2]


class TestErrorOrder:
    """Rows are visited, and their expressions evaluated, in one order
    everywhere: the first error of the reference is the error."""

    BAD = (
        Record(k=1, x=10),
        Record(k=2, x="twenty"),  # the predicate cannot compare it
        Record(k=3),  # the predicate cannot project it
        Record(k=4, x=True),
    )

    @pytest.mark.parametrize("first", [0, 1, 2, 3])
    def test_first_failing_row_wins(self, first):
        rows = self.BAD[first:] + self.BAD[:first]
        term = comp(
            "list",
            BinOp("+", proj(var("r"), "x"), const(1)),
            [gen("r", var("Rows")), filt(gt(proj(var("r"), "x"), const(5)))],
        )
        seen = term_ways(term, {"Rows": rows})
        assert seen[0] == "raised"

    def test_build_side_runs_before_the_probe_side(self):
        # Both sides fail; the Join opens (and drains) its right input first.
        plan = lambda: Reduce(
            MonoidRef("sum"),
            const(1),
            Join(
                SelectOp(Scan("a", var("Ls")), proj(var("a"), "left_missing")),
                SelectOp(Scan("b", var("Rs")), proj(var("b"), "right_missing")),
                (k("a"),),
                (k("b"),),
            ),
        )
        assert "right_missing" in every_way(plan, world())[2]

    def test_conjuncts_are_tested_in_source_order(self):
        term = comp(
            "sum",
            const(1),
            [
                gen("r", var("Rows")),
                filt(gt(proj(var("r"), "k"), const(1))),
                filt(gt(proj(var("r"), "x"), const(5))),
            ],
        )
        assert term_ways(term, {"Rows": self.BAD[:2]})[2].startswith("cannot compare str > int")
        assert term_ways(term, {"Rows": self.BAD[:1]})[2] == 0


class TestHeapEffects:
    """§4.2: update heads run once per row, in row order, on every path."""

    @staticmethod
    def heap():
        ev = Evaluator()
        ev.bind_global("Objs", tuple(ev.store.new(Record(n=n, log=())) for n in (1, 2, 3)))
        return ev

    def test_update_in_the_head(self):
        head = Update(var("o"), "n", "+=", const(10))
        plan = lambda: Reduce(MonoidRef("all"), head, Scan("o", var("Objs")))
        seen = every_way(plan, self.heap, checked=False)
        assert [state["n"] for state in seen[-1].values()] == [11, 12, 13]

    def test_update_as_a_predicate_and_allocation_in_the_head(self):
        plan = lambda: Reduce(
            MonoidRef("list"),
            New(proj(var("o"), "n")),
            SelectOp(Scan("o", var("Objs")), Update(var("o"), "log", "+=", proj(var("o"), "n"))),
        )
        seen = every_way(plan, self.heap, checked=False)
        assert len(seen[-1]) == 6 and seen[-1][2]["log"] == (2,)

    def test_an_error_midway_leaves_the_same_heap(self):
        # The third row's update fails after two have been applied.
        def heap():
            ev = TestHeapEffects.heap()
            ev.store.assign(ev.global_env.lookup("Objs")[2], Record(n=None, log=()))
            return ev

        head = Update(var("o"), "n", "+=", const(10))
        plan = lambda: Reduce(MonoidRef("all"), head, Scan("o", var("Objs")))
        seen = every_way(plan, heap, checked=False)
        assert seen[0] == "raised" and seen[-1][1]["n"] == 11 and seen[-1][3]["n"] is None


# -- verify mode checks the code that runs ----------------------------------------------------

SALARIES = "sum(select e.salary from e in Employees where e.salary > 50000)"


class TestVerifyChecksTheGeneratedFunction:
    @pytest.fixture
    def db(self):
        db = Database(company_schema(), parallel=False, cache=CacheConfig(results=False))
        db.load_extents(make_company(4, 60, seed=11))
        return db

    @pytest.fixture
    def wrong_constants(self, monkeypatch):
        """An emitter that writes every constant as 0: the predicate's."""
        from repro.calculus.ast import Const as ConstTerm
        from repro.jit import compiler

        monkeypatch.setitem(compiler._EMITTERS, ConstTerm, lambda self, term, scope: "0")

    def test_honest_emission_passes(self, db):
        with verification(True):
            result = db.run_detailed(SALARIES)
        assert result.value == db.run(SALARIES, engine="interpret")
        assert "_check(" in pipeline_source(result.plan, checked=True)
        assert "_check(" not in pipeline_source(result.plan)

    def test_wrong_emission_is_caught(self, db, wrong_constants):
        with verification(True), pytest.raises(VerificationError, match="jit-compile"):
            db.run(SALARIES)

    def test_a_correct_nan_is_not_a_difference(self, db):
        big = "1" + "0" * 308 + ".0"
        nan = f"e.salary * {big} * 10.0 - e.salary * {big} * 10.0"  # inf - inf
        with verification(True):
            for head in (nan, f"struct(x: {nan})", f"struct(x: 1, y: {nan}).x"):
                assert len(db.run(f"select {head} from e in Employees")) == 60
        with pytest.raises(VerificationError):  # a NaN is still not a number
            Runtime(Evaluator()).check(float("nan"), const(1.0), {})

    def test_without_verify_the_wrong_function_is_what_runs(self, db, wrong_constants, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        unfiltered = "sum(select e.salary from e in Employees where e.salary > 0)"
        interpreted = db.run(SALARIES, engine="interpret")
        assert db.run(SALARIES) == db.run(unfiltered, engine="interpret") != interpreted


# -- observability ---------------------------------------------------------------------------


class TestObservability:
    def test_source_is_one_function_over_locals(self):
        db = demo_company_database(4, 40, seed=3)
        plan = db.compile(
            "select struct(e: e.name, d: d.name) from e in Employees, d in Departments "
            "where e.dno = d.dno"
        ).plan
        source = pipeline_source(plan)
        assert source.startswith("def pipeline(rt, indexes, blocks, monoid):")
        assert source.count("\n    for ") == 2 and source.count("\n        for ") == 1
        assert "{**" not in source and "b[" not in source  # a row is never a dict
        compile(source, "<test>", "exec")

    def test_traceback_shows_the_generated_line(self):
        plan = Reduce(MonoidRef("sum"), proj(var("n"), "missing"), Scan("n", const((1, 2))))
        precompile_plan(plan)
        with pytest.raises(EvaluationError) as info:
            Executor(Evaluator()).execute(plan)
        text = "".join(traceback.format_exception(info.value))
        assert "<repro.jit pipeline" in text and "_project(" in text

    def test_source_stays_while_its_code_is_cached(self, monkeypatch):
        import gc
        import linecache

        from repro.jit import plan as jit_plan

        monkeypatch.setattr(jit_plan, "CODE_CACHE_SIZE", 1)
        plan = Reduce(MonoidRef("sum"), var("n"), Scan("n", const((1, 2))))
        filename = fused(plan).__code__.co_filename
        del plan
        gc.collect()
        assert filename in linecache.cache  # the function is shared: the cache holds it
        fused(Reduce(MonoidRef("sum"), var("n"), Scan("n", const((3,)))))  # evicts it
        assert filename not in linecache.cache

    def test_jit_report_and_counters_are_per_expression(self):
        db = demo_company_database(4, 40, seed=3)
        db.disable_cache()
        oql = "select e.name from e in Employees where exists s in e.skills : s = 'oql'"
        db.run(oql)
        result = db.run_detailed(oql)
        assert result.jit == {"compiled": 1, "fallback": 1, "constructs": {"Comprehension": 1}}


# -- robustness --------------------------------------------------------------------------------


class TestPlansPythonWillNotCompile:
    GENERATORS = 24

    @pytest.fixture
    def db(self):
        db = Database(company_schema(), parallel=False, cache=CacheConfig(results=False))
        db.load_extents(make_company(2, 4, seed=1))
        db.load_extent("Ones", (1,), monoid="list")
        db.load_extent("Twos", (1, 2), monoid="list")
        return db

    def oql(self) -> str:
        names = [f"x{i}" for i in range(self.GENERATORS)]
        froms = ", ".join(f"{n} in {'Twos' if i % 8 == 0 else 'Ones'}" for i, n in enumerate(names))
        return f"select {' + '.join(names)} from {froms}"

    def refused(self, db) -> None:
        """The plan gets no code: ``compile`` drops it, ``auto`` answers on
        the reference evaluator, and executing the plan raises."""
        entry = db.compile(self.oql())
        assert entry.plan is None
        logical = build_plan(entry.normalized, pre_normalize=False)
        plan = Optimizer(db.catalog.index_keys()).optimize(logical)
        assert fused(plan) is None and pipeline_source(plan) == ""
        result = db.run_detailed(self.oql())
        assert result.engine == "interpret" and result.plan is None and result.jit is None
        assert result.value == db.run(self.oql(), engine="interpret")
        assert len(result.value) == 8
        with pytest.raises(PlanError, match="cannot be compiled"):
            Executor(db.evaluator(), db.catalog.index_mappings()).execute(plan)

    def test_more_generators_than_python_nests_loops(self, db):
        self.refused(db)

    def test_a_syntax_error_from_compile_is_not_an_error(self, db, monkeypatch):
        from repro.jit import plan as jit_plan

        monkeypatch.setattr(jit_plan, "MAX_LOOPS", 1000)  # let compile() be the judge
        self.refused(db)

    def test_an_expression_deeper_than_the_parser_takes(self):
        head = var("n")
        for _ in range(150):
            head = BinOp("+", head, const(1))
        plan = Reduce(MonoidRef("list"), head, Scan("n", const((1, 2))))
        assert fused(plan) is None
        with pytest.raises(PlanError):
            Executor(Evaluator()).execute(plan)
        term = comp("list", head, [gen("n", const((1, 2)))])
        assert Evaluator().evaluate(term) == (151, 152)
