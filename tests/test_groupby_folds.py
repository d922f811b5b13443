"""Nest as the paper's Γ: which aggregates of a ``group by`` become folds
of the grouping pass, which must stay in the head, and parity of the
result with the reference evaluator on every engine and mode."""

from __future__ import annotations

import itertools
import re

import pytest

from repro.algebra.groupby import PARTITION, _FoldMover, build_group_by_plan
from repro.algebra.ops import Nest
from repro.cache.invalidation import plan_terms
from repro.calculus import assign, comp, deref, gen, new, proj, var
from repro.calculus.traversal import subterms
from repro.db import Database, company_schema, make_company, make_travel_agency
from repro.db.sample_data import travel_schema
from repro.errors import EvaluationError, PlanError
from repro.eval.builtins import runtime_monoid_of
from repro.jit import JITConfig
from repro.jit.plan import precompile_plan
from repro.oql import parse
from repro.oql.translate import Translator
from repro.values import Bag, Record

ANALYTICS = (
    "select struct(d: dno, total: sum(select p.salary from p in partition)) "
    "from e in Employees group by dno: e.dno"
)
#: Experiment G1's query: two aggregates over each partition
G1 = (
    "select struct(d: dno, total: sum(select p.salary from p in partition), "
    "n: count(partition)) from e in Employees group by dno: e.dno"
)


def company_db(**modes) -> Database:
    db = Database(company_schema(), **modes)
    db.load_extents(make_company(num_departments=3, num_employees=14, seed=5))
    return db


def travel_db(**modes) -> Database:
    db = Database(travel_schema(), **modes)
    db.load_extents(make_travel_agency(num_cities=4, hotels_per_city=3, seed=2))
    return db


def nest_of(plan) -> Nest:
    (nest,) = [node for node in plan.walk() if isinstance(node, Nest)]
    return nest


def fold_names(plan) -> list[str]:
    return [re.sub(r"~\d+$", "~", fold[0]) for fold in nest_of(plan).folds]


def count_bags_built(monkeypatch) -> list:
    """Every ``Bag`` constructed from here on — an accumulator's ``finish``
    and the bag algebra included — appends to the returned list."""
    built = []
    init = Bag.__init__

    def counting_init(self, items=()):
        built.append(items)
        init(self, items)

    monkeypatch.setattr(Bag, "__init__", counting_init)
    return built


# -- parity battery --------------------------------------------------------------

#: aggregates over the partition; ``{r}`` is the path from a partition
#: element to the grouped row (``p`` with one ``from`` clause, ``p.<var>``
#: with two)
AGGREGATES = {
    "none": [],
    "count": ["count(partition)"],
    "sum": ["sum(select {r}.{num} from p in partition)"],
    "min": ["min(select {r}.{num} from p in partition)"],
    "max_expr": ["max(select {r}.{num} * 2 + {r}.{num2} from p in partition)"],
    "avg": ["avg(select {r}.{num} from p in partition)"],
    "exists": ["exists p in partition: {r}.{num2} > {mid}"],
    "distinct_where": [
        "(select distinct {r}.name from p in partition "
        "where {r}.{num2} > {mid} and {r}.{num} > 0)"
    ],
    "partition": ["partition"],
    "two": ["sum(select {r}.{num} from p in partition)", "count(partition)"],
    "ratio": ["sum(select {r}.{num} from p in partition) / count(partition)"],
    "count_where": ["count(select p from p in partition where {r}.{num2} > {mid})"],
}

FIXTURES = {
    "company": dict(
        make=company_db,
        froms={1: "e in Employees", 2: "e in Employees, d in Departments"},
        join="e.dno = d.dno",
        row={1: "p", 2: "p.e"},
        names=dict(num="salary", num2="age", mid=40),
        keys={
            "one": "dno: e.dno",
            "two": "dno: e.dno, band: e.age div 20",
            "computed": "k: (e.salary div 30000) * 2 + 1",
        },
        where="e.age > 25",
        having="count(partition) > 1",
    ),
    "travel": dict(
        make=travel_db,
        froms={1: "c in Cities", 2: "c in Cities, h in c.hotels"},
        join=None,
        row={1: "p", 2: "p.c"},
        names=dict(num="population", num2="hotel_count", mid=2),
        keys={
            "one": "st: c.state",
            "two": "st: c.state, big: c.population > 400000",
            "computed": "k: c.population div 250000",
        },
        where="c.population > 100000",
        having="max(select {r}.{num} from p in partition) > 300000",
    ),
}


def battery(fixture: dict):
    for n_from, key, (agg, exprs), where, having in itertools.product(
        (1, 2), fixture["keys"], AGGREGATES.items(), (False, True), (False, True)
    ):
        names = dict(fixture["names"], r=fixture["row"][n_from])
        labels = [part.split(":")[0].strip() for part in fixture["keys"][key].split(",")]
        fields = [f"{label}: {label}" for label in labels]
        fields += [f"a{i}: {expr.format(**names)}" for i, expr in enumerate(exprs)]
        conditions = [c for c in (fixture["join"] if n_from == 2 else None,
                                  fixture["where"] if where else None) if c]
        query = f"select struct({', '.join(fields)}) from {fixture['froms'][n_from]}"
        if conditions:
            query += " where " + " and ".join(conditions)
        query += f" group by {fixture['keys'][key]}"
        if having:
            query += " having " + fixture["having"].format(**names)
        yield pytest.param(query, id=f"{n_from}from-{key}-{agg}-w{where:d}-h{having:d}")


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def world(request):
    """The fixture spec and one database per mode row."""
    fixture = FIXTURES[request.param]
    make = fixture["make"]
    return fixture, {
        "none": make(),
        "jit": make(jit=JITConfig()),
    }


class TestParityBattery:
    def test_every_mode_agrees_with_the_reference(self, world):
        fixture, dbs = world
        plain = dbs["none"]
        for param in battery(fixture):
            (query,), label = param.values, param.id
            expected = plain.run(query, engine="interpret")
            detailed = plain.run_detailed(query)
            assert detailed.engine == "algebra" and nest_of(detailed.plan), label
            assert detailed.value == expected, label
            assert plain.run(query, verify=True) == expected, f"{label} [verify]"
            assert dbs["jit"].run(query) == expected, f"{label} [jit]"


# -- what moves --------------------------------------------------------------------


class TestWhatMoves:
    def test_aggregate_becomes_a_fold_and_no_partition_is_built(self, monkeypatch):
        db = company_db(cache=False)  # a result-cache hit would build nothing either
        result = db.run_detailed(ANALYTICS)
        assert fold_names(result.plan) == ["total~"]
        built = count_bags_built(monkeypatch)
        assert db.run(ANALYTICS) == result.value
        assert built == []

    def test_shape_no_bag_is_built_per_group(self, monkeypatch):
        """Experiment G1's query: both aggregates are folds of the grouping
        pass, so executing it constructs no ``Bag`` at all — no partition
        and no bag of salaries, for any group."""
        db = company_db(cache=False)
        expected = db.run(G1)
        built = count_bags_built(monkeypatch)
        assert db.run(G1) == expected
        assert built == []

    def test_shape_nest_reads_the_input_once(self, count_calls):
        """G1, counted: the Nest plan groups in one pass over Employees; the
        nested-comprehension form the interpreter answers re-reads Employees
        for every employee (a partition subquery per row), quadratic work."""
        db = company_db(cache=False)
        employees = db.evaluator().evaluate(var("Employees"))
        result = db.run_detailed(G1)
        assert result.stats.rows_scanned == len(employees)
        sources = count_calls(runtime_monoid_of)
        assert db.run(G1, engine="interpret") == result.value
        assert sum(source is employees for source in sources) > len(employees)

    @pytest.mark.parametrize("engine,size", [
        ("interpret", 50), ("interpret", 200), ("nest", 50), ("nest", 200), ("nest", 800),
    ])
    def test_group_by_series(self, engine, size):
        """G1's points (the quadratic interpreted form stops at 200): each
        engine answers one record per department, its salaries' sum and
        count; the Nest reads Employees once."""
        world = make_company(max(2, size // 10), size, seed=6)
        db = Database(company_schema(), cache=False, parallel=False)
        db.load_extents(world)
        groups = {}
        for e in world["Employees"]:
            groups.setdefault(e.dno, []).append(e.salary)
        result = db.run_detailed(G1, engine="interpret" if engine == "interpret" else "auto")
        assert result.engine == ("interpret" if engine == "interpret" else "algebra")
        assert result.value == frozenset(
            Record(d=dno, total=sum(s), n=len(s)) for dno, s in groups.items()
        )
        assert len(groups) == max(2, size // 10)
        if engine == "nest":
            assert result.stats.rows_scanned == size

    def test_head_returning_partition_keeps_it(self, monkeypatch):
        db = company_db(cache=False)
        q = ("select struct(d: dno, total: sum(select p.salary from p in partition), "
             "rows: partition) from e in Employees group by dno: e.dno")
        result = db.run_detailed(q)
        assert fold_names(result.plan) == ["total~", PARTITION]
        assert result.value == db.run(q, engine="interpret")
        # the probe of the test above is live: here one partition is built per group
        built = count_bags_built(monkeypatch)
        assert db.run(q) == result.value
        assert len(built) == len(result.value)

    def test_identical_aggregates_share_one_fold(self):
        db = company_db()
        q = ("select struct(d: dno, n: count(partition), m: count(partition) + 1) "
             "from e in Employees group by dno: e.dno")
        assert fold_names(db.run_detailed(q).plan) == ["n~"]

    def test_head_shares_what_having_computes_but_adds_nothing(self):
        db = company_db()
        q = ANALYTICS.replace("d: dno,", "d: dno, n: count(partition),")
        result = db.run_detailed(q + " having count(partition) > 1")
        # count(partition) is the having's; the head's sum stays put, so
        # the partition it ranges over is still built
        assert fold_names(result.plan) == ["sum~", PARTITION]
        assert result.value == db.run(q + " having count(partition) > 1", engine="interpret")

    def test_two_from_clauses_fold_over_the_joined_row(self):
        db = company_db()
        q = ("select struct(f: fl, t: sum(select p.e.salary from p in partition "
             "where p.d.budget > 0)) from e in Employees, d in Departments "
             "where e.dno = d.dno group by fl: d.floor")
        nest = nest_of(db.run_detailed(q).plan)
        ((_, monoid, head, pred),) = nest.folds
        assert (str(monoid), str(head), str(pred)) == ("sum", "e.salary", "(d.budget > 0)")

    def test_analytics_group_by_compiles_without_fallback(self):
        db = company_db(jit=JITConfig())
        plan = db.compile(ANALYTICS).plan
        report = precompile_plan(plan)
        assert report["fallback"] == 0 and report["compiled"] == 3
        assert db.run_detailed(ANALYTICS).jit["fallback"] == 0


# -- what must not move ------------------------------------------------------------

DIVIDES = "sum(select 1 / (p.salary - 50) from p in partition)"


@pytest.fixture
def zero_db():
    """Group 1 holds the salary that makes ``DIVIDES`` divide by zero."""
    def make(**modes):
        db = Database(company_schema(), **modes)
        db.load_extent(
            "Employees",
            [
                Record(name="a", salary=150, age=30, dno=0, skills=frozenset()),
                Record(name="b", salary=250, age=30, dno=0, skills=frozenset()),
                Record(name="c", salary=50, age=30, dno=1, skills=frozenset()),
            ],
            monoid="bag",
        )
        return db
    return make


class TestWhatMustNotMove:
    def test_having_guards_the_head(self, zero_db):
        db = zero_db()
        q = (f"select struct(d: dno, t: {DIVIDES}) from e in Employees "
             "group by dno: e.dno having dno = 0")
        result = db.run_detailed(q)
        assert result.engine == "algebra" and fold_names(result.plan) == [PARTITION]
        assert result.value == db.run(q, engine="interpret")
        assert result.value == frozenset({Record(d=0, t=1 / 100 + 1 / 200)})

    @pytest.mark.parametrize(
        "head",
        [
            f"if dno = 0 then {DIVIDES} else 0",
            f"dno = 0 and {DIVIDES} > 0",
            f"dno != 0 or {DIVIDES} > 0",
        ],
    )
    def test_lazy_positions_keep_their_folds(self, zero_db, head):
        db = zero_db()
        q = f"select struct(d: dno, t: {head}) from e in Employees group by dno: e.dno"
        result = db.run_detailed(q)
        assert result.engine == "algebra" and fold_names(result.plan) == [PARTITION]
        assert result.value == db.run(q, engine="interpret")

    def test_fold_mentioning_a_key_label_stays(self):
        db = company_db()
        q = ("select struct(d: dno, t: sum(select p.salary + dno from p in partition)) "
             "from e in Employees group by dno: e.dno")
        result = db.run_detailed(q)
        assert fold_names(result.plan) == [PARTITION]
        assert result.value == db.run(q, engine="interpret")

    @pytest.mark.parametrize(
        "head",
        [
            deref(new(proj(var("p"), "salary"))),
            assign(var("cell"), proj(var("p"), "salary")),
        ],
        ids=["new+deref", "assign"],
    )
    def test_effectful_fold_stays(self, head):
        mover = _FoldMover(var("e"), frozenset({"e", "dno", PARTITION}))
        term = comp("sum", head, [gen("p", var(PARTITION))])
        assert mover.move(term) == term and mover.folds == []
        pure = comp("sum", proj(var("p"), "salary"), [gen("p", var(PARTITION))])
        assert mover.move(pure) != pure and len(mover.folds) == 1

    def test_non_commutative_or_keyed_monoid_stays(self):
        db = company_db()
        plan = build_group_by_plan(
            parse("select struct(d: dno, s: (select p.name from p in partition "
                  "order by p.name)) from e in Employees group by dno: e.dno"),
            Translator(db.schema),
        )
        assert fold_names(plan) == [PARTITION]
        mover = _FoldMover(var("e"), frozenset({"e", "dno", PARTITION}))
        as_list = comp("list", proj(var("p"), "name"), [gen("p", var(PARTITION))])
        assert mover.move(as_list) == as_list

    @pytest.mark.parametrize("jit", [None, JITConfig()], ids=["jit-off", "jit-on"])
    def test_moved_predicate_must_be_boolean(self, zero_db, jit):
        db = zero_db(jit=jit)
        q = ("select struct(d: dno, t: sum(select p.salary from p in partition "
             "where p.age)) from e in Employees group by dno: e.dno")
        assert fold_names(db.compile(q).plan) == ["t~"]
        with pytest.raises(EvaluationError) as reference:
            db.run(q, engine="interpret")
        with pytest.raises(EvaluationError) as nest:
            db.run(q)
        assert str(nest.value) == str(reference.value)
        assert str(nest.value) == "qualifier predicate requires a boolean, got int: 30"

    @pytest.mark.parametrize("jit", [None, JITConfig()], ids=["jit-off", "jit-on"])
    def test_moved_fold_head_raises_the_reference_error(self, zero_db, jit):
        db = zero_db(jit=jit)
        q = f"select struct(d: dno, t: {DIVIDES}) from e in Employees group by dno: e.dno"
        assert fold_names(db.compile(q).plan) == ["t~"]
        with pytest.raises(EvaluationError) as reference:
            db.run(q, engine="interpret")
        with pytest.raises(EvaluationError) as nest:
            db.run(q)
        assert type(nest.value) is type(reference.value)
        assert str(nest.value) == str(reference.value) == "division by zero"


# -- plan tooling follows the node ---------------------------------------------------


class TestPlanTooling:
    def test_explain_renders_each_fold(self):
        db = company_db()
        pattern = r"Nest \[dno=e\.dno\] total~\d+ <- sum\{ e\.salary \}"
        assert re.search(pattern, db.explain(ANALYTICS))
        analyzed = db.explain(ANALYTICS, analyze=True)
        assert re.search(pattern + r"\s+est~\S+\s+actual=3", analyzed)
        filtered = ANALYTICS.replace("partition)", "partition where p.age > 40)")
        assert re.search(
            r"total~\d+ <- sum\{ e\.salary \| \(e\.age > 40\) \}", db.explain(filtered)
        )

    def test_a_write_to_an_extent_only_a_fold_reads_invalidates(self):
        db = Database(cache=True)
        db.load_extents({
            "Rows": Bag([Record(k=1, v=10), Record(k=1, v=5), Record(k=2, v=7)]),
            "Bonus": Bag([1, 2]),
        })
        q = ("select struct(k: k, t: sum(select p.v + count(Bonus) from p in partition)) "
             "from r in Rows group by k: r.k")
        entry = db.compile(q)
        assert fold_names(entry.plan) == ["t~"]
        reads_bonus = [
            term for term in plan_terms(entry.plan) if var("Bonus") in subterms(term)
        ]
        assert [str(term) for term in reads_bonus] == ["(r.v + count(Bonus))"]
        first = frozenset({Record(k=1, t=19), Record(k=2, t=9)})
        assert db.run(q) == first
        assert db.run(q) == first and db.cache.stats.result_hits == 1
        db.load_extents({"Bonus": Bag([1, 2, 3])}, replace=True)
        assert db.run(q) == frozenset({Record(k=1, t=21), Record(k=2, t=10)})


# -- order by over a grouping, and views beside one ---------------------------------

COUNTS = "select struct(d: dno, n: count(partition)) from e in Employees group by dno: e.dno"

#: one database per way of answering (CI's ``modes`` rows; verify is per call)
MODE_ROWS = {
    "none": {},
    "jit": dict(jit=JITConfig()),
    "cache": dict(cache=True),
    "cache+jit": dict(cache=True, jit=JITConfig()),
}


#: department -> salary total, for the sort key that is an aggregate
TOTALS: dict[int, int] = {}


class TestGroupByOrderBy:
    """``group by … order by`` used to return the unordered set."""

    @pytest.mark.parametrize(
        "order_by, keys",
        [
            ("dno", lambda r: r.d),
            ("dno desc", lambda r: -r.d),
            ("count(partition) desc, dno", lambda r: (-r.n, r.d)),
            ("sum(select p.salary from p in partition) desc", lambda r: -TOTALS[r.d]),
        ],
        ids=["asc", "desc", "two-keys", "aggregate-key"],
    )
    def test_result_is_the_list_in_key_order(self, order_by, keys):
        q = f"{COUNTS} order by {order_by}"
        plain = company_db()
        groups = plain.run(COUNTS)
        ordered = plain.run(q, engine="interpret")
        assert isinstance(ordered, tuple) and frozenset(ordered) == groups
        TOTALS.update((r.d, r.total) for r in plain.run(ANALYTICS))
        assert list(ordered) == sorted(groups, key=keys)
        assert plain.run(q, verify=True) == ordered
        for mode, settings in MODE_ROWS.items():
            db = company_db(**settings)
            assert db.run(q) == ordered, mode
            assert db.run(q) == ordered, f"{mode} (again)"

    def test_the_nest_planner_still_refuses_it(self):
        db = company_db()
        q = COUNTS + " order by dno"
        with pytest.raises(PlanError):
            build_group_by_plan(parse(q), Translator(db.schema))
        assert "Nest" not in db.compile(q).plan.render()


class TestGroupByBesideViews:
    """Defining a view used to push every ``group by`` off the Nest path."""

    def test_an_unrelated_view_leaves_the_nest_plan(self):
        db = company_db()
        before = db.compile(COUNTS)
        db.define("Rich", "select d from d in Departments where d.budget > 0")
        after = db.compile(COUNTS)
        assert "Nest" in before.plan.render()
        fresh = re.compile(r"~\d+")  # fold variables are numbered per compile
        assert fresh.sub("~", after.plan.render()) == fresh.sub("~", before.plan.render())
        assert after.params == ()
        assert db.run(COUNTS) == db.run(COUNTS, engine="interpret")

    def test_a_group_by_over_a_view_answers_as_the_interpreter_does(self):
        def with_seniors(**modes):
            db = company_db(**modes)
            db.define("Seniors", "select e from e in Employees where e.age > 30")
            return db

        db = with_seniors()
        q = COUNTS.replace("Employees", "Seniors")
        expected = db.run(q, engine="interpret")
        seniors = db.run("count(Seniors)")
        assert expected and 0 < seniors < db.run("count(Employees)")
        result = db.run_detailed(q)
        # Γ sees the substituted view: one Nest over one pass of its rows,
        # not one partition scan per distinct key
        assert any(isinstance(node, Nest) for node in result.plan.walk())
        assert result.stats.rows_scanned == seniors
        assert result.value == expected == db.run(q, verify=True)
        for mode, settings in MODE_ROWS.items():
            assert with_seniors(**settings).run(q) == expected, mode
        assert db.run(q + " order by dno") == tuple(sorted(expected, key=lambda r: r.d))

    def test_a_parameter_inside_a_view_body_is_still_found(self):
        db = company_db()
        db.define("Older", "select e from e in Employees where e.age > $age")
        entry = db.compile(COUNTS.replace("Employees", "Older"))
        assert entry.params == ("age",)
        assert db.compile(COUNTS).params == ()


class TestLabelNamedLikeAFromVariable:
    """The partition's key filter compared the key with ``Var(label)``,
    which a ``from`` variable of the same name captured: the reference
    translation answered every group with an empty partition."""

    @pytest.mark.parametrize(
        "query",
        [
            "select struct(e: e, n: count(partition)) from e in Employees group by e: e.dno",
            "select struct(d: d, n: count(partition)) from e in Employees, d in Departments "
            "where e.dno = d.dno group by d: d.name",
        ],
        ids=["one-from", "two-from"],
    )
    def test_every_engine_counts_the_rows_of_each_group(self, query):
        plain = company_db()
        expected = plain.run(query, engine="interpret")
        assert expected and sum(r.n for r in expected) == plain.run("count(Employees)")
        detailed = plain.run_detailed(query)
        assert nest_of(detailed.plan) and detailed.value == expected
        assert plain.run(query, verify=True) == expected
        for mode, settings in MODE_ROWS.items():
            assert company_db(**settings).run(query) == expected, mode
