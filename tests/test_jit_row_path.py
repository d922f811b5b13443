"""The row path of generated code is counted, not timed.

A plan's generated function walks a tuple source as itself and a stored
set (:class:`~repro.values.compare.StoredSet`, every set a database holds) as the
canonical order its slot keeps, counts un-indexed rows once per source,
builds a record with the C ``dict`` constructor, and folds with its
accumulator's own C method or the primitive monoid's own merge function.
So, past a constant, a run enters no Python frame per source or per row:
under ``sys.setprofile`` the same plan at *n* and 10 *n* rows makes the
same Python calls. The one exception is ``Record.__hash__``, once per
record a result set or bag takes in (DESIGN.md §4 measured the
alternatives). The per-source counts must also be the reference
interpreter's per-row ones.

A traced run (``profile(True)``), EXPLAIN ANALYZE and a verify-mode run
execute the same function as a plain one: the same flat calls (verify mode
adds only its per-row differential) and the same counts. No operator block
holds a time: the run's one clock is its query record's ``execute`` slot.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.algebra import Executor, Reduce, Scan, SelectOp, Unnest, build_plan
from repro.analysis.verifier import verification
from repro.calculus import comp, filt, gen, gt, proj, var
from repro.calculus.ast import MonoidRef
from repro.db import Database, company_schema, travel_schema
from repro.eval import Evaluator
from repro.jit import Runtime
from repro.jit.plan import fused, pipeline_source
from repro.monoids import get_monoid
from repro.values import Bag, Record
from repro.values.compare import StoredSet, stored
from tests.test_jit_fused import every_way

N = 30

#: the one frame a run may enter once per record: a result set or bag hashing it
HASH = "record.py:Record.__hash__"


def company(n: int) -> dict:
    """The company extents as a database holds them: every set stored."""
    return {
        "Employees": stored(Bag(
            Record(name=f"e{i}", dno=i % 4, salary=i, age=20 + i % 40, skills=frozenset({"oql"}))
            for i in range(n)
        )),
        "Departments": stored(frozenset(Record(dno=d, name=f"d{d}", floor=d) for d in range(4))),
    }


def travel(n: int) -> dict:
    """The travel extent as a database holds it: every set stored."""
    return {
        "Cities": stored(frozenset(
            Record(
                name=f"c{i}",
                population=i,
                hotels=frozenset(
                    Record(
                        name=f"h{i}.{j}",
                        stars=j,
                        rooms=tuple(Record(beds=b, price=b) for b in range(3)),
                        facilities=frozenset({"pool"}),
                    )
                    for j in range(3)
                ),
            )
            for i in range(n)
        ))
    }


SCHEMAS = {"company": (company_schema, company), "travel": (travel_schema, travel)}


def compiled(schema: str, oql: str) -> Reduce:
    """``oql``'s plan as ``Database.compile`` makes it, with its code."""
    make_schema, make_data = SCHEMAS[schema]
    db = Database(make_schema())
    db.load_extents(make_data(N))
    with verification(False):
        plan = db.compile(oql).plan
        assert fused(plan) is not None
    return plan


def calls(plan: Reduce, data: dict | Evaluator) -> tuple:
    """The value of a second run of ``plan`` over ``data`` (or over an
    evaluator's world) — the first memoised the sets' orders — and the
    Python calls it made, by ``file:qualified name``."""
    with verification(False):
        executor = Executor(data if isinstance(data, Evaluator) else Evaluator(data))
    executor.execute(plan)
    seen: Counter = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            seen[f"{Path(code.co_filename).name}:{code.co_qualname}"] += 1

    sys.setprofile(profile)
    try:
        value = executor.execute(plan)
    finally:
        sys.setprofile(None)
    return value, seen


def records(value) -> int:
    """Records in a result: each was built, and hashed once, by the run."""
    if isinstance(value, (Bag, frozenset, tuple)):
        return sum(type(v) is Record for v in value)
    return 0


def assert_flat(plan: Reduce, make_data) -> None:
    small_value, small = calls(plan, make_data(N))
    big_value, big = calls(plan, make_data(10 * N))
    for value, seen in ((small_value, small), (big_value, big)):
        assert seen.pop(HASH, 0) == records(value), value
    assert small == big, pipeline_source(plan)
    assert "<repro.jit pipeline" in " ".join(big)  # the generated function ran


SHAPES = {
    "scan_select_sum": (
        "company",
        "sum(select e.salary from e in Employees where e.salary >= 0 and e.age < 100)",
    ),
    "unnest_memoised_set": ("travel", "select distinct h.name from c in Cities, h in c.hotels"),
    "unnest_tuple": (
        "travel",
        "sum(select r.beds from c in Cities, h in c.hotels, r in h.rooms where r.price >= 0)",
    ),
    "group_by_sum": (
        "company",
        "select struct(d: dno, total: sum(select p.salary from p in partition)) "
        "from e in Employees group by dno: e.dno",
    ),
    "hash_join": (
        "company",
        "select struct(e: e.name, d: d.name) "
        "from e in Employees, d in Departments where e.dno = d.dno",
    ),
}


class TestNoFramePerRow:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_calls_do_not_grow_with_rows(self, shape):
        schema, oql = SHAPES[shape]
        assert_flat(compiled(schema, oql), SCHEMAS[schema][1])

    def test_the_plans_are_the_shapes_named(self):
        rendered = {shape: compiled(*SHAPES[shape]).render() for shape in SHAPES}
        assert "Join" in rendered["hash_join"] and "Nest" in rendered["group_by_sum"]
        assert rendered["unnest_tuple"].count("Unnest") == 2

    @pytest.mark.parametrize("monoid", ["set", "bag", "list", "oset"])
    def test_collection_folds(self, monoid):
        term = comp(monoid, proj(var("e"), "name"), [gen("e", var("Employees"))])
        plan = build_plan(term)
        with verification(False):
            assert fused(plan) is not None
        assert_flat(plan, company)

    def test_the_folds_add_is_the_containers_own(self):
        for monoid, method in (
            ("set", set.add),
            ("bag", list.append),
            ("list", list.append),
            ("oset", dict.setdefault),
        ):
            assert type(get_monoid(monoid).accumulator()).add is method


def cities_as_objects(n: int) -> Evaluator:
    """``n`` city objects in a heap, and a ``$p`` bound beside them."""
    ev = Evaluator()
    ev.bind_global("Cities", tuple(
        ev.store.new(Record(name=f"c{i}", population=i)) for i in range(n)
    ))
    ev.bind_global("$p", n // 2)
    return ev


def test_object_rows_and_parameters_enter_no_frame_per_row():
    """A projection through an OID reads the heap inline, and a
    ``$``-parameter is looked up once per run: flat at n and 10 n."""
    term = comp("bag", proj(var("c"), "name"),
                [gen("c", var("Cities")), filt(gt(proj(var("c"), "population"), var("$p")))])
    plan = build_plan(term)
    small_value, small = calls(plan, cities_as_objects(N))
    big_value, big = calls(plan, cities_as_objects(10 * N))
    assert len(small_value) == N // 2 - 1 and len(big_value) == 10 * N // 2 - 1
    assert small == big, pipeline_source(plan)
    assert small["env.py:Env.lookup"] == 2  # the extent's name, then $p


# -- traced, explained and checked runs execute the same function ------------------------


def node_counts(metrics) -> list[tuple]:
    """Per node, pre-order: its counts, which are every field of its block."""
    return [
        (type(node).__name__, b.rows_out, b.hash_builds, b.index_probes)
        for node, b in metrics.blocks()
    ]


def explained(db, oql) -> list[tuple]:
    """:func:`node_counts` as EXPLAIN ANALYZE's document reports them."""
    out = []

    def walk(node):
        assert not {"invocations", "time_ms", "self_time_ms"} & set(node), node
        out.append((node["op"], node["actual_rows"],
                    node.get("hash_builds", 0), node.get("index_probes", 0)))
        for child in node.get("children", ()):
            walk(child)

    walk(db.explain_data(oql, analyze=True)["plan"])
    return out


def profiled(db, oql):
    db.profile(True)
    try:
        return db.run_detailed(oql)
    finally:
        db.profile(False)


#: each way a run is observed or checked, as a function of a database and a
#: query returning the run's per-node counts
OBSERVED = {
    "plain": lambda db, oql: db.run_detailed(oql),
    "profile": profiled,
    "explain": explained,
    "verify": lambda db, oql: db.run_detailed(oql, verify=True),
}


def observed(mode: str, db, oql) -> list[tuple]:
    result = OBSERVED[mode](db, oql)
    return result if mode == "explain" else node_counts(result.metrics)


def outside_the_differential(run) -> Counter:
    """The Python calls ``run()`` makes, by ``file:qualified name``, but
    those verify mode's ``Runtime.check`` makes to re-run an expression."""
    seen: Counter = Counter()
    inside = 0

    def profile(frame, event, _arg):
        nonlocal inside
        code = frame.f_code
        checking = code is Runtime.check.__code__
        if event == "call":
            if not inside:
                seen[f"{Path(code.co_filename).name}:{code.co_qualname}"] += 1
            inside += checking
        elif event == "return":
            inside -= checking

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


class TestObservedRunsAreTheFunction:
    @pytest.mark.parametrize("mode", sorted(OBSERVED))
    @pytest.mark.parametrize("shape", ["scan_select_sum", "hash_join"])
    def test_calls_and_counts(self, shape, mode):
        schema, oql = SHAPES[shape]
        make_schema, make_data = SCHEMAS[schema]
        calls = []
        for n in (N, 10 * N):
            db = Database(make_schema(), cache=False, telemetry=False)
            db.load_extents(make_data(n))
            with verification(False):
                first = db.run_detailed(oql)  # also memoises the sets' orders
            assert observed(mode, db, oql) == node_counts(first.metrics)
            seen = outside_the_differential(lambda: observed(mode, db, oql))  # noqa: B023
            assert seen.pop(HASH, 0) == records(first.value)
            seen.pop("runtime.py:Runtime.check", None)
            calls.append(seen)
            assert "<repro.jit pipeline" in " ".join(seen)
        assert calls[0] == calls[1]


# -- the header's identity check ------------------------------------------------------


@pytest.fixture
def iterated(monkeypatch):
    """The sources ``Runtime.iterate`` was handed."""
    seen: list = []
    iterate = Runtime.iterate

    def counting(self, source, indexed):
        seen.append(source)
        return iterate(self, source, indexed)

    monkeypatch.setattr(Runtime, "iterate", counting)
    return seen


class TestHeader:
    """A generated header reads a stored set's order from its slot; a plain
    set, or a stored one not yet ordered, goes to ``Runtime.iterate``."""

    def run(self, plan, **globals_):
        with verification(False):
            assert fused(plan) is not None
            executor = Executor(Evaluator(globals_))
        return executor.execute(plan)

    def test_scan(self, iterated):
        kept, plain = stored(frozenset({3, 1, 2})), frozenset({"b", "a"})
        plan = Reduce(MonoidRef("list"), var("x"), Scan("x", var("S")))
        assert "type(_src) is _StoredSet and _src.order" in pipeline_source(plan)
        assert self.run(plan, S=kept) == (1, 2, 3)
        assert iterated == [kept] and kept.order == (1, 2, 3)  # iterate filled the slot
        assert self.run(plan, S=kept) == (1, 2, 3)
        assert iterated == [kept]  # now read inline
        assert self.run(plan, S=plain) == self.run(plan, S=plain) == ("a", "b")
        assert iterated == [kept, plain, plain]  # a plain set is sorted every time

    def test_unnest(self, iterated):
        kept, plain = stored(frozenset({True, 2})), frozenset({1, 2})
        plan = Reduce(
            MonoidRef("list"), var("x"), Unnest(Scan("r", var("Rs")), "x", proj(var("r"), "xs"))
        )
        rows = (Record(xs=kept), Record(xs=(7,)), Record(xs=plain))
        for _ in range(2):
            value = self.run(plan, Rs=rows)
            assert value == (True, 2, 7, 1, 2)
            assert [type(v) for v in value] == [bool, int, int, int, int]
        assert iterated == [kept, plain, plain]
        assert type(kept) is StoredSet


# -- per-source counts are the reference's per-row counts ------------------------------------


def world():
    def make():
        twice = Record(n=1, xs=Bag([1, 1]))
        ev = Evaluator(
            {
                "T": tuple(Record(n=n, xs=(n, n + 1)) for n in range(5)),
                "S": frozenset(Record(n=n, xs=frozenset({n, -n})) for n in range(6)),
                "B": Bag([twice, twice, Record(n=2, xs=Bag())]),
                "E": (),
            }
        )
        ev.bind_global("O", ev.store.new(tuple(range(7))))
        objects = (ev.store.new(Record(n=n, xs=frozenset(range(n)))) for n in range(4))
        ev.bind_global("Os", tuple(objects))
        return ev

    return make


def selected(source: str):
    """sum{ y | x <- source, x.n > 0, y <- x.xs }, as a plan."""
    kept = SelectOp(Scan("x", var(source)), gt(proj(var("x"), "n"), 0))
    unnest = Unnest(kept, "y", proj(var("x"), "xs"))
    return lambda: Reduce(MonoidRef("sum"), var("y"), unnest)


class TestPerSourceCounts:
    @pytest.mark.parametrize("source", ["T", "S", "B", "Os"])
    def test_nested_sources(self, source):
        seen = every_way(selected(source), world())
        assert seen[0] == "value"

    def test_the_counts_are_the_rows(self):
        seen = every_way(selected("T"), world())
        # Scan 5 rows, Select keeps 4, Unnest 2 values of each
        assert [(name, rows) for name, rows, _, _ in seen[3]] == [
            ("Reduce", 1),
            ("Unnest", 8),
            ("SelectOp", 4),
            ("Scan", 5),
        ]

    def test_object_and_empty_sources(self):
        for name in ("O", "E"):
            plan = lambda: Reduce(MonoidRef("sum"), var("n"), Scan("n", var(name)))  # noqa: B023
            every_way(plan, world())

    def test_indexed_sources(self):
        plan = lambda: Reduce(
            MonoidRef("list"),
            var("i"),
            Unnest(Scan("x", var("T"), "i"), "y", proj(var("x"), "xs"), "j"),
        )
        seen = every_way(plan, world())
        assert [rows for _, rows, _, _ in seen[3]] == [10, 10, 5]
