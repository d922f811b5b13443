"""The Nest operator and group-by planning."""

import pytest

from repro.algebra import (
    Executor,
    Nest,
    Reduce,
    Scan,
    build_group_by_plan,
    build_plan,
    execute_plan,
    plan_group_by,
)
from repro.calculus import bind, call, comp, const, eq, filt, gen, gt, lt, proj, rec, var
from repro.calculus.ast import MonoidRef
from repro.db import demo_company_database
from repro.errors import EvaluationError, PlanError
from repro.eval import Evaluator
from repro.oql import parse
from repro.oql.translate import Translator
from repro.values import Bag, Record


@pytest.fixture
def db():
    return demo_company_database(num_departments=4, num_employees=30, seed=6)


class TestNestOperator:
    def test_single_pass_grouping(self):
        data = {
            "Rows": (
                Record(k="a", v=1),
                Record(k="b", v=2),
                Record(k="a", v=3),
            )
        }
        plan = Reduce(
            MonoidRef("set"),
            var("partition"),
            Nest(
                Scan("r", var("Rows")),
                (("k", proj(var("r"), "k")),),
                (("partition", MonoidRef("bag"), proj(var("r"), "v"), None),),
            ),
        )
        executor = Executor(Evaluator(data))
        out = executor.execute(plan)
        assert out == frozenset({Bag([1, 3]), Bag([2])})
        assert executor.stats.rows_scanned == 3
        assert executor.stats.rows_grouped == 2

    def test_key_labels_bound_in_output(self):
        data = {"Rows": (Record(k=1, v=9),)}
        plan = Reduce(
            MonoidRef("set"),
            var("k"),
            Nest(
                Scan("r", var("Rows")),
                (("k", proj(var("r"), "k")),),
                (("partition", MonoidRef("bag"), var("r"), None),),
            ),
        )
        assert Executor(Evaluator(data)).execute(plan) == frozenset({1})

    def test_folds_primitive_monoids_as_rows_arrive(self):
        data = {
            "Rows": (
                Record(k="a", v=1),
                Record(k="b", v=2),
                Record(k="a", v=3),
                Record(k="a", v=10),
            )
        }
        v = proj(var("r"), "v")
        plan = Reduce(
            MonoidRef("set"),
            rec(k=var("k"), total=var("total"), top=var("top"), small=var("small")),
            Nest(
                Scan("r", var("Rows")),
                (("k", proj(var("r"), "k")),),
                (
                    ("total", MonoidRef("sum"), v, None),
                    ("top", MonoidRef("max"), v, None),
                    ("small", MonoidRef("list"), v, lt(v, 5)),
                ),
            ),
        )
        assert Executor(Evaluator(data)).execute(plan) == frozenset(
            {
                Record(k="a", total=14, top=10, small=(1, 3)),
                Record(k="b", total=2, top=2, small=(2,)),
            }
        )

    def test_fold_predicate_must_be_boolean(self):
        plan = Reduce(
            MonoidRef("set"),
            var("n"),
            Nest(
                Scan("r", const((1,))),
                (("k", var("r")),),
                (("n", MonoidRef("sum"), const(1), var("r")),),
            ),
        )
        with pytest.raises(EvaluationError, match="qualifier predicate requires a boolean"):
            Executor(Evaluator()).execute(plan)

    def test_render(self):
        nest = Nest(
            Scan("r", var("Rows")),
            (("k", proj(var("r"), "k")),),
            (
                ("partition", MonoidRef("bag"), var("r"), None),
                ("n", MonoidRef("sum"), const(1), gt(proj(var("r"), "v"), 2)),
            ),
        )
        assert nest.label() == (
            "Nest [k=r.k] partition <- bag{ r }, n <- sum{ 1 | (r.v > 2) }"
        )
        assert nest.columns() == frozenset({"k", "partition", "n"})


class TestGroupByPlanning:
    Q = (
        "select struct(d: dno, total: sum(select p.salary from p in partition)) "
        "from e in Employees group by dno: e.dno"
    )

    def test_plan_uses_nest(self, db):
        result = db.run_detailed(self.Q)
        assert result.engine == "algebra"
        assert "Nest" in result.plan.render()
        assert result.stats.rows_grouped > 0

    def test_agrees_with_interpreter(self, db):
        assert db.run(self.Q, engine="auto") == db.run(self.Q, engine="interpret")

    def test_having_agrees(self, db):
        q = self.Q + " having count(partition) > 3"
        assert db.run(q, engine="auto") == db.run(q, engine="interpret")

    def test_multi_key_agrees(self, db):
        q = (
            "select struct(d: dno, band: b, n: count(partition)) "
            "from e in Employees group by dno: e.dno, b: e.age div 10"
        )
        assert db.run(q, engine="auto") == db.run(q, engine="interpret")

    def test_multi_generator_group_by_agrees(self, db):
        q = (
            "select struct(f: fl, n: count(partition)) "
            "from e in Employees, d in Departments "
            "where e.dno = d.dno group by fl: d.floor"
        )
        assert db.run(q, engine="auto") == db.run(q, engine="interpret")

    def test_group_plus_order_falls_back(self, db):
        translator = Translator(db.schema)
        # sort keys see the group labels and ``partition``, not the head's fields
        node = parse(self.Q + " order by dno")
        with pytest.raises(PlanError):
            build_group_by_plan(node, translator)
        # …but the database still answers, from the comprehension plan.
        out = db.run_detailed(self.Q + " order by dno")
        assert list(out.value) == sorted(db.run(self.Q), key=lambda r: r.d)

    def test_non_group_select_rejected(self, db):
        node = parse("select e from e in Employees")
        with pytest.raises(PlanError):
            build_group_by_plan(node, Translator(db.schema))

    def test_views_disable_nest_path(self, db):
        # They used to (the name is from then): Γ is introduced on the
        # translated term, after views are substituted into it.
        db.define("Everyone", "select distinct e from e in Employees")
        result = db.run_detailed(self.Q)
        over_view = db.run_detailed(self.Q.replace("Employees", "Everyone"))
        for planned in (result, over_view):
            assert any(isinstance(node, Nest) for node in planned.plan.preorder())
        assert over_view.value == result.value == db.run(self.Q, engine="interpret")

    def test_nest_scans_once(self, db):
        result = db.run_detailed(self.Q)
        # one pass over 30 employees, not one per distinct key
        assert result.stats.rows_scanned == 30


class TestGammaIntroduction:
    """``plan_group_by`` matches the calculus shape ``_tr_group_select``
    emits — by structure, whoever built the term — and nothing near it."""

    KEYS = {"dno": proj(var("e"), "dno"), "band": proj(var("e"), "age")}
    COUNT = call("count", var("partition"))

    def grouped(self, monoid="set", head=None, labels=("dno", "band"), extra=(), trailing=()):
        base = [gen("e", var("Employees"))]
        key_filters = [filt(eq(key, proj(var("g"), label))) for label, key in self.KEYS.items()]
        return comp(
            monoid,
            rec(d=var("dno"), b=var("band"), n=self.COUNT) if head is None else head,
            [
                gen("g", comp("set", rec(**self.KEYS), base)),
                *(bind(label, proj(var("g"), label)) for label in labels),
                bind("partition", comp("bag", var("e"), [*base, *extra, *key_filters])),
                *trailing,
            ],
        )

    @pytest.mark.parametrize(
        "monoid, head, trailing",
        [
            ("set", None, ()),
            ("set", None, (filt(gt(COUNT, 1)),)),
            ("max", COUNT, ()),
        ],
        ids=["set", "set-having", "max"],
    )
    def test_an_exact_match_plans_to_a_nest(self, db, monoid, head, trailing):
        term = self.grouped(monoid, head, trailing=trailing)
        plan = plan_group_by(term)
        assert isinstance(plan.child if not trailing else plan.child.child, Nest)
        assert plan.monoid == MonoidRef(monoid)
        assert execute_plan(plan, evaluator=db.evaluator()) == db.run_calculus(term)

    @pytest.mark.parametrize(
        "near_miss",
        [
            dict(extra=(filt(gt(proj(var("e"), "salary"), 0)),)),
            dict(labels=("band", "dno")),
            dict(head=rec(d=proj(var("g"), "dno"), n=COUNT)),
            dict(trailing=(filt(gt(COUNT, 1)), filt(gt(var("dno"), 0)))),
            dict(monoid="bag"),
        ],
        ids=["partition-filters-more", "binds-reordered", "head-reads-g", "two-filters", "bag"],
    )
    def test_a_near_miss_is_not_matched_and_answers_through_the_flat_plan(self, db, near_miss):
        term = self.grouped(**near_miss)
        assert plan_group_by(term) is None
        flat = build_plan(term)
        assert not any(isinstance(node, Nest) for node in flat.preorder())
        assert execute_plan(flat, evaluator=db.evaluator()) == db.run_calculus(term)

    def test_a_label_that_captures_a_name_of_the_key_set_is_not_matched(self, db):
        # inside the partition ``Employees`` is the label, an int: the
        # reference fails there, and so does every engine
        q = (
            "select struct(d: Employees, n: count(partition)) "
            "from e in Employees group by Employees: e.dno"
        )
        assert "Nest" not in db.compile(q).plan.render()
        for engine in ("auto", "interpret"):
            with pytest.raises(EvaluationError, match="not a collection"):
                db.run(q, engine=engine)
