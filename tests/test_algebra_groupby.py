"""The Nest operator and group-by planning."""

import pytest

from repro.algebra import Executor, Nest, Reduce, Scan, build_group_by_plan
from repro.calculus import const, gt, lt, proj, rec, var
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
        db.define("Everyone", "select distinct e from e in Employees")
        result = db.run_detailed(self.Q)
        # a view the query does not name changes nothing…
        assert result.compiled.kind == "groupby"
        assert result.value == db.run(self.Q, engine="interpret")
        # …one it does is expanded into the comprehension plan instead
        over_view = db.run_detailed(self.Q.replace("Employees", "Everyone"))
        assert over_view.compiled.kind == "algebra"
        assert over_view.value == result.value

    def test_nest_scans_once(self, db):
        result = db.run_detailed(self.Q)
        # one pass over 30 employees, not one per distinct key
        assert result.stats.rows_scanned == 30
