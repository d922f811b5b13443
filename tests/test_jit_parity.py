"""Differential parity: a plan's generated function must equal its
operator loops, everywhere.

Covers every Table 1 monoid as a Reduce target, the integration
catalogue's §2-style OQL suite, randomized comprehensions from the
normalization property harness, and the fresh-binding-dict-per-row
contract (lambda capture, downstream retention).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.algebra import Executor, build_plan
from repro.analysis.verifier import verification
from repro.calculus import comp, const, filt, gen, gt, var
from repro.db.database import demo_company_database, demo_travel_database
from repro.eval import Evaluator
from repro.jit.plan import precompile_plan
from repro.values import Bag

from tests.test_integration_pipeline import COMPANY_QUERIES, TRAVEL_QUERIES
from tests.test_normalize_property import _term_and_data


def compiled(plan):
    """``plan`` with its generated function (the jit phase, kept)."""
    precompile_plan(plan)
    return plan


def both_ways(term, data):
    """Execute ``term``'s plan on the loops and as its function; must agree."""
    plan = build_plan(term)
    off = Executor(Evaluator(data)).execute(plan)
    on = Executor(Evaluator(data)).execute(compiled(build_plan(term)))
    assert off == on, (term, off, on)
    return on


DATA = {"Xs": (3, 1, 4, 1, 5, 9, 2, 6), "Bs": Bag((2, 7, 1, 8, 2, 8))}


class TestTable1Monoids:
    """One Reduce per registered Table 1 monoid, jit on vs off."""

    @pytest.mark.parametrize("monoid", ["sum", "prod", "max", "min"])
    def test_numeric_primitives(self, monoid):
        term = comp(
            monoid,
            var("x"),
            [gen("x", var("Xs")), filt(gt(var("x"), const(1)))],
        )
        both_ways(term, DATA)

    @pytest.mark.parametrize("monoid", ["some", "all"])
    def test_boolean_primitives(self, monoid):
        term = comp(monoid, gt(var("x"), const(4)), [gen("x", var("Xs"))])
        both_ways(term, DATA)

    @pytest.mark.parametrize("monoid", ["list", "set", "bag", "oset"])
    def test_collections(self, monoid):
        term = comp(
            monoid,
            var("x"),
            [gen("x", var("Bs")), filt(gt(var("x"), const(1)))],
        )
        both_ways(term, DATA)

    def test_string(self):
        term = comp("string", const("ab"), [gen("x", var("Xs"))])
        both_ways(term, DATA)


class TestOQLCatalogue:
    """The end-to-end OQL suite: a query's first run (the loops) against
    its second (the generated function, its shape being seen)."""

    @pytest.mark.parametrize("oql", TRAVEL_QUERIES)
    def test_travel(self, oql):
        db = demo_travel_database(num_cities=4, seed=3)
        assert db.run(oql) == db.run(oql)

    @pytest.mark.parametrize("oql", COMPANY_QUERIES)
    def test_company(self, oql):
        db = demo_company_database(4, 40, seed=3)
        assert db.run(oql) == db.run(oql)

    @pytest.mark.parametrize("oql", TRAVEL_QUERIES)
    def test_travel_verify_mode(self, oql):
        # The per-row differential check itself must never fire on the
        # honest compiler output.
        db = demo_travel_database(num_cities=3, seed=5)
        with verification(True):
            db.run(oql)
            db.run(oql)


class TestRandomizedTerms:
    @settings(max_examples=80, deadline=None)
    @given(case=_term_and_data())
    def test_random_comprehensions_agree(self, case):
        term, data = case
        both_ways(term, data)


class TestReuseSoundness:
    """Every binding dict is fresh per row, so whatever keeps one — an
    operator's build table, an ``Env.wrapping`` closure environment, a
    caller — is not changed by the rows that follow."""

    @staticmethod
    def _with_head(term, head):
        # Normalization beta-reduces most lambdas away, so hand-build a
        # plan whose Reduce head retains one.
        import dataclasses

        return dataclasses.replace(build_plan(term), head=head)

    def test_lambda_in_head_agrees(self):
        from repro.calculus.ast import Apply, Lambda

        term = comp("list", var("x"), [gen("x", var("Xs"))])
        head = Apply(Lambda("v", var("v")), var("x"))
        off = Executor(Evaluator(DATA)).execute(self._with_head(term, head))
        on = Executor(Evaluator(DATA)).execute(compiled(self._with_head(term, head)))
        assert off == on == DATA["Xs"]

    @pytest.mark.parametrize("jit", [False, True], ids=["interpreted", "compiled"])
    def test_closure_built_from_a_row_still_sees_it(self, jit):
        # A closure per row, applied only after the scan has finished:
        # each must still see the row it was built from. (Verify pinned
        # off: two closures never compare equal, so no per-row differential.)
        from repro.calculus.ast import BinOp, Lambda

        term = comp("list", var("x"), [gen("x", var("Xs"))])
        head = Lambda("v", BinOp("+", var("v"), var("x")))
        evaluator = Evaluator(DATA)
        with verification(False):
            plan = self._with_head(term, head)
            closures = Executor(evaluator).execute(compiled(plan) if jit else plan)
        assert [evaluator.apply_callable(fn, 10) for fn in closures] == [
            x + 10 for x in DATA["Xs"]
        ]

    @pytest.mark.parametrize("jit", [False, True], ids=["interpreted", "compiled"])
    def test_every_yielded_binding_is_a_distinct_dict(self, jit):
        from repro.calculus import eq
        from repro.calculus.ast import TupleCons

        term = comp(
            "bag",
            TupleCons((var("x"), var("y"))),
            [
                gen("x", var("Xs")),
                gen("y", var("Bs")),
                filt(eq(var("x"), var("y"))),
                filt(gt(var("x"), const(1))),
            ],
        )
        plan = build_plan(term)
        if jit:  # a plan with code still opens its streams on the loops
            compiled(plan)
        executor = Executor(Evaluator(DATA))
        for node in _walk(plan.child):
            rows = list(executor._iter(node))
            assert rows and len({id(row) for row in rows}) == len(rows), node.label()

    def test_plain_scan_stays_correct(self):
        term = comp(
            "list",
            var("x"),
            [gen("x", var("Xs")), filt(gt(var("x"), const(1)))],
        )
        both_ways(term, DATA)

    def test_join_stays_correct(self):
        from repro.calculus import eq
        from repro.calculus.ast import TupleCons

        term = comp(
            "bag",
            TupleCons((var("x"), var("y"))),
            [
                gen("x", var("Xs")),
                gen("y", var("Bs")),
                filt(eq(var("x"), var("y"))),
            ],
        )
        both_ways(term, DATA)

    def test_collection_valued_rows_survive(self):
        data = {"Rows": (((1, 2), 3), ((4, 5), 6))}
        term = comp("list", var("r"), [gen("r", var("Rows"))])
        both_ways(term, data)


class TestErrorTextParity:
    """The algebra's own per-row checks word their errors the way the
    reference evaluator does, interpreted or compiled."""

    @staticmethod
    def _message(run) -> str:
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError) as info:
            run()
        return str(info.value)

    @pytest.mark.parametrize("jit", [False, True], ids=["jit-off", "jit-on"])
    def test_non_boolean_predicate(self, company_db, jit):
        oql = (
            "select e.name from e in Employees, d in Departments "
            "where e.salary + d.dno"
        )
        company_db.disable_cache()  # every run executes
        reference = self._message(lambda: company_db.run(oql, engine="interpret"))
        assert reference.startswith("qualifier predicate requires a boolean, got int")
        if jit:  # a second run: the shape was seen, the plan has code
            self._message(lambda: company_db.run(oql, engine="algebra"))
        assert self._message(lambda: company_db.run(oql, engine="algebra")) == reference

    @pytest.mark.parametrize("jit", [False, True], ids=["jit-off", "jit-on"])
    def test_vector_head_not_a_pair(self, jit):
        from repro.algebra.ops import Reduce, Scan
        from repro.calculus.ast import Const, MonoidRef

        ref = MonoidRef("vec", element=MonoidRef("sum"), size=Const(2))
        term = comp(ref, var("x"), [gen("x", const((1, 2)))])
        plan = Reduce(ref, var("x"), Scan("x", const((1, 2))))
        reference = self._message(lambda: Evaluator().evaluate(term))
        assert "vector comprehension head" in reference
        if jit:
            compiled(plan)
        assert self._message(lambda: Executor(Evaluator()).execute(plan)) == reference


def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)
