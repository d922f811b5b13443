"""Differential parity: a plan's generated function must answer what the
reference evaluator (:mod:`repro.eval`) answers, everywhere — the same
value and type, or the same exception class and message.

Covers every Table 1 monoid as a Reduce target, the integration
catalogue's §2-style OQL suite, randomized comprehensions from the
normalization property harness, and the fresh-binding-dict contract of
the subterms handed to the interpreter (lambda capture, retention).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.algebra import Executor, build_plan
from repro.analysis.verifier import verification
from repro.calculus import comp, const, filt, gen, gt, var
from repro.db.database import demo_company_database, demo_travel_database
from repro.errors import ReproError
from repro.eval import Evaluator
from repro.jit import Runtime
from repro.values import Bag

from tests.test_integration_pipeline import COMPANY_QUERIES, TRAVEL_QUERIES
from tests.test_normalize_property import _term_and_data


def outcome(run) -> tuple:
    """A value and its type, or an exception's class and message."""
    try:
        value = run()
    except ReproError as exc:
        return ("raised", type(exc), str(exc))
    return ("value", type(value), value)


def against_reference(term, data):
    """Execute ``term``'s plan; it must agree with the reference evaluator."""
    plan = build_plan(term)
    got = outcome(lambda: Executor(Evaluator(data)).execute(plan))
    want = outcome(lambda: Evaluator(data).evaluate(term))
    assert got == want, (term, got, want)
    return got


DATA = {"Xs": (3, 1, 4, 1, 5, 9, 2, 6), "Bs": Bag((2, 7, 1, 8, 2, 8))}


class TestTable1Monoids:
    """One Reduce per registered Table 1 monoid."""

    @pytest.mark.parametrize("monoid", ["sum", "prod", "max", "min"])
    def test_numeric_primitives(self, monoid):
        term = comp(
            monoid,
            var("x"),
            [gen("x", var("Xs")), filt(gt(var("x"), const(1)))],
        )
        against_reference(term, DATA)

    @pytest.mark.parametrize("monoid", ["some", "all"])
    def test_boolean_primitives(self, monoid):
        term = comp(monoid, gt(var("x"), const(4)), [gen("x", var("Xs"))])
        against_reference(term, DATA)

    @pytest.mark.parametrize("monoid", ["list", "set", "bag", "oset"])
    def test_collections(self, monoid):
        term = comp(
            monoid,
            var("x"),
            [gen("x", var("Bs")), filt(gt(var("x"), const(1)))],
        )
        against_reference(term, DATA)

    def test_string(self):
        term = comp("string", const("ab"), [gen("x", var("Xs"))])
        against_reference(term, DATA)


class TestOQLCatalogue:
    """The end-to-end OQL suite: a query's first and second run against
    the reference evaluator."""

    @pytest.mark.parametrize("oql", TRAVEL_QUERIES)
    def test_travel(self, oql):
        db = demo_travel_database(num_cities=4, seed=3)
        want = db.run(oql, engine="interpret")
        assert db.run(oql) == db.run(oql) == want

    @pytest.mark.parametrize("oql", COMPANY_QUERIES)
    def test_company(self, oql):
        db = demo_company_database(4, 40, seed=3)
        want = db.run(oql, engine="interpret")
        assert db.run(oql) == db.run(oql) == want

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
        against_reference(term, data)


class TestReuseSoundness:
    """A row is Python locals; a subterm handed to the interpreter gets a
    fresh binding dict of them per call, so whatever keeps one — an
    ``Env.wrapping`` closure environment, a caller — is not changed by the
    rows that follow."""

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
        assert Executor(Evaluator(DATA)).execute(self._with_head(term, head)) == DATA["Xs"]
        assert Evaluator(DATA).evaluate(comp("list", head, term.qualifiers)) == DATA["Xs"]

    def test_closure_built_from_a_row_still_sees_it(self):
        # A closure per row, applied only after the scan has finished:
        # each must still see the row it was built from. (Verify pinned
        # off: two closures never compare equal, so no per-row differential.)
        from repro.calculus.ast import BinOp, Lambda

        term = comp("list", var("x"), [gen("x", var("Xs"))])
        head = Lambda("v", BinOp("+", var("v"), var("x")))
        evaluator = Evaluator(DATA)
        with verification(False):
            plan = self._with_head(term, head)
            closures = Executor(evaluator).execute(plan)
        assert [evaluator.apply_callable(fn, 10) for fn in closures] == [
            x + 10 for x in DATA["Xs"]
        ]

    def test_every_binding_handed_to_the_interpreter_is_a_distinct_dict(self, monkeypatch):
        from repro.calculus import eq
        from repro.calculus.ast import Let, TupleCons

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
        # Let is outside the compiled fragment: the head is interpreted per row
        plan = self._with_head(term, Let("z", var("x"), TupleCons((var("z"), var("y")))))
        kept = []
        fallback = Runtime.eval_fallback

        def keeping(self, subterm, binding):
            kept.append(binding)
            return fallback(self, subterm, binding)

        monkeypatch.setattr(Runtime, "eval_fallback", keeping)
        with verification(False):  # its differential would hand the interpreter more
            executor = Executor(Evaluator(DATA))
        value = executor.execute(plan)
        rows = [binding for binding in kept if binding]  # a Scan source's is {}
        assert len(rows) == len(value) == 2 and len({id(row) for row in rows}) == 2
        assert Bag((row["x"], row["y"]) for row in rows) == value == Evaluator(DATA).evaluate(term)

    def test_plain_scan_stays_correct(self):
        term = comp(
            "list",
            var("x"),
            [gen("x", var("Xs")), filt(gt(var("x"), const(1)))],
        )
        against_reference(term, DATA)

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
        against_reference(term, DATA)

    def test_collection_valued_rows_survive(self):
        data = {"Rows": (((1, 2), 3), ((4, 5), 6))}
        term = comp("list", var("r"), [gen("r", var("Rows"))])
        against_reference(term, data)


class TestErrorTextParity:
    """The algebra's own per-row checks word their errors the way the
    reference evaluator does."""

    @staticmethod
    def _message(run) -> str:
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError) as info:
            run()
        return str(info.value)

    def test_non_boolean_predicate(self, company_db):
        oql = (
            "select e.name from e in Employees, d in Departments "
            "where e.salary + d.dno"
        )
        company_db.disable_cache()  # every run executes
        reference = self._message(lambda: company_db.run(oql, engine="interpret"))
        assert reference.startswith("qualifier predicate requires a boolean, got int")
        for _ in range(2):  # a first run, and one whose code is cached
            assert self._message(lambda: company_db.run(oql, engine="algebra")) == reference

    def test_vector_head_not_a_pair(self):
        from repro.algebra.ops import Reduce, Scan
        from repro.calculus.ast import Const, MonoidRef

        ref = MonoidRef("vec", element=MonoidRef("sum"), size=Const(2))
        term = comp(ref, var("x"), [gen("x", const((1, 2)))])
        plan = Reduce(ref, var("x"), Scan("x", const((1, 2))))
        reference = self._message(lambda: Evaluator().evaluate(term))
        assert "vector comprehension head" in reference
        assert self._message(lambda: Executor(Evaluator()).execute(plan)) == reference

