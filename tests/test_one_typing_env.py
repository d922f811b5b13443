"""One typing environment: the catalog types every extent, once per version.

``Catalog.types()`` is the name -> type mapping every static layer of a
compile reads — the fail-fast typer, the linter and the translator's
``sort`` monoid choice — so a loaded extent the schema does not declare
types the same everywhere, and a ``strict`` typed query is inferred once.
The literal tests hold N8c: a constant collection literal beside another
generator is one constant a plan scans once, not a merge of copies.
"""

from __future__ import annotations

import pytest

from repro.calculus.ast import Comprehension, Const, Generator
from repro.db import Database, demo_travel_database, travel_schema
from repro.errors import TypingError, WellFormednessError
from repro.types.infer import TypeChecker
from repro.types.types import ANY, TColl, TINT, TRecord

ROWS = [{"x": 1}, {"x": 2}]


@pytest.fixture
def db():
    db = demo_travel_database()
    db.load_extent("S", ROWS)
    return db


@pytest.fixture
def inferences(monkeypatch):
    calls = []
    infer = TypeChecker.infer
    monkeypatch.setattr(
        TypeChecker, "infer", lambda self, *args: calls.append(args) or infer(self, *args))
    return calls


def sort_monoid(term) -> str:
    """The monoid of the comprehension a translated ``sort`` builds."""
    assert isinstance(term, Comprehension)
    return term.monoid.name


class TestRepros:
    def test_sort_over_a_loaded_set_is_strict_clean(self, db):
        """Before, the translator typed only declared extents, chose
        ``sortedbag`` for a loaded set, and strict lint refused it (QL001)."""
        assert [p["x"] for p in db.run("sort p in S by p.x", strict=True)] == [1, 2]
        assert sort_monoid(db.translate("sort p in S by p.x")) == "sorted"

    @pytest.mark.parametrize("monoid", ["set", "bag", "list"])
    def test_typecheck_knows_a_loaded_extent(self, db, monoid):
        """Before: ``TypingError: unbound variable 'S'``."""
        db.load_extent("T", ROWS, monoid=monoid)
        q = "select distinct p.x from p in T"
        assert db.run(q, typecheck=True) == db.run(q) == frozenset({1, 2})

    def test_db_typecheck_types_parameters_as_compile_does(self, db):
        """Before: ``unbound variable '$n'``."""
        q = "select distinct c.name from c in Cities where c.population > $n"
        db.typecheck(db.translate(q))
        db.compile(q, typecheck=True)
        assert db.lint(q) == []


class TestOneInference:
    """Clock-free: ``TypeChecker.infer`` calls per cacheless run (a query
    with no ``sort``, so the translator infers nothing)."""

    QUERY = "select distinct c.name from c in Cities where c.population > 10"

    @pytest.fixture
    def db(self):
        db = demo_travel_database()
        db.disable_cache()
        return db

    def test_a_strict_typed_query_is_inferred_once(self, db, inferences):
        db.run(self.QUERY, strict=True, typecheck=True, verify=False)
        assert len(inferences) == 1  # the parent inferred twice

    def test_typecheck_alone_infers_once(self, db, inferences):
        db.run(self.QUERY, typecheck=True, verify=False)
        assert len(inferences) == 1

    def test_an_expanded_view_is_inferred_again(self, db, inferences):
        db.define("Big", "select distinct c from c in Cities where c.population > 10")
        inferences.clear()
        db.run("select distinct b.name from b in Big", strict=True, typecheck=True, verify=False)
        assert len(inferences) == 2  # the written term's, the expanded one's

    def test_narrowed_parameters_are_inferred_again(self, db, inferences):
        q = "select distinct c.name from c in Cities where c.population > $n"
        db.compile(q, typecheck=True, param_types={"n": TINT}, strict=True)
        assert len(inferences) == 2

    def test_strict_raises_what_typecheck_alone_raises(self, db):
        """A group-by partition over a set: the linter skips the
        translator's collection, the typer does not."""
        q = ("select struct(s: stars, n: count(partition)) from c in Cities, h in c.hotels "
             "group by stars: h.stars")
        with pytest.raises(WellFormednessError) as alone:
            db.compile(q, typecheck=True)
        with pytest.raises(WellFormednessError) as strict:
            db.compile(q, typecheck=True, strict=True)
        assert str(strict.value) == str(alone.value)

    def test_a_function_is_no_value(self, db):
        """Before, lint knew a registered function's name as a value,
        which the typer and the evaluator call unbound."""
        db.register_function("f", lambda x: x)
        q = "select distinct f from c in Cities"
        assert [d.code for d in db.lint(q) if d.is_error] == ["QL003"]
        with pytest.raises(TypingError, match="unbound variable 'f'"):
            db.compile(q, typecheck=True)
        assert db.lint("select distinct f(c.name) from c in Cities") == []


class TestCatalogTypes:
    def test_declared_loaded_and_disagreeing_extents(self):
        db = Database(travel_schema())
        db.load_extent("S", ROWS)
        db.load_extent("Mixed", [{"x": 1}, {"y": "a"}], monoid="bag")
        types = db.catalog.types()
        assert types["Cities"] == travel_schema().extent_type("Cities")  # declared, not loaded
        assert types["S"] == TColl("set", TRecord((("x", TINT),)))
        assert types["Mixed"] == TColl("bag", ANY)

    def test_typed_once_per_version_and_only_when_asked(self, count_calls):
        from repro.types import infer

        db = Database(travel_schema())
        typed = count_calls(infer.type_of_value)
        db.load_extent("S", ROWS)
        db.load_extent("T", ROWS)
        assert typed == []  # a load types nothing
        db.lint("select distinct p.x from p in S")
        db.run("select distinct p.x from p in T", typecheck=True)
        first = len(typed)
        assert first > 0 and db.catalog.types() is db.catalog.types()
        db.run("sort p in S by p.x", strict=True, typecheck=True)
        assert len(typed) == first
        db.load_extent("U", ROWS)
        db.catalog.types()
        assert len(typed) > first

    def test_the_translator_swallows_only_typing_errors(self, db, monkeypatch):
        def broken(self, *args):
            raise RuntimeError("not a typing error")

        monkeypatch.setattr(TypeChecker, "infer", broken)
        with pytest.raises(RuntimeError):
            db.translate("sort p in S by p.x")

    def test_an_outer_variable_sorts_as_a_bag(self, db):
        """A sort input that does not type alone names an enclosing
        query's variable: ``sortedbag``, as before."""
        term = db.translate("select distinct (sort h in c.hotels by h.name) from c in Cities")
        assert "sortedbag" in str(term)

    def test_the_typer_reads_names_only_from_its_environment(self):
        from repro.calculus import var

        with pytest.raises(TypingError, match="unbound variable 'Cities'"):
            TypeChecker(travel_schema()).infer(var("Cities"))


class TestConstantLiterals:
    """N8c on ``demo_travel_database()``: before, each of these normalized
    to a merge of comprehensions — no plan, ``Cities`` read per element."""

    @pytest.mark.parametrize("q, rows", [
        ('select distinct struct(c: c.name, t: t) from c in Cities, '
         't in set("x", "y", "z")', 24),
        ("select distinct c.name from c in Cities where c.state in set('OR', 'WA')", None),
    ], ids=["cross", "membership"])
    def test_a_literal_beside_a_generator_is_scanned_once(self, q, rows):
        db = demo_travel_database()
        result = db.run_detailed(q)
        assert result.plan is not None
        scans = {str(n.source): result.metrics.block(n).rows_out
                 for n in result.plan.preorder() if type(n).__name__ == "Scan"}
        assert scans.pop("Cities") == 8
        [(literal, read)] = scans.items()
        assert literal.startswith("frozenset({") and read == (3 if rows else 2)
        assert result.value == db.run(q, engine="interpret")
        if rows:
            assert len(result.value) == rows
        generators = [q for q in result.normalized.qualifiers if isinstance(q, Generator)]
        assert any(isinstance(g.source, Const) for g in generators)

    def test_a_bag_membership_test_still_splits(self):
        db = demo_travel_database()
        q = "select c.name from c in Cities where c.state in bag('OR', 'WA')"
        result = db.run_detailed(q)
        assert "N8-merge" in result.trace.rules_fired()
        assert "N8c-literal" not in result.trace.rules_fired()
        assert "('OR' = c.state)" in str(result.normalized)
        assert result.value == db.run(q, engine="interpret")
