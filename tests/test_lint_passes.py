"""One positive and one negative fixture per QLxxx code."""

import pytest

from repro.calculus.ast import Hom, MonoidRef, Singleton
from repro.calculus.builders import call, comp, const, gen, proj, var
from repro.db.sample_data import travel_schema
from repro.lint import Linter, lint_oql
from repro.values import Bag


@pytest.fixture(scope="module")
def linter():
    return Linter(travel_schema())


def codes(diags):
    return [d.code for d in diags]


def lint(source):
    return lint_oql(source, travel_schema())


class TestQL000Syntax:
    def test_positive(self):
        diags = lint("select from Cities")
        assert codes(diags) == ["QL000"]
        assert diags[0].span is not None
        assert "found keyword 'from'" in diags[0].message

    def test_negative(self):
        assert lint("select distinct c.name from c in Cities") == []


class TestQL001IllFormedComprehension:
    def test_positive(self):
        # Cities is a set; a plain select builds a bag — hom[set -> bag]
        # violates the C/I restriction.
        diags = lint("select c.name from c in Cities")
        assert codes(diags) == ["QL001"]
        assert diags[0].span is not None and diags[0].span.line == 1

    def test_negative_distinct(self):
        assert lint("select distinct c.name from c in Cities") == []

    def test_all_violations_reported_not_just_first(self):
        diags = lint("select struct(a: c.name, b: d.name) "
                     "from c in Cities, d in Cities where c.state = d.state")
        assert codes(diags).count("QL001") == 2


class TestQL002IllFormedHom:
    def test_positive(self, linter):
        term = Hom(MonoidRef("set"), MonoidRef("sum"), "x", var("x"),
                   const(frozenset({1, 2})))
        diags = linter.lint_term(term)
        assert "QL002" in codes(diags)

    def test_negative(self, linter):
        term = Hom(MonoidRef("bag"), MonoidRef("sum"), "x", var("x"),
                   const(Bag([1, 2])))
        assert "QL002" not in codes(linter.lint_term(term))


class TestQL003Unbound:
    def test_positive_with_hint(self):
        diags = lint("select distinct c.name from c in Citees")
        assert codes(diags) == ["QL003"]
        assert diags[0].hint == "did you mean 'Cities'?"

    def test_no_hint_when_nothing_close(self):
        diags = lint("select distinct c.name from c in Zzzzzz")
        assert codes(diags) == ["QL003"]
        assert diags[0].hint is None

    def test_negative(self):
        assert lint("select distinct c.name from c in Cities") == []


class TestQL004Shadow:
    def test_positive_outer_binding(self):
        diags = lint("select distinct (select distinct c.name from c in c.hotels) "
                     "from c in Cities")
        assert "QL004" in codes(diags)

    def test_positive_database_name(self):
        diags = lint("select distinct Cities.name from Cities in Cities")
        assert "QL004" in codes(diags)

    def test_negative(self):
        assert lint("select distinct h.name from c in Cities, h in c.hotels") == []


class TestQL005UnusedGenerator:
    def test_positive(self):
        diags = lint("select distinct c.name from c in Cities, h in c.hotels")
        assert codes(diags) == ["QL005"]
        assert "'h'" in diags[0].message

    def test_negative_used_in_filter(self):
        src = ("select distinct c.name from c in Cities, h in c.hotels "
               "where h.stars > 3")
        assert lint(src) == []

    def test_negative_underscore_optout(self, linter):
        term = comp("set", var("c"),
                    [gen("c", var("Cities")), gen("_h", var("Cities"))])
        assert "QL005" not in codes(linter.lint_term(term))


class TestQL006OtherTypeError:
    def test_positive(self):
        diags = lint("select distinct c.population.x from c in Cities")
        assert "QL006" in codes(diags)

    def test_negative(self):
        assert lint("select distinct c.population from c in Cities") == []


class TestQL101ImplicitDedup:
    def test_positive_syntactic_bag(self, linter):
        term = comp("set", var("x"),
                    [gen("x", Singleton(MonoidRef("bag"), const(1)))])
        assert "QL101" in codes(linter.lint_term(term))

    def test_positive_typed_source(self, linter):
        term = comp("set", var("x"), [gen("x", const(Bag([1, 2, 2])))])
        assert "QL101" in codes(linter.lint_term(term))

    def test_positive_through_generator_binding(self, linter):
        # h bound by an earlier generator; h.rooms is a list by schema.
        term = comp(
            "set", var("r"),
            [gen("c", var("Cities")),
             gen("h", proj(var("c"), "hotels")),
             gen("r", proj(var("h"), "rooms"))])
        assert "QL101" in codes(linter.lint_term(term))

    def test_positive_beside_an_error_inside_the_source(self, linter):
        # to_bag(...) is a bag whatever its argument: the one inference
        # reports the type error where it is and still types the source
        term = comp("set", var("x"),
                    [gen("x", call("to_bag", proj(var("Cities"), "nope")))])
        assert {"QL006", "QL101"} <= set(codes(linter.lint_term(term)))

    def test_positive_names_the_monoid_as_written(self, linter):
        # a sortedbag comprehension has type list; the message says sortedbag
        from repro.calculus.parser import parse_calculus

        term = parse_calculus(
            "set{ x | x <- sortedbag[\\c. c.name]{ c | c <- Cities } }")
        [diag] = [d for d in linter.lint_term(term) if d.code == "QL101"]
        assert "over a sortedbag source" in diag.message

    def test_negative_explicit_distinct(self):
        src = ("select distinct r.price "
               "from c in Cities, h in c.hotels, r in h.rooms "
               "where r.price > 0 and h.stars > 0")
        assert "QL101" not in codes(lint(src))

    def test_negative_set_source(self, linter):
        term = comp("set", var("x"),
                    [gen("x", Singleton(MonoidRef("set"), const(1)))])
        assert "QL101" not in codes(linter.lint_term(term))


class TestQL102AlwaysTrue:
    def test_positive(self):
        diags = lint("select distinct c.name from c in Cities where 1 = 1")
        assert codes(diags) == ["QL102"]

    def test_positive_reflexive(self):
        diags = lint("select distinct c.name from c in Cities "
                     "where c.name = c.name")
        assert codes(diags) == ["QL102"]

    def test_negative(self):
        assert lint("select distinct c.name from c in Cities "
                    "where c.population > 10") == []


class TestQL103AlwaysFalse:
    def test_positive(self):
        diags = lint("select distinct c.name from c in Cities where 1 = 2")
        assert codes(diags) == ["QL103"]

    def test_positive_reflexive(self):
        diags = lint("select distinct c.name from c in Cities "
                     "where c.population < c.population")
        assert codes(diags) == ["QL103"]

    def test_negative(self):
        assert lint("select distinct c.name from c in Cities "
                    "where c.population < 10") == []


class TestQL201Cartesian:
    def test_positive(self):
        diags = lint("select distinct struct(a: c.name, b: d.name) "
                     "from c in Cities, d in Cities")
        # the dataflow pass adds QL301: same source, nothing relating c and d
        assert codes(diags) == ["QL201", "QL201", "QL301"]

    def test_negative_join_predicate(self):
        src = ("select distinct struct(a: c.name, b: d.name) "
               "from c in Cities, d in Cities where c.state = d.state")
        assert "QL201" not in codes(lint(src))

    def test_negative_correlated_source(self):
        src = ("select distinct h.name from c in Cities, h in c.hotels "
               "where h.stars > 0")
        assert "QL201" not in codes(lint(src))


class TestQL202LateFilter:
    def test_positive(self):
        diags = lint("select distinct struct(a: c.name, b: d.name) "
                     "from c in Cities, d in Cities where c.population > 0")
        assert "QL202" in codes(diags)

    def test_negative_filter_needs_both(self):
        src = ("select distinct struct(a: c.name, b: d.name) "
               "from c in Cities, d in Cities where c.state = d.state")
        assert "QL202" not in codes(lint(src))

    def test_negative_dependent_generator(self):
        src = ("select distinct h.name from c in Cities, h in c.hotels "
               "where c.population > 0 and h.stars > 0")
        assert "QL202" not in codes(lint(src))


class TestQL203PipeliningBlocked:
    def test_positive_order_by(self):
        diags = lint("select distinct c.name from c in Cities "
                     "order by c.population desc")
        only = [d for d in diags if d.code == "QL203"]
        assert only and only[0].severity == "info"

    def test_negative_flat_query(self):
        assert lint("select distinct h.name from c in Cities, h in c.hotels "
                    "where h.stars > 2") == []

    def test_negative_unnestable_subquery(self):
        src = ("select distinct h.name from h in "
               "(select distinct x from c in Cities, x in c.hotels "
               "where x.stars > 1)")
        assert "QL203" not in codes(lint(src))


class TestBatching:
    def test_acceptance_three_defects_one_run(self):
        """The issue's acceptance scenario: a C/I violation, an unbound
        variable and an uncorrelated cartesian product — all reported in
        one run, each with a stable code and a line/column span."""
        src = ("select h.name\n"
               "from c in Cities, h in Citees\n"
               "where 1 = 1")
        diags = lint(src)
        got = set(codes(diags))
        assert {"QL001", "QL003", "QL201"} <= got
        for d in diags:
            assert d.span is not None
            assert d.span.line in (1, 2, 3)

    def test_passes_are_independent(self, linter):
        from repro.lint import DEFAULT_PASSES
        from repro.oql.translate import Translator

        term = Translator(travel_schema()).translate_text(
            "select distinct c.name from c in Citees where 1 = 1")
        for lint_pass in DEFAULT_PASSES:
            # every pass runs alone without the others' context
            solo = Linter(travel_schema(), passes=(lint_pass,))
            solo.lint_term(term)

    def test_group_by_not_blamed_for_partition_bag(self):
        src = ("select distinct struct(s: st, total: count(partition)) "
               "from c in Cities group by st: c.state")
        assert not any(d.is_error for d in lint(src))

    def test_diagnostics_are_deduplicated(self):
        src = ("select distinct struct(s: st, total: count(partition)) "
               "from c in Cities where 1 = 1 group by st: c.state")
        diags = lint(src)
        keyed = [(d.code, d.message, d.span) for d in diags]
        assert len(keyed) == len(set(keyed))
