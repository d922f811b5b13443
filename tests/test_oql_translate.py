"""The section 3 OQL -> calculus translation rules."""

import re

import pytest

from repro.calculus import alpha_equal, comp, const, eq, gen, gt, pretty, proj, var
from repro.calculus.ast import Call, Comprehension, Merge
from repro.eval import evaluate
from repro.oql import translate_oql
from repro.values import Bag, Record, to_python


#: the section 3 translation table: OQL, and the calculus it translates to
#: with each fresh variable printed as ``_``
TRANSLATION_TABLE = {
    "select-distinct": ("select distinct c.name from c in Cities", "set{ c.name | c <- Cities }"),
    "select-bag": ("select c.name from c in Cities", "bag{ c.name | c <- Cities }"),
    "select-where": (
        "select distinct h from c in Cities, h in c.hotels where h.stars = 5",
        "set{ h | c <- Cities, h <- c.hotels, (h.stars = 5) }",
    ),
    "exists": ("exists h in hotels : h.stars > 4", "some{ (h.stars > 4) | h <- hotels }"),
    "forall": ("for all h in hotels : h.stars > 4", "all{ (h.stars > 4) | h <- hotels }"),
    "sum": ("sum(xs)", "sum{ _ | _ <- xs }"),
    "struct": ("struct(a: 1, b: 2)", "<a=1, b=2>"),
    "membership": ("3 in xs", "some{ (_ = 3) | _ <- xs }"),
    # count over a set is not hom[set -> sum] (the paper's restriction)
    "count": ("count(xs)", "count(xs)"),
}


@pytest.mark.parametrize("label", list(TRANSLATION_TABLE))
def test_translation_table(label):
    oql, calculus = TRANSLATION_TABLE[label]
    assert re.sub(r"\w+~\d+", "_", pretty(translate_oql(oql))) == calculus


class TestSelectTranslation:
    def test_select_distinct_is_set(self):
        term = translate_oql("select distinct c.name from c in Cities")
        expected = comp("set", proj(var("c"), "name"), [gen("c", var("Cities"))])
        assert term == expected

    def test_select_is_bag(self):
        term = translate_oql("select c.name from c in Cities")
        assert isinstance(term, Comprehension)
        assert term.monoid.name == "bag"

    def test_where_becomes_predicate(self):
        term = translate_oql("select c from c in Cities where c.pop > 5")
        expected = comp(
            "bag", var("c"), [gen("c", var("Cities")), gt(proj(var("c"), "pop"), const(5))]
        )
        assert term == expected

    def test_multiple_generators(self):
        term = translate_oql("select h from c in Cities, h in c.hotels")
        assert len(term.qualifiers) == 2


class TestQuantifierTranslation:
    def test_exists(self):
        term = translate_oql("exists h in hotels : h.stars > 4")
        expected = comp(
            "some", gt(proj(var("h"), "stars"), const(4)), [gen("h", var("hotels"))]
        )
        assert term == expected

    def test_forall(self):
        term = translate_oql("for all h in hotels : h.stars > 4")
        assert term.monoid.name == "all"

    def test_membership_becomes_some(self):
        term = translate_oql("3 in xs")
        assert isinstance(term, Comprehension)
        assert term.monoid.name == "some"
        expected = comp("some", eq(var("w"), const(3)), [gen("w", var("xs"))])
        assert alpha_equal(term, expected)

    def test_exists_subquery(self):
        term = translate_oql("exists(select h from h in Hs)")
        assert term.monoid.name == "some"
        assert term.head == const(True)


class TestAggregateTranslation:
    def test_sum_is_comprehension(self):
        term = translate_oql("sum(xs)")
        assert term.monoid.name == "sum"
        assert alpha_equal(term, comp("sum", var("a"), [gen("a", var("xs"))]))

    def test_max_min(self):
        assert translate_oql("max(xs)").monoid.name == "max"
        assert translate_oql("min(xs)").monoid.name == "min"

    def test_count_is_builtin(self):
        """Set cardinality is not hom[set->sum]; count is a primitive."""
        term = translate_oql("count(xs)")
        assert isinstance(term, Call) and term.name == "count"

    def test_avg_is_builtin(self):
        term = translate_oql("avg(xs)")
        assert isinstance(term, Call) and term.name == "avg"

    def test_aggregate_of_subquery(self):
        term = translate_oql("sum(select e.salary from e in Es)")
        assert term.monoid.name == "sum"
        inner = term.qualifiers[0].source
        assert isinstance(inner, Comprehension) and inner.monoid.name == "bag"


class TestConstructorTranslation:
    def test_collection_literal_builds_units(self):
        term = translate_oql("list(1, 2)")
        assert isinstance(term, Merge)
        assert evaluate(term) == (1, 2)

    def test_set_literal(self):
        assert evaluate(translate_oql("set(1, 2, 2)")) == frozenset({1, 2})

    def test_bag_literal(self):
        assert evaluate(translate_oql("bag(1, 1)")) == Bag([1, 1])

    def test_struct(self):
        assert evaluate(translate_oql("struct(a: 1, b: 2)")) == Record(a=1, b=2)

    def test_if_expression(self):
        assert evaluate(translate_oql("if 1 < 2 then 'y' else 'n'")) == "y"


class TestSortAndOrderBy:
    def test_sort_over_list_uses_sortedbag(self):
        term = translate_oql("sort x in list(3, 1, 2) by x")
        assert term.monoid.name == "sortedbag"
        assert evaluate(term) == (1, 2, 3)

    def test_sort_keeps_duplicates(self):
        term = translate_oql("sort x in bag(2, 1, 2) by x")
        assert evaluate(term) == (1, 2, 2)

    def test_sort_desc(self):
        term = translate_oql("sort x in list(1, 3, 2) by x desc")
        assert evaluate(term) == (3, 2, 1)

    def test_order_by_projects_after_sorting(self):
        term = translate_oql(
            "select x.name from x in Xs order by x.rank"
        )
        xs = (Record(name="b", rank=2), Record(name="a", rank=1))
        assert to_python(evaluate(term, {"Xs": xs})) == ["a", "b"]

    def test_order_by_desc(self):
        term = translate_oql("select x.name from x in Xs order by x.rank desc")
        xs = (Record(name="b", rank=2), Record(name="a", rank=1))
        assert to_python(evaluate(term, {"Xs": xs})) == ["b", "a"]

    def test_order_by_multiple_keys(self):
        term = translate_oql(
            "select x.name from x in Xs order by x.group, x.rank desc"
        )
        xs = (
            Record(name="a", group=1, rank=1),
            Record(name="b", group=1, rank=2),
            Record(name="c", group=0, rank=1),
        )
        assert to_python(evaluate(term, {"Xs": xs})) == ["c", "b", "a"]


class TestGroupBy:
    def test_group_by_partition(self):
        term = translate_oql(
            "select struct(d: dno, total: sum(select p.salary from p in partition)) "
            "from e in Es group by dno: e.dno"
        )
        es = Bag(
            [
                Record(name="a", dno=1, salary=10),
                Record(name="b", dno=1, salary=20),
                Record(name="c", dno=2, salary=5),
            ]
        )
        out = evaluate(term, {"Es": es})
        assert out == frozenset({Record(d=1, total=30), Record(d=2, total=5)})

    def test_group_by_having(self):
        term = translate_oql(
            "select dno from e in Es group by dno: e.dno "
            "having count(partition) > 1"
        )
        es = Bag([Record(dno=1), Record(dno=1), Record(dno=2)])
        assert evaluate(term, {"Es": es}) == frozenset({1})

    def test_group_by_multiple_keys(self):
        term = translate_oql(
            "select struct(a: x, b: y) from e in Es group by x: e.x, y: e.y"
        )
        es = Bag([Record(x=1, y=2), Record(x=1, y=2), Record(x=1, y=3)])
        out = evaluate(term, {"Es": es})
        assert out == frozenset({Record(a=1, b=2), Record(a=1, b=3)})


class TestEndToEndEvaluation:
    CITIES = frozenset(
        {
            Record(
                name="Portland",
                hotels=frozenset(
                    {
                        Record(name="Benson", stars=5, rooms=(Record(beds=2),)),
                        Record(name="Hilton", stars=4, rooms=(Record(beds=3),)),
                    }
                ),
            ),
            Record(
                name="Salem",
                hotels=frozenset({Record(name="Grand", stars=3, rooms=())}),
            ),
        }
    )

    def test_paper_portland_query(self):
        """The paper's running example: hotels with three-bed rooms."""
        term = translate_oql(
            "select h.name from c in Cities, h in c.hotels, r in h.rooms "
            "where c.name = 'Portland' and r.beds = 3"
        )
        assert evaluate(term, {"Cities": self.CITIES}) == Bag(["Hilton"])

    def test_nested_subquery_in_from(self):
        term = translate_oql(
            "select h.name from h in (select distinct x from c in Cities, "
            "x in c.hotels where c.name = 'Portland')"
        )
        out = evaluate(term, {"Cities": self.CITIES})
        assert out == Bag(["Benson", "Hilton"])

    def test_exists_predicate(self):
        term = translate_oql(
            "select distinct c.name from c in Cities "
            "where exists h in c.hotels : h.stars = 5"
        )
        assert evaluate(term, {"Cities": self.CITIES}) == frozenset({"Portland"})

    def test_union_of_queries(self):
        term = translate_oql(
            "(select distinct c.name from c in Cities) union set('Eugene')"
        )
        out = evaluate(term, {"Cities": self.CITIES})
        assert out == frozenset({"Portland", "Salem", "Eugene"})
