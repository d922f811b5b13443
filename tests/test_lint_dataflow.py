"""The QL3xx dataflow pass, the (code, span) de-duplication rule, and
the QL3xx baseline over the shipped examples."""

from pathlib import Path

from repro.db.sample_data import travel_schema
from repro.lint import lint_oql
from repro.lint.cli import split_queries
from repro.lint.diagnostics import make
from repro.lint.linter import _dedupe
from repro.span import Span

EXAMPLES = Path(__file__).parent.parent / "examples"


def lint(source):
    return lint_oql(source, travel_schema())


def codes(diags):
    return [d.code for d in diags]


class TestQL301DuplicateGenerator:
    def test_positive(self):
        diags = lint("select distinct struct(a: c.name, b: d.name) "
                     "from c in Cities, d in Cities")
        found = [d for d in diags if d.code == "QL301"]
        assert len(found) == 1
        assert "'d'" in found[0].message and "'c'" in found[0].message
        assert found[0].span is not None

    def test_negative_relating_predicate(self):
        src = ("select distinct struct(a: c.name, b: d.name) "
               "from c in Cities, d in Cities where c.state = d.state")
        assert "QL301" not in codes(lint(src))

    def test_negative_different_sources(self):
        src = ("select distinct struct(a: c.name, b: h.name) "
               "from c in Cities, h in c.hotels")
        assert "QL301" not in codes(lint(src))

    def test_negative_underscore_intent(self):
        src = ("select distinct struct(a: c.name, b: _d.name) "
               "from c in Cities, _d in Cities")
        assert "QL301" not in codes(lint(src))

    def test_one_report_per_duplicate(self):
        diags = lint("select distinct struct(a: c.name, b: d.name, e: f.name) "
                     "from c in Cities, d in Cities, f in Cities")
        # d duplicates c; f duplicates c (reported once, not once per earlier)
        assert codes(diags).count("QL301") == 2


class TestQL302NonEquiProduct:
    def test_positive(self):
        diags = lint("select distinct struct(a: c.name, b: d.name) "
                     "from c in Cities, d in Cities "
                     "where c.population < d.population")
        assert codes(diags) == ["QL302"]

    def test_negative_with_equi_join(self):
        src = ("select distinct struct(a: c.name, b: d.name) "
               "from c in Cities, d in Cities "
               "where c.state = d.state and c.population < d.population")
        assert "QL302" not in codes(lint(src))

    def test_negative_uncorrelated_is_ql201(self):
        diags = lint("select distinct struct(a: c.name, b: d.name) "
                     "from c in Cities, d in Cities")
        assert "QL302" not in codes(diags)
        assert "QL201" in codes(diags)

    def test_negative_dependent_generator(self):
        src = ("select distinct h.name from c in Cities, h in c.hotels "
               "where h.stars > c.population")
        assert "QL302" not in codes(lint(src))


class TestQL303IndexProbe:
    def test_positive_with_hint(self):
        diags = lint("select distinct c.name from c in Cities "
                     "where c.state = 'OR'")
        (found,) = [d for d in diags if d.code == "QL303"]
        assert found.severity == "info"
        assert found.hint == "Database.create_index('Cities', 'state')"

    def test_key_may_sit_on_either_side(self):
        diags = lint("select distinct c.name from c in Cities "
                     "where 'OR' = c.state")
        assert "QL303" in codes(diags)

    def test_reported_once_per_extent_attribute(self):
        diags = lint("select distinct c.name from c in Cities "
                     "where c.state = 'OR' and c.state = 'WA'")
        assert codes(diags).count("QL303") == 1

    def test_negative_join_key_varies(self):
        # the 'key' mentions another generator: not a constant probe
        src = ("select distinct struct(a: c.name, b: d.name) "
               "from c in Cities, d in Cities where c.state = d.state")
        assert "QL303" not in codes(lint(src))

    def test_negative_non_extent_source(self):
        src = ("select distinct h.name from c in Cities, h in c.hotels "
               "where h.stars = 4 and h.name = c.name")
        assert "QL303" not in codes(lint(src))

    def test_negative_non_equality(self):
        src = "select distinct c.name from c in Cities where c.population > 5"
        assert "QL303" not in codes(lint(src))

    def test_negative_group_by_key_filter(self):
        # the translator's synthetic ``key = label`` filter inside the
        # partition comprehension is not a selection an index serves
        src = ("select struct(s: st, n: count(partition)) "
               "from c in Cities group by st: c.state")
        assert "QL303" not in codes(lint(src))

    def test_group_by_still_reports_the_users_own_equality(self):
        src = ("select struct(s: st, n: count(partition)) from c in Cities "
               "where c.zip = 97201 group by st: c.state")
        found = [d for d in lint(src) if d.code == "QL303"]
        assert [d.hint for d in found] == ["Database.create_index('Cities', 'zip')"]


class TestDedupe:
    def test_same_code_and_span_collapse(self):
        span = Span(1, 5, 1, 9)
        first = make("QL005", "worded one way", span)
        second = make("QL005", "worded another way", span)
        assert _dedupe([first, second]) == [first]

    def test_different_spans_survive(self):
        first = make("QL005", "same text", Span(1, 5, 1, 9))
        second = make("QL005", "same text", Span(2, 5, 2, 9))
        assert _dedupe([first, second]) == [first, second]

    def test_spanless_fall_back_to_message(self):
        first = make("QL000", "could not parse")
        second = make("QL000", "could not parse")
        third = make("QL000", "another failure")
        assert _dedupe([first, second, third]) == [first, third]


class TestExamplesBaseline:
    """The shipped examples carry a known, pinned set of QL3xx findings.

    CI's verify-mode job relies on this: new dataflow findings on the
    examples (or silently lost ones) must show up as a diff here.
    """

    def findings(self, filename):
        source = (EXAMPLES / filename).read_text(encoding="utf-8")
        out = []
        for _, _, text in split_queries(source):
            out += [d.code for d in lint(text) if d.code.startswith("QL3")]
        return out

    def test_travel_queries_baseline(self):
        assert self.findings("travel_queries.oql") == ["QL303"]

    def test_lint_showcase_baseline(self):
        assert self.findings("lint_showcase.oql") == ["QL301", "QL302", "QL303"]
