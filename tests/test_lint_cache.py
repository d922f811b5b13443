"""QL401 — literal-only query variants (the batch cache lint)."""

from repro.lint.cachelint import find_literal_variants, run_batch
from repro.lint.cli import lint_text, split_queries
from repro.lint.linter import Linter


def _segments(source):
    """``(line0, col0, term)`` per query of ``source`` that translates —
    what ``lint_text`` hands the batch pass."""
    linter = Linter()
    found = []
    for line0, col0, text in split_queries(source):
        term, _ = linter.front_end(text)
        if term is not None:
            found.append((line0, col0, term))
    return found


class TestFindLiteralVariants:
    def test_flags_literal_only_pair(self):
        diags = find_literal_variants(_segments(
            "select distinct c.name from c in Cities where c.population > 100;\n"
            "select distinct c.name from c in Cities where c.population > 500"))
        assert [d.code for d in diags] == ["QL401", "QL401"]
        assert all(d.severity == "info" for d in diags)
        assert "db.prepare" in diags[0].hint
        # spans land on each variant's own line
        assert {d.span.line for d in diags} == {1, 2}

    def test_alpha_variant_literals_still_flagged(self):
        diags = find_literal_variants(_segments(
            "select distinct c.name from c in Cities where c.state = 'OR';\n"
            "select distinct x.name from x in Cities where x.state = 'WA'"))
        assert [d.code for d in diags] == ["QL401", "QL401"]

    def test_identical_queries_not_flagged(self):
        diags = find_literal_variants(_segments(
            "select distinct c.name from c in Cities where c.state = 'OR';\n"
            "select distinct c.name from c in Cities where c.state = 'OR'"))
        assert diags == []

    def test_structurally_different_not_flagged(self):
        diags = find_literal_variants(_segments(
            "select distinct c.name from c in Cities where c.population > 100;\n"
            "select distinct c.name from c in Cities where c.state = 'OR'"))
        assert diags == []

    def test_no_literals_not_flagged(self):
        # alpha-variants with no constants: nothing to parameterize
        diags = find_literal_variants(_segments(
            "select distinct c.name from c in Cities;\n"
            "select distinct x.name from x in Cities"))
        assert diags == []

    def test_single_query_not_flagged(self):
        diags = find_literal_variants(_segments(
            "select distinct c.name from c in Cities where c.state = 'OR'"))
        assert diags == []

    def test_already_parameterized_not_flagged(self):
        diags = find_literal_variants(_segments(
            "select distinct c.name from c in Cities where c.state = $a;\n"
            "select distinct c.name from c in Cities where c.state = $b"))
        assert diags == []

    def test_unparseable_queries_skipped(self):
        diags = find_literal_variants(_segments(
            "select from from;\n"
            "select distinct c.name from c in Cities where c.state = 'OR'"))
        assert diags == []

    def test_three_variants_three_findings(self):
        diags = find_literal_variants(_segments(
            "count(select c from c in Cities where c.population > 1);\n"
            "count(select c from c in Cities where c.population > 2);\n"
            "count(select c from c in Cities where c.population > 3)"))
        assert len(diags) == 3
        assert all("3 queries" in d.message for d in diags)


class TestIntegration:
    def test_lint_text_includes_batch_findings_sorted(self):
        source = (
            "select distinct c.name from c in Cities where c.population > 100;\n"
            "select distinct c.name from c in Cities where c.population > 500"
        )
        findings = lint_text(source, Linter())
        codes = [d.code for d in findings]
        assert codes.count("QL401") == 2
        # sorted by position: line-1 findings precede line-2 findings
        positions = [d.span.line for d in findings if d.span is not None]
        assert positions == sorted(positions)

    def test_run_batch_matches_finder(self):
        segs = _segments(
            "select distinct c.name from c in Cities where c.state = 'OR';\n"
            "select distinct c.name from c in Cities where c.state = 'WA'")
        assert len(run_batch(segs)) == len(find_literal_variants(segs)) == 2

    def test_examples_stay_clean(self):
        from pathlib import Path

        from repro.db.sample_data import travel_schema

        linter = Linter(travel_schema())
        for path in sorted(Path("examples").glob("*.oql")):
            findings = lint_text(path.read_text(encoding="utf-8"), linter)
            assert not [d for d in findings if d.code == "QL401"], path
