"""The batch CLI: query splitting, span re-basing, exit codes."""

from repro.db.sample_data import travel_schema
from repro.lint.cli import lint_text, main, split_queries
from repro.lint.linter import Linter


def run_cli(args):
    lines = []
    code = main(args, out=lines.append)
    return code, "\n".join(lines)


class TestSplitQueries:
    def test_single_query_no_semicolon(self):
        assert list(split_queries("select 1")) == [(0, 0, "select 1")]

    def test_two_queries_offsets(self):
        chunks = list(split_queries("count(Cities);\nselect 1"))
        assert len(chunks) == 2
        assert chunks[0][:2] == (0, 0)
        line0, col0, text = chunks[1]
        # the segment keeps the newline after ';', so it starts right
        # there and the segment-relative line 2 rebases to file line 2
        assert (line0, col0) == (0, 14)
        assert text == "\nselect 1"

    def test_semicolon_in_string_does_not_split(self):
        chunks = list(split_queries("select distinct c.name from c in Cities "
                                    "where c.name = 'a;b'"))
        assert len(chunks) == 1

    def test_semicolon_in_comment_does_not_split(self):
        source = "-- not a split; really\ncount(Cities)"
        chunks = list(split_queries(source))
        assert len(chunks) == 1

    def test_blank_segments_dropped(self):
        assert list(split_queries(";;  ;\n;")) == []


class TestLintText:
    def test_spans_rebased_to_file_coordinates(self):
        source = "count(Cities);\nselect distinct c.name from c in Citees"
        findings = lint_text(source, Linter(travel_schema()))
        assert [d.code for d in findings] == ["QL003"]
        span = findings[0].span
        assert span.line == 2
        # 'Citees' starts at column 34 of the second line
        assert source.splitlines()[span.line - 1][span.column - 1:].startswith("Citees")


    def test_each_query_is_parsed_once(self, count_calls):
        """The batch pass (QL401) reads the terms the per-query lint
        translated; it has no front end of its own."""
        from pathlib import Path

        from repro.oql.parser import parse

        source = Path("examples/lint_showcase.oql").read_text(encoding="utf-8")
        parsed = count_calls(parse)
        lint_text(source, Linter(travel_schema()))
        assert parsed == [text for _, _, text in split_queries(source)]


class TestMain:
    def test_clean_file_exits_zero(self, tmp_path):
        path = tmp_path / "ok.oql"
        path.write_text("select distinct c.name from c in Cities")
        code, out = run_cli([str(path)])
        assert code == 0
        assert "no diagnostics" in out

    def test_error_file_exits_one(self, tmp_path):
        path = tmp_path / "bad.oql"
        path.write_text("select distinct c.name from c in Citees")
        code, out = run_cli([str(path)])
        assert code == 1
        assert "error[QL003]" in out
        assert "did you mean 'Cities'?" in out

    def test_warning_only_file_exits_zero(self, tmp_path):
        path = tmp_path / "warn.oql"
        path.write_text("select distinct c.name from c in Cities where 1 = 1")
        code, out = run_cli([str(path)])
        assert code == 0
        assert "warning[QL102]" in out

    def test_quiet_mode_summarizes(self, tmp_path):
        path = tmp_path / "bad.oql"
        path.write_text("select distinct c.name from c in Citees")
        code, out = run_cli(["--quiet", str(path)])
        assert code == 1
        assert out.strip() == f"{path}: 1 errors, 0 warnings"

    def test_missing_file_exits_one(self, tmp_path):
        code, out = run_cli([str(tmp_path / "nope.oql")])
        assert code == 1
        assert "cannot read" in out

    def test_schema_none(self, tmp_path):
        path = tmp_path / "q.oql"
        path.write_text("select distinct c.name from c in Cities")
        code, out = run_cli(["--schema", "none", str(path)])
        assert code == 1  # Cities unknown without a schema
        assert "QL003" in out

    def test_company_schema(self, tmp_path):
        path = tmp_path / "q.oql"
        path.write_text("select distinct e.name from e in Employees")
        code, out = run_cli(["--schema", "company", str(path)])
        assert code == 0

    def test_multiple_files_one_bad_fails(self, tmp_path):
        good = tmp_path / "good.oql"
        good.write_text("count(Cities)")
        bad = tmp_path / "bad.oql"
        bad.write_text("select from")
        code, out = run_cli([str(good), str(bad)])
        assert code == 1
        assert f"== {good}" in out and f"== {bad}" in out

    def test_repo_example_files_are_lintable(self):
        import pathlib

        examples = sorted(
            str(p) for p in
            (pathlib.Path(__file__).parent.parent / "examples").glob("*.oql")
        )
        assert examples, "examples/*.oql missing"
        code, out = run_cli(examples)
        assert code == 0

    def test_module_dispatch(self, tmp_path):
        from repro.__main__ import main as module_main

        path = tmp_path / "q.oql"
        path.write_text("count(Cities)")
        assert module_main(["lint", str(path)]) == 0


class TestExitStatusContract:
    """docs/LINT.md 'Exit status': 0 = no errors (warnings/infos print
    but never fail), 1 = error diagnostic or unreadable file."""

    def test_info_only_exits_zero(self, tmp_path):
        path = tmp_path / "info.oql"
        # QL303 (index-probe candidate) is info severity
        path.write_text(
            "select distinct c.name from c in Cities where c.state = 'OR'"
        )
        code, out = run_cli([str(path)])
        assert code == 0
        assert "info[QL303]" in out

    def test_warnings_and_infos_together_exit_zero(self, tmp_path):
        path = tmp_path / "mixed.oql"
        path.write_text(
            "select distinct c.name from c in Cities, h in c.hotels "
            "where c.state = 'OR'"
        )
        code, out = run_cli([str(path)])
        assert code == 0
        assert "warning[QL005]" in out and "info[QL303]" in out

    def test_json_info_only_exits_zero(self, tmp_path):
        import json

        path = tmp_path / "info.oql"
        path.write_text(
            "select distinct c.name from c in Cities where c.state = 'OR'"
        )
        lines = []
        code = main(["--json", str(path)], out=lines.append)
        assert code == 0
        report = json.loads("\n".join(lines))[0]
        assert report["errors"] == 0
        assert any(d["severity"] == "info" for d in report["diagnostics"])


class TestJson:
    def run_json(self, args):
        import json

        lines = []
        code = main(["--json", *args], out=lines.append)
        return code, json.loads("\n".join(lines))

    def test_clean_file(self, tmp_path):
        path = tmp_path / "ok.oql"
        path.write_text("select distinct c.name from c in Cities")
        code, reports = self.run_json([str(path)])
        assert code == 0
        assert reports == [
            {"file": str(path), "errors": 0, "warnings": 0, "diagnostics": []}
        ]

    def test_diagnostic_shape_and_rebased_span(self, tmp_path):
        path = tmp_path / "bad.oql"
        path.write_text("count(Cities);\nselect distinct c.name from c in Citees")
        code, reports = self.run_json([str(path)])
        assert code == 1
        report = reports[0]
        assert report["errors"] == 1
        diag = report["diagnostics"][0]
        assert diag["code"] == "QL003"
        assert diag["severity"] == "error"
        assert diag["hint"] == "did you mean 'Cities'?"
        assert diag["span"]["line"] == 2  # rebased past the first query
        assert diag["span"]["end_column"] > diag["span"]["column"]

    def test_warnings_counted_exit_zero(self, tmp_path):
        path = tmp_path / "warn.oql"
        path.write_text("select distinct c.name from c in Cities where 1 = 1")
        code, reports = self.run_json([str(path)])
        assert code == 0
        assert reports[0]["warnings"] >= 1
        assert all(
            d["severity"] != "error" for d in reports[0]["diagnostics"]
        )

    def test_missing_file_still_valid_json(self, tmp_path):
        good = tmp_path / "good.oql"
        good.write_text("count(Cities)")
        code, reports = self.run_json([str(good), str(tmp_path / "nope.oql")])
        assert code == 1
        assert reports[0]["diagnostics"] == []
        assert "error" in reports[1]
