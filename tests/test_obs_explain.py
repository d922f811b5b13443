"""EXPLAIN [ANALYZE]: the q-error, the one document, the renderer, the CLI."""

import json

import pytest

from repro.db import Database, demo_travel_database, travel_schema
from repro.obs.explain import plan_to_dict, q_error, render_explain, summarize
from tests.data.make_exec_stats_golden import queries
from tests.data.make_plans_golden import grouped_queries

QUERY = (
    "select distinct h.name from c in Cities, h in c.hotels "
    "where h.stars >= 2"
)


@pytest.fixture
def db():
    return demo_travel_database(num_cities=5, seed=3)


class TestQError:
    def test_perfect_estimate(self):
        assert q_error(10, 10) == 1.0

    def test_symmetric(self):
        assert q_error(2, 20) == q_error(20, 2) == 10.0

    def test_floored_at_one_row(self):
        assert q_error(0.0, 0.0) == 1.0
        assert q_error(0.25, 1) == 1.0


class TestPlanToDict:
    def test_estimates_only(self, db):
        result = db.run_detailed(QUERY)
        doc = plan_to_dict(result.plan, db.catalog.extent_sizes())
        assert doc["op"] == "Reduce"
        assert doc["label"].startswith("Reduce")
        assert doc["estimated_rows"] > 0
        assert "actual_rows" not in doc
        # the tree nests all the way down to the Scan leaf
        node = doc
        while "children" in node:
            assert len(node["children"]) == 1
            node = node["children"][0]
        assert node["op"] == "Scan"

    def test_with_metrics_adds_actuals(self, db):
        result = db.run_detailed(QUERY)
        doc = plan_to_dict(result.plan, db.catalog.extent_sizes(), result.metrics)
        node = doc
        while True:
            assert set(node) - {"children"} == {
                "op", "label", "estimated_rows", "actual_rows", "rows_in", "q_error",
            }
            if "children" not in node:
                break
            node = node["children"][0]
        assert node["op"] == "Scan"
        assert node["actual_rows"] == 5  # five cities scanned

    def test_actuals_render_without_phases(self, db):
        result = db.run_detailed(QUERY)
        doc = {"plan": plan_to_dict(result.plan, db.catalog.extent_sizes(), result.metrics)}
        text = render_explain(doc)
        assert "actual=" in text and "time=" not in text

    def test_summarize(self, db):
        result = db.run_detailed(QUERY)
        doc = plan_to_dict(result.plan, db.catalog.extent_sizes(), result.metrics)
        summary = summarize(doc)
        assert summary["nodes"] >= 3
        assert 1.0 <= summary["mean_q_error"] <= summary["max_q_error"]

    def test_summarize_without_actuals_counts_nothing(self, db):
        result = db.run_detailed(QUERY)
        doc = plan_to_dict(result.plan, db.catalog.extent_sizes())
        assert summarize(doc) == {"nodes": 0}


class TestDatabaseExplain:
    def test_plain_explain_unchanged(self, db):
        text = db.explain(QUERY)
        assert text.startswith("EXPLAIN:")
        assert "Scan c <- Cities" in text and "est~5" in text
        assert "actual=" not in text  # estimates only

    def test_explain_analyze_text(self, db):
        text = db.explain(QUERY, analyze=True)
        assert text.startswith("EXPLAIN ANALYZE:")
        assert "phases:" in text and "execute=" in text
        assert "actual=" in text and "q-err=" in text
        # the execution's wall time, on the root: operators are not timed apart
        assert text.count("time=") == 1 and "Reduce" in text.split("time=")[0].splitlines()[-1]
        assert "cost model: mean q-error" in text
        # every plan operator appears with both columns
        for op in ("Reduce", "Select", "Unnest", "Scan"):
            assert op in text

    def test_explain_data_document(self, db):
        doc = db.explain_data(QUERY, analyze=True)
        assert doc["analyzed"] is True
        assert doc["engine"] == "algebra"
        assert doc["total_ms"] >= 0
        assert {"parse", "translate", "normalize", "plan", "optimize",
                "execute"} <= set(doc["phases_ms"])
        assert doc["summary"]["nodes"] >= 3
        json.dumps(doc)  # the whole document is JSON-ready

    def test_explain_data_without_analyze_has_no_actuals(self, db):
        doc = db.explain_data(QUERY)
        assert doc["analyzed"] is False
        assert "phases_ms" not in doc
        assert "actual_rows" not in doc["plan"]

    def test_an_object_extent_is_estimated_at_its_size(self):
        db = Database(travel_schema(), cache=False)
        city = {"name": "C0", "state": "OR", "population": 1, "hotels": frozenset()}
        db.load_objects("Cities", "City", [{**city, "hotel_count": 1}])
        text = db.explain("sum(select c.hotel_count from c in Cities)", analyze=True)
        scan = next(line for line in text.splitlines() if "Scan" in line)
        assert "est~1 " in scan and "actual=1" in scan and "q-err=1" in scan

    def test_non_comprehension_query_degrades_to_note(self, db):
        doc = db.explain_data("count(Cities)", analyze=True)
        assert doc["plan"] is None
        assert "note" in doc
        text = render_explain(doc)
        assert "(no algebra plan:" in text

    def test_render_explain_without_analyze(self, db):
        doc = db.explain_data(QUERY)
        text = render_explain(doc)
        assert text.startswith("EXPLAIN:")
        assert "actual=" not in text


def _corpus(modes=None):
    """Every query of ``tests/data/make_plans_golden.py``'s corpus:
    ``(label, database, oql)``, on databases with ``modes`` on."""
    modes = modes or {}
    return [
        (label, db, oql)
        for label, db, oql, _ in (*queries(modes), *grouped_queries(modes))
    ]


def _nodes(plan_doc):
    """A plan document's nodes in pre-order."""
    yield plan_doc
    for child in plan_doc.get("children", ()):
        yield from _nodes(child)


class TestOneDocument:
    """Plain EXPLAIN, EXPLAIN ANALYZE and ``--json`` are one document."""

    def test_explain_is_the_rendered_document(self):
        # A compile cache hands both calls one plan: without it each call
        # compiles, and fresh-variable suffixes (``x~17``) differ.
        for label, db, oql in _corpus({"cache": True}):
            assert db.explain(oql) == render_explain(db.explain_data(oql)), label

    def test_analyze_keeps_every_estimate(self):
        for label, db, oql in _corpus():
            if "$" in oql:  # a prepared statement's text: nothing binds it here
                continue
            plain = db.explain_data(oql)
            analyzed = db.explain_data(oql, analyze=True)
            if plain["plan"] is None:
                assert analyzed["plan"] is None, label
                continue
            assert [(n["op"], n["estimated_rows"]) for n in _nodes(plain["plan"])] == [
                (n["op"], n["estimated_rows"]) for n in _nodes(analyzed["plan"])
            ], label

    def test_every_planned_harness_class_has_a_q_error_summary(self):
        """The harness's ``algebra.qerror_*`` probe reads this summary."""
        planned = 0
        for label, db, oql in _corpus():
            harness = label.startswith(("catalogue_classes/", "analytics_classes/", "update_mix/"))
            if not harness or "$" in oql:
                continue
            doc = db.explain_data(oql, analyze=True)
            if doc["plan"] is None:
                continue
            planned += 1
            summary = doc["summary"]
            assert summary["nodes"] == len(list(_nodes(doc["plan"]))), label
            assert 1.0 <= summary["mean_q_error"] <= summary["max_q_error"], label
        assert planned > 0


class TestCli:
    def run_cli(self, args):
        from repro.obs.cli import main

        lines = []
        code = main(args, out=lines.append)
        return code, "\n".join(lines)

    def test_text_mode(self, tmp_path):
        path = tmp_path / "q.oql"
        path.write_text(QUERY + ";\ncount(Cities)")
        code, out = self.run_cli(["--analyze", str(path)])
        assert code == 0
        assert "EXPLAIN ANALYZE:" in out
        assert "actual=" in out
        assert "(no algebra plan:" in out  # the count() query

    def test_json_mode_is_valid_json(self, tmp_path):
        path = tmp_path / "q.oql"
        path.write_text(QUERY)
        code, out = self.run_cli(["--analyze", "--json", str(path)])
        assert code == 0
        docs = json.loads(out)
        assert docs[0]["file"] == str(path)
        query_doc = docs[0]["queries"][0]
        assert query_doc["analyzed"] is True
        assert query_doc["plan"]["op"] == "Reduce"

    def test_without_analyze_estimates_only(self, tmp_path):
        path = tmp_path / "q.oql"
        path.write_text(QUERY)
        code, out = self.run_cli(["--json", str(path)])
        assert code == 0
        query_doc = json.loads(out)[0]["queries"][0]
        assert query_doc["analyzed"] is False
        assert "actual_rows" not in query_doc["plan"]

    def test_bad_query_noted_and_exit_one(self, tmp_path):
        path = tmp_path / "bad.oql"
        path.write_text("select from")
        code, out = self.run_cli(["--json", str(path)])
        assert code == 1
        query_doc = json.loads(out)[0]["queries"][0]
        assert query_doc["plan"] is None
        assert "note" in query_doc

    def test_there_is_no_statistics_flag(self, tmp_path):
        path = tmp_path / "q.oql"
        path.write_text(QUERY)
        with pytest.raises(SystemExit):
            self.run_cli(["--no-stats", str(path)])

    def test_missing_file_exit_one(self, tmp_path):
        code, out = self.run_cli([str(tmp_path / "nope.oql")])
        assert code == 1
        assert "cannot read" in out

    def test_company_schema(self, tmp_path):
        path = tmp_path / "q.oql"
        path.write_text("select distinct e.name from e in Employees")
        code, out = self.run_cli(
            ["--schema", "company", "--analyze", str(path)]
        )
        assert code == 0
        assert "Scan e <- Employees" in out

    def test_module_dispatch(self, tmp_path):
        from repro.__main__ import main as module_main

        path = tmp_path / "q.oql"
        path.write_text("select distinct c.name from c in Cities")
        assert module_main(["explain", str(path)]) == 0

    def test_example_files_explain_cleanly(self):
        import pathlib

        examples = sorted(
            str(p) for p in
            (pathlib.Path(__file__).parent.parent / "examples").glob("*.oql")
        )
        assert examples
        code, out = self.run_cli(["--analyze", "--json", *examples])
        assert code == 0
        json.loads(out)


class TestRepl:
    def test_explain_analyze_command(self):
        from repro.repl import Repl

        outputs = []
        repl = Repl(demo_travel_database(num_cities=3, seed=1), out=outputs.append)
        repl.handle("\\explain analyze select distinct c.name from c in Cities")
        text = "\n".join(outputs)
        assert "EXPLAIN ANALYZE:" in text
        assert "actual=" in text

    def test_profile_toggle(self):
        from repro.repl import Repl

        outputs = []
        repl = Repl(demo_travel_database(num_cities=3, seed=1), out=outputs.append)
        repl.handle(":profile on")
        repl.handle("count(Cities)")
        repl.handle(":profile off")
        text = "\n".join(outputs)
        assert "profile is on" in text
        assert '"event": "query"' in text  # the streamed JSONL entry
        assert "profile is off" in text
        assert repl.db.query_log.enabled is False
