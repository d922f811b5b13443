"""Lint through the facade: Database.lint, strict mode, the REPL, and
the error-type satellites (spans on syntax errors, did-you-mean)."""

import pytest

from repro.db.database import demo_travel_database
from repro.errors import (
    LintError,
    OQLSyntaxError,
    TranslationError,
    UnboundVariableError,
    WellFormednessError,
)
from repro.oql.parser import parse
from repro.repl import Repl
from repro.span import span_of


@pytest.fixture(scope="module")
def db():
    return demo_travel_database(num_cities=3, seed=1)


class TestDatabaseLint:
    def test_returns_batch(self, db):
        diags = db.lint("select h.name from c in Cities, h in Citees where 1 = 1")
        codes = {d.code for d in diags}
        assert {"QL003", "QL102"} <= codes

    def test_clean_query(self, db):
        assert db.lint("select distinct c.name from c in Cities") == []

    def test_never_raises_on_garbage(self, db):
        diags = db.lint("select ??? from")
        assert [d.code for d in diags] == ["QL000"]

    # A registration cannot be undone, so these two get a database of
    # their own rather than the module's.

    def test_views_are_known_names(self):
        db = demo_travel_database(num_cities=3, seed=1)
        db.define("BigCities",
                  "select distinct c from c in Cities where c.population > 0")
        assert db.lint("count(BigCities)") == []

    def test_registered_functions_are_known_names(self):
        db = demo_travel_database(num_cities=3, seed=1)
        db.register_function("shout", lambda s: s.upper())
        diags = db.lint("select distinct shout(c.name) from c in Cities")
        assert "QL003" not in {d.code for d in diags}


class TestStrictMode:
    def test_strict_raises_before_evaluation(self, db):
        with pytest.raises(LintError) as err:
            db.run("select distinct c.name from c in Citees", strict=True)
        assert err.value.diagnostics[0].code == "QL003"
        assert "lint failed" in str(err.value)

    def test_strict_allows_clean_query(self, db):
        value = db.run("select distinct c.name from c in Cities", strict=True)
        assert value

    def test_strict_allows_warnings(self, db):
        # always-true filter is only a warning
        value = db.run("select distinct c.name from c in Cities where 1 = 1",
                       strict=True)
        assert value

    def test_default_path_unchanged(self, db):
        # no strict: the bad name surfaces as the evaluator's fail-fast
        # UnboundVariableError, exactly as before the linter existed
        with pytest.raises(UnboundVariableError):
            db.run("select distinct c.name from c in Citees")

    def test_syntax_error_is_the_one_ql000(self, db):
        with pytest.raises(LintError) as err:
            db.run("select ??? from", strict=True)
        [diag] = err.value.diagnostics
        assert diag.code == "QL000"
        assert diag.message == "unexpected character '?'"
        assert (diag.span.line, diag.span.column) == (1, 8)
        with pytest.raises(OQLSyntaxError):
            db.run("select ??? from")

    def test_translation_error_is_the_one_ql000(self, db, monkeypatch):
        from repro.oql.translate import Translator

        def refuse(self, node):
            raise TranslationError("cannot translate Nothing")

        monkeypatch.setattr(Translator, "translate", refuse)
        with pytest.raises(LintError) as err:
            db.run("count(Cities)", strict=True)
        [diag] = err.value.diagnostics
        assert (diag.code, diag.message, diag.span) == (
            "QL000", "cannot translate Nothing", None)
        with pytest.raises(TranslationError):
            db.run("count(Cities)")

    def test_lint_error_precedes_the_typecheck_stage(self, db):
        query = "sum(select distinct c.population from c in Cities)"
        with pytest.raises(LintError) as err:
            db.run(query, strict=True, typecheck=True)
        assert [d.code for d in err.value.diagnostics] == ["QL001"]
        with pytest.raises(WellFormednessError):
            db.run(query, typecheck=True)

    def test_parameters_pass_lint_and_fail_at_execution(self, db):
        with pytest.raises(UnboundVariableError, match=r"\$min"):
            db.run("select distinct c.name from c in Cities "
                   "where c.population > $min", strict=True)

    def test_cached_variants_report_their_own_spans(self):
        db = demo_travel_database(num_cities=3, seed=1)
        db.enable_cache()
        variants = (("select distinct c.name from c in Citees", 34),
                    ("select distinct x.name   from x in Citees", 36))

        def strict_columns():
            for text, column in variants:
                with pytest.raises(LintError) as err:
                    db.run(text, strict=True)
                [diag] = err.value.diagnostics
                assert (diag.code, diag.span.column) == ("QL003", column)

        strict_columns()  # nothing cached yet: the lint stage of a miss
        for text, _ in variants:  # one entry, the second text aliased to it
            with pytest.raises(UnboundVariableError):
                db.run(text)
        assert db.cache.stats.compile_misses == 1
        strict_columns()  # by-text hits: each text linted as itself

    def test_warm_strict_hit_returns_the_value(self):
        db = demo_travel_database(num_cities=3, seed=1)
        db.enable_cache()
        query = "select distinct c.name from c in Cities"
        cold = db.run(query, strict=True)
        warm = db.run_detailed(query, strict=True)
        assert warm.value == cold and warm.cache["compile"] == "hit"

    def test_a_view_is_a_known_name_not_its_body(self):
        db = demo_travel_database(num_cities=3, seed=1)
        # the body is a bag select over the set Cities: QL001 if linted
        db.define("Names", "select c.name from c in Cities")
        assert db.lint("select c.name from c in Cities")[0].code == "QL001"
        assert db.lint("count(Names)") == []
        assert db.run("count(Names)", strict=True) == 3

    def test_strict_run_has_one_front_end(self, monkeypatch, count_calls):
        """Clock-free shape of a cacheless strict run: one parse, one
        normalization, and one type inference — the lint's, which the
        ``typecheck`` stage reads."""
        from repro.normalize.engine import normalize_with_trace
        from repro.oql.parser import parse
        from repro.types.infer import TypeChecker

        db = demo_travel_database(num_cities=3, seed=1)
        db.disable_cache()
        db.lint("count(Cities)")  # derive the known names up front
        parses = count_calls(parse)
        normalizations = count_calls(normalize_with_trace)
        inferences = []
        infer = TypeChecker.infer
        monkeypatch.setattr(
            TypeChecker, "infer",
            lambda self, *args: inferences.append(args) or infer(self, *args))
        # a bag select over a set subquery: QL203 asks for the normal form
        value = db.run(
            "select distinct h.name from h in (select distinct x from c in Cities, "
            "x in c.hotels) where h.stars > 0", strict=True, typecheck=True,
            verify=False)  # the rewrite verifier infers types of its own
        assert value
        assert (len(parses), len(normalizations), len(inferences)) == (1, 1, 1)


class TestStrictVerdict:
    """With a cache attached, a text alias records the compile version at
    which its text last linted clean, and a strict hit needs it current:
    one lint call site, hit or miss. A text that fails is linted again."""

    QUERY = "select distinct c.name from c in Cities"
    UNKNOWN = "select distinct c.name from c in Citees"

    @pytest.fixture
    def db(self):
        db = demo_travel_database(num_cities=3, seed=1)
        db.enable_cache()
        return db

    @pytest.fixture
    def lints(self, monkeypatch):
        from repro.lint.linter import Linter

        calls = []
        run = Linter.run
        monkeypatch.setattr(Linter, "run", lambda self, *args: calls.append(args) or run(self, *args))
        return calls

    def test_a_strict_hit_replays_a_clean_verdict(self, db, lints, count_calls):
        parses = count_calls(parse)
        cold = db.run_detailed(self.QUERY, strict=True)
        warm = db.run_detailed(self.QUERY, strict=True)
        assert warm.value == cold.value and warm.cache["compile"] == "hit"
        assert (len(lints), len(parses)) == (1, 1)
        assert "lint" in warm.cached

    def test_a_failing_text_is_linted_again_with_the_same_spans(self, db, lints, count_calls):
        """Nothing is kept for a text that fails: each strict call parses
        and lints it again, and raises the same diagnostics."""
        with pytest.raises(UnboundVariableError):
            db.run(self.UNKNOWN)  # cached without lint
        parses = count_calls(parse)
        raised = []
        for _ in range(2):
            with pytest.raises(LintError) as err:
                db.run(self.UNKNOWN, strict=True)
            raised.append(err.value.diagnostics)
        assert raised[0] == raised[1] and raised[0][0].code == "QL003"
        assert (len(lints), len(parses)) == (2, 2)

    def test_a_new_compile_version_lints_again(self, db, lints):
        db.run(self.QUERY, strict=True)
        db.run(self.QUERY)  # not strict: no lint
        assert len(lints) == 1
        db.create_index("Cities", "name")
        db.run(self.QUERY, strict=True)
        assert len(lints) == 2


class TestLintNamesPerVersion:
    """``Database.lint`` derives the known names and their types once per
    compile version: its cost must not grow with the data."""

    def test_undeclared_extent_is_typed_once_per_version(self, count_calls):
        from repro.db.database import Database
        from repro.types.infer import type_of_value

        db = Database()
        rows = [{"k": i % 3, "text": f"n{i}"} for i in range(50)]
        db.load_extent("Notes", rows, monoid="bag")
        query = "select distinct n.text from n in Notes"  # no literal to type
        calls = count_calls(type_of_value)
        assert db.lint(query) == []
        assert len(calls) > len(rows)  # typing the extent read every row
        # and the type is in use: the rows have no such field
        assert [d.code for d in db.lint("select distinct n.nope from n in Notes")] == ["QL006"]
        del calls[:]
        assert db.lint(query) == []
        assert len(db.run(query, strict=True)) == len(rows)
        assert calls == []
        db.load_extent("Notes", rows[:5], monoid="bag", replace=True)
        assert db.lint(query) == []
        assert len(calls) > 5


class TestReplLint:
    def run_repl(self, db, lines):
        out = []
        repl = Repl(db, out=out.append)
        for line in lines:
            repl.handle(line)
        return repl, "\n".join(out)

    def test_warning_printed_after_query(self, db):
        _, out = self.run_repl(
            db, ["select distinct c.name from c in Cities where 1 = 1"])
        assert "warning[QL102]" in out

    def test_hint_printed(self, db):
        # the query still runs (population exists) but shadows nothing;
        # use an unbound name inside a runnable query via catalog-known
        # extents: a clean query prints no diagnostics at all
        _, out = self.run_repl(db, ["select distinct c.name from c in Cities"])
        assert "warning[" not in out and "error[" not in out

    def test_toggle_off(self, db):
        _, out = self.run_repl(
            db,
            [":lint off",
             "select distinct c.name from c in Cities where 1 = 1"])
        assert "lint is off" in out
        assert "QL102" not in out

    def test_toggle_back_on(self, db):
        repl, out = self.run_repl(
            db,
            [":lint off", ":lint on",
             "select distinct c.name from c in Cities where 1 = 1"])
        assert repl.lint_enabled
        assert "QL102" in out

    def test_backslash_spelling(self, db):
        repl, out = self.run_repl(db, ["\\lint off"])
        assert not repl.lint_enabled

    def test_status_query(self, db):
        _, out = self.run_repl(db, [":lint"])
        assert "lint is on" in out

    def test_usage_on_bad_argument(self, db):
        _, out = self.run_repl(db, [":lint sideways"])
        assert "usage" in out


class TestSyntaxErrorSpans:
    def test_parse_error_carries_location(self):
        with pytest.raises(OQLSyntaxError) as err:
            parse("select from Cities")
        assert err.value.line == 1
        assert err.value.column == 8
        assert err.value.span is not None
        assert "at line 1, column 8" in str(err.value)

    def test_lexer_error_carries_location(self):
        with pytest.raises(OQLSyntaxError) as err:
            parse("select 'unterminated")
        assert err.value.line == 1
        assert err.value.span is not None

    def test_eof_error_names_end_of_input(self):
        with pytest.raises(OQLSyntaxError) as err:
            parse("select distinct c.name from c in")
        assert "end of input" in str(err.value)


class TestSpanThreading:
    def test_generator_spans_reach_calculus(self):
        from repro.oql.translate import Translator

        term = Translator().translate_text(
            "select distinct h.name\nfrom c in Cities, h in c.hotels")
        spans = [span_of(q) for q in term.qualifiers]
        assert all(s is not None for s in spans)
        assert spans[0].line == 2 and spans[0].column == 6
        assert spans[1].line == 2 and spans[1].column == 19

    def test_spans_do_not_affect_equality(self):
        from repro.oql.translate import Translator

        a = Translator().translate_text("select distinct c.name from c in Cities")
        b = Translator().translate_text(
            "select distinct c.name\n\n  from c in Cities")
        assert a == b
        assert span_of(a.qualifiers[0]) != span_of(b.qualifiers[0])


class TestDidYouMean:
    def test_unbound_variable_error_suggests(self):
        err = UnboundVariableError("Citeis", candidates=["Cities", "Hotels"])
        assert "did you mean 'Cities'?" in str(err)
        assert err.suggestion == "Cities"

    def test_no_suggestion_when_far(self):
        err = UnboundVariableError("zzz", candidates=["Cities"])
        assert err.suggestion is None
        assert "did you mean" not in str(err)

    def test_evaluator_lookup_suggests(self, db):
        with pytest.raises(UnboundVariableError) as err:
            db.run("count(Citees)")
        assert err.value.suggestion == "Cities"
