"""The rewrite-soundness verifier: every Table 3 rule verifies, broken
rules are caught, and the enablement switches compose correctly."""

import threading

import pytest

from repro.analysis import verifier
from repro.db import demo_travel_database
from repro.analysis.verifier import (
    RewriteVerifier,
    resolve_verify,
    verification,
    verification_enabled,
)
from repro.calculus.ast import (
    Apply,
    BinOp,
    Comprehension,
    Lambda,
    MonoidRef,
    Var,
)
from repro.calculus.builders import (
    add,
    and_,
    bind,
    comp,
    const,
    eq,
    filt,
    gen,
    gt,
    if_,
    index,
    lam,
    let,
    lt,
    merge,
    proj,
    rec,
    tup,
    unit,
    var,
    zero,
)
from repro.errors import VerificationError
from repro.normalize.engine import normalize, normalize_with_trace
from repro.normalize.rules import RULES_BY_NAME

# One fixture per rule: a term the rule fires on at the root. Together
# these cover the entire registry (asserted below), so a new rule
# without a verified fixture fails the suite.
RULE_FIXTURES = {
    "N1-beta": Apply(lam("x", add(var("x"), 1)), const(2)),
    "N1-let": let("x", const(2), add(var("x"), 1)),
    "N2-proj": proj(rec(a=const(1), b=const(2)), "a"),
    "N2-tuple": index(tup(const(1), const(2)), const(1)),
    "N15-const": lt(const(3), const(5)),
    "N4-true": comp("set", var("x"), [gen("x", var("db")), filt(const(True))]),
    "N5-false": comp("set", var("x"), [gen("x", var("db")), filt(const(False))]),
    "N6-empty": comp("set", var("x"), [gen("x", zero("set"))]),
    "N14-zero": merge("set", zero("set"), unit("set", const(1))),
    "N7-unit": comp("set", var("x"), [gen("x", unit("set", const(5)))]),
    "N3-bind": comp(
        "set",
        var("y"),
        [gen("x", var("db")), bind("y", proj(var("x"), "a"))],
    ),
    "N12-and": comp(
        "set",
        var("x"),
        [gen("x", var("db")), filt(and_(gt(var("x"), 0), lt(var("x"), 9)))],
    ),
    "N9-flatten": comp(
        "set",
        var("x"),
        [gen("x", comp("set", var("y"), [gen("y", var("db"))]))],
    ),
    "N11-exists": comp(
        "set",
        var("x"),
        [
            gen("x", var("db")),
            filt(comp("some", eq(var("x"), var("y")), [gen("y", var("db2"))])),
        ],
    ),
    "N8-merge": comp("set", var("x"), [gen("x", merge("set", var("a"), var("b")))]),
    "N8c-literal": comp("set", tup(var("x"), var("y")), [
        gen("x", var("db")),
        gen("y", merge("set", unit("set", const("p")), unit("set", const("q")))),
    ]),
    "N10-if-gen": comp(
        "set", var("x"), [gen("x", if_(var("p"), var("a"), var("b")))]
    ),
    "N0-unit": comp("set", const(1), []),
}


class TestEveryRuleVerifies:
    def test_fixture_set_covers_the_registry(self):
        assert set(RULE_FIXTURES) == set(RULES_BY_NAME)

    @pytest.mark.parametrize("rule_name", sorted(RULE_FIXTURES))
    def test_rule_fire_passes_verification(self, rule_name):
        rule = RULES_BY_NAME[rule_name]
        before = RULE_FIXTURES[rule_name]
        after = rule.apply(before)
        assert after is not None, f"{rule_name} did not fire on its fixture"
        verifier = RewriteVerifier()
        verifier.check_rewrite(rule, before, after)  # must not raise
        assert verifier.checked == 1

    @pytest.mark.parametrize("rule_name", sorted(RULE_FIXTURES))
    def test_fixture_normalizes_under_verification(self, rule_name):
        # the full pipeline (which fires follow-up rules too) stays sound
        normalize(RULE_FIXTURES[rule_name], verify=True)


# ---------------------------------------------------------------------------
# Deliberately broken rules: the verifier must catch each failure mode.
# ---------------------------------------------------------------------------


def _naive_subst(term, name, value):
    """Textbook-wrong substitution: ignores capture entirely."""
    if isinstance(term, Var):
        return value if term.name == name else term
    if isinstance(term, Lambda):
        if term.param == name:
            return term
        return Lambda(term.param, _naive_subst(term.body, name, value))
    if isinstance(term, BinOp):
        return BinOp(
            term.op,
            _naive_subst(term.left, name, value),
            _naive_subst(term.right, name, value),
        )
    return term


class CapturingBeta:
    """A beta rule built on naive substitution — captures free variables."""

    name = "test-capturing-beta"

    def apply(self, term):
        if isinstance(term, Apply) and isinstance(term.fn, Lambda):
            return _naive_subst(term.fn.body, term.fn.param, term.arg)
        return None


class MonoidSwap:
    """A 'simplification' that silently turns a set into a bag."""

    name = "test-monoid-swap"

    def apply(self, term):
        if isinstance(term, Comprehension) and term.monoid.name == "set":
            return Comprehension(MonoidRef("bag"), term.head, term.qualifiers)
        return None


class VariableEscape:
    """Rewrites zero(M) to a variable nobody bound."""

    name = "test-escape"

    def apply(self, term):
        from repro.calculus.ast import Empty

        if isinstance(term, Empty):
            return Var("leaked")
        return None


class TestBrokenRulesAreCaught:
    def test_capture_detected_by_alpha_probe(self):
        # (\x. \y. x + y) y  —  naive substitution captures the free y
        rule = CapturingBeta()
        before = Apply(lam("x", lam("y", add(var("x"), var("y")))), var("y"))
        after = rule.apply(before)
        with pytest.raises(VerificationError) as exc:
            RewriteVerifier().check_rewrite(rule, before, after)
        assert any(v.invariant == "alpha" for v in exc.value.violations)
        assert "test-capturing-beta" in str(exc.value)

    def test_capture_caught_inside_normalize(self):
        before = Apply(lam("x", lam("y", add(var("x"), var("y")))), var("y"))
        with pytest.raises(VerificationError):
            normalize(before, rules=(CapturingBeta(),), verify=True)
        # and without verification the bad rule slips through silently
        normalize(before, rules=(CapturingBeta(),), verify=False)

    def test_type_change_detected(self):
        rule = MonoidSwap()
        before = comp("set", var("x"), [gen("x", var("db"))])
        after = rule.apply(before)
        with pytest.raises(VerificationError) as exc:
            RewriteVerifier().check_rewrite(rule, before, after)
        assert any(v.invariant == "type" for v in exc.value.violations)

    def test_variable_escape_detected(self):
        rule = VariableEscape()
        before = zero("set")
        after = rule.apply(before)
        with pytest.raises(VerificationError) as exc:
            RewriteVerifier().check_rewrite(rule, before, after)
        assert any(v.invariant == "scope" for v in exc.value.violations)

    def test_error_carries_rule_and_terms(self):
        rule = VariableEscape()
        before = zero("set")
        with pytest.raises(VerificationError) as exc:
            RewriteVerifier().check_rewrite(rule, before, rule.apply(before))
        err = exc.value
        assert err.rule == "test-escape"
        assert err.before is before
        assert "before:" in str(err) and "after:" in str(err)


# ---------------------------------------------------------------------------
# Enablement switches
# ---------------------------------------------------------------------------


class TestEnablement:
    def test_env_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        assert not verification_enabled()
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert verification_enabled()
        for falsey in ("", "0", "false", "off", "no", "  NO  "):
            monkeypatch.setenv("REPRO_VERIFY", falsey)
            assert not verification_enabled()

    def test_context_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        with verification(False):
            assert not verification_enabled()
        assert verification_enabled()
        monkeypatch.delenv("REPRO_VERIFY")
        with verification(True):
            assert verification_enabled()
        assert not verification_enabled()

    def test_none_context_is_transparent(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        with verification(None):
            assert not verification_enabled()

    @pytest.mark.parametrize("outer", [True, False])
    def test_none_context_keeps_an_outer_switch(self, monkeypatch, outer):
        monkeypatch.setenv("REPRO_VERIFY", "0" if outer else "1")
        with verification(outer):
            with verification(None):
                assert verification_enabled() is outer
            assert verification_enabled() is outer

    def test_none_context_reads_the_environment_once(self, monkeypatch):
        reads = []
        monkeypatch.setattr(verifier, "env_flag", lambda name: reads.append(name) or True)
        with verification(None):
            assert verification_enabled() and verification_enabled()
        assert reads == ["REPRO_VERIFY"]
        assert verification_enabled() and len(reads) == 2  # outside a block: each call

    @pytest.mark.parametrize("flag", ["0", "1"])
    def test_a_run_reads_the_environment_once(self, monkeypatch, flag):
        monkeypatch.setenv("REPRO_VERIFY", flag)
        db = demo_travel_database(num_cities=3, seed=2)
        db.run("select distinct c.name from c in Cities")  # compiled and warm
        reads = []
        monkeypatch.setattr(verifier, "env_flag", lambda name: reads.append(name) or flag == "1")
        for _ in range(3):
            db.run("select distinct h.name from c in Cities, h in c.hotels where h.stars > 2")
            db.run("select distinct c.name from c in Cities")
        assert reads == ["REPRO_VERIFY"] * 6

    def test_the_switch_holds_per_thread(self, monkeypatch):
        """Two threads enter and leave ``verification`` interleaved: each
        reads its own switch inside its block, and after both blocks the
        switch is back to the environment's for every thread."""
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        on_entered, off_entered, on_left = (threading.Event() for _ in range(3))
        seen = {}

        def verify_on():
            with verification(True):
                on_entered.set()
                off_entered.wait(5)
                seen["on"] = verification_enabled()
            on_left.set()

        def verify_off():
            on_entered.wait(5)
            with verification(False):
                off_entered.set()
                on_left.wait(5)
                seen["off"] = verification_enabled()
            seen["off, after"] = verification_enabled()

        threads = [threading.Thread(target=verify_on), threading.Thread(target=verify_off)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert seen == {"on": True, "off": False, "off, after": False}
        assert not verification_enabled()

    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert resolve_verify(False) is False
        assert resolve_verify(None) is True
        monkeypatch.delenv("REPRO_VERIFY")
        assert resolve_verify(True) is True
        assert resolve_verify(None) is False

    def test_env_flag_reaches_normalize(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        before = Apply(lam("x", lam("y", add(var("x"), var("y")))), var("y"))
        with pytest.raises(VerificationError):
            normalize(before, rules=(CapturingBeta(),))


class TestOffPathUnchanged:
    def test_verified_and_plain_results_identical(self):
        term = comp(
            "set",
            var("x"),
            [gen("x", comp("set", var("y"), [gen("y", var("db")),
                                             filt(gt(var("y"), 3))]))],
        )
        plain, plain_trace = normalize_with_trace(term, verify=False)
        checked, checked_trace = normalize_with_trace(term, verify=True)
        # fresh-name counters differ between runs; the terms are the same
        from repro.calculus.traversal import alpha_equal

        assert alpha_equal(plain, checked)
        assert plain_trace.rule_counts() == checked_trace.rule_counts()
