"""Experiment T3 — Table 3: the normalization rules.

For each rule: a witness term on which exactly that rule fires
(before/after recorded in extra_info), plus timing of the full
normalizer on the paper's nested queries and rule-application counts
over the OQL corpus — the "manipulability" evidence.
"""

from __future__ import annotations

import pytest

from repro.calculus import (
    add,
    and_,
    apply,
    bind,
    comp,
    const,
    eq,
    filt,
    gen,
    gt,
    if_,
    lam,
    lt,
    merge,
    proj,
    rec,
    unit,
    var,
    zero,
)
from repro.normalize import RULES_BY_NAME, normalize, normalize_with_trace
from repro.oql import translate_oql

#: rule name -> witness term
WITNESSES = {
    "N1-beta": apply(lam("x", add(var("x"), const(1))), const(2)),
    "N2-proj": proj(rec(a=const(1), b=const(2)), "a"),
    "N3-bind": comp("sum", var("y"), [gen("x", var("Xs")), bind("y", var("x"))]),
    "N4-true": comp("set", var("x"), [gen("x", var("Xs")), filt(const(True))]),
    "N5-false": comp("set", var("x"), [gen("x", var("Xs")), filt(const(False))]),
    "N6-empty": comp("set", var("x"), [gen("x", zero("set"))]),
    "N7-unit": comp("sum", var("x"), [gen("x", unit("list", const(5)))]),
    "N8-merge": comp("set", var("x"), [gen("x", merge("set", var("A"), var("B")))]),
    "N9-flatten": comp(
        "set", var("x"), [gen("x", comp("set", var("y"), [gen("y", var("Ys"))]))]
    ),
    "N10-if-gen": comp("set", var("x"), [gen("x", if_(var("p"), var("A"), var("B")))]),
    "N11-exists": comp(
        "set",
        var("x"),
        [gen("x", var("Xs")), filt(comp("some", eq(var("y"), const(1)), [gen("y", var("Ys"))]))],
    ),
    "N12-and": comp(
        "set",
        var("x"),
        [gen("x", var("Xs")), filt(and_(gt(var("x"), const(0)), lt(var("x"), const(9))))],
    ),
    "N14-zero": merge("set", zero("set"), var("A")),
    "N15-const": lt(const(1), const(2)),
}

CORPUS = [
    "select distinct h.name from h in (select distinct x from c in Cities, "
    "x in c.hotels where c.name = 'Portland')",
    "select distinct c.name from c in Cities where exists h in c.hotels : "
    "h.stars = 5",
    "select distinct r.beds from c in Cities, h in c.hotels, r in h.rooms "
    "where c.name = 'Portland' and h.stars >= 3 and r.price < 200",
    "sum(select h.stars from c in Cities, h in c.hotels)",
    "select distinct c.name from c in Cities where 3 in "
    "(select r.beds from h in c.hotels, r in h.rooms)",
]


@pytest.mark.parametrize("rule_name", sorted(WITNESSES), ids=sorted(WITNESSES))
def test_rule_fires_on_witness(benchmark, rule_name):
    rule = RULES_BY_NAME[rule_name]
    witness = WITNESSES[rule_name]
    benchmark.group = "T3 single rule"

    result = benchmark(lambda: rule.apply(witness))
    assert result is not None, f"{rule_name} did not fire on its witness"
    benchmark.extra_info["before"] = str(witness)
    benchmark.extra_info["after"] = str(result)


def test_portland_derivation(benchmark):
    """The paper's worked derivation: nested query -> one comprehension."""
    nested = translate_oql(CORPUS[0])
    benchmark.group = "T3 normalize"

    def derive():
        result, trace = normalize_with_trace(nested)
        return trace

    trace = benchmark(derive)
    fired = trace.rules_fired()
    assert "N9-flatten" in fired and "N3-bind" in fired
    benchmark.extra_info["derivation"] = trace.render().splitlines()


def test_rule_counts_over_corpus(benchmark):
    """How often each rule fires across the query corpus."""
    terms = [translate_oql(q) for q in CORPUS]
    benchmark.group = "T3 normalize"

    def count_all():
        counts: dict[str, int] = {}
        for term in terms:
            _, trace = normalize_with_trace(term)
            for name, n in trace.rule_counts().items():
                counts[name] = counts.get(name, 0) + n
        return counts

    counts = benchmark(count_all)
    assert counts.get("N9-flatten", 0) >= 2
    assert counts.get("N11-exists", 0) >= 2
    benchmark.extra_info["rule_counts"] = dict(sorted(counts.items()))


@pytest.mark.parametrize("depth", [1, 3, 6])
def test_normalization_cost_vs_nesting_depth(benchmark, depth):
    """Normalizer cost as subquery nesting deepens (series)."""
    benchmark.group = "T3 depth scaling"
    term = comp("set", var("x0"), [gen("x0", var("Base"))])
    for level in range(1, depth + 1):
        term = comp("set", var(f"x{level}"), [gen(f"x{level}", term)])
    result = benchmark(lambda: normalize(term))
    from repro.normalize import is_canonical_comprehension

    assert is_canonical_comprehension(result)


def test_shape_rules_tried_only_at_their_heads():
    """No clock: over the harness catalogue, a rule's ``apply`` is called
    only on nodes of its ``heads``, and that is under a fifth of the
    calls trying every rule at every visited node would make."""
    from collections import Counter
    from random import Random

    from benchmarks.harness.workloads import catalogue_classes
    from repro.normalize import DEFAULT_RULES, Rule

    class Counted(Rule):
        def __init__(self, rule):
            self.rule, self.name, self.heads = rule, rule.name, rule.heads
            self.seen = Counter()

        def apply(self, term):
            self.seen[type(term)] += 1
            return self.rule.apply(term)

    class EveryNode(Rule):
        """Last and headless: called once per node the engine visits and
        finds no rewrite at."""

        name = "probe"
        visited = 0

        def apply(self, term):
            self.visited += 1
            return None

    counted = [Counted(rule) for rule in DEFAULT_RULES]
    probe = EveryNode()
    classes = catalogue_classes({"Departments": [None] * 8}, Random(0))
    for cls in classes:
        term = translate_oql(cls.oql)
        _, trace = normalize_with_trace(term, rules=(*counted, probe))
        assert trace.rules_fired() == normalize_with_trace(term)[1].rules_fired()
    for rule in counted:
        outside = [cls.__name__ for cls in rule.seen if not issubclass(cls, rule.heads)]
        assert not outside, f"{rule.name} was tried on {outside}"
    applies = sum(sum(rule.seen.values()) for rule in counted)
    assert probe.visited > 10 * len(classes)
    assert applies * 5 <= probe.visited * len(counted), (applies, probe.visited)
