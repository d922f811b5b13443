"""Ablation benches for the design choices DESIGN.md calls out.

A1 — **rule ablation**: the F1 membership workload evaluated after
normalizing with (a) the full Table-3 rule set, (b) without N11
(existential fusion), (c) without N9 (generator flattening). Each
removed rule costs real evaluation time, isolating which rewrite buys
what.

A2 — **accumulator ablation**: comprehension construction through the
O(n) accumulator (the design choice in ``CollectionMonoid``) versus the
textbook right fold of unit/merge the semantics is defined by. Same
results, very different constants (quadratic for list/set merges).

A3 (the build-side flip) measured at parity and was deleted with the flip
(EXPERIMENTS.md A3).
"""

from __future__ import annotations

import pytest

from repro.algebra import Executor, build_plan
from repro.monoids import BAG, LIST, SET
from repro.normalize import DEFAULT_RULES, normalize
from repro.normalize.rules import ExistentialFusion, FlattenGenerator
from benchmarks.conftest import build_company_db

MEMBERSHIP = (
    "select distinct e.name from e in Employees "
    "where e.dno in (select d.dno from d in Departments where d.floor > 5)"
)

RULESETS = {
    "full": DEFAULT_RULES,
    "no-N11": tuple(r for r in DEFAULT_RULES if not isinstance(r, ExistentialFusion)),
    "no-N9": tuple(r for r in DEFAULT_RULES if not isinstance(r, FlattenGenerator)),
}


@pytest.mark.parametrize("ruleset", list(RULESETS), ids=list(RULESETS))
def test_a1_rule_ablation(benchmark, ruleset):
    """Plans built from partially-normalized terms: each missing rule
    leaves a nested comprehension the executor must re-evaluate per row,
    so the timing isolates that rule's contribution to pipelining."""
    db = build_company_db(num_employees=150, seed=4)
    term = normalize(db.translate(MEMBERSHIP), rules=RULESETS[ruleset])
    plan = build_plan(term, pre_normalize=False)
    executor = Executor(db.evaluator())
    benchmark.group = "A1 rule ablation"
    value = benchmark(lambda: executor.execute(plan))
    assert value == db.evaluator().evaluate(db.translate(MEMBERSHIP))
    benchmark.extra_info["normalized"] = str(term)[:160]


_N = 1_500


@pytest.mark.parametrize("monoid_name", ["list", "set", "bag"])
@pytest.mark.parametrize("strategy", ["accumulator", "fold-of-merges"])
def test_a2_accumulator_ablation(benchmark, monoid_name, strategy):
    monoid = {"list": LIST, "set": SET, "bag": BAG}[monoid_name]
    benchmark.group = f"A2 build {monoid_name}"
    items = [i % 997 for i in range(_N)]

    if strategy == "accumulator":
        def build():
            acc = monoid.accumulator()
            for item in items:
                acc.add(item)
            return acc.finish()
    else:
        def build():
            out = monoid.zero()
            for item in items:
                out = monoid.merge(out, monoid.unit(item))
            return out

    value = benchmark(build)
    assert monoid.length(value) > 0


def test_a2_strategies_agree():
    for monoid in (LIST, SET, BAG):
        items = [i % 13 for i in range(200)]
        acc = monoid.accumulator()
        for item in items:
            acc.add(item)
        folded = monoid.zero()
        for item in items:
            folded = monoid.merge(folded, monoid.unit(item))
        assert acc.finish() == folded

