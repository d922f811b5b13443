"""Physical-plan schema and scoping verification.

A logical plan is well-scoped when every operator's embedded terms
(predicates, paths, keys, heads) reference only plan variables that the
operator's input actually binds. Which terms an operator carries and
which columns each may read is the operator table's to say
(:attr:`repro.algebra.ops.PlanNode.exprs`); the checker is one loop over
it and reports:

- a term using a plan variable outside its declared scope — a
  predicate/path/key/head its input does not bind (the classic
  sunk-too-deep selection bug), a ``Join`` hash key not evaluable on its
  own side, a ``Scan`` source or ``IndexScan`` key (evaluated once,
  before the stream starts) referencing another operator's variable;
- a ``Join`` whose sides bind overlapping variables;
- an ``Unnest`` rebinding a variable its input already binds.

Free variables that are *not* bound anywhere in the plan (extent names,
outer constants) are ignored — the checker is about plan-internal
scoping, not name resolution.
"""

from __future__ import annotations

from repro.algebra.ops import Join, PlanNode, Reduce, Unnest, plan_variables
from repro.calculus.traversal import free_vars
from repro.errors import VerificationError

from repro.analysis.invariants import Violation


def verify_plan(plan: PlanNode, phase: str = "plan") -> None:
    """Raise :class:`VerificationError` if the plan is ill-scoped."""
    pvars = plan_variables(plan)
    problems: list[Violation] = []
    for node in plan.walk():
        for entry in node.exprs:
            for label, term in entry.labelled():
                bad = (free_vars(term) & pvars) - entry.scope
                if not bad:
                    continue
                name = node.label().split(" ", 1)[0]  # "Select", "Join", …
                if entry.slot is None:
                    detail = (
                        f"{name} {node.binds()[0]} {label} references plan "
                        f"variable(s) {sorted(bad)}; it is evaluated once, "
                        f"before the stream"
                    )
                else:
                    detail = (
                        f"{name} {label} {term} uses {sorted(bad)} not bound "
                        f"by its input (columns: {sorted(entry.scope)})"
                    )
                problems.append(Violation("plan-scope", detail))
        if isinstance(node, Join):
            overlap = node.left.columns() & node.right.columns()
            if overlap:
                problems.append(
                    Violation("plan-schema", f"Join sides both bind {sorted(overlap)}")
                )
        elif isinstance(node, Unnest) and node.var in node.child.columns():
            problems.append(
                Violation(
                    "plan-schema", f"Unnest rebinds {node.var!r}, already bound below"
                )
            )
    if problems:
        raise VerificationError(phase, plan, None, problems)


def check_plan_rewrite(phase: str, before: Reduce, after: Reduce) -> None:
    """Verify an optimizer rewrite: both plans well-scoped, and the
    output schema (columns, monoid, head) preserved."""
    verify_plan(before, phase=f"{phase}-input")
    verify_plan(after, phase=f"{phase}-output")
    problems: list[Violation] = []
    if before.child.columns() != after.child.columns():
        problems.append(
            Violation(
                "plan-schema",
                f"rewrite changed the column set: "
                f"{sorted(before.child.columns())} -> {sorted(after.child.columns())}",
            )
        )
    if before.monoid != after.monoid:
        problems.append(
            Violation(
                "plan-schema",
                f"rewrite changed the output monoid: {before.monoid} -> {after.monoid}",
            )
        )
    if before.head != after.head:
        problems.append(
            Violation(
                "plan-schema",
                f"rewrite changed the reduce head: {before.head} -> {after.head}",
            )
        )
    if problems:
        raise VerificationError(phase, before, after, problems)
