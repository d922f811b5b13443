"""Physical-plan schema and scoping verification.

A logical plan is well-scoped when every operator's embedded terms
(predicates, paths, keys, heads) reference only plan variables that the
operator's input actually binds. The checker walks the tree bottom-up,
tracking the column set each operator emits, and reports:

- a predicate/path/key/head using a plan variable its input does not
  bind (the classic sunk-too-deep selection bug);
- a ``Join`` whose sides bind overlapping variables, or whose hash keys
  are not evaluable on their own side;
- an ``IndexScan`` key referencing any plan variable (keys are
  evaluated once, before the stream starts);
- an operator rebinding a variable some other operator already binds.

Free variables that are *not* bound anywhere in the plan (extent names,
outer constants) are ignored — the checker is about plan-internal
scoping, not name resolution.
"""

from __future__ import annotations

from repro.algebra.ops import (
    IndexScan,
    Join,
    Nest,
    PlanNode,
    Reduce,
    Scan,
    SelectOp,
    Unnest,
)
from repro.calculus.traversal import free_vars
from repro.errors import VerificationError

from repro.analysis.invariants import Violation


def plan_variables(plan: PlanNode) -> frozenset[str]:
    """Every variable bound by some operator in the plan tree."""
    out: set[str] = set()

    def walk(node: PlanNode) -> None:
        if isinstance(node, Scan):
            out.add(node.var)
            if node.index_var:
                out.add(node.index_var)
        elif isinstance(node, IndexScan):
            out.add(node.var)
        elif isinstance(node, Unnest):
            out.add(node.var)
            if node.index_var:
                out.add(node.index_var)
        elif isinstance(node, Nest):
            out.update(node.columns())
        for child in node.children():
            walk(child)

    walk(plan)
    return frozenset(out)


def verify_plan(plan: PlanNode, phase: str = "plan") -> None:
    """Raise :class:`VerificationError` if the plan is ill-scoped."""
    pvars = plan_variables(plan)
    problems: list[Violation] = []

    def uses(term) -> frozenset[str]:
        return free_vars(term) & pvars

    def check(node: PlanNode) -> frozenset[str]:
        if isinstance(node, Scan):
            bad = uses(node.source) - node.columns()
            if bad:
                problems.append(
                    Violation(
                        "plan-scope",
                        f"Scan {node.var} source references plan variable(s) "
                        f"{sorted(bad)}; scans must be independent",
                    )
                )
            return node.columns()
        if isinstance(node, IndexScan):
            bad = uses(node.key)
            if bad:
                problems.append(
                    Violation(
                        "plan-scope",
                        f"IndexScan {node.var} key references plan variable(s) "
                        f"{sorted(bad)}; keys are evaluated once, before the stream",
                    )
                )
            return node.columns()
        if isinstance(node, SelectOp):
            cols = check(node.child)
            bad = uses(node.pred) - cols
            if bad:
                problems.append(
                    Violation(
                        "plan-scope",
                        f"Select predicate {node.pred} uses {sorted(bad)} "
                        f"not bound by its input (columns: {sorted(cols)})",
                    )
                )
            return cols
        if isinstance(node, Join):
            left = check(node.left)
            right = check(node.right)
            overlap = left & right
            if overlap:
                problems.append(
                    Violation(
                        "plan-schema",
                        f"Join sides both bind {sorted(overlap)}",
                    )
                )
            for side_name, keys, cols in (
                ("left", node.left_keys, left),
                ("right", node.right_keys, right),
            ):
                for key in keys:
                    bad = uses(key) - cols
                    if bad:
                        problems.append(
                            Violation(
                                "plan-scope",
                                f"Join {side_name} key {key} uses {sorted(bad)} "
                                f"not bound on its side",
                            )
                        )
            if node.residual is not None:
                bad = uses(node.residual) - (left | right)
                if bad:
                    problems.append(
                        Violation(
                            "plan-scope",
                            f"Join residual {node.residual} uses {sorted(bad)} "
                            f"not bound by either side",
                        )
                    )
            return left | right
        if isinstance(node, Unnest):
            cols = check(node.child)
            bad = uses(node.path) - cols
            if bad:
                problems.append(
                    Violation(
                        "plan-scope",
                        f"Unnest path {node.path} uses {sorted(bad)} "
                        f"not bound by its input",
                    )
                )
            if node.var in cols:
                problems.append(
                    Violation(
                        "plan-schema",
                        f"Unnest rebinds {node.var!r}, already bound below",
                    )
                )
            return node.columns()
        if isinstance(node, Nest):
            cols = check(node.child)
            for label, term in node.keys:
                bad = uses(term) - cols
                if bad:
                    problems.append(
                        Violation(
                            "plan-scope",
                            f"Nest key {label}={term} uses {sorted(bad)} "
                            f"not bound by its input",
                        )
                    )
            for var, monoid, head, pred in node.folds:
                bad = uses(head) - cols
                if pred is not None:
                    bad |= uses(pred) - cols
                if bad:
                    problems.append(
                        Violation(
                            "plan-scope",
                            f"Nest fold {var} <- {monoid}{{ {head} }} uses "
                            f"{sorted(bad)} not bound by its input",
                        )
                    )
            return node.columns()
        if isinstance(node, Reduce):
            cols = check(node.child)
            bad = uses(node.head) - cols
            if bad:
                problems.append(
                    Violation(
                        "plan-scope",
                        f"Reduce head {node.head} uses {sorted(bad)} "
                        f"not bound by its input (columns: {sorted(cols)})",
                    )
                )
            return cols
        problems.append(
            Violation("plan-schema", f"unknown operator {type(node).__name__}")
        )
        return frozenset()

    check(plan)
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
