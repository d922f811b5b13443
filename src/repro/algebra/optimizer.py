"""Heuristic logical-plan optimizer.

Plans built by :func:`repro.algebra.translate.build_plan` already have
every selection placed (:func:`~repro.algebra.translate.place`); what the
optimizer adds, each visible in EXPLAIN output:

1. **Index selection** — ``Select (v.attr = const) over Scan v <- Extent``
   becomes an :class:`IndexScan` when a hash index exists on
   ``(Extent, attr)``: the leaf rule it hands ``sink``.
2. **Selection pushdown and join key promotion for hand-built plans** —
   every selection is placed again through that same function, so one
   written above a join or unnest sinks to the lowest operator that binds
   its variables and an equality across a Join moves into its hash keys.

A hash join builds on its right input, the one the query wrote second:
choosing the build side by estimated size measured at parity and was
deleted (EXPERIMENTS.md A3). No rewrite reads a cardinality estimate;
EXPLAIN's estimates are :mod:`repro.obs.explain`'s.

The optimizer is pure: it returns a new plan tree.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra.ops import IndexScan, PlanNode, Reduce, Scan, SelectOp
from repro.algebra.translate import sink
from repro.analysis.verifier import verification_enabled
from repro.calculus.ast import BinOp, Proj, Term, Var
from repro.calculus.traversal import free_vars


class Optimizer:
    """Applies the heuristic rewrites to a logical plan.

    ``extent_sizes`` (element counts per extent) is accepted and not
    read: the one rewrite that used it, the build-side flip, is gone, and
    the benchmark harness still passes both arguments positionally.

    In verify mode (:func:`repro.analysis.verifier.verification`) both the
    input and the rewritten plan are checked for schema/scoping
    consistency (see :mod:`repro.analysis.plancheck`).
    """

    def __init__(
        self,
        available_indexes: Optional[set[tuple[str, str]]] = None,
        extent_sizes: Optional[dict[str, int]] = None,
    ) -> None:
        self.available_indexes = available_indexes or set()

    def optimize(self, plan: Reduce) -> Reduce:
        """Rewrite the plan; the result is executable by the Executor."""
        result = self._opt(plan)
        if verification_enabled():
            from repro.analysis.plancheck import check_plan_rewrite

            check_plan_rewrite("optimizer", plan, result)
        return result

    def _opt(self, node: PlanNode) -> PlanNode:
        """Re-place every selection, bottom-up, with index selection on
        (a plan whose selections are all in place comes back as it is)."""
        if node.CHILDREN:
            node = node.with_children(*map(self._opt, node.children()))
        if isinstance(node, SelectOp):
            return sink(node.child, node.pred, self._match_index) or node
        return node

    # -- index matching -------------------------------------------------------------

    def _match_index(self, scan: Scan, pred: Term) -> Optional[IndexScan]:
        """``Scan v <- Extent`` + ``v.attr = const-expr`` -> IndexScan."""
        if scan.index_var is not None or not isinstance(scan.source, Var):
            return None
        extent = scan.source.name
        match = _equality_on_var(pred, scan.var)
        if match is None:
            return None
        attribute, key = match
        if (extent, attribute) not in self.available_indexes:
            return None
        return IndexScan(scan.var, extent, attribute, key)


def _equality_on_var(pred: Term, var_name: str) -> Optional[tuple[str, Term]]:
    """Match ``v.attr = key`` or ``key = v.attr``; return (attr, key)."""
    if not isinstance(pred, BinOp) or pred.op != "=":
        return None
    for attr_side, key_side in ((pred.left, pred.right), (pred.right, pred.left)):
        if (
            isinstance(attr_side, Proj)
            and isinstance(attr_side.base, Var)
            and attr_side.base.name == var_name
            and var_name not in free_vars(key_side)
        ):
            return attr_side.name, key_side
    return None

