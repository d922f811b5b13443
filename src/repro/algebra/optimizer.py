"""Heuristic logical-plan optimizer.

Plans built by :func:`repro.algebra.translate.build_plan` already have
every selection placed (:func:`~repro.algebra.translate.place`); what the
optimizer adds, each visible in ``explain`` output:

1. **Index selection** — ``Select (v.attr = const) over Scan v <- Extent``
   becomes an :class:`IndexScan` when a hash index exists on
   ``(Extent, attr)``: the leaf rule it hands ``sink``.
2. **Selection pushdown and join key promotion for hand-built plans** —
   every selection is placed again through that same function, so one
   written above a join or unnest sinks to the lowest operator that binds
   its variables and an equality across a Join moves into its hash keys.

A hash join builds on its right input, the one the query wrote second:
choosing the build side by estimated size measured at parity and was
deleted (EXPERIMENTS.md A3).

The optimizer is pure: it returns a new plan tree.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra.ops import IndexScan, Join, Nest, PlanNode, Reduce, Scan, SelectOp, Unnest
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


def _monoid_is_primitive(ref) -> bool:
    from repro.monoids.registry import PRIMITIVE_MONOIDS

    return not ref.is_vector and ref.name in {m.name for m in PRIMITIVE_MONOIDS}


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


# ---------------------------------------------------------------------------
# Cardinality estimation (used by explain and by benchmarks)
# ---------------------------------------------------------------------------

#: Default guesses where statistics are unavailable.
DEFAULT_SELECTIVITY = 0.25
DEFAULT_FANOUT = 4.0
DEFAULT_EXTENT_SIZE = 1000.0
#: Fraction of input rows surviving a Nest as distinct groups.
DEFAULT_GROUP_FACTOR = 0.1


def estimate_cardinalities(
    plan: PlanNode,
    extent_sizes: Optional[dict[str, int]] = None,
    stats: Optional[dict] = None,
) -> dict[int, float]:
    """Output-cardinality estimates for every node of a plan, by
    ``id(node)``, computed bottom-up in one pass.

    Without ``stats`` (a :class:`repro.db.stats.ExtentStats` mapping),
    fixed default selectivities/fan-outs apply; with it, equality
    selections use ``1/distinct(attr)`` and unnests the measured average
    fan-out of the navigated attribute.
    """
    sizes, stats = extent_sizes or {}, stats or {}
    nodes = list(plan.walk())
    # Plan variables -> the extents their Scan reads, where known.
    var_extents: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, Scan) and isinstance(node.source, Var):
            var_extents[node.var] = node.source.name
        elif isinstance(node, IndexScan):
            var_extents[node.var] = node.extent
    estimates: dict[int, float] = {}
    for node in reversed(nodes):  # pre-order backwards: children come first
        inputs = [estimates[id(child)] for child in node.children()]
        estimates[id(node)] = _estimate(node, inputs, sizes, stats, var_extents)
    return estimates


def estimate_cardinality(
    node: PlanNode,
    extent_sizes: Optional[dict[str, int]] = None,
    stats: Optional[dict] = None,
) -> float:
    """Output-cardinality estimate for a plan subtree (the root's entry
    of :func:`estimate_cardinalities`)."""
    return estimate_cardinalities(node, extent_sizes, stats)[id(node)]


def _estimate(
    node: PlanNode,
    inputs: list[float],
    sizes: dict[str, int],
    stats: dict,
    var_extents: dict[str, str],
) -> float:
    """One operator's estimate from its children's (``inputs``)."""
    if isinstance(node, Reduce):
        # A primitive-monoid reduce (sum/count/max/some...) emits one
        # value regardless of input; collection reduces keep the stream.
        return 1.0 if _monoid_is_primitive(node.monoid) else inputs[0]
    if isinstance(node, Scan):
        if isinstance(node.source, Var):
            return float(sizes.get(node.source.name, DEFAULT_EXTENT_SIZE))
        return DEFAULT_EXTENT_SIZE
    if isinstance(node, IndexScan):
        base = float(sizes.get(node.extent, DEFAULT_EXTENT_SIZE))
        selectivity = _stat_selectivity(stats, node.extent, node.attribute)
        return max(1.0, base * (0.01 if selectivity is None else selectivity))
    if isinstance(node, SelectOp):
        selectivity = _pred_selectivity(node.pred, stats, var_extents)
        return inputs[0] * (DEFAULT_SELECTIVITY if selectivity is None else selectivity)
    if isinstance(node, Join):
        left, right = inputs
        return max(left, right) if node.left_keys else left * right
    if isinstance(node, Unnest):
        fanout = _path_fanout(node.path, stats, var_extents)
        return inputs[0] * (DEFAULT_FANOUT if fanout is None else fanout)
    if isinstance(node, Nest):
        distinct = _keys_distinct(node, stats, var_extents)
        if distinct is not None:
            return max(1.0, min(inputs[0], distinct))
        return max(1.0, inputs[0] * DEFAULT_GROUP_FACTOR)
    return DEFAULT_EXTENT_SIZE


def _keys_distinct(
    node: Nest, stats: dict, var_extents: dict[str, str]
) -> Optional[float]:
    """Distinct-count bound for a Nest whose keys are all ``v.attr``
    projections with statistics: the product of per-key distincts."""
    product = 1.0
    for _, term in node.keys:
        if not (
            isinstance(term, Proj)
            and isinstance(term.base, Var)
            and term.base.name in var_extents
        ):
            return None
        extent_stats = stats.get(var_extents[term.base.name])
        if extent_stats is None:
            return None
        attr = extent_stats.attributes.get(term.name)
        if attr is None or attr.distinct <= 0:
            return None
        product *= attr.distinct
    return product


def _stat_selectivity(stats: dict, extent: str, attribute: str) -> Optional[float]:
    extent_stats = stats.get(extent)
    if extent_stats is None:
        return None
    attr = extent_stats.attributes.get(attribute)
    if attr is None or attr.distinct == 0:
        return None
    return 1.0 / attr.distinct


def _pred_selectivity(
    pred: Term, stats: dict, var_extents: dict[str, str]
) -> Optional[float]:
    """Selectivity of ``v.attr = const`` when statistics know the attr."""
    if not isinstance(pred, BinOp) or pred.op != "=":
        return None
    for side in (pred.left, pred.right):
        if (
            isinstance(side, Proj)
            and isinstance(side.base, Var)
            and side.base.name in var_extents
        ):
            return _stat_selectivity(stats, var_extents[side.base.name], side.name)
    return None


def _path_fanout(
    path: Term, stats: dict, var_extents: dict[str, str]
) -> Optional[float]:
    if (
        isinstance(path, Proj)
        and isinstance(path.base, Var)
        and path.base.name in var_extents
    ):
        extent_stats = stats.get(var_extents[path.base.name])
        if extent_stats is not None:
            attr = extent_stats.attributes.get(path.name)
            if attr is not None and attr.avg_fanout is not None:
                return attr.avg_fanout
    return None


def explain(
    plan: Reduce,
    extent_sizes: Optional[dict[str, int]] = None,
    stats: Optional[dict] = None,
) -> str:
    """Readable plan rendering with cardinality estimates per node."""
    estimates = estimate_cardinalities(plan, extent_sizes, stats)
    # render() writes one line per operator, in walk() order
    return "\n".join(
        f"{line}   ~{estimates[id(node)]:.0f} rows"
        for node, line in zip(plan.walk(), plan.render().splitlines())
    )
