"""The per-execution record of operator events.

:class:`PlanMetrics` is the list of one execution's
:class:`OperatorMetrics` blocks — rows produced, hash-table inserts and
index probes — one per plan node, in the plan's pre-order
(:meth:`~repro.algebra.ops.PlanNode.preorder`). It is the **one** place
an operator event is booked: a plan's generated function stores its
counts into the blocks by position, and whatever else reports execution
counts (:class:`~repro.algebra.physical.ExecutionStats`, EXPLAIN
ANALYZE, the query log, telemetry, the benchmark harness) reads these
blocks. No block holds a time: a fused pipeline has no boundary between
its operators, and the execution's wall time is the query record's
``execute`` slot (:class:`~repro.obs.tracer.QueryRecord`).

A node's block is the one at its position, so structurally-equal
operators never share a block, and each execution has a list of its
own, so neither do concurrent runs of one cached plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.algebra.ops import PlanNode


@dataclass
class OperatorMetrics:
    """Counters for one physical plan node during one execution."""

    #: bindings the operator yielded
    rows_out: int = 0
    #: hash-table inserts while building a hash join's build side
    hash_builds: int = 0
    #: hash-index lookups performed by an IndexScan
    index_probes: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class PlanMetrics(list):
    """The :class:`OperatorMetrics` blocks of one execution of ``plan``:
    ``self[i]`` is the block of ``plan.preorder()[i]``."""

    def __init__(self, plan: PlanNode) -> None:
        super().__init__([OperatorMetrics() for _ in plan.preorder()])
        self.plan = plan

    def blocks(self) -> Iterator[tuple[PlanNode, OperatorMetrics]]:
        """``(node, block)`` for every node of the plan, pre-order."""
        return zip(self.plan.preorder(), self)

    def block(self, node: PlanNode) -> OperatorMetrics:
        """The block of ``node``, a node of the plan (found by identity)."""
        for other, block in self.blocks():
            if other is node:
                return block
        raise KeyError(f"{node.label()} is not a node of the plan")

    def rows_in(self, node: PlanNode) -> int:
        """The rows ``node`` was offered: its children's rows out."""
        return sum(self.block(child).rows_out for child in node.children())
