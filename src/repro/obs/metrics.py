"""The per-execution record of operator events.

:class:`PlanMetrics` gives every physical plan node its own
:class:`OperatorMetrics` block — rows produced, hash-table inserts and
index probes. It is the **one** place an operator event is booked: every
:class:`~repro.algebra.physical.Executor` owns a table, a plan's generated
function stores its counts into each node's block, and whatever else
reports execution counts (:class:`~repro.algebra.physical.ExecutionStats`,
EXPLAIN ANALYZE, the query log, telemetry, the benchmark harness) is a
view of these blocks. No block holds a time: a fused pipeline has no
boundary between its operators, and the execution's wall time is the
query record's ``execute`` slot (:class:`~repro.obs.tracer.QueryRecord`).

Node identity is ``id(node)`` and a table belongs to one execution, so
structurally-equal operators never share a block and neither do
concurrent runs of one cached plan. :meth:`PlanMetrics.snapshot` derives
rows-in as the sum of the children's rows-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

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


@dataclass
class NodeSnapshot:
    """One plan node's metrics resolved against the tree shape."""

    node: PlanNode
    metrics: OperatorMetrics
    rows_in: int
    children: list["NodeSnapshot"] = field(default_factory=list)

    @property
    def rows_out(self) -> int:
        return self.metrics.rows_out


class PlanMetrics:
    """The :class:`OperatorMetrics` blocks of one execution, per plan node."""

    def __init__(self) -> None:
        self._by_node: dict[int, OperatorMetrics] = {}

    def reset(self) -> None:
        self._by_node.clear()

    def for_node(self, node: PlanNode) -> OperatorMetrics:
        """The (created-on-demand) counter block for ``node``."""
        block = self._by_node.get(id(node))
        if block is None:
            block = self._by_node[id(node)] = OperatorMetrics()
        return block

    def get(self, node: PlanNode) -> Optional[OperatorMetrics]:
        return self._by_node.get(id(node))

    def blocks(self, plan: PlanNode) -> Iterator[tuple[PlanNode, OperatorMetrics]]:
        """``(node, block)`` for every node of the tree under ``plan``."""
        for node in plan.walk():
            yield node, self.for_node(node)

    def snapshot(self, plan: PlanNode) -> NodeSnapshot:
        """Resolve metrics over the plan tree rooted at ``plan``.

        Derived quantity: ``rows_in`` is the sum of the children's
        rows-out.
        """
        children = [self.snapshot(child) for child in plan.children()]
        return NodeSnapshot(
            node=plan,
            metrics=self.for_node(plan),
            rows_in=sum(child.metrics.rows_out for child in children),
            children=children,
        )

    def walk(self, plan: PlanNode) -> Iterator[NodeSnapshot]:
        """Pre-order iteration over :meth:`snapshot`."""
        root = self.snapshot(plan)
        stack = [root]
        while stack:
            snap = stack.pop()
            yield snap
            stack.extend(reversed(snap.children))
