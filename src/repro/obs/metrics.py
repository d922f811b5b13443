"""The per-execution record of operator events.

:class:`PlanMetrics` gives every physical plan node its own
:class:`OperatorMetrics` block — rows produced, stream openings,
hash-table inserts, index probes and (on request) wall time. It is the
**one** place an operator event is booked: every
:class:`~repro.algebra.physical.Executor` owns a table, a plan's generated
function stores its counts into each node's block, and whatever else
reports execution counts (:class:`~repro.algebra.physical.ExecutionStats`,
EXPLAIN ANALYZE, the query log, telemetry, the benchmark harness) is a
view of these blocks. Wall time is collected on request, for the whole
execution, on the root ``Reduce``'s block: a fused pipeline has no
boundary between its operators, so every other block's ``time_ns`` is 0.

Node identity is ``id(node)`` and a table belongs to one execution, so
structurally-equal operators never share a block and neither do
concurrent runs of one cached plan. :meth:`PlanMetrics.snapshot` derives
rows-in as the sum of the children's rows-out, and per-node *self* time
as the node's time minus its children's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.algebra.ops import PlanNode


@dataclass
class OperatorMetrics:
    """Counters for one physical plan node during one execution."""

    #: times the operator's binding stream was opened
    invocations: int = 0
    #: bindings the operator yielded
    rows_out: int = 0
    #: wall time of the whole execution on a timed run's root, else 0
    time_ns: int = 0
    #: hash-table inserts while building a hash join's build side
    hash_builds: int = 0
    #: hash-index lookups performed by an IndexScan
    index_probes: int = 0

    @property
    def time_ms(self) -> float:
        return self.time_ns / 1e6

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class NodeSnapshot:
    """One plan node's metrics resolved against the tree shape."""

    node: PlanNode
    metrics: OperatorMetrics
    rows_in: int
    self_time_ns: int
    children: list["NodeSnapshot"] = field(default_factory=list)

    @property
    def rows_out(self) -> int:
        return self.metrics.rows_out

    @property
    def self_time_ms(self) -> float:
        return self.self_time_ns / 1e6


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

        Derived quantities: ``rows_in`` is the sum of the children's
        rows-out and ``self_time_ns`` the node's time minus its
        children's, clamped at zero.
        """
        children = [self.snapshot(child) for child in plan.children()]
        block = self.for_node(plan)
        child_time = sum(child.metrics.time_ns for child in children)
        return NodeSnapshot(
            node=plan,
            metrics=block,
            rows_in=sum(child.metrics.rows_out for child in children),
            self_time_ns=max(0, block.time_ns - child_time),
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
