"""Per-operator execution metrics.

:class:`PlanMetrics` gives every physical plan node its own
:class:`OperatorMetrics` block — rows produced, generator openings,
cumulative wall time, and the hash-build/index-probe counts the global
:class:`~repro.algebra.physical.ExecutionStats` only keeps in
aggregate. The :class:`~repro.algebra.physical.Executor` wraps each
operator's binding stream in :meth:`PlanMetrics.instrument` when (and
only when) it was constructed with a metrics object; the default
executor path has no per-row accounting at all.

Node identity is ``id(node)``: plan trees are built fresh per query and
structurally-equal operators in different positions must not share a
counter block. Timing is *inclusive* — pulling a row from a Select also
runs its child — so :meth:`PlanMetrics.snapshot` derives per-node
*self* time by subtracting the children's inclusive time, and rows-in
as the sum of the children's rows-out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Iterator, Optional

from repro.algebra.ops import PlanNode


@dataclass
class OperatorMetrics:
    """Counters for one physical plan node during one execution."""

    #: times the operator's binding stream was opened
    invocations: int = 0
    #: bindings the operator yielded
    rows_out: int = 0
    #: cumulative inclusive wall time spent pulling from this operator
    time_ns: int = 0
    #: hash-table inserts while building a hash join's build side
    hash_builds: int = 0
    #: hash-index lookups performed by an IndexScan
    index_probes: int = 0

    @property
    def time_ms(self) -> float:
        return self.time_ns / 1e6

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge_from(self, other: "OperatorMetrics") -> None:
        """Add another block's counters into this one.

        Counter blocks are single-threaded by design (one PlanMetrics
        per execution); concurrent collectors each keep a private block
        and combine afterwards — summation is order-insensitive, so the
        totals are deterministic however the collectors interleaved.
        """
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class NodeSnapshot:
    """One plan node's metrics resolved against the tree shape."""

    node: PlanNode
    depth: int
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
    """Collects :class:`OperatorMetrics` per plan node of one query."""

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

    def merge_from(self, other: "PlanMetrics") -> None:
        """Add the blocks of a collector that ran the *same* plan nodes
        (a partition worker's) into this one's, node by node."""
        for node_id, block in other._by_node.items():
            mine = self._by_node.get(node_id)
            if mine is None:
                mine = self._by_node[node_id] = OperatorMetrics()
            mine.merge_from(block)

    def instrument(
        self, node: PlanNode, stream: Iterator[dict[str, Any]]
    ) -> Iterator[dict[str, Any]]:
        """Count and time every pull from ``stream`` against ``node``."""
        block = self.for_node(node)
        block.invocations += 1
        perf = time.perf_counter_ns
        while True:
            start = perf()
            try:
                item = next(stream)
            except StopIteration:
                block.time_ns += perf() - start
                return
            block.time_ns += perf() - start
            block.rows_out += 1
            yield item

    def snapshot(self, plan: PlanNode) -> NodeSnapshot:
        """Resolve metrics over the plan tree (pre-order root).

        Derived quantities: ``rows_in`` is the sum of the children's
        rows-out and ``self_time_ns`` the node's inclusive time minus
        its children's (clamped at zero — timer granularity can make
        a pass-through operator appear marginally cheaper than its
        child).
        """
        return self._snap(plan, 0)

    def _snap(self, node: PlanNode, depth: int) -> NodeSnapshot:
        children = [self._snap(child, depth + 1) for child in node.children()]
        block = self.for_node(node)
        rows_in = sum(child.metrics.rows_out for child in children)
        child_time = sum(child.metrics.time_ns for child in children)
        return NodeSnapshot(
            node=node,
            depth=depth,
            metrics=block,
            rows_in=rows_in,
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
