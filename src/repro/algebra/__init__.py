"""Logical algebra, optimizer and pipelined physical execution."""

from repro.algebra.groupby import build_group_by_plan, plan_group_by
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
from repro.algebra.optimizer import Optimizer
from repro.algebra.physical import ExecutionStats, Executor, execute_plan
from repro.algebra.translate import build_plan

__all__ = [
    "ExecutionStats",
    "Executor",
    "IndexScan",
    "Join",
    "Nest",
    "Optimizer",
    "PlanNode",
    "Reduce",
    "Scan",
    "SelectOp",
    "Unnest",
    "build_group_by_plan",
    "build_plan",
    "execute_plan",
    "plan_group_by",
]
