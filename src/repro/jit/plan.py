"""Plan-walk precompilation: attach closures to physical plan nodes.

:func:`compile_node` compiles one operator's embedded calculus terms
(``SelectOp.pred``, ``Join`` keys/residual, ``Unnest.path``, ``Nest``
keys and fold heads/predicates, ``Reduce.head``) against the statically
known columns of the relevant child and stores the resulting closures on the node
(``pred_fn``, ``left_key_fns``, ...). Plan nodes are frozen
dataclasses, so the closures live in the instance ``__dict__`` via
``object.__setattr__`` — they are derived data, not part of the node's
value (equality/hash/``dataclasses.replace`` ignore them; a copied
node recompiles lazily).

Concurrency: compilation is idempotent and every write is a single
GIL-atomic attribute store, with ``jit_ready`` written last. Racing
executors (:mod:`repro.parallel` workers, concurrent queries on one
cached plan) may compile the same node twice; both produce equivalent
closures and readers always observe either a fully populated node or
``jit_ready == False``.

:func:`precompile_plan` walks a whole plan at plan-build time (the
pipeline's ``jit`` phase) and aggregates compiled/fallback counts;
:func:`plan_fallback_constructs` reports which constructs forced
interpreter fallbacks — the input to the ``QL501`` lint.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.algebra.ops import Join, Nest, PlanNode, Reduce, SelectOp, Unnest
from repro.jit.compiler import compile_term


def _compile_exprs(node: PlanNode, specs: list[tuple[str, Any, frozenset[str]]]) -> None:
    """Compile ``specs`` (slot name, term or tuple of terms, bound
    columns) and attach results plus a ``jit_stats`` summary to
    ``node``. An absent (None) term keeps a None slot and counts as
    neither compiled nor fallback."""
    compiled = 0
    fallback = 0
    constructs: dict[str, int] = {}
    for attr, value, bound in specs:
        fns = []
        for term in value if isinstance(value, tuple) else (value,):
            if term is None:
                fns.append(None)
                continue
            fn, clean = _one(term, bound, constructs)
            fns.append(fn)
            compiled += clean
            fallback += 1 - clean
        object.__setattr__(
            node, attr, tuple(fns) if isinstance(value, tuple) else fns[0]
        )
    object.__setattr__(
        node,
        "jit_stats",
        {"compiled": compiled, "fallback": fallback, "constructs": constructs},
    )
    # Written last: readers that see jit_ready see everything above.
    object.__setattr__(node, "jit_ready", True)


def _one(term, bound: frozenset[str], constructs: dict[str, int]):
    """Compile one expression; returns ``(fn, 1 if fully compiled else 0)``.

    Per-expression granularity: an expression counts as *compiled* only
    when no subterm fell back, so the telemetry ratio reflects how much
    of the hot path actually runs native.
    """
    local: list[str] = []
    fn = compile_term(term, bound, local)
    if local:
        for name in local:
            constructs[name] = constructs.get(name, 0) + 1
        return fn, 0
    return fn, 1


#: Operators carrying per-row expressions (Scan/IndexScan sources are
#: evaluated once per execution and stay interpreted).
COMPILABLE_NODES = (SelectOp, Join, Unnest, Nest, Reduce)


def compile_node(node: PlanNode) -> None:
    """Compile (idempotently) the expressions of one plan operator."""
    if not isinstance(node, COMPILABLE_NODES) or node.jit_ready:
        return
    if isinstance(node, SelectOp):
        _compile_exprs(node, [("pred_fn", node.pred, node.child.columns())])
    elif isinstance(node, Join):
        _compile_exprs(
            node,
            [
                ("left_key_fns", node.left_keys, node.left.columns()),
                ("right_key_fns", node.right_keys, node.right.columns()),
                ("residual_fn", node.residual, node.columns()),
            ],
        )
    elif isinstance(node, Unnest):
        _compile_exprs(node, [("src_fn", node.path, node.child.columns())])
    elif isinstance(node, Nest):
        child_cols = node.child.columns()
        _compile_exprs(
            node,
            [
                ("key_fns", tuple(term for _, term in node.keys), child_cols),
                ("head_fns", tuple(fold[2] for fold in node.folds), child_cols),
                ("pred_fns", tuple(fold[3] for fold in node.folds), child_cols),
            ],
        )
    elif isinstance(node, Reduce):
        _compile_exprs(node, [("head_fn", node.head, node.child.columns())])
    # Scan / IndexScan sources are evaluated once per execution, not per
    # row — compiling them would not pay for itself.


def precompile_plan(plan: PlanNode) -> dict[str, Any]:
    """Compile every operator in ``plan``; returns aggregate stats
    (``compiled``/``fallback`` expression counts and the fallback
    ``constructs`` histogram) for telemetry and ``QueryResult.jit``."""
    compiled = 0
    fallback = 0
    constructs: dict[str, int] = {}
    stack: list[PlanNode] = [plan]
    while stack:
        node = stack.pop()
        compile_node(node)
        stats = getattr(node, "jit_stats", None)
        if stats is not None:
            compiled += stats["compiled"]
            fallback += stats["fallback"]
            for name, count in stats["constructs"].items():
                constructs[name] = constructs.get(name, 0) + count
        stack.extend(node.children())
    return {"compiled": compiled, "fallback": fallback, "constructs": constructs}


def plan_fallback_constructs(plan: PlanNode) -> dict[str, int]:
    """The fallback-construct histogram for ``plan`` (compiling it if
    needed) — what ``QL501`` names when a hot query stays interpreted."""
    return precompile_plan(plan)["constructs"]


def node_fallbacks(node: PlanNode) -> Optional[dict[str, int]]:
    """Per-node fallback histogram, or None if the node has no
    compilable expressions (Scan/IndexScan) or is not yet compiled."""
    stats = getattr(node, "jit_stats", None)
    if stats is None:
        return None
    return dict(stats["constructs"])
