"""Plan-walk precompilation: attach closures to physical plan nodes.

:func:`compile_node` compiles one operator's embedded calculus terms —
every entry of its :attr:`~repro.algebra.ops.PlanNode.exprs` that names
a closure slot, against the columns that entry says the term may read —
and stores the resulting closures on the node under the slot's name
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

from typing import Any

from repro.algebra.ops import PlanNode
from repro.jit.compiler import compile_term


def compile_node(node: PlanNode) -> None:
    """Compile (idempotently) the expressions of one plan operator and
    attach them, plus a ``jit_stats`` summary, to ``node``. An absent
    (None) term keeps a None slot and counts as neither compiled nor
    fallback; an entry without a slot (a Scan source, an IndexScan key)
    is evaluated once per execution, not per row — compiling it would
    not pay for itself."""
    if node.jit_ready:
        return
    compiled = 0
    fallback = 0
    constructs: dict[str, int] = {}
    for entry in node.exprs:
        if entry.slot is None:
            continue
        value, scope = entry.terms, entry.scope
        fns = []
        for term in value if isinstance(value, tuple) else (value,):
            if term is None:
                fns.append(None)
                continue
            fn, clean = _one(term, scope, constructs)
            fns.append(fn)
            compiled += clean
            fallback += 1 - clean
        object.__setattr__(
            node, entry.slot, tuple(fns) if isinstance(value, tuple) else fns[0]
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


def precompile_plan(plan: PlanNode) -> dict[str, Any]:
    """Compile every operator in ``plan``; returns aggregate stats
    (``compiled``/``fallback`` expression counts and the fallback
    ``constructs`` histogram) for telemetry and ``QueryResult.jit``."""
    compiled = 0
    fallback = 0
    constructs: dict[str, int] = {}
    for node in plan.walk():
        compile_node(node)
        stats = node.jit_stats
        compiled += stats["compiled"]
        fallback += stats["fallback"]
        for name, count in stats["constructs"].items():
            constructs[name] = constructs.get(name, 0) + count
    return {"compiled": compiled, "fallback": fallback, "constructs": constructs}


def plan_fallback_constructs(plan: PlanNode) -> dict[str, int]:
    """The fallback-construct histogram for ``plan`` (compiling it if
    needed) — what ``QL501`` names when a hot query stays interpreted."""
    return precompile_plan(plan)["constructs"]

