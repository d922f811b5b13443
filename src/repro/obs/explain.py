"""EXPLAIN [ANALYZE]: estimated (and actual) cardinalities per plan node.

Every node of the plan :meth:`Database.compile
<repro.db.database.Database.compile>` hands ``run`` gets a cardinality
estimate (:func:`estimate_cardinalities`); with ANALYZE the plan is run
(via :meth:`Database.explain_data
<repro.db.database.Database.explain_data>`) and the estimates are lined
up against what actually flowed through every operator. No plan choice
reads an estimate: the plan is the canonical form's (§3), so the
estimator is extent sizes plus fixed factors, and it lives here, beside
its one reader.

The accuracy measure is the **q-error** — ``max(est, actual) /
min(est, actual)``, floored at one row — the standard relative error
for cardinality estimates (symmetric: a 10x over- and a 10x
under-estimate both score 10). A perfect estimate has q-error 1.0.

One document, two forms: :func:`render_explain` for terminals (what
``Database.explain`` returns) and the document itself (plain
dicts/lists) for ``--json``. Schema in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.algebra.ops import IndexScan, Join, Nest, PlanNode, Reduce, Scan, SelectOp, Unnest
from repro.algebra.ops import is_effect
from repro.calculus.ast import Var
from repro.obs.metrics import PlanMetrics

#: The fixed factors the estimator applies where extent sizes say nothing.
DEFAULT_SELECTIVITY = 0.25
DEFAULT_FANOUT = 4.0
DEFAULT_EXTENT_SIZE = 1000.0
#: Fraction of input rows surviving a Nest as distinct groups.
DEFAULT_GROUP_FACTOR = 0.1
#: Fraction of an extent an equality IndexScan is guessed to return.
INDEX_SELECTIVITY = 0.01


def estimate_cardinalities(
    plan: PlanNode, extent_sizes: Optional[dict[str, int]] = None
) -> dict[int, float]:
    """Output-cardinality estimates for every node of a plan, by
    ``id(node)``, computed bottom-up in one pass from ``extent_sizes``
    (element counts per extent) and the fixed factors above."""
    sizes = extent_sizes or {}
    estimates: dict[int, float] = {}
    for node in reversed(list(plan.walk())):  # pre-order backwards: children first
        inputs = [estimates[id(child)] for child in node.children()]
        estimates[id(node)] = _estimate(node, inputs, sizes)
    return estimates


def _estimate(node: PlanNode, inputs: list[float], sizes: dict[str, int]) -> float:
    """One operator's estimate from its children's (``inputs``)."""
    if isinstance(node, Reduce):
        # A primitive-monoid reduce (sum/count/max/some...) emits one
        # value regardless of input; collection reduces keep the stream.
        return 1.0 if _monoid_is_primitive(node.monoid) else inputs[0]
    if isinstance(node, Scan):
        if node.sub is not None:  # what its sub-plan is estimated to make
            return inputs[0]
        if isinstance(node.source, Var):
            return float(sizes.get(node.source.name, DEFAULT_EXTENT_SIZE))
        return DEFAULT_EXTENT_SIZE
    if isinstance(node, IndexScan):
        base = float(sizes.get(node.extent, DEFAULT_EXTENT_SIZE))
        return max(1.0, base * INDEX_SELECTIVITY)
    if isinstance(node, SelectOp):  # an effect filter keeps every row
        return inputs[0] * (1.0 if is_effect(node.pred) else DEFAULT_SELECTIVITY)
    if isinstance(node, Join):
        left, right = inputs
        return max(left, right) if node.left_keys else left * right
    if isinstance(node, Unnest):
        return inputs[0] * DEFAULT_FANOUT
    if isinstance(node, Nest):
        return max(1.0, inputs[0] * DEFAULT_GROUP_FACTOR)
    return DEFAULT_EXTENT_SIZE


def _monoid_is_primitive(ref) -> bool:
    from repro.monoids.registry import static_monoid

    monoid = None if ref.is_vector else static_monoid(ref)
    return monoid is not None and not monoid.is_collection


def q_error(estimated: float, actual: float) -> float:
    """Symmetric relative cardinality error (1.0 = perfect)."""
    est = max(1.0, float(estimated))
    act = max(1.0, float(actual))
    return max(est, act) / min(est, act)


def plan_to_dict(
    plan: PlanNode,
    extent_sizes: Optional[dict[str, int]] = None,
    metrics: Optional[PlanMetrics] = None,
) -> dict[str, Any]:
    """The plan subtree as nested dicts, annotated with estimates and —
    when ``metrics`` is given — per-node actuals."""
    snapshot = metrics.snapshot(plan) if metrics is not None else None
    estimates = estimate_cardinalities(plan, extent_sizes)

    def build(node: PlanNode, snap) -> dict[str, Any]:
        out: dict[str, Any] = {
            "op": type(node).__name__,
            "label": node.label(),
            "estimated_rows": round(estimates[id(node)], 2),
        }
        if snap is not None:
            block = snap.metrics
            out["actual_rows"] = block.rows_out
            out["rows_in"] = snap.rows_in
            out["q_error"] = round(q_error(out["estimated_rows"], block.rows_out), 2)
            if block.hash_builds:
                out["hash_builds"] = block.hash_builds
            if block.index_probes:
                out["index_probes"] = block.index_probes
        kids = node.children()
        if kids:
            out["children"] = [
                build(child, snap.children[i] if snap is not None else None)
                for i, child in enumerate(kids)
            ]
        return out

    return build(plan, snapshot)


def summarize(plan_dict: dict[str, Any]) -> dict[str, Any]:
    """Estimate accuracy over every analyzed node of one plan."""
    errors: list[float] = []

    def walk(node: dict[str, Any]) -> None:
        if "q_error" in node:
            errors.append(node["q_error"])
        for child in node.get("children", ()):
            walk(child)

    walk(plan_dict)
    if not errors:
        return {"nodes": 0}
    return {
        "nodes": len(errors),
        "mean_q_error": round(sum(errors) / len(errors), 2),
        "max_q_error": round(max(errors), 2),
    }


def render_explain(doc: dict[str, Any]) -> str:
    """The explain document as an aligned text tree."""
    lines: list[str] = []
    oql = doc.get("oql", "").strip()
    title = "EXPLAIN ANALYZE" if doc.get("analyzed") else "EXPLAIN"
    lines.append(f"{title}: {oql}")
    phases = doc.get("phases_ms")
    if phases:
        lines.append(
            "phases: " + "  ".join(f"{k}={v:.3f}ms" for k, v in phases.items())
        )
    cache = doc.get("cache")
    if cache:
        line = f"cache:  compile={cache.get('compile', '-')}"
        if "result" in cache:
            line += f"  result={cache['result']}"
        stats = cache.get("stats")
        if stats:
            line += (
                f"  (hits={stats['compile_hits']}+{stats['result_hits']}"
                f"  misses={stats['compile_misses']}+{stats['result_misses']}"
                f"  evictions={stats['evictions']}"
                f"  invalidations={stats['invalidations']})"
            )
        lines.append(line)
    verdict = doc.get("result_cache")
    if verdict is not None:
        if "off" in verdict:
            lines.append(f"result cache: off, {verdict['off']}")
        elif verdict["reads"] is None:
            lines.append("result cache: reads the whole heap")
        else:
            lines.append(f"result cache: reads {', '.join(verdict['reads']) or 'no field'}")
    plan = doc.get("plan")
    if plan is None:
        lines.append(f"(no algebra plan: {doc.get('note', 'executed by interpreter')})")
        return "\n".join(lines)

    rows: list[tuple[str, str]] = []

    def walk(node: dict[str, Any], depth: int) -> None:
        label = "  " * depth + node["label"]
        annot = f"est~{node['estimated_rows']:g}"
        if "actual_rows" in node:
            annot += f"  actual={node['actual_rows']}  q-err={node['q_error']:g}"
            if depth == 0 and phases and "execute" in phases:
                # the run's wall time: operators are not timed apart
                annot += f"  time={phases['execute']:.3f}ms"
            if node.get("hash_builds"):
                annot += f"  hash_builds={node['hash_builds']}"
            if node.get("index_probes"):
                annot += f"  index_probes={node['index_probes']}"
        rows.append((label, annot))
        for child in node.get("children", ()):
            walk(child, depth + 1)

    walk(plan, 0)
    width = max(len(label) for label, _ in rows) + 3
    lines.extend(f"{label:<{width}}{annot}" for label, annot in rows)
    summary = doc.get("summary")
    if summary and summary.get("nodes"):
        lines.append(
            f"cost model: mean q-error {summary['mean_q_error']:g}, "
            f"max {summary['max_q_error']:g} over {summary['nodes']} nodes"
        )
    return "\n".join(lines)
