"""``compare A.json B.json``: one row per workload and end-to-end metric.

A is the base of every ratio. A row is ``regressed`` when B's median is
worse than A's by more than the metric's bound, ``improved`` when it is
better by more than the bound, ``unresolved`` when the spread between
either side's repeated runs is itself wider than the bound (so the
difference cannot be told from noise), and ``ok`` otherwise. Any rise
in ``failed_share`` is a regression whatever the timings say.
"""

from __future__ import annotations

import statistics
from typing import Any

from benchmarks.harness.stats import spread


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict[str, Any]:
    """Judge one metric from the repeated values of both sides."""
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    ratio = change_median / base_median if base_median else float("inf")
    worse_by = ratio - 1 if better == "lower" else 1 - ratio
    noise = max(spread(base), spread(change))
    if noise > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "regressed"
    elif -worse_by > bound:
        word = "improved"
    else:
        word = "ok"
    return {"base": base_median, "change": change_median, "ratio": ratio,
            "spread": noise, "verdict": word}


def compare(base: dict, change: dict) -> list[dict[str, Any]]:
    """Rows for every workload × end-to-end metric present in both files."""
    rows = []
    for name, base_workload in base["workloads"].items():
        change_workload = change["workloads"].get(name)
        if change_workload is None:
            continue
        for metric, declared in base_workload["end_to_end"].items():
            other = change_workload["end_to_end"].get(metric)
            if other is None:
                continue
            row = verdict(declared["values"], other["values"],
                          declared["better"], declared["bound"])
            row.update(workload=name, metric=metric, unit=declared["unit"],
                       bound=declared["bound"])
            rows.append(row)
        before = max(base_workload["failed_share"])
        after = max(change_workload["failed_share"])
        rows.append({
            "workload": name, "metric": "failed_share", "unit": "ratio", "bound": 0.0,
            "base": before, "change": after, "ratio": None, "spread": 0.0,
            "verdict": "regressed" if after > before else "ok",
        })
    return rows


def render(rows: list[dict[str, Any]]) -> str:
    lines = [f"{'workload':22s} {'metric':16s} {'base (A)':>12s} {'change (B)':>12s} "
             f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict"]
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        lines.append(
            f"{row['workload']:22s} {row['metric']:16s} {row['base']:12.4f} "
            f"{row['change']:12.4f} {ratio:>7s} {row['spread']:7.3f} {row['bound']:6.2f}  "
            f"{row['verdict']}  [{row['unit']}]")
    return "\n".join(lines)


def failed(rows: list[dict[str, Any]]) -> bool:
    return any(row["verdict"] == "regressed" for row in rows)
