"""``python -m benchmarks.harness run|compare``.

``run`` executes every workload, one after another, each repetition in
its own fresh process (``run.py``, which scrubs ``REPRO_*`` from its
environment), then one traced run per workload, and writes one
``BENCH_<n>.json``-style document. ``compare`` diffs two such documents
and exits non-zero on a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Optional

from benchmarks.harness import compare as comparing
from benchmarks.harness.runner import ROOT, manifest
from benchmarks.harness.stats import quartiles
from benchmarks.harness.workloads import WORKLOADS

RUN_PY = Path(__file__).with_name("run.py")


def machine_info() -> dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


def child(workload: str, args: argparse.Namespace, trace: int, scratch: str) -> dict:
    """One ``run.py`` process; returns everything it measured."""
    detail = Path(scratch) / "detail.json"
    command = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace), "--detail", str(detail)]
    if args.smoke:
        command.append("--smoke")
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return json.loads(detail.read_text())


def run(args: argparse.Namespace) -> int:
    declared = manifest()
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    document: dict[str, Any] = {
        "schema": 1, "machine": machine_info(), "seed": args.seed, "seconds": args.seconds,
        "repeat": args.repeat, "smoke": args.smoke, "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        for name in args.workload or WORKLOADS:
            print(f"{name}: {args.repeat} run(s) + 1 traced", file=sys.stderr)
            runs = [child(name, args, 0, scratch) for _ in range(args.repeat)]
            traced = child(name, args, 1, scratch)
            traced.pop("spans")
            end_to_end = {}
            for metric in declared["end_to_end"]:
                values = [r["metrics"][metric["name"]] for r in runs]
                q1, median, q3 = quartiles(values)
                end_to_end[metric["name"]] = {
                    **metric, "values": values, "q1": q1, "median": median, "q3": q3}
            document["workloads"][name] = {
                "why": why[name],
                "end_to_end": end_to_end,
                "failed_share": [r["failed_share"] for r in runs],
                "per_layer": {
                    m["name"]: {**m, "value": traced["metrics"].get(m["name"])}
                    for m in declared["per_layer"]
                },
                "runs": runs,
                "traced": traced,
            }
    text = json.dumps(document, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    wrong = [name for name, w in document["workloads"].items() if any(w["failed_share"])]
    return 1 if wrong else 0


def compare(args: argparse.Namespace) -> int:
    base = json.loads(Path(args.base).read_text())
    change = json.loads(Path(args.change).read_text())
    rows = comparing.compare(base, change)
    print(comparing.render(rows))
    return 1 if comparing.failed(rows) else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.harness")
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run every workload, write one JSON document")
    run_parser.add_argument("--seed", type=int, default=11)
    run_parser.add_argument("--seconds", type=float, default=manifest()["run_seconds"])
    run_parser.add_argument("--repeat", type=int, default=1,
                            help="untraced repetitions per workload; all are recorded")
    run_parser.add_argument("--workload", action="append", choices=WORKLOADS)
    run_parser.add_argument("--smoke", action="store_true")
    run_parser.add_argument("--out", help="write the document here instead of stdout")
    run_parser.set_defaults(fn=run)
    compare_parser = commands.add_parser("compare", help="diff two documents; A is the base")
    compare_parser.add_argument("base")
    compare_parser.add_argument("change")
    compare_parser.set_defaults(fn=compare)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
