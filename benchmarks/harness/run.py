#!/usr/bin/env python3
"""The command ``BENCHMARK.json`` names:

    python3 benchmarks/harness/run.py --workload W --seed N --seconds S --trace 0|1

One workload per process, so ``peak_rss_mb`` is that workload's alone.
The program under test is imported from ``src/`` of the checkout this
file sits in, and every ``REPRO_*`` variable is scrubbed first, so the
environment cannot switch a mode on behind the harness's back.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    if not (root / "src" / "repro").is_dir():
        sys.exit(f"{root}: no src/repro here; the benchmark runs the program from source")
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    # replace the script's own directory, so harness modules are only
    # importable under their package name
    sys.path[0:1] = [str(root), str(root / "src")]
    from benchmarks.harness.runner import main

    sys.exit(main())
