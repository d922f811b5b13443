"""End-to-end benchmark of ``Database.run`` with per-layer attribution.

``run.py`` is the entry point ``BENCHMARK.json`` names (one workload per
process); ``python -m benchmarks.harness run|compare`` is the wrapper
that runs every workload and diffs two result files. README.md in this
directory is the glossary of workload and metric names.
"""
