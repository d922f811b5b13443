"""Experiment G1 (extension) — group-by: nested-comprehension vs Nest.

The OQL translator's group-by semantics is a nested comprehension: one
partition subquery per distinct key, re-scanning the input (quadratic
in practice). The Nest operator folds each group's aggregates as its
rows arrive, in a single pass, and builds no partition for this query.
Series over employee counts; shape: Nest wins with a growing gap.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import build_company_db
from repro.values import Bag

QUERY = (
    "select struct(d: dno, total: sum(select p.salary from p in partition), "
    "n: count(partition)) from e in Employees group by dno: e.dno"
)

SIZES = [50, 200, 800]

# The interpreted (nested-comprehension) form is quadratic — measured
# 76 ms / 1.5 s / 22 s over this series — so timed benchmarks cap it at
# 200 employees; the Nest engine runs the full series (see EXPERIMENTS.md G1).
INTERPRET_CAP = 200


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("engine", ["interpret", "nest"])
def test_group_by_series(benchmark, engine, size):
    if engine == "interpret" and size > INTERPRET_CAP:
        pytest.skip("quadratic interpreter form is too slow to benchmark here")
    db = build_company_db(num_employees=size, seed=6)
    benchmark.group = f"G1 group-by n={size}"
    if engine == "interpret":
        value = benchmark(lambda: db.run(QUERY, engine="interpret"))
    else:
        value = benchmark(lambda: db.run(QUERY, engine="algebra"))
    assert len(value) == max(2, size // 10)


def test_shape_nest_beats_nested_comprehension():
    ratios = []
    for size in (SIZES[0], INTERPRET_CAP):
        db = build_company_db(num_employees=size, seed=6)
        assert db.run(QUERY, engine="algebra") == db.run(QUERY, engine="interpret")
        interp = _median_time(lambda: db.run(QUERY, engine="interpret"))
        nest = _median_time(lambda: db.run(QUERY, engine="algebra"))
        ratios.append(interp / nest)
    assert ratios[-1] > 2.0, f"Nest should win at scale, got {ratios}"
    assert ratios[-1] > ratios[0], f"gap should grow, got {ratios}"


def test_shape_no_bag_is_built_per_group(monkeypatch):
    """Needs no clock: both aggregates are folds of the grouping pass,
    so executing the query constructs no ``Bag`` at all — no partition
    and no bag of salaries, for any group."""
    db = build_company_db(num_employees=SIZES[0], seed=6)
    expected = db.run(QUERY, engine="algebra")
    built = []
    init = Bag.__init__

    def counting_init(self, items=()):
        built.append(items)
        init(self, items)

    monkeypatch.setattr(Bag, "__init__", counting_init)
    assert db.run(QUERY, engine="algebra") == expected
    assert built == []


def _median_time(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]
