"""There is one executor and it is serial: what is left of the
partition-parallel switches.

``Database(parallel=…)``, :meth:`Database.enable_parallel`,
:class:`repro.parallel.ParallelConfig` and ``ExecutionStats.partitions``
keep their names because ``benchmarks/harness`` still passes or reads
them. A truthy constructor setting is refused; everything else is
accepted and changes nothing: the plan still runs as its one generated
function and reports zero partitions.
"""

from __future__ import annotations

import pytest

from repro.db import Database, company_schema, make_company
from repro.errors import DatabaseError
from repro.jit.plan import fused
from repro.parallel import ParallelConfig
from repro.repl import Repl

SALARIES = "sum(select e.salary from e in Employees where e.age > 30)"


def _database(**settings) -> Database:
    db = Database(company_schema(), **{"cache": False, "telemetry": False, **settings})
    db.load_extents(make_company(num_departments=3, num_employees=30, seed=5))
    return db


@pytest.mark.parametrize(
    "setting", [True, 2, ParallelConfig(max_workers=4)], ids=["true", "two", "config"]
)
def test_a_truthy_parallel_setting_is_refused(setting):
    with pytest.raises(DatabaseError, match="no parallel execution"):
        Database(company_schema(), parallel=setting)


@pytest.mark.parametrize("setting", [False, None, 0], ids=["false", "none", "zero"])
def test_a_falsy_parallel_setting_is_accepted(setting):
    db = _database(parallel=setting)
    result = db.run_detailed(SALARIES)
    assert result.value == db.run(SALARIES, engine="interpret")
    assert fused(result.plan) is not None and result.stats.partitions == 0


def test_enable_parallel_changes_nothing():
    """The harness's ``parallel.*`` probe toggles these and reads
    ``stats.partitions``: the same run, zero partitions."""
    db = _database()
    before = db.run_detailed(SALARIES)
    db.enable_parallel(ParallelConfig(max_workers=2))
    during = db.run_detailed(SALARIES)
    db.disable_parallel()
    after = db.run_detailed(SALARIES)
    assert before.value == during.value == after.value
    assert before.stats == during.stats == after.stats
    assert during.stats.partitions == 0
    assert "partitions" not in during.stats.as_dict()


def test_repro_parallel_in_the_environment_is_not_read(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "1")
    db = _database()
    result = db.run_detailed(SALARIES)
    assert result.value == db.run(SALARIES, engine="interpret")
    assert result.stats.partitions == 0


def test_the_repl_has_no_parallel_command():
    outputs: list[str] = []
    repl = Repl(_database(), out=outputs.append)
    repl.handle("\\parallel on")
    assert "unknown command" in "\n".join(outputs)
