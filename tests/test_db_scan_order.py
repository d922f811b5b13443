"""Scans of stored sets and bags sort them once, not once per query.

The guard is a count, not a timing: after a first ``db.run`` has put the
stored data into canonical order, a second run of the same scan query
must not build a single ``canonical_key`` — in any execution mode.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cache import CacheConfig
from repro.db import Database, company_schema, make_company, make_travel_agency, travel_schema
from repro.jit import JITConfig
from repro.monoids import SET
from repro.parallel import ParallelConfig
from repro.values import Bag, canonical_key, to_python

#: force the fan-out on small extents; never defer to REPRO_VERIFY
_FAN_OUT = dict(max_workers=2, min_partition_rows=1, verify=False)

# The mode rows of CI's matrix that change how a plan is executed. The
# cache keeps compiled plans only: a result hit would skip the scan.
MODES = {
    "plain": {},
    "cache": {"cache": CacheConfig(results=False)},
    "jit": {"jit": JITConfig(verify=False)},
    "parallel": {"parallel": ParallelConfig(**_FAN_OUT)},
    "jit+parallel": {
        "jit": JITConfig(verify=False),
        "parallel": ParallelConfig(**_FAN_OUT),
    },
}


def _database(schema, modes) -> Database:
    pinned = {"cache": False, "parallel": False, "jit": False, "telemetry": False}
    return Database(schema, **{**pinned, **modes})


def _bag_extent(modes):
    db = _database(company_schema(), modes)
    db.load_extents(make_company(num_departments=4, num_employees=40, seed=11))
    assert isinstance(db.catalog.extent("Employees"), Bag)
    return db, "sum(select e.salary from e in Employees where e.age > 0)"


def _set_extent_with_nested_sets(modes):
    db = _database(travel_schema(), modes)
    db.load_extents(make_travel_agency(num_cities=6, hotels_per_city=3, seed=7))
    return db, "select distinct f from c in Cities, h in c.hotels, f in h.facilities"


def _object_extent(modes):
    db = _database(travel_schema(), modes)
    cities = make_travel_agency(num_cities=6, hotels_per_city=3, seed=7)["Cities"]
    db.load_objects("Cities", "City", SET.iterate(cities))
    return db, "select distinct h.name from c in Cities, h in c.hotels where h.stars > 0"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("build", [_bag_extent, _set_extent_with_nested_sets, _object_extent])
def test_second_run_of_a_scan_builds_no_canonical_keys(build, mode, count_canonical_key):
    db, oql = build(MODES[mode])
    first = db.run(oql, verify=False)
    calls = count_canonical_key()
    assert db.run(oql, verify=False) == first
    assert len(calls) == 0


def test_extent_membership_changes_show_in_canonical_order():
    db = Database(travel_schema())
    db.load_objects("Cities", "City", [
        {"name": name, "hotels": set(), "hotel_count": 0, "population": 1, "state": "OR"}
        for name in ("Salem", "Bend")
    ])
    oql = "select distinct c from c in Cities"

    def scanned():
        members = db.run(oql)
        assert list(SET.iterate(members)) == sorted(members, key=canonical_key)
        return [db.store.deref(obj).name for obj in SET.iterate(members)]

    assert scanned() == ["Salem", "Bend"]
    astoria = db.registry.create("City", {
        "name": "Astoria", "hotels": frozenset(), "hotel_count": 0,
        "population": 1, "state": "OR"})
    assert scanned() == ["Salem", "Bend", "Astoria"]
    db.registry.remove(astoria)
    db.store.delete(astoria)
    assert scanned() == ["Salem", "Bend"]


def test_reloaded_extent_is_scanned_in_its_own_order():
    db = Database(company_schema())
    db.load_extents(make_company(num_departments=2, num_employees=6, seed=1))
    oql = "select e.name from e in Employees"
    before = list(db.run(oql))
    bigger = make_company(num_departments=2, num_employees=9, seed=1)["Employees"]
    db.load_extent("Employees", bigger, replace=True)
    after = list(db.run(oql))
    assert len(after) == 9 and after != before
    assert after == sorted(after, key=canonical_key)


def test_threads_first_iterating_one_extent_see_one_order():
    cities = make_travel_agency(num_cities=40, hotels_per_city=2, seed=3)["Cities"]
    employees = make_company(num_departments=4, num_employees=200, seed=5)["Employees"]
    expected = (sorted(cities, key=canonical_key), sorted(employees, key=canonical_key))
    barrier = threading.Barrier(8)
    seen: list = []

    def first_iteration():
        barrier.wait(timeout=30)
        seen.append((list(SET.iterate(cities)), list(employees)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_iteration) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 and all(orders == expected for orders in seen)


def test_parallel_workers_first_iterating_one_extent_agree_with_serial():
    oql = "select distinct h.name from c in Cities, h in c.hotels where h.stars >= 2"
    serial = _database(travel_schema(), {})
    parallel = _database(travel_schema(), {"parallel": ParallelConfig(**_FAN_OUT)})
    for db in (serial, parallel):
        # Equal data, separate objects: the workers are the first to
        # iterate the nested sets of their database.
        db.load_extents(make_travel_agency(num_cities=30, hotels_per_city=3, seed=9))
    result = parallel.run_detailed(oql, verify=False)
    assert result.stats.partitions == 2
    assert to_python(result.value) == to_python(serial.run(oql, verify=False))
