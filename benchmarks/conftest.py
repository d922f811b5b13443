"""Shared benchmark fixtures and reporting helpers.

Plain ``pytest benchmarks/`` (and tier-1) runs under ``--benchmark-disable``
(``pyproject.toml``): every benchmark body once, untimed, beside the
*shape* assertions (who wins, by how much) that EXPERIMENTS.md records.
``pytest benchmarks/ --benchmark-enable --benchmark-only`` regenerates
every series the reproduction reports (grouped per experiment id from
DESIGN.md) — pytest-benchmark refuses ``--benchmark-only`` beside
``--benchmark-disable``, hence the explicit enable.
"""

from __future__ import annotations

import pytest

from repro.db import (
    Database,
    company_schema,
    make_company,
    make_travel_agency,
    travel_schema,
)


# The engine benchmarks time repeated identical queries, so the query
# cache (REPRO_CACHE=1) would collapse every timing to a cache hit,
# REPRO_PARALLEL would change what the serial series measures, and
# REPRO_JIT would change what the interpreted baseline measures; the
# builders opt out of all three. bench_cache.py manages its own caches,
# bench_parallel.py its own fan-out, bench_jit.py its own executors.
def build_travel_db(num_cities: int, seed: int = 0) -> Database:
    db = Database(travel_schema(), cache=False, parallel=False, jit=False)
    db.load_extents(
        make_travel_agency(
            num_cities=num_cities, hotels_per_city=5, rooms_per_hotel=6, seed=seed
        )
    )
    return db


def build_company_db(num_employees: int, seed: int = 0) -> Database:
    db = Database(company_schema(), cache=False, parallel=False, jit=False)
    db.load_extents(
        make_company(
            num_departments=max(2, num_employees // 10),
            num_employees=num_employees,
            seed=seed,
        )
    )
    return db


@pytest.fixture(scope="module")
def travel_db() -> Database:
    return build_travel_db(num_cities=10, seed=3)


@pytest.fixture(scope="module")
def company_db() -> Database:
    return build_company_db(num_employees=200, seed=3)
