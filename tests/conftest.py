"""Shared fixtures: sample databases and evaluators."""

from __future__ import annotations

import sys

import pytest

from repro.db import (
    Database,
    company_schema,
    make_company,
    make_travel_agency,
    travel_schema,
)
from repro.eval import Evaluator
from repro.jit.plan import clear_code_cache
from repro.monoids import default_registry
from repro.values import canonical_key


@pytest.fixture(autouse=True)
def empty_code_cache():
    """Every test starts with the process-wide code cache empty, so what
    it counts (emissions, first sightings) does not depend on what ran
    before it."""
    clear_code_cache()
    yield
    clear_code_cache()


@pytest.fixture
def travel_db() -> Database:
    """A small deterministic travel-agency database."""
    db = Database(travel_schema())
    db.load_extents(make_travel_agency(num_cities=5, hotels_per_city=3,
                                       rooms_per_hotel=4, seed=7))
    return db


@pytest.fixture
def company_db() -> Database:
    """A small deterministic company database (Departments/Employees)."""
    db = Database(company_schema())
    db.load_extents(make_company(num_departments=4, num_employees=40, seed=11))
    return db


@pytest.fixture
def evaluator() -> Evaluator:
    return Evaluator()


@pytest.fixture
def count_calls(monkeypatch):
    """Call it with a function to start counting: returns the list that
    every later call of that function, from any loaded ``repro`` module,
    appends its first argument to."""

    def start(fn) -> list:
        calls: list = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting)
        return calls

    return start


@pytest.fixture
def count_canonical_key(count_calls):
    """:func:`count_calls` of ``canonical_key``."""
    return lambda: count_calls(canonical_key)


@pytest.fixture
def register_monoid():
    """Call it with a monoid to register it in ``default_registry()`` for
    this test only (returns the monoid). The registry is restored after
    the test, so one that enumerates it sees the same names whatever
    ran before."""
    registry = default_registry()
    saved = dict(registry._monoids)
    yield registry.register
    registry._monoids.clear()
    registry._monoids.update(saved)
