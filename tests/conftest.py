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
from repro.values import canonical_key


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
def count_canonical_key(monkeypatch):
    """Call it to start counting: returns the list that every later
    ``canonical_key`` call, from any loaded ``repro`` module, is appended to."""

    def start() -> list:
        calls: list = []

        def counting(value):
            calls.append(value)
            return canonical_key(value)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "canonical_key", None) is canonical_key:
                monkeypatch.setattr(module, "canonical_key", counting)
        return calls

    return start
