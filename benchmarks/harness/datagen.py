"""Seeded inputs as plain Python rows.

Sizes and the multiset of values in every column are fixed; the seed
only decides which row gets which value (and, in ``workloads``, the
operation order and the literals). Every seed therefore does the same
amount of work — result cardinalities of the scan, join and group-by
classes are seed-invariant — which is what lets runs with different
seeds be compared within a few percent.

Rows are dicts/lists/sets, so the plain-Python oracle can fold over
them without touching the program's value model; ``city_records``
builds the nested ``Record`` form ``load_extent``/``load_objects`` need
(a Python set cannot hold dict rows).
"""

from __future__ import annotations

import random
from typing import Any

from repro.values import Record

_CITY_NAMES = (
    "Portland", "Salem", "Eugene", "Bend", "Medford", "Corvallis",
    "Astoria", "Ashland", "Hillsboro", "Gresham", "Tigard", "Beaverton",
)
_HOTEL_PREFIXES = ("Grand", "Royal", "Park", "River", "Forest", "Summit")
_HOTEL_SUFFIXES = ("Hotel", "Inn", "Lodge", "Suites", "Resort")
_FACILITY_SETS = (
    ("pool",), ("gym", "spa"), ("bar", "restaurant", "wifi"), ("parking",),
    ("pool", "wifi"), ("spa", "bar", "parking", "gym"), ("wifi",),
)
_FIRST_NAMES = (
    "Ann", "Bob", "Cara", "Dan", "Eve", "Finn", "Gail", "Hugo",
    "Iris", "Jack", "Kira", "Liam", "Mona", "Nils", "Olga", "Pete",
)
_SKILL_SETS = (
    ("sql",), ("oql", "ml"), ("ops", "ui", "api"), ("qa",), ("sql", "oql"),
    ("ml", "ops"), ("ui",), ("api", "qa", "sql"), ("oql",), ("ops",),
)


def _spread(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """``n`` evenly spaced ints covering [lo, hi], in seeded order."""
    values = [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]
    rng.shuffle(values)
    return values


def _cycled(rng: random.Random, n: int, choices: Any) -> list:
    """``choices`` repeated to length ``n``, in seeded order."""
    values = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(values)
    return values


def company(seed: int, n_depts: int, n_emps: int) -> dict[str, list[dict]]:
    """Departments (set extent) and Employees (bag extent) joined on ``dno``."""
    rng = random.Random(f"company/{seed}")
    budgets = _spread(rng, n_depts, 100_000, 5_000_000)
    floors = _cycled(rng, n_depts, range(1, 13))
    departments = [
        {"dno": d, "name": f"Dept-{d}", "budget": budgets[d], "floor": floors[d]}
        for d in range(n_depts)
    ]
    firsts = _cycled(rng, n_emps, _FIRST_NAMES)
    salaries = _spread(rng, n_emps, 30_000, 180_000)
    ages = _cycled(rng, n_emps, range(21, 68))
    dnos = _cycled(rng, n_emps, range(n_depts))
    skills = _cycled(rng, n_emps, _SKILL_SETS)
    employees = [
        {
            "name": f"{firsts[e]}-{e}",
            "salary": salaries[e],
            "age": ages[e],
            "dno": dnos[e],
            "skills": set(skills[e]),
        }
        for e in range(n_emps)
    ]
    return {"Departments": departments, "Employees": employees}


def travel(seed: int, n_cities: int, hotels_per_city: int, rooms_per_hotel: int) -> list[dict]:
    """Cities with nested hotels and rooms (the paper's running schema)."""
    rng = random.Random(f"travel/{seed}")
    n_hotels = n_cities * hotels_per_city
    n_rooms = n_hotels * rooms_per_hotel
    populations = _spread(rng, n_cities, 10_000, 700_000)
    stars = _cycled(rng, n_hotels, range(1, 6))
    prefixes = _cycled(rng, n_hotels, _HOTEL_PREFIXES)
    suffixes = _cycled(rng, n_hotels, _HOTEL_SUFFIXES)
    facilities = _cycled(rng, n_hotels, _FACILITY_SETS)
    beds = _cycled(rng, n_rooms, range(1, 5))
    prices = _spread(rng, n_rooms, 40, 400)
    cities = []
    for i in range(n_cities):
        base = _CITY_NAMES[i % len(_CITY_NAMES)]
        name = base if i < len(_CITY_NAMES) else f"{base}-{i // len(_CITY_NAMES)}"
        hotels = []
        for j in range(hotels_per_city):
            h = i * hotels_per_city + j
            rooms = [
                {"beds": beds[r], "price": prices[r]}
                for r in range(h * rooms_per_hotel, (h + 1) * rooms_per_hotel)
            ]
            hotels.append(
                {
                    "name": f"{prefixes[h]} {suffixes[h]} {i}-{j}",
                    "address": f"{1 + h % 999} Main St, {name}",
                    "stars": stars[h],
                    "rooms": rooms,
                    "facilities": set(facilities[h]),
                }
            )
        cities.append(
            {
                "name": name,
                "state": "OR",
                "population": populations[i],
                "hotels": hotels,
                "hotel_count": len(hotels),
            }
        )
    return cities


def city_records(cities: list[dict]) -> list[Record]:
    """The nested value form of ``travel`` rows."""
    return [
        Record(
            name=c["name"],
            state=c["state"],
            population=c["population"],
            hotels=frozenset(
                Record(
                    name=h["name"],
                    address=h["address"],
                    stars=h["stars"],
                    rooms=tuple(Record(**r) for r in h["rooms"]),
                    facilities=frozenset(h["facilities"]),
                )
                for h in c["hotels"]
            ),
            hotel_count=c["hotel_count"],
        )
        for c in cities
    ]
