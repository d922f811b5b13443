"""Concurrent lints through one shared linter and one shared database.

What a linter derives once (known names, their types) is shared; what
belongs to one query (the inference's source types, the normal form) must
not be. A memo on shared state would hand one query another's source
types and silently drop — or invent — a ``QL101``.
"""

import sys

from repro.calculus.parser import parse_calculus
from repro.db.database import demo_travel_database
from repro.db.sample_data import travel_schema
from repro.lint import Linter
from tests.test_cache_threadsafety import THREADS, run_threads

ROUNDS = 200

#: One term per thread; every other one draws a QL101.
TERMS = [
    parse_calculus(text)
    for text in (
        "set{ r | c <- Cities, h <- c.hotels, r <- h.rooms }",
        "set{ h | c <- Cities, h <- c.hotels }",
        "set{ x | x <- to_bag(Cities) }",
        "set{ x | x <- to_set(to_bag(Cities)) }",
        "set{ r.price | c <- Cities, h <- c.hotels, r <- h.rooms, r.price > 0 }",
        "set{ c.name | c <- Cities, c.population > 0 }",
        "let b = to_list(Cities) in set{ x | x <- b }",
        "let b = Cities in set{ x | x <- b }",
    )
]

#: One query per thread: errors, warnings, infos and clean ones.
QUERIES = [
    "select distinct c.name from c in Cities",
    "select distinct c.name from c in Citees",
    "select c.name from c in Cities",
    "select distinct h.name from c in Cities, h in c.hotels where 1 = 1",
    "select distinct c.name from c in Cities, d in Cities",
    "select distinct c.name from c in Cities order by c.population desc",
    "select distinct c.name from c in Cities where c.state = 'OR'",
    "select ??? from",
]


def _with_short_switch_interval(work):
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        return run_threads(work)
    finally:
        sys.setswitchinterval(before)


def test_shared_linter_keeps_each_terms_source_types():
    assert len(TERMS) == THREADS
    linter = Linter(travel_schema())
    serial = [linter.lint_term(term) for term in TERMS]
    assert [any(d.code == "QL101" for d in found) for found in serial] == [
        True, False] * (THREADS // 2)

    def work(index):
        return all(
            linter.lint_term(TERMS[index]) == serial[index] for _ in range(ROUNDS))

    assert _with_short_switch_interval(work) == [True] * THREADS


def test_shared_database_lints_and_strict_runs_each_text_as_itself():
    assert len(QUERIES) == THREADS
    db = demo_travel_database(num_cities=3, seed=1)

    def outcome(oql):
        try:
            return db.run(oql, strict=True)
        except Exception as err:  # compared, not swallowed: class and text
            return type(err), str(err)

    serial = [(db.lint(oql), outcome(oql)) for oql in QUERIES]

    def work(index):
        oql = QUERIES[index]
        return all(
            (db.lint(oql), outcome(oql)) == serial[index] for _ in range(ROUNDS))

    assert _with_short_switch_interval(work) == [True] * THREADS
