"""``Database.compile`` decides, ``_execute`` runs.

Whether a query keeps its plan (only when the jit phase gives the plan a
function) and, with a result cache, whether its values are stored and
which object fields guard them, are settled by ``compile`` before the
entry is published. These tests hold every way of answering a query to
that one decision: EXPLAIN shows the engine ``run`` uses, whatever the
cache, prepared or ad hoc, verified or not, and nothing writes an entry
after ``compile`` returns it.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.verifier import verification
from repro.db import Database, company_schema, make_company
from repro.obs.explain import plan_to_dict

from tests.data.make_exec_stats_golden import queries
from tests.data.make_plans_golden import grouped_queries


def generators_query(n: int) -> str:
    """``n`` generators over ``Ones`` and ``Twos``, summed in the head:
    a plan of ``n`` nested loops, refused from 19 on (CPython compiles at
    most 20 statically nested blocks)."""
    names = [f"x{i}" for i in range(n)]
    froms = ", ".join(f"{x} in {'Twos' if i % 8 == 0 else 'Ones'}" for i, x in enumerate(names))
    return f"select {' + '.join(names)} from {froms}"


#: a query whose plan Python will not compile
REFUSED = generators_query(24)


def ones_and_twos(cache: bool = False) -> Database:
    """A company database with the one-row ``Ones`` and two-row ``Twos``
    lists, every mode pinned (robust under REPRO_*)."""
    db = Database(company_schema(), cache=cache, parallel=False, jit=False, telemetry=False)
    db.load_extents(make_company(2, 4, seed=1))
    db.load_extent("Ones", (1,), monoid="list")
    db.load_extent("Twos", (1, 2), monoid="list")
    return db


def shape(node: dict) -> list:
    """An EXPLAIN plan tree without its labels (fresh variable names
    differ between two compiles of one text)."""
    return [node["op"], node["estimated_rows"], [shape(kid) for kid in node.get("children", ())]]


def test_the_refused_query_runs_on_the_interpreter_and_explains_so():
    for cache in (False, True):
        db = ones_and_twos(cache)
        entry = db.compile(REFUSED)
        assert entry.plan is None and entry.phases == ("parse", "translate", "normalize")
        doc = db.explain_data(REFUSED)
        assert doc["engine"] == db.run_detailed(REFUSED).engine == "interpret"
        assert doc["note"].startswith("query runs on the reference interpreter")
        assert db.compile(generators_query(18)).plan is not None


@given(
    n=st.integers(1, 30),
    cache=st.booleans(),
    prepared=st.booleans(),
    verify=st.booleans(),
)
def test_explain_and_run_agree(n, cache, prepared, verify):
    """EXPLAIN's engine and plan are the ones every run executes, and the
    value is the reference interpreter's: compiled with or without
    verification, then run once more with it off on the same entry."""
    db = ones_and_twos(cache)
    oql = generators_query(n)
    expected = db.run(oql, engine="interpret")
    with verification(verify):
        statement = db.prepare(oql) if prepared else None
        run = statement.run_detailed if prepared else lambda: db.run_detailed(oql)
        doc = db.explain_data(oql)
        results = [run()]
    with verification(False):
        results.append(run())
    for result in results:
        assert result.engine == doc["engine"]
        assert result.value == expected
        if result.plan is None:
            assert doc["plan"] is None
        else:
            assert shape(plan_to_dict(result.plan, db.catalog.extent_sizes())) == shape(doc["plan"])


def test_the_entry_is_final():
    """With a cache, an entry's plan, phases, verdict and key are what
    ``compile`` made them, however many times it runs."""
    db = ones_and_twos(True)
    corpus = [*queries({"cache": True}), *grouped_queries({"cache": True})]
    corpus.append(("refused", db, REFUSED, lambda: db.run_detailed(REFUSED)))
    assert len(corpus) > 40
    for label, db, oql, run in corpus:
        entry = run().compiled
        made = (entry.plan, entry.phases, entry.deps, entry.key)
        run()
        run()
        again = db.compile(oql, entry.engine, entry.typecheck)
        assert again is entry, label
        assert (again.plan, again.phases, again.deps, again.key) == made, label
        assert again.plan is made[0] and again.deps is not None, label
