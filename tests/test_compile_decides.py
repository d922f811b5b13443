"""``Database.compile`` decides, ``_execute`` runs.

Whether a query keeps its plan (only when the jit phase gives the plan a
function) and, with a result cache, whether its values are stored and
which object fields guard them, are settled by ``compile`` before the
entry is published. These tests hold every way of answering a query to
that one decision: EXPLAIN shows the engine ``run`` uses, whatever the
cache, prepared or ad hoc, verified or not, and nothing writes an entry
after ``compile`` returns it. A hand-built calculus term takes the same
route as text, a §4.2 update program through ``compile``'s effect stage,
and answers as the reference interpreter does.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.translate import build_plan
from repro.analysis.verifier import verification
from repro.cache.keys import fingerprint_term
from repro.calculus import BinOp, comp, const, eq, filt, gen, gt, lt, proj, var
from repro.calculus.ast import Generator, New
from repro.db import Database, company_schema, make_company, travel_schema
from repro.errors import ReproError
from repro.objects import add_to_field, set_field, update_where
from repro.obs.explain import plan_to_dict
from repro.obs.querylog import oql_fingerprint
from repro.obs.telemetry import MetricsRegistry
from repro.oql.parser import parse

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


def test_the_explain_note_says_it_once():
    db = ones_and_twos()
    assert db.explain(REFUSED).splitlines()[-1] == (
        "(no algebra plan: query runs on the reference interpreter)"
    )


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


def test_the_fingerprint_is_derived_once_when_read(count_calls):
    """``compile`` leaves the fingerprint alone: it is derived the first
    time it is read and then kept on the entry, whatever was attached when
    the entry compiled, and an alpha-variant's run counts the same class."""
    digests = count_calls(fingerprint_term)
    db = ones_and_twos(True)
    entry = db.compile("count(select x from x in Ones)")
    assert "fingerprint" not in vars(entry) and digests == []
    db.enable_telemetry(MetricsRegistry())
    db.run("count(select y from y in Ones)")
    made = entry.fingerprint
    assert len(digests) == 1 and db.compile("count(select x from x in Ones)") is entry
    assert (made,) == tuple(s.fingerprint for s in db.telemetry.fingerprints.top(10))
    plain = ones_and_twos().compile("count(select x from x in Ones)")
    assert plain.key is None and plain.fingerprint == made == fingerprint_term(plain.calculus)


def test_attaching_telemetry_recompiles_nothing(count_calls):
    """An entry compiled before telemetry was attached serves it as it is:
    the cached entry and a pinned prepared statement each run ten times
    with no parse, no invalidation and one digest of their class."""
    parses, digests = count_calls(parse), count_calls(fingerprint_term)
    oql = "count(select x from x in Ones)"
    cached, pinned = ones_and_twos(True), ones_and_twos()
    statement = pinned.prepare(oql)
    cached.run(oql)
    for db, run in ((cached, lambda: cached.run(oql)), (pinned, statement.run)):
        db.enable_telemetry(MetricsRegistry())
        parses.clear()
        digests.clear()
        for _ in range(10):
            assert run() == 1
        assert (len(parses), len(digests)) == (0, 1)
        assert db.cache is None or db.cache.stats.invalidations == 0
        assert db.telemetry.fingerprints.top(1)[0].count == 10


# -- hand-built terms ----------------------------------------------------------


def cities(cache: bool = False) -> Database:
    """Six object-mode cities, every mode pinned (robust under REPRO_*)."""
    db = Database(travel_schema(), cache=cache, parallel=False, jit=False, telemetry=False)
    db.load_objects("Cities", "City", [
        {"name": f"C{i}", "state": "OR" if i % 2 else "WA", "population": 1000 * (i + 1),
         "hotels": set(), "hotel_count": i % 4}
        for i in range(6)
    ])
    return db


def _c(field: str):
    return proj(var("c"), field)


def _cities(*quals) -> list:
    return [gen("c", var("Cities")), *quals]


PURE = st.one_of(
    st.builds(
        lambda k: comp("sum", _c("hotel_count"), _cities(filt(gt(_c("population"), const(k))))),
        st.integers(0, 7000),
    ),
    st.builds(lambda s: comp("set", _c("name"), _cities(filt(eq(_c("state"), const(s))))),
              st.sampled_from(["OR", "WA", "ID"])),
    # a nested comprehension the normalizer flattens
    st.builds(lambda k: comp("bag", _c("population"), [gen("c", comp("set", var("d"), [
        gen("d", var("Cities")), filt(lt(proj(var("d"), "hotel_count"), const(k))),
    ]))]), st.integers(0, 4)),
    st.builds(lambda k: comp("set", var("c"), _cities(filt(lt(_c("hotel_count"), const(k))))),
              st.integers(0, 4)),
    # fails on the first row: a string onto a number
    st.just(comp("sum", BinOp("+", _c("population"), const("x")), _cities())),
    st.builds(lambda k: BinOp("div", const(12), const(k)), st.integers(-2, 2)),
)

UPDATES = st.one_of(
    st.builds(lambda k: add_to_field("hotel_count", const(k)), st.integers(-2, 3)),
    st.builds(lambda k: set_field("state", const(k)), st.sampled_from(["ID", "OR"])),
    st.just(set_field("hotel_count", BinOp("+", _c("hotel_count"), _c("hotel_count")))),
    # fails on the third city
    st.just(add_to_field(
        "hotel_count", BinOp("div", const(1), BinOp("-", _c("population"), const(3000)))
    )),
)

EFFECTFUL = st.one_of(
    st.builds(
        lambda k, updates: update_where("Cities", "c", gt(_c("population"), const(k)), updates),
        st.integers(0, 7000), st.lists(UPDATES, min_size=1, max_size=3),
    ),
    st.builds(lambda updates: update_where("Cities", "c", None, updates),
              st.lists(UPDATES, min_size=1, max_size=2)),
    # no plan takes ``new``: the interpreter runs it
    st.just(comp("set", New(_c("name")), [Generator("c", var("Cities"))])),
)


def answer(run) -> tuple:
    """A run's value, or its error's class and message."""
    try:
        return ("value", run())
    except ReproError as err:
        return ("error", type(err).__name__, str(err))


@given(term=st.one_of(PURE, EFFECTFUL), cache=st.booleans(), verify=st.booleans())
def test_a_hand_built_term_answers_as_the_reference_interpreter(term, cache, verify):
    """``run_calculus`` — parse and translate skipped, normalize → plan
    for a pure term, the effect stage for a write — against
    ``repro.eval`` on a twin heap, twice (the second run a compile-cache
    hit or the effect stage's memo): the same value or error, the same heap."""
    db, reference = cities(cache), cities()
    for _ in range(2):
        with verification(verify):
            got = answer(lambda: db.run_calculus(term))
        assert got == answer(lambda: reference.evaluator().evaluate(term))
        assert db.store.snapshot() == reference.store.snapshot()


def test_a_prepared_term_is_logged_under_its_own_text():
    """A pinned term's runs skip compile, yet each is labelled with the
    term: the query log's hash is of its text, not of ``""``."""
    db = cities()
    program = update_where("Cities", "c", gt(_c("population"), const(2000)),
                           [add_to_field("hotel_count", const(1))])
    statement = db.prepare(program)
    db.profile(True)
    results = [statement.run_detailed() for _ in range(2)]
    assert [r.oql for r in results] == [str(program)] * 2
    assert [e["oql_sha256"] for e in db.query_log.entries] == [oql_fingerprint(str(program))] * 2


def test_an_update_through_a_view_is_planned_once(count_calls):
    """The view expansion is kept on the written term per catalog version,
    so the effect stage's memo hits: five runs plan what one run plans."""
    plans = count_calls(build_plan)
    db = cities()
    db.define("Big", "select c from c in Cities where c.population > 2000")
    program = update_where("Big", "c", None, [add_to_field("hotel_count", const(1))])
    total = "sum(select c.hotel_count from c in Cities)"
    before = db.run(total)
    plans.clear()
    db.run_calculus(program)
    once = len(plans)
    for _ in range(4):
        db.run_calculus(program)
    assert len(plans) == once > 0
    assert db.run(total) == before + 5 * 4  # four big cities, five runs
