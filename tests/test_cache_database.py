"""The cached pipeline: value parity, counters, observability surfaces."""

import json

import pytest

from repro.cache import CacheConfig, QueryCache
from repro.db.database import Database, demo_travel_database
from repro.errors import DatabaseError, LintError
from repro.normalize import normalize_with_trace
from repro.oql import parse

BATTERY = [
    "select distinct c.name from c in Cities",
    "select c.name from c in Cities where c.population > 100000",
    "select distinct struct(city: c.name, hotel: h.name) "
    "from c in Cities, h in c.hotels where h.stars = 5",
    "count(select h.name from c in Cities, h in c.hotels)",
    "sum(select c.population from c in Cities)",
    "select struct(city: city, n: count(partition)) "
    "from c in Cities group by city: c.name",
    "select h.name from c in Cities, h in c.hotels order by h.stars desc",
    "select distinct c.name from c in Cities where 'pool' in "
    "flatten(select h.facilities from h in c.hotels)",
    "element(select distinct c.name from c in Cities where c.name = 'Portland')",
]


def _pair(num_cities=6, seed=3):
    plain = demo_travel_database(num_cities=num_cities, seed=seed)
    cached = demo_travel_database(num_cities=num_cities, seed=seed)
    cached.enable_cache()
    return plain, cached


class TestValueParity:
    @pytest.mark.parametrize("oql", BATTERY)
    def test_cached_equals_uncached(self, oql):
        plain, cached = _pair()
        expected = plain.run(oql)
        assert cached.run(oql) == expected  # cold (miss)
        assert cached.run(oql) == expected  # warm (result hit)

    @pytest.mark.parametrize("engine", ["auto", "interpret"])
    def test_engines_cached(self, engine):
        oql = "select distinct c.name from c in Cities"
        plain, cached = _pair()
        expected = plain.run(oql, engine=engine)
        assert cached.run(oql, engine=engine) == expected
        assert cached.run(oql, engine=engine) == expected


class TestKeySoundness:
    """Two different queries must never share a cache entry."""

    def test_free_name_spelled_like_a_canonical_binder(self):
        plain, cached = _pair()
        for db in (plain, cached):
            db.load_extent("q0", [{"name": "zz"}])
        first = "select distinct c from c in Cities"
        second = "select distinct q0 from c in Cities"
        assert cached.run(first) == plain.run(first)
        expected = plain.run(second)
        assert len(expected) == 1  # one value: the whole q0 extent
        assert cached.run(second) == expected

    @pytest.mark.parametrize("literals", [("1", "true", "1.0"), ("1.0", "1", "true")])
    def test_literal_type_survives_the_cache(self, literals):
        plain, cached = _pair()
        for lit in literals:
            oql = f"select distinct {lit} from c in Cities"
            (expected,) = plain.run(oql)
            for _ in range(2):  # compile miss, then result hit
                (got,) = cached.run(oql)
                assert type(got) is type(expected), oql
                assert got == expected


class TestCounters:
    def test_hits_and_misses(self):
        _, db = _pair()
        oql = BATTERY[0]
        db.run(oql)
        stats = db.cache.stats_dict()
        assert stats["compile_misses"] == 1 and stats["compile_hits"] == 0
        db.run(oql)
        stats = db.cache.stats_dict()
        assert stats["compile_hits"] == 1 and stats["result_hits"] == 1

    def test_alpha_variants_share_one_compiled_entry(self):
        _, db = _pair()
        db.run("select distinct c.name from c in Cities")
        db.run("select distinct other.name from other in Cities")
        stats = db.cache.stats_dict()
        assert stats["compiled_entries"] == 1
        assert stats["compile_misses"] == 1
        assert stats["compile_hits"] == 1
        # the alias now covers the variant text: no more parsing either
        db.run("select distinct other.name from other in Cities")
        assert db.cache.stats_dict()["compile_hits"] == 2

    def test_results_disabled_still_compile_caches(self):
        plain, _ = _pair()
        db = demo_travel_database(num_cities=6, seed=3)
        db.enable_cache(CacheConfig(results=False))
        oql = BATTERY[1]
        expected = plain.run(oql)
        assert db.run(oql) == expected
        assert db.run(oql) == expected
        stats = db.cache.stats_dict()
        assert stats["compile_hits"] == 1
        assert stats["result_hits"] == 0 and stats["result_misses"] == 0


class TestWarmSkipsWork:
    """Experiment C1, counted: cold, every query compiles; warm, a compile
    hit parses and normalizes nothing, and a result hit executes nothing."""

    QUERIES = (
        "select distinct c.name from c in Cities where c.population > 100000",
        "select distinct struct(city: c.name, hotel: h.name) "
        "from c in Cities, h in c.hotels where h.stars >= 4",
        "count(select h.name from c in Cities, h in c.hotels)",
        "select struct(city: city, n: count(partition)) "
        "from c in Cities group by city: c.name",
    )

    @pytest.mark.parametrize("mode", ["cold", "warm-compile", "warm-result"])
    def test_shape_warm_cache_skips_the_front_end(self, mode, count_calls):
        plain = demo_travel_database(num_cities=10, seed=3)
        expected = [plain.run(oql) for oql in self.QUERIES]
        db = demo_travel_database(num_cities=10, seed=3)
        db.enable_cache(CacheConfig(results=mode != "warm-compile"))
        work = [count_calls(parse), count_calls(normalize_with_trace)]
        assert [db.run(oql) for oql in self.QUERIES] == expected
        assert len(work[0]) == len(self.QUERIES) and work[1]
        for calls in work:
            calls.clear()
        if mode == "cold":
            db.cache.clear()
        assert [db.run(oql) for oql in self.QUERIES] == expected
        if mode == "cold":
            assert len(work[0]) == len(self.QUERIES) and work[1]
        else:
            assert work == [[], []]
        stats = db.cache.stats_dict()
        assert stats["compile_hits"] == (0 if mode == "cold" else len(self.QUERIES))
        assert stats["result_hits"] == (len(self.QUERIES) if mode == "warm-result" else 0)


class TestEnablement:
    def test_env_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert Database().cache is not None
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert Database().cache is None
        monkeypatch.delenv("REPRO_CACHE")
        assert Database().cache is None

    def test_explicit_false_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert Database(cache=False).cache is None

    def test_enable_disable_roundtrip(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        db = demo_travel_database(num_cities=3, seed=1)
        assert db.cache is None
        qc = db.enable_cache()
        assert isinstance(qc, QueryCache) and db.cache is qc
        db.disable_cache()
        assert db.cache is None

    def test_two_databases_answer_from_their_own_data(self):
        # Equal catalog versions: a cache shared between them would serve
        # one database's entries and results to the other.
        a = demo_travel_database(num_cities=3, seed=1)
        b = demo_travel_database(num_cities=5, seed=1)
        for db in (a, b):
            db.enable_cache()
        assert a._compile_version() == b._compile_version()
        oql = "count(select c.name from c in Cities)"
        assert [a.run(oql), b.run(oql), a.run(oql), b.run(oql)] == [3, 5, 3, 5]
        with pytest.raises(DatabaseError):
            b.enable_cache(a.cache)
        with pytest.raises(DatabaseError):
            Database(cache=a.cache)


class TestObservability:
    def test_pipeline_report_mentions_cache(self):
        _, db = _pair()
        db.run(BATTERY[0])
        report = db.run_detailed(BATTERY[0]).pipeline_report()
        assert "compile=hit" in report and "result=hit" in report

    def test_result_cache_field(self):
        _, db = _pair()
        first = db.run_detailed(BATTERY[0])
        assert first.cache == {"compile": "miss", "result": "miss"}
        second = db.run_detailed(BATTERY[0])
        assert second.cache == {"compile": "hit", "result": "hit"}
        assert second.stats is None  # nothing executed

    def test_cached_phases_log_zero(self):
        _, db = _pair()
        db.profile(True)
        db.run(BATTERY[0])
        db.run(BATTERY[0])
        phases = db.query_log.entries[-1]["phases_ms"]
        assert phases["parse"] == phases["execute"] == 0.0
        db.profile(False)

    def test_querylog_carries_cache_info(self):
        _, db = _pair()
        lines = []
        db.profile(True, sink=lines.append)
        db.run(BATTERY[0])
        db.run(BATTERY[0])
        db.profile(False)
        entries = [json.loads(line) for line in lines]
        assert entries[0]["cache"] == {"compile": "miss", "result": "miss"}
        assert entries[1]["cache"] == {"compile": "hit", "result": "hit"}

    def test_explain_analyze_bypasses_result_cache(self):
        plain, db = _pair()
        oql = BATTERY[1]
        db.run(oql)
        db.run(oql)  # result entry exists now
        doc = db.explain_data(oql, analyze=True)
        assert doc["cache"]["compile"] == "hit"
        assert doc["cache"]["result"] == "bypass"
        assert "stats" in doc["cache"]
        # actuals are real, not a replayed empty plan
        assert doc["plan"]["actual_rows"] >= 0
        rendered = db.explain(oql, analyze=True)
        assert "cache:" in rendered

    def test_uncached_explain_has_no_cache_line(self):
        plain, _ = _pair()
        plain.disable_cache()  # env (REPRO_CACHE=1) may have switched it on
        doc = plain.explain_data(BATTERY[1], analyze=True)
        assert "cache" not in doc


class TestSeedParity:
    def test_strict_lint_still_raises_on_warm_cache(self):
        _, db = _pair()
        good = BATTERY[0]
        db.run(good)
        with pytest.raises(LintError):
            db.run("select distinct z.name from c in Cities", strict=True)
        # a cached hit still honors strict mode's lint gate
        assert db.run(good, strict=True) is not None

    def test_off_path_unchanged(self):
        db = demo_travel_database(num_cities=4, seed=2)
        db.disable_cache()  # env (REPRO_CACHE=1) may have switched it on
        result = db.run_detailed(BATTERY[0])
        assert result.cache is None
        assert "cache" not in result.pipeline_report()

    def test_view_definition_invalidates_compiled_queries(self):
        _, db = _pair()
        oql = "select distinct v.name from v in Fancy"
        db.define("Fancy", "select distinct c from c in Cities where c.population > 0")
        first = db.run(oql)
        db.define("Fancy", "select distinct c from c in Cities where c.population < 0")
        second = db.run(oql)
        assert first != second
        assert second == frozenset()


class TestReplCommand:
    def test_cache_toggle_and_stats(self):
        from repro.repl import Repl

        db = demo_travel_database(num_cities=3, seed=1)
        db.disable_cache()  # env (REPRO_CACHE=1) may have switched it on
        out = []
        repl = Repl(db, out=out.append)
        repl.handle(":cache stats")
        assert "cache is off" in out[-1]
        repl.handle(":cache on")
        assert db.cache is not None
        repl.handle("select distinct c.name from c in Cities")
        repl.handle(":cache stats")
        assert any("compile_misses: 1" in line for line in out)
        repl.handle(":cache off")
        assert db.cache is None
        repl.handle(":cache bogus")
        assert "usage" in out[-1]


class TestCacheCli:
    def test_stats_and_clear(self, capsys):
        from repro.cache.cli import main

        assert main(["stats", "--repeats", "2"]) == 0
        text = capsys.readouterr().out
        assert "compile:" in text and "result:" in text

        assert main(["clear", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["action"] == "clear"
        assert doc["stats"]["compiled_entries"] == 0
        assert doc["stats"]["compile_hits"] > 0  # counters survive a clear

    def test_main_module_dispatch(self, capsys):
        from repro.__main__ import main

        assert main(["cache", "stats", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["compile_misses"] > 0
