"""The four workloads: their data, query classes, operation order and oracle.

A workload is built from ``(seed, scale)`` and only ever hands the
program generated inputs. It exposes one interface to ``run.py`` and
``layers.py``:

- ``setup(span)`` — generate rows, build and load the databases, create
  indexes, run one warm-up pass over every class (this is ``setup_s``);
- ``classes`` — the query classes, each weighing the same in the geomean;
- ``cycle(k)`` — the k-th repeating unit of the operation order as
  ``Op(cls, call, check)``; ``check`` runs untimed after the call;
- ``oracle()`` — untimed correctness checks after the run, as a list of
  failure texts; ``first`` — the first value each class returned;
- ``build_dbs(data, modes, span)`` / ``generate(scale)`` — used again by
  the layer probes to get modes-off and oracle-scale copies.

Every ``Database`` is constructed with all four mode arguments explicit,
so no ``REPRO_*`` variable can change what a workload means.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

from repro.cache import CacheConfig
from repro.calculus import const, eq, proj, var
from repro.db import Database, company_schema, travel_schema
from repro.objects import add_to_field, run_update, update_where

from benchmarks.harness import datagen
from benchmarks.harness.plain import digest, p_bag, p_rec, p_set, plain

MODES_OFF: dict[str, Any] = {"cache": False, "jit": False}


def no_span(name: str):
    return nullcontext()


@dataclass(frozen=True)
class Scale:
    depts: int
    emps: int
    cities: int
    hotels: int
    rooms: int


@dataclass
class QueryClass:
    name: str
    target: str  # which of the workload's databases answers it
    oql: Optional[str] = None
    kind: str = "query"  # query | prepared | update
    opts: dict = field(default_factory=dict)  # Database.run keyword arguments
    params: dict = field(default_factory=dict)  # prepared-statement bindings
    program: Any = None  # update comprehension (kind == "update")
    #: the stages Database.run pays for this class under the workload's modes
    path: str = "full"  # full | execute | none
    #: "scaled" when the reference evaluator is super-linear on this class
    reference: str = "full"
    #: plain-Python fold over the raw rows giving the expected plain value
    expected: Optional[Callable[[dict], Any]] = None


class Op(NamedTuple):
    cls: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def cache_on(modes: dict[str, Any]) -> bool:
    return modes["cache"] is not False


def digests(workload: Any) -> dict[str, str]:
    """A fingerprint of the first value each class returned."""
    return {name: digest(plain(value)) for name, value in workload.first.items()}


def database(schema: Any, modes: dict[str, Any]) -> Database:
    cache = modes["cache"]
    if isinstance(cache, dict):  # a fresh cache per database, never a shared one
        cache = CacheConfig(**cache)
    return Database(schema, cache=cache, parallel=False, jit=modes["jit"], telemetry=False)


# -- query catalogues ---------------------------------------------------------


def catalogue_classes(data: dict, rng: random.Random) -> list[QueryClass]:
    """The section 2/3 OQL catalogue on paper-sized data."""
    strict = {"strict": True, "typecheck": True}
    c, t = "company", "travel"
    return [
        QueryClass("nested_from", t,
                   "select distinct h.name from h in (select distinct x from c in Cities, "
                   "x in c.hotels where c.name = 'Portland')"),
        QueryClass("exists", t,
                   "select distinct c.name from c in Cities "
                   "where exists h in c.hotels : h.stars >= 4"),
        QueryClass("forall", t,
                   "select distinct c.name from c in Cities "
                   "where for all h in c.hotels : h.stars >= 2"),
        QueryClass("in_subquery", t,
                   "select distinct c.name from c in Cities where 'pool' in "
                   "flatten(select h.facilities from h in c.hotels)"),
        QueryClass("unnest3", t,
                   "select distinct r.beds from c in Cities, h in c.hotels, r in h.rooms"),
        QueryClass("agg_sum", t, "sum(select h.stars from c in Cities, h in c.hotels)"),
        QueryClass("agg_max", t,
                   "max(select r.price from c in Cities, h in c.hotels, r in h.rooms)"),
        QueryClass("groupby", t,
                   "select struct(s: stars, n: count(partition)) "
                   "from c in Cities, h in c.hotels group by stars: h.stars"),
        QueryClass("struct_aggs", t,
                   "select distinct struct(city: c.name, best: max(select h.stars "
                   "from h in c.hotels), n: count(c.hotels)) from c in Cities"),
        QueryClass("order_by", c,
                   "select e.name from e in Employees order by e.salary desc, e.name"),
        QueryClass("method_call", t,
                   "select distinct c.name from c in Cities where c.has_luxury()"),
        QueryClass("join", c,
                   "select distinct struct(e: e.name, d: d.name) "
                   "from e in Employees, d in Departments where e.dno = d.dno"),
        QueryClass("point", c,
                   "select distinct d.name from d in Departments "
                   f"where d.dno = {rng.randrange(len(data['Departments']))}"),
        QueryClass("strict_scan", t,
                   "select distinct c.name from c in Cities where c.population > 100000",
                   opts=strict),
        QueryClass("strict_join", c,
                   "select distinct struct(e: e.name, d: d.name) from e in Employees, "
                   "d in Departments where e.dno = d.dno and d.floor > 3",
                   opts=strict),
        # the three the planner hands to the interpreter
        QueryClass("top_struct", t,
                   "struct(n: count(Cities), total: sum(select c.population from c in Cities))"),
        QueryClass("union", t,
                   "(select distinct c.name from c in Cities where c.population > 300000) "
                   "union (select distinct h.name from c in Cities, h in c.hotels "
                   "where h.stars = 5)"),
        QueryClass("element", t,
                   "element(select distinct c from c in Cities where c.name = 'Portland')"),
    ]


def analytics_classes(data: dict, rng: random.Random) -> list[QueryClass]:
    """Scan, join, group-by and unnest classes whose cost is execution."""
    point_dno = rng.randrange(len(data["Departments"]))

    def joined(d: dict, min_floor: int = 0):
        dept = {row["dno"]: row for row in d["Departments"]}
        return (
            p_rec(e=e["name"], d=dept[e["dno"]]["name"])
            for e in d["Employees"] if dept[e["dno"]]["floor"] > min_floor
        )

    def hotels(d: dict):
        return ((city, h) for city in d["Cities"] for h in city["hotels"])

    def groupby_fold(d: dict):
        totals: dict[int, int] = {}
        for e in d["Employees"]:
            totals[e["dno"]] = totals.get(e["dno"], 0) + e["salary"]
        return p_set(p_rec(d=dno, total=total) for dno, total in totals.items())

    c, t = "company", "travel"
    return [
        QueryClass("join_bag", c,
                   "select struct(e: e.name, d: d.name) "
                   "from e in Employees, d in Departments where e.dno = d.dno",
                   reference="scaled",
                   expected=lambda d: p_bag(joined(d))),
        QueryClass("join_set", c,
                   "select distinct struct(e: e.name, d: d.name) from e in Employees, "
                   "d in Departments where e.dno = d.dno and d.floor > 6",
                   reference="scaled",
                   expected=lambda d: p_set(joined(d, min_floor=6))),
        QueryClass("scan_pred_sum", c,
                   "sum(select e.salary from e in Employees "
                   "where e.salary > 100000 and e.age < 50)",
                   expected=lambda d: sum(
                       e["salary"] for e in d["Employees"]
                       if e["salary"] > 100000 and e["age"] < 50)),
        QueryClass("groupby", c,
                   "select struct(d: dno, total: sum(select p.salary from p in partition)) "
                   "from e in Employees group by dno: e.dno",
                   reference="scaled", expected=groupby_fold),
        QueryClass("membership", c,
                   "select distinct e.name from e in Employees where 'oql' in e.skills",
                   expected=lambda d: p_set(
                       e["name"] for e in d["Employees"] if "oql" in e["skills"])),
        QueryClass("point", c,
                   f"select distinct d.name from d in Departments where d.dno = {point_dno}",
                   expected=lambda d: p_set(
                       row["name"] for row in d["Departments"] if row["dno"] == point_dno)),
        QueryClass("unnest", t,
                   "select distinct h.name from c in Cities, h in c.hotels where h.stars >= 4",
                   expected=lambda d: p_set(
                       h["name"] for _, h in hotels(d) if h["stars"] >= 4)),
        QueryClass("unnest_rooms", t,
                   "sum(select 1 from c in Cities, h in c.hotels, r in h.rooms "
                   "where r.beds = 3)",
                   expected=lambda d: sum(
                       1 for _, h in hotels(d) for r in h["rooms"] if r["beds"] == 3)),
        QueryClass("nested_from", t,
                   "select distinct h.name from h in (select distinct x from c in Cities, "
                   "x in c.hotels where c.population > 300000)",
                   expected=lambda d: p_set(
                       h["name"] for city, h in hotels(d) if city["population"] > 300000)),
        QueryClass("exists", t,
                   "select distinct c.name from c in Cities "
                   "where exists h in c.hotels : h.stars = 5",
                   expected=lambda d: p_set(
                       city["name"] for city in d["Cities"]
                       if any(h["stars"] == 5 for h in city["hotels"]))),
    ]


# -- read-only workloads --------------------------------------------------------


class ReadWorkload:
    """A fixed set of query classes over a company and a travel database."""

    def __init__(
        self,
        name: str,
        seed: int,
        scale: Scale,
        oracle_scale: Scale,
        modes: dict[str, Any],
        make_classes: Callable[[dict, random.Random], list[QueryClass]],
    ) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self.oracle_scale = oracle_scale
        self.modes = modes
        self._make_classes = make_classes
        self.data: dict = {}
        self.dbs: dict[str, Database] = {}
        self.classes: list[QueryClass] = []
        self.first: dict[str, Any] = {}

    def generate(self, scale: Scale) -> dict:
        data = datagen.company(self.seed, scale.depts, scale.emps)
        data["Cities"] = datagen.travel(self.seed, scale.cities, scale.hotels, scale.rooms)
        return data

    def build_dbs(self, data: dict, modes: dict[str, Any], span=no_span) -> dict[str, Database]:
        company = database(company_schema(), modes)
        with span("db.load_extent"):
            company.load_extent("Departments", data["Departments"], monoid="set")
            company.load_extent("Employees", data["Employees"], monoid="bag")
        with span("db.create_index"):
            company.create_index("Departments", "dno")
        travel = database(travel_schema(), modes)
        with span("db.load_extent"):
            travel.load_extent("Cities", frozenset(datagen.city_records(data["Cities"])))
        return {"company": company, "travel": travel}

    def make_classes(self, data: dict) -> list[QueryClass]:
        classes = self._make_classes(data, random.Random(f"classes/{self.seed}"))
        for cls in classes:
            cls.path = "execute" if cache_on(self.modes) else "full"
        return classes

    def setup(self, span=no_span) -> None:
        self.data = self.generate(self.scale)
        self.dbs = self.build_dbs(self.data, self.modes, span)
        self.classes = self.make_classes(self.data)
        self.first = {cls.name: self.call(self.dbs, cls) for cls in self.classes}
        self._ops = [
            Op(cls.name,
               lambda cls=cls: self.call(self.dbs, cls),
               lambda value, cls=cls: value == self.first[cls.name])
            for cls in self.classes
        ]

    @staticmethod
    def call(dbs: dict[str, Database], cls: QueryClass) -> Any:
        return dbs[cls.target].run(cls.oql, **cls.opts)

    def cycle(self, k: int) -> list[Op]:
        """One pass over every class, in an order drawn from (seed, k)."""
        ops = list(self._ops)
        random.Random(f"cycle/{self.seed}/{k}").shuffle(ops)
        return ops

    def trace_ops(self, rep: int) -> list[tuple[QueryClass, Callable[[], Any]]]:
        """Every class once; rotated, so none is always first after a collection."""
        shift = rep % len(self.classes)
        classes = self.classes[shift:] + self.classes[:shift]
        return [(cls, lambda cls=cls: self.call(self.dbs, cls)) for cls in classes]

    def oracle(self) -> list[str]:
        """Reference evaluator (at the scale it can afford) and plain folds."""
        failures = []
        reference = self.build_dbs(self.data, MODES_OFF)
        for cls in self.classes:
            got = plain(self.first[cls.name])
            if cls.expected is not None and got != cls.expected(self.data):
                failures.append(f"{cls.name}: differs from the plain-Python fold")
            if cls.reference == "full":
                want = reference[cls.target].run(cls.oql, engine="interpret")
                if got != plain(want):
                    failures.append(f"{cls.name}: differs from the reference evaluator")
        scaled = {cls.name for cls in self.classes if cls.reference == "scaled"}
        if scaled:
            small_data = self.generate(self.oracle_scale)
            small_modes = self.build_dbs(small_data, self.modes)
            small_reference = self.build_dbs(small_data, MODES_OFF)
            for cls in self.make_classes(small_data):
                if cls.name in scaled:
                    want = small_reference[cls.target].run(cls.oql, engine="interpret")
                    if plain(self.call(small_modes, cls)) != plain(want):
                        failures.append(
                            f"{cls.name}: differs from the reference evaluator at oracle scale")
        return failures


# -- the update mix -------------------------------------------------------------

_READS = (
    ("sum_count", "sum(select c.hotel_count from c in Cities)"),
    ("names", "select distinct c.name from c in Cities "
              "where c.population > 600000 and c.hotel_count > 0"),
    ("unnest_sum", "sum(select h.stars from c in Cities, h in c.hotels)"),
    ("unnest_names", "select distinct h.name from c in Cities, h in c.hotels "
                     "where h.stars = 5"),
)
_PREPARED = "select distinct c.name from c in Cities where c.population > $p"
_THRESHOLDS = (650_000, 600_000, 550_000, 500_000)
_ROUNDS_PER_CYCLE = 5  # four point writes, then one bulk write
_HIT_REPEATS = 4


class UpdateMix:
    """Object-mode Cities with the full cache on: writes beside reads.

    Each round is one write, the four reads (invalidated by it, compile
    warm), sixteen repeats of those reads (result-cache hits) and four
    executions of a prepared statement. A plain-Python model of the heap
    (``hotel_count`` per city) gives the expected value of every read.
    """

    name = "update_mix_cached"

    def __init__(self, seed: int, scale: Scale, oracle_scale: Scale, modes: dict[str, Any]) -> None:
        self.seed = seed
        self.scale = scale
        self.oracle_scale = oracle_scale
        self.modes = modes
        self.data: dict = {}
        self.dbs: dict[str, Database] = {}
        self.classes: list[QueryClass] = []
        self.counts: list[int] = []
        self.writes: list[Optional[int]] = []  # city index, None for bulk; in order
        self.first: dict[str, Any] = {}

    def generate(self, scale: Scale) -> dict:
        return {"Cities": datagen.travel(self.seed, scale.cities, scale.hotels, scale.rooms)}

    def build_dbs(self, data: dict, modes: dict[str, Any], span=no_span) -> dict[str, Database]:
        db = database(travel_schema(), modes)
        with span("db.load_extent"):
            db.load_objects("Cities", "City", datagen.city_records(data["Cities"]))
        return {"objects": db}

    @staticmethod
    def programs(cities: list[dict]) -> tuple[list, Any]:
        """One point update per city (by name) and the bulk update of all."""
        bump = [add_to_field("hotel_count", const(1))]
        point = [
            update_where("Cities", "c", eq(proj(var("c"), "name"), const(c["name"])), bump)
            for c in cities
        ]
        return point, update_where("Cities", "c", None, bump)

    def make_classes(self, data: dict) -> list[QueryClass]:
        point, bulk = self.programs(data["Cities"][:1])
        warm = "execute" if cache_on(self.modes) else "full"
        hit = "none" if cache_on(self.modes) else "full"
        classes = [
            QueryClass("write_point", "objects", kind="update", program=point[0]),
            QueryClass("write_bulk", "objects", kind="update", program=bulk),
        ]
        classes += [
            QueryClass(f"read_after_write.{name}", "objects", oql, path=warm)
            for name, oql in _READS
        ]
        classes.append(QueryClass("read_hit", "objects", _READS[0][1], path=hit))
        classes.append(
            QueryClass("prepared", "objects", _PREPARED, kind="prepared",
                       params={"p": _THRESHOLDS[0]}, path=warm))
        return classes

    def setup(self, span=no_span) -> None:
        self.data = self.generate(self.scale)
        self.dbs = self.build_dbs(self.data, self.modes, span)
        self.classes = self.make_classes(self.data)
        cities = self.data["Cities"]
        self._point, self._bulk = self.programs(cities)
        self.counts = [c["hotel_count"] for c in cities]
        self.writes = []
        self.first = {}
        self._prepared = self.dbs["objects"].prepare(_PREPARED)
        self._static = {
            "names": p_set(c["name"] for c in cities if c["population"] > 600_000),
            "unnest_sum": sum(h["stars"] for c in cities for h in c["hotels"]),
            "unnest_names": p_set(
                h["name"] for c in cities for h in c["hotels"] if h["stars"] == 5),
        }
        self._by_threshold = {
            p: p_set(c["name"] for c in cities if c["population"] > p) for p in _THRESHOLDS
        }
        for op in self._round(-1):  # warm-up: first compile of every class
            value = op.call()
            op.check(value)
            self.first.setdefault(op.cls, value)

    def _expected_read(self, name: str) -> Any:
        return sum(self.counts) if name == "sum_count" else self._static[name]

    def _write_op(self, index: Optional[int]) -> Op:
        db = self.dbs["objects"]
        program = self._bulk if index is None else self._point[index]

        def check(touched: Any) -> bool:
            self.writes.append(index)
            if index is None:
                self.counts = [n + 1 for n in self.counts]
                return len(touched) == len(self.counts)
            self.counts[index] += 1
            return len(touched) == 1

        return Op("write_bulk" if index is None else "write_point",
                  lambda: run_update(program, db.evaluator()), check)

    def _round(self, r: int) -> list[Op]:
        db = self.dbs["objects"]
        rng = random.Random(f"round/{self.seed}/{r}")
        bulk = r % _ROUNDS_PER_CYCLE == _ROUNDS_PER_CYCLE - 1
        ops = [self._write_op(None if bulk else rng.randrange(len(self.counts)))]

        def read(cls: str, name: str, oql: str) -> Op:
            return Op(cls, lambda: db.run(oql),
                      lambda value: plain(value) == self._expected_read(name))

        reads = list(_READS)
        rng.shuffle(reads)
        ops += [read(f"read_after_write.{name}", name, oql) for name, oql in reads]
        hits = reads * _HIT_REPEATS
        rng.shuffle(hits)
        ops += [read("read_hit", name, oql) for name, oql in hits]
        thresholds = list(_THRESHOLDS)
        rng.shuffle(thresholds)
        ops += [
            Op("prepared", lambda p=p: self._prepared.run(p=p),
               lambda value, p=p: plain(value) == self._by_threshold[p])
            for p in thresholds
        ]
        return ops

    def cycle(self, k: int) -> list[Op]:
        ops = []
        for r in range(k * _ROUNDS_PER_CYCLE, (k + 1) * _ROUNDS_PER_CYCLE):
            ops += self._round(r)
        return ops

    def trace_ops(self, rep: int) -> list[tuple[QueryClass, Callable[[], Any]]]:
        """The classes in dependency order: a write, the reads it
        invalidates, one repeat (a hit), the prepared statement."""
        db = self.dbs["objects"]
        by_name = {cls.name: cls for cls in self.classes}
        write = by_name["write_bulk" if rep % _ROUNDS_PER_CYCLE == 4 else "write_point"]
        ops = [(write, lambda: run_update(write.program, db.evaluator()))]
        for cls in self.classes:
            if cls.kind == "query":
                ops.append((cls, lambda cls=cls: db.run(cls.oql)))
        prepared = by_name["prepared"]
        ops.append((prepared, lambda: self._prepared.run(**prepared.params)))
        return ops

    @staticmethod
    def heap_digest(db: Database) -> tuple:
        """What the heap holds, read through the reference evaluator."""
        total = db.run("sum(select c.hotel_count from c in Cities)", engine="interpret")
        names = db.run("select distinct h.name from c in Cities, h in c.hotels",
                       engine="interpret")
        return total, plain(names)

    def oracle(self) -> list[str]:
        """Replay the same writes with every mode off; heaps and reads must agree."""
        failures = []
        db = self.dbs["objects"]
        replay = self.build_dbs(self.data, MODES_OFF)["objects"]
        for index in self.writes:
            run_update(self._bulk if index is None else self._point[index], replay.evaluator())
        model = (
            sum(self.counts),
            p_set(h["name"] for c in self.data["Cities"] for h in c["hotels"]),
        )
        if not self.heap_digest(db) == self.heap_digest(replay) == model:
            failures.append("heap digest differs from the cache-off replay")
        for name, oql in _READS:
            if plain(db.run(oql)) != plain(replay.run(oql, engine="interpret")):
                failures.append(f"read_after_write.{name}: differs from the reference evaluator")
        for p in _THRESHOLDS:
            want = replay.run(_PREPARED.replace("$p", str(p)), engine="interpret")
            if plain(self._prepared.run(p=p)) != plain(want):
                failures.append(f"prepared p={p}: differs from the reference evaluator")
        return failures


# -- registry ----------------------------------------------------------------------

PAPER = Scale(depts=2, emps=8, cities=2, hotels=2, rooms=2)
LARGE = Scale(depts=200, emps=2000, cities=200, hotels=5, rooms=6)
ORACLE = Scale(depts=20, emps=200, cities=20, hotels=5, rooms=6)
OBJECTS = Scale(depts=0, emps=0, cities=400, hotels=3, rooms=2)
OBJECTS_SMALL = Scale(depts=0, emps=0, cities=40, hotels=3, rooms=2)

WARM = {"cache": {"results": False}, "jit": True}
CACHED = {"cache": {}, "jit": False}

WORKLOADS = ("catalogue_small", "analytics_large", "analytics_large_warm", "update_mix_cached")


def make(name: str, seed: int, smoke: bool = False):
    """Build the named workload; ``smoke`` swaps in the oracle-scale data."""
    large = ORACLE if smoke else LARGE
    if name == "catalogue_small":
        return ReadWorkload(name, seed, PAPER, PAPER, MODES_OFF, catalogue_classes)
    if name == "analytics_large":
        return ReadWorkload(name, seed, large, ORACLE, MODES_OFF, analytics_classes)
    if name == "analytics_large_warm":
        return ReadWorkload(name, seed, large, ORACLE, WARM, analytics_classes)
    if name == "update_mix_cached":
        objects = OBJECTS_SMALL if smoke else OBJECTS
        return UpdateMix(seed, objects, OBJECTS_SMALL, CACHED)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
