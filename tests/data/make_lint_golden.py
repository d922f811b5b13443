"""Regenerate ``lint_golden.json``: every diagnostic ``repro.lint`` gives
the lint corpus, as whatever checkout is on ``PYTHONPATH`` gives them.

The checked-in file was written by PR 20's ``src`` (lint as a second
pipeline in front of ``compile``: its own parse and translate, a
collecting type inference plus two fail-fast ones per generator, its own
normalization), so ``tests/test_lint_golden.py`` holds the lint stage of
``compile`` to the same findings — code, severity, message, span, hint
and order. Run from the repository root::

    PYTHONPATH=<checkout>/src python tests/data/make_lint_golden.py

``--check`` writes nothing: it compares what the checkout on
``PYTHONPATH`` produces with the file and exits non-zero on any
difference.

The corpus: the front-end corpus (``make_frontend_golden.corpus()``) and
every string literal of ``tests/test_lint_*.py`` that is linted — passed
to ``lint`` / ``lint_oql`` / ``lint_source`` or to ``run(...,
strict=True)``, directly or through a local variable. Per query, the
``as_dict()`` list from ``Database.lint`` on a travel and on a company
database (each with one view defined, one function registered and one
``bag`` extent its schema does not declare) and from ``Linter`` over the
travel schema, the company schema and none; plus ``lint_text`` of each
``examples/*.oql`` in file coordinates; plus ``lint_term`` of each of
:data:`TERMS` (calculus notation, so no spans) under the same three
linters. Only non-empty lists are stored.

Rows that moved on purpose, regenerated with the change's ``src``: in
PR 21 the 13 :data:`TERMS` rows whose generator source has a static error
*inside* it (``to_bag(Unknown)``, ``to_bag(Cities.nope)``, ``flatten`` of
an ill-formed ``bag``; ``Cities`` itself where the schema has none)
gained a ``QL101``. The fail-fast inference the pass used to run per
source gave up on the whole source; the one collecting inference reports
the error where it is and still knows ``to_bag(...)`` is a bag — the
duplicate hazard is there whether or not the argument types.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from repro.calculus.parser import parse_calculus  # noqa: E402
from repro.db import demo_company_database, demo_travel_database  # noqa: E402
from repro.db.sample_data import company_schema, travel_schema  # noqa: E402
from repro.lint import Linter  # noqa: E402
from repro.lint.cli import lint_text  # noqa: E402
from tests.data import make_frontend_golden  # noqa: E402
from tests.data.make_plans_golden import _renumbered  # noqa: E402

_LINT_CALLS = ("lint", "lint_oql", "lint_source")

#: Calculus terms for what no OQL text reaches: QL101 needs a ``set``
#: comprehension that is neither a ``select distinct`` nor a group-by's.
TERMS = [
    # sources that spell their monoid
    "set{ x | x <- unit(bag)(1) }",
    "set{ x | x <- unit(set)(1) }",
    "set{ x | x <- zero(list) }",
    "set{ x | x <- unit(bag)(1) (+)bag unit(bag)(2) }",
    "set{ x | x <- bag{ c.name | c <- Cities } }",
    "set{ x | x <- sortedbag[\\c. c.name]{ c | c <- Cities } }",
    "set{ x | x <- sorted[\\c. c.name]{ c | c <- Cities } }",
    "set{ x | x <- oset{ c | c <- Cities } }",
    "set{ x | x <- sum[4]{ c.population | c <- Cities } }",
    "set{ x | x <- string{ c.name | c <- Cities } }",
    # sources the inference types
    "set{ r | c <- Cities, h <- c.hotels, r <- h.rooms }",
    "set{ r.price | c <- Cities, h <- c.hotels, r <- h.rooms, r.price > 0 }",
    "set{ e.name | e <- Employees }",
    "set{ e.name | d <- Departments, e <- Employees, e.dno = d.dno }",
    "set{ n | c <- Cities, n <- c.name }",
    "set{ x | x <- to_bag(Cities) }",
    "set{ x | x <- to_list(Cities) }",
    "set{ x | x <- to_set(to_bag(Cities)) }",
    "set{ x | x <- range(3) }",
    "set{ x | x <- 'abc' }",
    "set{ x | x <- flatten(bag{ h.rooms | c <- Cities, h <- c.hotels }) }",
    "set{ x | x <- flatten(set{ h.rooms | c <- Cities, h <- c.hotels }) }",
    "set{ x | x <- to_bag(Cities.nope) }",
    "set{ x | x <- to_bag(Unknown) }",
    "set{ x | x <- Unknown }",
    "set{ x | x <- to_bag(1 + 'a') }",
    "set{ x | x <- if 1 = 1 then to_bag(Cities) else to_bag(Cities) }",
    "set{ x | x <- Cities[0].hotels }",
    # how a source's variables got their types
    "set{ x | c[i] <- to_list(Cities), x <- range(i) }",
    "set{ x | c[i] <- to_list(Cities), x <- c.hotels }",
    "let b = to_bag(Cities) in set{ x | x <- b }",
    "let b = Cities in set{ h | c <- b, h <- c.hotels }",
    "set{ x | b == to_bag(Cities), x <- b }",
    "set{ h | c <- to_list(Cities), hs == c.hotels, h <- hs }",
    "\\b. set{ x | x <- b }",
    "set{ x | c <- Cities, x <- set{ h | h <- c.hotels } }",
    "bag{ y | y <- set{ x | x <- to_bag(Cities) } }",
    "sum{ 1 | x <- set{ y | y <- to_list(Cities) } }",
    "set{ set{ r | r <- h.rooms } | c <- Cities, h <- c.hotels }",
    "set{ <n=c.name, rooms=set{ r | h <- c.hotels, r <- h.rooms }> | c <- Cities }",
    "some{ r.price > 0 | c <- Cities, h <- c.hotels, r <- h.rooms }",
    "set[3]{ r | c <- Cities, h <- c.hotels, r <- h.rooms }",
    # constant predicates, wherever they sit
    "set{ c | c <- Cities, 1 = 1 }",
    "set{ c | c <- Cities, c.name != c.name }",
    "set{ c | c <- Cities, not (1 < 2) }",
    "set{ c | c <- set{ d | d <- Cities, 2 > 3 }, 1 = 1 or c.name = 'x' }",
    "bag{ x | x <- to_bag(Cities), x = x, 1 = 2 and x = x }",
]


def _linted_literals(path: Path) -> list[str]:
    """String constants a test file lints, function by function (so a
    ``src = "..."`` is paired with the ``lint(src)`` beside it)."""
    found = []
    for scope in ast.walk(ast.parse(path.read_text())):
        if not isinstance(scope, ast.FunctionDef):
            continue
        nodes = list(ast.walk(scope))
        assigned = {
            target.id: node.value.value
            for node in nodes
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            strict = any(
                kw.arg == "strict" and getattr(kw.value, "value", None) is True
                for kw in node.keywords
            )
            if name in _LINT_CALLS or (name == "run" and strict):
                for arg in node.args:
                    value = arg.value if isinstance(arg, ast.Constant) else assigned.get(
                        getattr(arg, "id", None)
                    )
                    if isinstance(value, str):
                        found.append(value)
    return found


def corpus() -> list[str]:
    sources = make_frontend_golden.corpus()
    for path in sorted((ROOT / "tests").glob("test_lint_*.py")):
        sources += _linted_literals(path)
    return list(dict.fromkeys(sources))


def _extended(db, view: str):
    """``db`` with a view, a registered function and an undeclared bag."""
    db.define("Chosen", view)
    db.register_function("shout", lambda s: s.upper())
    db.load_extent("Notes", [{"k": i % 3, "text": f"n{i}"} for i in range(7)], monoid="bag")
    return db


def linters() -> dict:
    """Label -> ``text -> list[Diagnostic]``, in the file's key order."""
    travel = _extended(
        demo_travel_database(num_cities=3, seed=1),
        "select distinct c from c in Cities where c.population > 0",
    )
    company = _extended(
        demo_company_database(4, 20, seed=1),
        "select e from e in Employees where e.salary > 0",
    )
    return {
        "travel_db": travel.lint,
        "company_db": company.lint,
        "travel": Linter(travel_schema()).lint_source,
        "company": Linter(company_schema()).lint_source,
        "none": Linter().lint_source,
    }


def golden_lines() -> list[str]:
    """One JSON object per line: a query's diagnostics per linter, then
    a file's."""
    lint = linters()
    lines = []
    for source in corpus():
        row = {"source": source}
        for label, run in lint.items():
            found = [d.as_dict() for d in run(source)]
            if found:
                row[label] = found
        lines.append(_renumbered(json.dumps(row)))
    schemas = {"travel": travel_schema(), "company": company_schema(), "none": None}
    for path in sorted((ROOT / "examples").glob("*.oql")):
        row = {"file": f"examples/{path.name}"}
        for label, schema in schemas.items():
            found = [d.as_dict() for d in lint_text(path.read_text(), Linter(schema))]
            if found:
                row[label] = found
        lines.append(_renumbered(json.dumps(row)))
    for text in TERMS:
        row = {"term": text}
        for label, schema in schemas.items():
            found = [d.as_dict() for d in Linter(schema).lint_term(parse_calculus(text))]
            if found:
                row[label] = found
        lines.append(_renumbered(json.dumps(row)))
    return lines


def _moved(want: str, got: str) -> str:
    """What differs between a golden row and today's, by linter label."""
    old, new = (json.loads(line.rstrip(",")) for line in (want, got))
    out = [str({k: v for k, v in new.items() if isinstance(v, str)})]
    for label in sorted({*old, *new}):
        was, now = old.get(label, []), new.get(label, [])
        if was != now and isinstance(now, list):
            out += [f"  {label} - {d}" for d in was if d not in now]
            out += [f"  {label} + {d}" for d in now if d not in was]
            if sorted(map(str, was)) == sorted(map(str, now)):
                out.append(f"  {label}: same findings, another order")
    return "\n".join(out)


if __name__ == "__main__":
    out = Path(__file__).with_name("lint_golden.json")
    lines = golden_lines()
    if "--check" in sys.argv[1:]:
        want = out.read_text().splitlines()[1:-1]
        moved = [_moved(a, b) for a, b in zip(want, lines) if a.rstrip(",") != b]
        print("\n".join(moved))
        if moved or len(want) != len(lines):
            sys.exit(f"{out}: {len(moved)} of {len(want)} rows differ (now {len(lines)} rows)")
        print(f"{out}: {len(want)} rows match")
    else:
        out.write_text("[\n" + ",\n".join(lines) + "\n]\n")
        print(f"{out}: {len(lines)} rows")
