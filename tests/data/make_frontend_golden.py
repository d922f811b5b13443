"""Regenerate ``frontend_golden.json``: token streams and parse trees
(with spans) of the front-end corpus, as whatever checkout is on
``PYTHONPATH`` produces them.

The checked-in file was written by the lexer and parser of PR 16 (the
hand-written scanner and the nine-method precedence chain), so
``tests/test_frontend_golden.py`` holds their replacements to the same
output, character for character. Run from the repository root::

    PYTHONPATH=<checkout>/src python tests/data/make_frontend_golden.py

The corpus: every harness class's OQL (``catalogue_classes``,
``analytics_classes``, the update-mix reads and prepared statement), the
``;``-separated queries of ``examples/*.oql``, every string literal
passed to ``parse`` / ``tokenize`` in ``tests/test_oql_parser.py`` and
``tests/test_oql_lexer.py``, and a few lexical edge cases.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.harness import workloads  # noqa: E402
from repro.errors import OQLSyntaxError  # noqa: E402
from repro.lint.cli import split_queries  # noqa: E402
from repro.oql import parse, tokenize  # noqa: E402
from repro.span import span_of  # noqa: E402

EDGE_CASES = [
    "1..2", ".5 + 1.", "1.2.3", "x.1", "a[1..n]",
    "'it\\'s' + \"a\\\\b\"", "'two\nlines' = x", "'open", "'trailing\\",
    "select c.bed# from c in Rooms -- comment\nwhere c.price <= $max",
    "a <> b", "a != b", "x := y", "x += 1", "$", "a ? b", "\t\r\n  ",
    "SELECT DISTINCT C.Name FROM C IN Cities WHERE NOT C.pop >= 10",
    "café = 'é'", "a² + 1",
]


def _literals(path: Path) -> list[str]:
    """String constants passed to ``parse`` / ``tokenize`` in a test file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("parse", "tokenize")
        ):
            found += [
                arg.value for arg in node.args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            ]
    return found


def corpus() -> list[str]:
    data = {"Departments": [None] * 8}
    sources = [c.oql for c in workloads.catalogue_classes(data, random.Random(0))]
    sources += [c.oql for c in workloads.analytics_classes(data, random.Random(0))]
    sources += [oql for _, oql in workloads._READS] + [workloads._PREPARED]
    for path in sorted((ROOT / "examples").glob("*.oql")):
        sources += [text for _, _, text in split_queries(path.read_text())]
    for name in ("test_oql_parser.py", "test_oql_lexer.py"):
        sources += _literals(ROOT / "tests" / name)
    sources += EDGE_CASES
    return list(dict.fromkeys(sources))


def dump(node):
    """A parse tree as nested lists: ``[class, span, field, ...]``."""
    if dataclasses.is_dataclass(node):
        span = span_of(node)
        where = span and [span.line, span.column, span.end_line, span.end_column]
        fields = [dump(getattr(node, f.name)) for f in dataclasses.fields(node)]
        return [type(node).__name__, where, *fields]
    if isinstance(node, tuple):
        return [dump(item) for item in node]
    return node


def _error(exc: OQLSyntaxError) -> dict:
    return {"error": str(exc)}


def entry(source: str) -> dict:
    try:
        tokens = [[t.kind, t.text, t.line, t.column, t.raw_end] for t in tokenize(source)]
    except OQLSyntaxError as exc:
        tokens = _error(exc)
    try:
        tree = dump(parse(source))
    except OQLSyntaxError as exc:
        tree = _error(exc)
    return {"source": source, "tokens": tokens, "tree": tree}


if __name__ == "__main__":
    out = Path(__file__).with_name("frontend_golden.json")
    lines = [json.dumps(entry(source)) for source in corpus()]
    out.write_text("[\n" + ",\n".join(lines) + "\n]\n")  # one source per line
    print(f"{out}: {len(lines)} sources")
