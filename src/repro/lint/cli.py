"""``python -m repro lint`` — batch-lint OQL files.

Each file may hold several queries separated by ``;`` (and ``--``
comments, which the lexer already understands). Every query is linted
independently; spans are shifted back to absolute file positions so a
diagnostic always points into the file as written.

Exit status is 1 when any *error*-severity diagnostic was produced,
0 otherwise (warnings and infos don't fail the run — mirror of how
compilers treat ``-Wall`` without ``-Werror``). ``--json`` swaps the
human renderer for one JSON array (one element per file, each
diagnostic with its code, severity, message, span and hint) so CI and
editors can consume diagnostics alongside the ``repro.obs`` trace
exports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Callable, Iterator, Optional

from repro.lint.cachelint import run_batch
from repro.lint.diagnostics import Diagnostic, sort_diagnostics
from repro.lint.linter import Linter
from repro.lint.render import render_all


def split_queries(source: str) -> Iterator[tuple[int, int, str]]:
    """Split ``;``-separated queries, yielding (line0, col0, text).

    ``line0``/``col0`` are 0-based offsets of the segment's start, used
    to shift spans back to file coordinates. Semicolons inside string
    literals and ``--`` comments do not split.
    """
    line = 0
    column = 0
    seg_start = (0, 0)
    buffer: list[str] = []
    i = 0
    n = len(source)
    in_string: Optional[str] = None
    in_comment = False
    while i < n:
        ch = source[i]
        if in_comment:
            if ch == "\n":
                in_comment = False
        elif in_string is not None:
            if ch == "\\" and i + 1 < n:
                buffer.append(ch)
                i += 1
                column += 1
                ch = source[i]
            elif ch == in_string:
                in_string = None
        elif ch in "\"'":
            in_string = ch
        elif ch == "-" and source.startswith("--", i):
            in_comment = True
        elif ch == ";":
            text = "".join(buffer)
            if text.strip():
                yield (*seg_start, text)
            buffer = []
            i += 1
            column += 1
            seg_start = (line, column)
            continue
        buffer.append(ch)
        if ch == "\n":
            line += 1
            column = 0
        else:
            column += 1
        i += 1
    text = "".join(buffer)
    if text.strip():
        yield (*seg_start, text)


def read_queries(path: str) -> tuple[str, Iterator[tuple[int, int, str]], Optional[str]]:
    """The batch CLIs' one way into a file: its text, its queries and
    None, or ``("", no queries, why)`` when it cannot be read — which a CLI
    reports in the file's own ``--json`` document, as ``"error"``."""
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as err:
        return "", iter(()), str(err)
    return source, split_queries(source), None


def lint_text(
    source: str, linter: Linter
) -> list[Diagnostic]:
    """Lint every query in ``source``, spans in file coordinates.

    Parses and translates each ``;``-separated query once, runs the
    per-query pass pipeline over its term, then the batch passes
    (``QL4xx``, :mod:`repro.lint.cachelint`) over the file's terms as a
    group.
    """
    findings: list[Diagnostic] = []
    translated = []
    for line0, col0, text in split_queries(source):
        term, found = linter.front_end(text)
        if term is not None:
            found = linter.lint_term(term)
            translated.append((line0, col0, term))
        for diag in found:
            if diag.span is not None and (line0 or col0):
                diag = replace(diag, span=diag.span.shifted(line0, col0))
            findings.append(diag)
    findings.extend(run_batch(translated))
    return sort_diagnostics(findings)


def _make_linter(schema_name: str) -> Linter:
    if schema_name == "none":
        return Linter()
    from repro.db.database import demo_database

    return Linter(demo_database(schema_name).schema)


def main(argv: Optional[list[str]] = None, out: Callable[[str], None] = print) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Statically analyze OQL files and report diagnostics.",
    )
    parser.add_argument("files", nargs="+", help="OQL files (';'-separated queries)")
    parser.add_argument(
        "--schema",
        choices=("travel", "company", "none"),
        default="travel",
        help="schema to resolve extents against (default: travel)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only the per-file summary lines",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON array of per-file diagnostic lists",
    )
    args = parser.parse_args(argv)

    linter = _make_linter(args.schema)
    exit_code = 0
    reports = []
    for path in args.files:
        source, _, error = read_queries(path)
        if error is not None:
            if args.json:
                reports.append({"file": path, "error": error, "diagnostics": []})
            else:
                out(f"error: cannot read {path}: {error}")
            exit_code = 1
            continue
        findings = lint_text(source, linter)
        if any(d.is_error for d in findings):
            exit_code = 1
        if args.json:
            reports.append(
                {
                    "file": path,
                    "errors": sum(1 for d in findings if d.severity == "error"),
                    "warnings": sum(1 for d in findings if d.severity == "warning"),
                    "diagnostics": [d.as_dict() for d in findings],
                }
            )
        elif args.quiet:
            errors = sum(1 for d in findings if d.severity == "error")
            warnings = sum(1 for d in findings if d.severity == "warning")
            out(f"{path}: {errors} errors, {warnings} warnings")
        else:
            out(f"== {path}")
            out(render_all(findings, source, path))
    if args.json:
        out(json.dumps(reports, indent=2, sort_keys=True))
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
