"""``python -m repro explain`` — batch EXPLAIN [ANALYZE] for OQL files.

Files hold ``;``-separated queries (same conventions as ``repro lint``:
``--`` comments, strings may contain semicolons). Each query is
explained against a demo database — ``--analyze`` actually runs it and
reports estimated vs actual cardinalities, the execution's wall time and
the estimates' q-error; ``--json`` emits the same documents as one JSON
array (one element per file) for machine consumption, e.g. as a CI
build artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional

from repro.db.database import demo_database
from repro.errors import ReproError
from repro.lint.cli import split_queries
from repro.obs.explain import render_explain


def main(argv: Optional[list[str]] = None, out: Callable[[str], None] = print) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description="Explain (and optionally run) every query in OQL files.",
    )
    parser.add_argument("files", nargs="+", help="OQL files (';'-separated queries)")
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="execute each query and report actual cardinalities and timings",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON array of explain documents instead of text",
    )
    parser.add_argument(
        "--schema",
        choices=("travel", "company"),
        default="travel",
        help="demo database to explain against (default: travel)",
    )
    args = parser.parse_args(argv)

    db = demo_database(args.schema)
    documents = []
    exit_code = 0
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as err:
            out(f"error: cannot read {path}: {err}")
            exit_code = 1
            continue
        file_docs = []
        for _, _, text in split_queries(source):
            try:
                doc = db.explain_data(text, analyze=args.analyze)
            except ReproError as err:
                doc = {
                    "oql": text.strip(),
                    "analyzed": args.analyze,
                    "engine": None,
                    "plan": None,
                    "note": f"{type(err).__name__}: {err}",
                }
                exit_code = 1
            file_docs.append(doc)
        documents.append({"file": path, "queries": file_docs})

    if args.json:
        out(json.dumps(documents, indent=2, sort_keys=True))
        return exit_code

    for file_doc in documents:
        out(f"== {file_doc['file']}")
        for doc in file_doc["queries"]:
            out(render_explain(doc))
            out("")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
