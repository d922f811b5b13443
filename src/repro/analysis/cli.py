"""``python -m repro verify`` — run queries with rewrite verification on.

Each argument is an OQL file (``;``-separated queries, same conventions
as ``repro lint``) or, when no file of that name exists, a literal OQL
query. Every query is executed against a demo database with
``verify=True``: each normalization-rule fire and optimizer rewrite is
checked against the soundness invariants, and one line per query
reports how many rewrites were verified.

Exit status: 0 when every query ran with all rewrites verified; 1 when
any query tripped a :class:`~repro.errors.VerificationError` or failed
outright.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Callable, Optional

from repro.db.database import Database, demo_database
from repro.errors import ReproError, VerificationError
from repro.lint.cli import split_queries


def _short(text: str, limit: int = 60) -> str:
    flat = " ".join(text.split())
    return flat if len(flat) <= limit else flat[: limit - 3] + "..."


def verify_query(db: Database, text: str) -> dict:
    """Run one query verified; return a report document (never raises)."""
    doc: dict = {"query": " ".join(text.split())}
    try:
        result = db.run_detailed(text, verify=True)
    except VerificationError as err:
        doc["ok"] = False
        doc["error"] = "verification"
        doc["rule"] = err.rule
        doc["violations"] = [str(v) for v in err.violations]
        doc["detail"] = str(err)
        return doc
    except ReproError as err:
        doc["ok"] = False
        doc["error"] = type(err).__name__
        doc["detail"] = str(err)
        return doc
    doc["ok"] = True
    doc["rewrites"] = len(result.trace)
    doc["rules"] = result.trace.rule_counts()
    doc["engine"] = result.engine
    return doc


def main(argv: Optional[list[str]] = None, out: Callable[[str], None] = print) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro verify",
        description="Execute OQL with the rewrite-soundness verifier enabled.",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        help="OQL files (';'-separated queries) or literal queries",
    )
    parser.add_argument(
        "--schema",
        choices=("travel", "company"),
        default="travel",
        help="demo database to run against (default: travel)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON array of per-target reports instead of text",
    )
    args = parser.parse_args(argv)

    db = demo_database(args.schema)
    documents = []
    exit_code = 0
    for target in args.targets:
        if os.path.exists(target):
            label = target
            try:
                with open(target, encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as err:
                out(f"error: cannot read {target}: {err}")
                exit_code = 1
                continue
            queries = [
                (f"{target}:{line0 + 1}", text)
                for line0, _, text in split_queries(source)
            ]
        else:
            label = "<query>"
            queries = [(label, target)]
        file_doc = {"target": label, "queries": []}
        for where, text in queries:
            doc = verify_query(db, text)
            file_doc["queries"].append(doc)
            if doc["ok"]:
                if not args.json:
                    out(
                        f"ok {where}: {doc['rewrites']} rewrite(s) verified "
                        f"({doc['engine']} engine) -- {_short(text)}"
                    )
            else:
                exit_code = 1
                if not args.json:
                    out(f"FAIL {where}: {doc['detail']}")
        documents.append(file_doc)
    if args.json:
        out(json.dumps(documents, indent=2))
    return exit_code
