"""The batch CLIs under ``--json``: a file that cannot be read is reported
inside its own document, so stdout stays one parseable JSON array and the
exit status is 1 (``repro.lint.cli.read_queries`` is their one way in)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as verify_main
from repro.lint.cli import main as lint_main
from repro.obs.cli import main as explain_main

GOOD = str(Path(__file__).parent.parent / "examples" / "travel_queries.oql")

#: CLI -> (main, the key naming a document's file, the key of its list)
CLIS = {
    "lint": (lint_main, "file", "diagnostics"),
    "explain": (explain_main, "file", "queries"),
    "verify": (verify_main, "target", "queries"),
}


#: a missing file (for verify too: a target ending in ``.oql`` is always
#: a file) and a directory, which exists but cannot be read
BAD = [(cli, bad) for cli in CLIS for bad in ("missing", "directory")]


@pytest.mark.parametrize("cli, bad", BAD)
def test_json_stdout_parses_with_a_bad_path_among_good_ones(cli, bad, tmp_path, capsys):
    main, key, items = CLIS[cli]
    path = str(tmp_path / "nope.oql") if bad == "missing" else str(tmp_path)
    code = main(["--json", GOOD, path, GOOD])
    documents = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [doc[key] for doc in documents] == [GOOD, path, GOOD]
    unreadable = documents[1]
    assert unreadable["error"] and unreadable[items] == []
    assert all("error" not in doc for doc in (documents[0], documents[2]))


@pytest.mark.parametrize("cli, bad", BAD)
def test_text_output_names_the_unreadable_file(cli, bad, tmp_path, capsys):
    main = CLIS[cli][0]
    path = str(tmp_path / "nope.oql") if bad == "missing" else str(tmp_path)
    code = main([GOOD, path])
    assert code == 1
    out = capsys.readouterr().out
    assert f"error: cannot read {path}: " in out and "FAIL" not in out


def test_verify_still_runs_a_literal_query(capsys):
    assert verify_main(["select distinct c.name from c in Cities"]) == 0
    assert capsys.readouterr().out.startswith("ok <query>: ")
