"""The lexer and parser against golden output of the ones they replaced.

``tests/data/frontend_golden.json`` holds, for every source text of the
front-end corpus, the token stream and the parse tree *with spans* (or
the syntax error's text) that PR 16's hand-written scanner and
nine-method precedence chain produced; ``tests/data/make_frontend_golden.py``
wrote it from that commit and says what the corpus is.
"""

from __future__ import annotations

import json
from pathlib import Path

from tests.data.make_frontend_golden import corpus, entry

GOLDEN = json.loads((Path(__file__).parent / "data" / "frontend_golden.json").read_text())


def test_golden_covers_the_corpus():
    """A harness class, example or parser test added later needs a golden
    entry: rerun the generator (it then records today's behaviour)."""
    assert [want["source"] for want in GOLDEN] == corpus()


def test_tokens_trees_and_spans_match_the_parent():
    for want in GOLDEN:
        got = entry(want["source"])
        assert got["tokens"] == want["tokens"], want["source"]
        assert got["tree"] == want["tree"], want["source"]
