"""``repro.lint`` against the diagnostics of the second pipeline it replaced.

``tests/data/lint_golden.json`` holds every diagnostic — code, severity,
message, span, hint, in order — that PR 20's ``src`` gave each query of
the lint corpus through ``Database.lint`` and ``Linter.lint_source``,
each ``examples/*.oql`` through ``lint_text`` and each calculus term
through ``lint_term``; ``tests/data/make_lint_golden.py`` wrote it, says
what the corpus is and lists the rows that moved on purpose.
"""

from __future__ import annotations

from pathlib import Path

from tests.data.make_lint_golden import golden_lines

GOLDEN = (Path(__file__).parent / "data" / "lint_golden.json").read_text().splitlines()[1:-1]


def test_every_diagnostic_matches_the_golden():
    """A linted literal added to ``tests/test_lint_*.py``, a harness class
    or an example changes the corpus: rerun the generator and review the
    diff (only new rows should appear)."""
    got = golden_lines()
    assert len(got) == len(GOLDEN)
    for want, row in zip(GOLDEN, got):
        assert row == want.rstrip(","), row[:120]
