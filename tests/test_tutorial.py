"""Execute every code block in docs/TUTORIAL.md.

The tutorial's blocks share one namespace, top to bottom, exactly as a
reader would paste them into a REPL — so the docs cannot rot.
"""

import re
from pathlib import Path

import pytest

TUTORIAL = Path(__file__).parent.parent / "docs" / "TUTORIAL.md"

_BLOCK_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _blocks() -> list[str]:
    text = TUTORIAL.read_text(encoding="utf-8")
    return _BLOCK_RE.findall(text)


def test_tutorial_has_blocks():
    assert len(_blocks()) >= 8


@pytest.mark.usefixtures("register_monoid")  # §11 registers gcd; restored after
def test_tutorial_blocks_execute_in_order():
    namespace: dict = {}
    for i, block in enumerate(_blocks(), 1):
        try:
            exec(compile(block, f"tutorial-block-{i}", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(f"tutorial block {i} failed: {exc}\n---\n{block}")
