"""What the readers of a query emit does not move.

``tests/data/readers_golden.json`` holds the query-log entries, the
EXPLAIN ANALYZE documents and the Prometheus text of one fixed query
sequence (``tests/data/make_readers_golden.py`` says which, and what of
each is left out as a time), written while each query still had two
objects — a record and a result. The one object that replaced them must
give every reader the same fields.
"""

from __future__ import annotations

import json

import pytest

from tests.data.make_readers_golden import GOLDEN, readers

WANT = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def got():
    return readers()


@pytest.mark.parametrize("reader", sorted(WANT))
def test_reader_emits_what_it_did(got, reader):
    assert len(got[reader]) == len(WANT[reader])
    for index, (have, want) in enumerate(zip(got[reader], WANT[reader])):
        assert have == want, (reader, index)
