"""Result documents are byte-identical to the committed golden hashes.

The catalogue and the regeneration command live in
``tests/golden/regenerate.py``.  A failure names the top-level document keys
that moved; if the move is intended, regenerate the file and review the
printed diff.
"""

from __future__ import annotations

import json

import pytest

from golden.regenerate import GOLDEN_PATH, catalogue, fingerprint, moved_keys

GOLDEN = json.loads(GOLDEN_PATH.read_text())
CATALOGUE = catalogue()


def test_golden_file_lists_exactly_the_catalogue():
    assert sorted(GOLDEN) == sorted(name for name, _, _ in CATALOGUE)


@pytest.mark.parametrize("name, spec, shards", CATALOGUE,
                         ids=[name for name, _, _ in CATALOGUE])
def test_document_matches_golden_hash(name, spec, shards):
    got = fingerprint(spec, shards)
    assert got == GOLDEN[name], (
        f"{name}: document moved in {moved_keys(GOLDEN[name], got)}")
