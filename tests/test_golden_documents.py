"""Result documents are byte-identical to the committed golden hashes.

The catalogue and the regeneration command live in
``tests/golden/regenerate.py``.  A failure names the top-level document keys
that moved; if the move is intended, regenerate the file and review the
printed diff.  The wired DualPi2 router of Fig. 2 runs outside the scenario
layer, so its flows are pinned here by one hash of their own.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from golden.regenerate import GOLDEN_PATH, catalogue, fingerprint, moved_keys
from repro.experiments.figures import _motivation_cells
from repro.experiments.wired import WiredScenarioConfig, run_wired_scenario

GOLDEN = json.loads(GOLDEN_PATH.read_text())
CATALOGUE = catalogue()
#: SHA-256 of fig2's ``wired+dualpi2`` flows at 4 s: per flow its CC name,
#: goodput and every RTT sample, so each marking draw of the router counts.
WIRED_DUALPI2_SHA256 = (
    "7a256b2c639bf977cf1b8d6f2cf3aca2bf0959e449b2fbe5fd3e1be7a4e04ff0")


def test_golden_file_lists_exactly_the_catalogue():
    assert sorted(GOLDEN) == sorted(name for name, _, _ in CATALOGUE)


@pytest.mark.parametrize("name, spec, shards", CATALOGUE,
                         ids=[name for name, _, _ in CATALOGUE])
def test_document_matches_golden_hash(name, spec, shards):
    got = fingerprint(spec, shards)
    assert got == GOLDEN[name], (
        f"{name}: document moved in {moved_keys(GOLDEN[name], got)}")


def test_wired_dualpi2_panel_matches_pin():
    cells = dict(_motivation_cells({"duration_s": 4.0,
                                    "bottleneck_shift": False}))
    flows = run_wired_scenario(
        WiredScenarioConfig(**cells["wired+dualpi2"])).flows
    rows = [[flow.cc_name, flow.goodput_mbps, flow.rtt_samples]
            for flow in flows]
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    assert digest == WIRED_DUALPI2_SHA256
