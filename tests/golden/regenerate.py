"""Golden result documents: a fixed catalogue of specs and their hashes.

``doc_sha256.json`` pins, for every catalogue entry, the SHA-256 of the
canonical result document and of each of its top-level keys.
``tests/test_golden_documents.py`` recomputes the catalogue in tier-1; a
change that is *meant* to move a document regenerates the file with

    PYTHONPATH=src python -m tests.golden.regenerate

which prints, per entry, which top-level keys moved -- so the change is
reviewed as a diff of named blocks, not as a new hex string.

The catalogue is every preset of ``experiments/presets.py`` at 1 simulated
second (``dense-cell`` 5 s; ``handover`` 2.5 s, so that its first scheduled
handover at t = 2 s is inside), the five ledger workload specs at
tier-1-affordable durations, ``mixed-cc`` under the ``ran_dualpi2`` marker
and under PF, a two-cell round-robin run whose handovers leave a MAC's
registration order off ue_id order, the three multi-cell presets split
over two in-process shards, and the ``tests/corpus/population-*.json``
specs at their own durations, each at seeds 7 and 1234.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import repro.api as api
from repro.experiments.sharded import run_scenario_sharded

GOLDEN_PATH = Path(__file__).with_name("doc_sha256.json")
CORPUS_DIR = Path(__file__).parent.parent / "corpus"
SEEDS = (7, 1234)
SHARDED_PRESETS = ("coupled-core", "handover", "eight-cell")
PRESET_DURATION_S = {"dense-cell": 5.0, "handover": 2.5}


def catalogue() -> list[tuple[str, api.ScenarioSpec, int]]:
    """``(entry name, spec, shards)`` for every golden document."""
    entries = []

    def add(name: str, spec, duration_s: float, shards: int = 1) -> None:
        for seed in SEEDS:
            entries.append((f"{name}@{seed}", dataclasses.replace(
                spec, duration_s=duration_s, seed=seed), shards))

    for preset in api.preset_names():
        add(f"preset/{preset}", api.load_spec(preset),
            PRESET_DURATION_S.get(preset, 1.0))
    # The ledger's workload specs (benchmarks/ledger/workloads.py).
    add("ledger/prague_fading", api.load_spec(api.ScenarioSpec(
        num_ues=2, cc_name="prague", channel_profile="pedestrian",
        marker="l4span")), 2.0)
    add("ledger/dense_cell", api.load_spec("dense-cell"), 15.0)
    add("ledger/coupled_shards", api.load_spec("coupled-core"), 1.5, shards=2)
    mixed = api.load_spec("mixed-cc")
    add("ledger/marker_contrast/none",
        dataclasses.replace(mixed, marker="none"), 1.5)
    add("ledger/marker_contrast/l4span", mixed, 1.5)
    add("ledger/service_short_jobs", api.load_spec("coupled-core"), 0.125)
    # The RAN-DualPi2 marker's coin, which no preset or workload runs.
    add("marker/ran_dualpi2", dataclasses.replace(mixed, marker="ran_dualpi2"),
        1.5)
    # The MAC grant branches no population-free entry reaches: PF, and
    # round robin over a cell whose registration order is not ue_id order.
    add("mac/pf", dataclasses.replace(mixed, scheduler="pf"), 1.5)
    add("mac/out-of-order", api.load_spec({
        "cc_name": "cubic", "scheduler": "rr", "num_ues": 4,
        "cells": [{"cell_id": 0}, {"cell_id": 1}],
        "ues": [{"ue_id": ue_id, "cell_id": ue_id % 2}
                for ue_id in range(4)],
        "mobility": {"mode": "schedule", "handovers": [
            {"time": 0.4, "ue_id": 0, "target_cell": 1},
            {"time": 0.8, "ue_id": 2, "target_cell": 1}]}}), 1.5)
    for preset in SHARDED_PRESETS:
        add(f"shards2/{preset}", api.load_spec(preset),
            PRESET_DURATION_S.get(preset, 1.0), shards=2)
    # The population branches dense-cell does not reach (PF, a MAC whose
    # registration order is not ue_id order).
    for path in sorted(CORPUS_DIR.glob("population-*.json")):
        spec = api.ScenarioSpec.from_dict(json.loads(path.read_text())["spec"])
        add(f"corpus/{path.stem}", spec, spec.duration_s)
    return entries


def _sha256(value) -> str:
    return hashlib.sha256(api.dump_document(value).encode("utf-8")).hexdigest()


def fingerprint(spec, shards: int) -> dict:
    """Run one entry; hash its document whole and key by key."""
    if shards > 1:
        result = run_scenario_sharded(spec, shards=shards, inprocess=True)
    else:
        result = api.run(spec)
    document = api.result_document(result)
    return {"doc_sha256": _sha256(document),
            "keys": {key: _sha256(value)[:16]
                     for key, value in document.items()}}


def moved_keys(old: dict, new: dict) -> list[str]:
    """Top-level document keys whose hash differs between two fingerprints."""
    before, after = old["keys"], new["keys"]
    return sorted(key for key in before.keys() | after.keys()
                  if before.get(key) != after.get(key))


def main() -> None:
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    new = {}
    for name, spec, shards in catalogue():
        new[name] = fingerprint(spec, shards)
        if name not in old:
            print(f"{name}: new entry")
        elif old[name] != new[name]:
            print(f"{name}: moved {', '.join(moved_keys(old[name], new[name]))}")
    for name in sorted(old.keys() - new.keys()):
        print(f"{name}: dropped from the catalogue")
    GOLDEN_PATH.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"{len(new)} entries written to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
