"""Property-based scenario fuzzing of the coupled-topology shard barrier.

Hypothesis drives :func:`repro.experiments.fuzz.random_spec` through integer
seeds; every drawn spec must hold the fuzz invariants (byte/packet
conservation, sharded ≡ single loop on static channels, determinism across
repeats, no ``ConservativeSyncError``).  ``scripts/fuzz_specs.py`` replays
the same generator over fixed seeds for the CI smoke job.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.fuzz import check_spec, random_spec


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_fuzzed_specs_hold_every_invariant(seed):
    """Conservation, shard equivalence, determinism — for any drawn spec."""
    spec = random_spec(random.Random(seed))
    assert check_spec(spec) == []


@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_spec_is_seed_reproducible(seed):
    """The same seed draws the same spec, byte for byte."""
    assert random_spec(random.Random(seed)) == random_spec(random.Random(seed))


#: Axis suffixes random_spec appends after the coupling mode.
_AXES = {"fading", "pop", "high-id", "stall"}


def _coupling_of(name: str) -> str:
    parts = name.removeprefix("fuzz-").split("+")
    while parts and parts[-1] in _AXES:
        parts.pop()
    return "+".join(parts)


def test_generator_covers_every_coupling_mode():
    """A modest seed sweep reaches all five coupling modes."""
    names = {random_spec(random.Random(seed)).name for seed in range(40)}
    assert {_coupling_of(name) for name in names} == {
        "plain", "mbx", "snr", "mbx+snr", "short-ho"}


def test_generator_covers_every_axis():
    """The same sweep also draws every orthogonal spec axis at least once
    (fading channels, population blocks, UE ids past 250, zero-rate
    stalls)."""
    names = [random_spec(random.Random(seed)).name for seed in range(40)]
    drawn = {axis for name in names
             for axis in name.removeprefix("fuzz-").split("+")
             if axis in _AXES}
    assert drawn == _AXES, f"axes never drawn: {_AXES - drawn}"


def test_check_spec_reports_instead_of_raising():
    """A spec with a sharding blocker is reported as a violation list —
    fuzz campaigns must see every failure, not stop at the first."""
    spec = random_spec(random.Random(0))
    import dataclasses

    from repro.experiments.spec import CellSpec, UeSpec
    lone = dataclasses.replace(
        spec, cells=[CellSpec(cell_id=0)],
        ues=[UeSpec(ue_id=0, cell_id=0)], flows=spec.flows[:1],
        mobility=dataclasses.replace(spec.mobility, mode="off",
                                     handovers=[]))
    violations = check_spec(lone)
    assert violations and "blocker" in violations[0]


def test_sharding_suite_reports_a_short_split(monkeypatch):
    """A sharded run on fewer shards than asked (here: the core-budget
    clamp of a sweep worker, reached by dropping the in-process flag) is a
    violation, not a silent pass."""
    from repro.experiments import fuzz, sharded

    monkeypatch.setenv("REPRO_CORE_BUDGET", "2")
    monkeypatch.setenv("REPRO_SWEEP_ACTIVE_WORKERS", "2")
    monkeypatch.setattr(
        fuzz, "run_scenario_sharded",
        lambda spec, shards, inprocess: sharded.run_scenario_sharded(
            spec, shards=shards))
    spec = random_spec(random.Random(0), duration_s=0.2)
    assert "sharding: shards=2 ran 1 shards" in check_spec(
        spec, suites=["sharding"])


def test_campaign_verdicts_do_not_depend_on_workers(monkeypatch):
    """The campaign runs on the sweep runner: per-seed names and verdicts
    match across worker counts, and a worker's in-process shards are not
    clamped by the core budget the sweep divides."""
    from repro.experiments.fuzz import run_campaign

    monkeypatch.setenv("REPRO_CORE_BUDGET", "2")
    verdicts = {1: [], 2: []}
    for workers, seen in verdicts.items():
        report = run_campaign(
            count=3, seed=0, duration_s=0.2, shard_counts=(3,),
            workers=workers,
            progress=lambda record, seen=seen: seen.append(
                (record["seed"], record["name"], record["violations"])))
        assert report["workers"] == workers
        assert report["seeds_checked"] == 3 and not report["stopped_early"]
    assert verdicts[1] == verdicts[2]
    assert [seed for seed, _, _ in verdicts[1]] == [0, 1, 2]
    assert all(violations == [] for _, _, violations in verdicts[1])


def test_campaign_time_budget_stops_before_the_next_chunk():
    from repro.experiments.fuzz import run_campaign

    report = run_campaign(count=100, time_budget_s=0.0, workers=1)
    assert report["stopped_early"] and report["seeds_checked"] == 0
    assert set(report) == {"schema", "params", "workers", "seeds_checked",
                           "stopped_early", "elapsed_s", "failures", "names"}
