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
