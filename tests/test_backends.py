"""Engine backend registry and cross-backend equivalence contract.

The ``numpy`` backend replaces profiled per-slot hot loops (blocked channel
draws, blocked air-interface uniforms, numpy PRB allocation above a
crossover) but must not change *what* is simulated: on static channels the
per-flow metrics are bit-identical to the ``python`` backend, across
repeats and shard counts.  On fading channels the drift is confined to the
channel stream's documented block-reordering; each backend remains
individually deterministic.  These tests pin that contract.  (The slot clock
is shared by both backends; ``tests/test_slot_clock.py`` pins it against the
heap-driven clock it replaced.)
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

import repro._numpy
from repro.experiments.presets import make_preset
from repro.experiments.scenario import run_scenario
from repro.experiments.sharded import run_scenario_sharded
from repro.experiments.spec import EngineSpec, ScenarioSpec
from repro.sim import backends
from repro.sim.backends import (ENGINE_BACKENDS, EngineBackend,
                                default_engine_name, make_engine_backend)

numpy_missing = not repro._numpy.numpy_available()
needs_numpy = pytest.mark.skipif(numpy_missing, reason="numpy not installed")


def with_engine(spec: ScenarioSpec, backend: str) -> ScenarioSpec:
    return dataclasses.replace(
        spec, engine=dataclasses.replace(spec.engine, backend=backend))


def flow_fingerprint(result) -> list:
    """Everything per-flow that must match bit-for-bit across backends."""
    return sorted(
        (flow.flow_id, flow.ue_id, flow.goodput_bytes_per_s,
         flow.congestion_events, flow.marked_fraction,
         len(flow.owd_samples), tuple(flow.owd_samples[-64:]),
         tuple(flow.rtt_samples[-64:]))
        for flow in result.flows)


def _force_vector_paths(monkeypatch) -> None:
    """Drop the scalar/vector crossover so tiny scenarios hit the numpy
    allocation paths the thresholds would otherwise route around."""
    from repro.ran import mac
    monkeypatch.setattr(mac, "_VECTOR_MIN_UES_RR", 1)
    monkeypatch.setattr(mac, "_VECTOR_MIN_UES_PF", 1)


# --------------------------------------------------------------------- #
# Registry and spec plumbing
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_registered_names(self):
        names = ENGINE_BACKENDS.names(include_aliases=True)
        for name in ("python", "py", "numpy", "np"):
            assert name in names

    def test_aliases_resolve_to_primary(self):
        assert ENGINE_BACKENDS.resolve("py") == "python"
        assert ENGINE_BACKENDS.resolve("np") == "numpy"

    def test_python_backend_is_default_and_not_vectorized(self, monkeypatch):
        monkeypatch.delenv(backends.ENGINE_ENV, raising=False)
        assert default_engine_name() == "python"
        backend = make_engine_backend()
        assert isinstance(backend, EngineBackend)
        assert not backend.vectorized

    @needs_numpy
    def test_numpy_backend_is_vectorized(self):
        backend = make_engine_backend("np", channel_block=32)
        assert backend.name == "numpy"
        assert backend.vectorized
        assert backend.channel_block == 32

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            make_engine_backend("fortran")

    def test_env_default_selects_backend(self, monkeypatch):
        monkeypatch.setenv(backends.ENGINE_ENV, "py")
        assert default_engine_name() == "python"
        if not numpy_missing:
            monkeypatch.setenv(backends.ENGINE_ENV, "np")
            assert default_engine_name() == "numpy"

    def test_env_numpy_without_numpy_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(backends.ENGINE_ENV, "numpy")
        monkeypatch.setattr(repro._numpy, "np", None)
        monkeypatch.setattr(backends, "numpy_available", lambda: False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert default_engine_name() == "python"
        assert any("falling back" in str(w.message) for w in caught)

    def test_numpy_backend_requires_numpy(self, monkeypatch):
        monkeypatch.setattr(repro._numpy, "np", None)
        with pytest.raises(RuntimeError, match="numpy"):
            make_engine_backend("numpy")


class TestEngineSpec:
    def test_round_trips_through_dict(self):
        spec = ScenarioSpec(name="rt", num_ues=1, duration_s=0.1,
                            engine=EngineSpec(backend="numpy",
                                              channel_block=64))
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again.engine.backend == "numpy"
        assert again.engine.channel_block == 64

    def test_unset_backend_inherits_environment(self, monkeypatch):
        monkeypatch.delenv(backends.ENGINE_ENV, raising=False)
        assert EngineSpec().resolved_backend() == "python"
        monkeypatch.setenv(backends.ENGINE_ENV, "py")
        assert EngineSpec().resolved_backend() == "python"

    def test_validate_rejects_unknown_backend(self):
        with pytest.raises(KeyError):
            EngineSpec(backend="cuda").validate()

    def test_validate_rejects_bad_block(self):
        with pytest.raises(ValueError, match="channel_block"):
            EngineSpec(channel_block=0).validate()

    def test_spec_validate_covers_engine_block(self):
        spec = ScenarioSpec(name="bad", num_ues=1, duration_s=0.1,
                            engine=EngineSpec(backend="cuda"))
        with pytest.raises(KeyError):
            spec.validate()


# --------------------------------------------------------------------- #
# Bit-identical static-channel metrics
# --------------------------------------------------------------------- #
def _static_cases() -> dict:
    dense = make_preset("dense-cell")
    return {
        "dense-rr": dataclasses.replace(dense, duration_s=1.5),
        "dense-pf": dataclasses.replace(dense, duration_s=1.5,
                                        scheduler="pf"),
        "multi-ue-rr": ScenarioSpec(
            name="multi-ue-rr", num_ues=4, duration_s=1.0,
            channel_profile="static", seed=7, marker="l4span"),
        "multi-ue-pf": ScenarioSpec(
            name="multi-ue-pf", num_ues=4, duration_s=1.0,
            channel_profile="static", seed=7, marker="l4span",
            scheduler="pf", cc_name="cubic"),
    }


@needs_numpy
@pytest.mark.parametrize("case", sorted(_static_cases()))
def test_static_metrics_bit_identical(case, monkeypatch):
    _force_vector_paths(monkeypatch)
    spec = _static_cases()[case]
    reference = run_scenario(with_engine(spec, "python"))
    vectorized = run_scenario(with_engine(spec, "numpy"))
    assert flow_fingerprint(vectorized) == flow_fingerprint(reference)
    assert vectorized.events_processed == reference.events_processed


@needs_numpy
def test_static_metrics_identical_across_repeats(monkeypatch):
    _force_vector_paths(monkeypatch)
    spec = with_engine(dataclasses.replace(make_preset("dense-cell"),
                                           duration_s=1.0), "numpy")
    first = run_scenario(spec)
    second = run_scenario(spec)
    assert flow_fingerprint(first) == flow_fingerprint(second)


@needs_numpy
@pytest.mark.parametrize("shards", [2, 4])
def test_static_metrics_identical_across_shards(shards):
    spec = with_engine(dataclasses.replace(make_preset("eight-cell"),
                                           duration_s=1.0), "numpy")
    single = run_scenario(spec)
    sharded = run_scenario_sharded(spec, shards=shards, inprocess=True)
    assert flow_fingerprint(sharded) == flow_fingerprint(single)


# --------------------------------------------------------------------- #
# Fading channels: per-backend determinism (documented stream drift)
# --------------------------------------------------------------------- #
@needs_numpy
@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_fading_backend_deterministic(backend):
    spec = with_engine(
        ScenarioSpec(name="fade", num_ues=2, duration_s=1.0, seed=11,
                     channel_profile="pedestrian", marker="l4span"),
        backend)
    first = run_scenario(spec)
    second = run_scenario(spec)
    assert flow_fingerprint(first) == flow_fingerprint(second)
