"""Tests for the delta-debugging spec minimizer."""

from __future__ import annotations

import dataclasses

from repro.experiments.minimize import failure_signature, minimize_spec
from repro.experiments.spec import (CellSpec, HandoverSpec, MobilitySpec,
                                    ScenarioSpec, UeSpec)
from repro.workloads.flows import FlowSpec

import pytest


def _big_spec() -> ScenarioSpec:
    """4 cells, 6 UEs, 6 flows, every optional block switched on."""
    return ScenarioSpec(
        name="big", duration_s=0.8, num_ues=0,
        channel_profile="pedestrian",
        cells=[CellSpec(cell_id=c) for c in range(4)],
        ues=[UeSpec(ue_id=u, cell_id=u % 4) for u in range(6)],
        flows=[FlowSpec(flow_id=i, ue_id=i,
                        cc_name="cubic" if i in (2, 4) else "prague",
                        start_time=0.01 * i, wan_rtt=0.02 + 0.002 * i)
               for i in range(6)],
        wired_bottleneck_mbps=50.0,
        wired_bottleneck_schedule=[(0.4, 25.0)],
        seed=1234)


class TestFailureSignature:
    def test_prefixes_extracted(self):
        violations = ["sharding: shards=2 differ", "document: bytes differ",
                      "sharding: shards=4 raised"]
        assert failure_signature(violations) == {"sharding", "document"}

    def test_empty(self):
        assert failure_signature([]) == frozenset()


class TestMinimizeSpec:
    def test_rejects_passing_spec(self):
        with pytest.raises(ValueError, match="no violations"):
            minimize_spec(_big_spec(), lambda spec: [])

    def test_injected_break_shrinks_small(self):
        """The ISSUE acceptance bar: <= 2 cells and <= 4 UEs."""
        def injected(spec):
            if any(f.cc_name == "cubic" for f in spec.resolved_flows()):
                return ["injected: a cubic flow exists"]
            return []

        small = minimize_spec(_big_spec(), injected)
        assert injected(small)
        assert len(small.resolved_cells()) <= 2
        assert len(small.resolved_ues()) <= 4
        # The optional blocks played no part in the failure, so the
        # minimizer strips them all.
        assert small.wired_bottleneck_mbps is None
        assert small.channel_profile == "static"
        assert small.duration_s == pytest.approx(0.05)

    def test_minimum_still_validates(self):
        def injected(spec):
            return ["injected: always"]

        small = minimize_spec(_big_spec(), injected)
        small.validate()
        assert len(small.resolved_cells()) == 1
        assert len(small.resolved_ues()) == 1

    def test_signature_guard_blocks_degeneration(self):
        """A candidate failing a *different* way must be rejected.

        The predicate fails with class "alpha" on multi-cell specs but
        with class "beta" once shrunk to a single cell; minimization of
        the alpha failure must therefore keep >= 2 cells rather than
        adopt the beta-failing single-cell candidate.
        """
        def predicate(spec):
            if len(spec.resolved_cells()) >= 2:
                return ["alpha: multi-cell failure"]
            return ["beta: single-cell artifact"]

        small = minimize_spec(_big_spec(), predicate)
        assert len(small.resolved_cells()) == 2
        assert failure_signature(predicate(small)) == {"alpha"}

    def test_mobility_spec_minimizes_validly(self):
        """Dropping cells named by handovers must not yield invalid specs.

        Candidates that break validation (a handover targeting a dropped
        cell) are skipped, and the mobility-zeroing pass eventually
        unlocks the structural reductions anyway.
        """
        spec = dataclasses.replace(
            _big_spec(),
            mobility=MobilitySpec(
                mode="schedule", interruption_s=0.02,
                handovers=[HandoverSpec(time=0.4, ue_id=0, target_cell=3)]))

        def injected(s):
            return ["injected: always"]

        small = minimize_spec(spec, injected)
        small.validate()
        assert not small.mobility.enabled
        assert len(small.resolved_cells()) == 1

    def test_bounded_checks(self):
        calls = 0

        def counting(spec):
            nonlocal calls
            calls += 1
            return ["injected: always"]

        minimize_spec(_big_spec(), counting, max_checks=10)
        # The baseline check plus at most max_checks candidate checks.
        assert calls <= 11
