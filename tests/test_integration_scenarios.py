"""Integration tests: full scenarios through the scenario builder.

These are the end-to-end checks that the reproduction preserves the paper's
qualitative results: L4Span slashes queueing delay while keeping throughput,
for both L4S and classic senders, and the feedback short-circuiting and
baseline markers behave sensibly.  Durations are kept short so the whole
suite stays fast; ``python -m repro experiment`` runs longer versions.
"""

from __future__ import annotations

import pytest

from repro.core.config import L4SpanConfig
from repro.experiments.scenario import run_scenario
from repro.experiments.spec import ScenarioSpec
from repro.experiments.wired import WiredScenarioConfig, run_wired_scenario
from repro.units import ms
from repro.workloads.flows import FlowSpec
from repro.workloads.short_flows import short_long_mix


def _run(marker, cc_name="prague", duration=4.0, num_ues=1, **kwargs):
    return run_scenario(ScenarioSpec(num_ues=num_ues, duration_s=duration,
                                       cc_name=cc_name, marker=marker,
                                       seed=3, **kwargs))


class TestHeadlineResult:
    """The paper's top-line claim: far lower delay at similar throughput."""

    @pytest.fixture(scope="class")
    def prague_pair(self):
        baseline = _run("none", "prague", duration=5.0)
        l4span = _run("l4span", "prague", duration=5.0)
        return baseline, l4span

    def test_l4span_cuts_prague_owd_by_an_order_of_magnitude(self, prague_pair):
        baseline, l4span = prague_pair
        assert l4span.median_owd_ms() < 0.1 * baseline.median_owd_ms()

    def test_l4span_keeps_most_of_the_throughput(self, prague_pair):
        baseline, l4span = prague_pair
        assert l4span.total_goodput_mbps() > 0.5 * baseline.total_goodput_mbps()

    def test_l4span_keeps_rlc_queue_shallow(self, prague_pair):
        baseline, l4span = prague_pair
        mean_queue_l4span = (sum(l4span.queue_length_samples)
                             / max(1, len(l4span.queue_length_samples)))
        mean_queue_baseline = (sum(baseline.queue_length_samples)
                               / max(1, len(baseline.queue_length_samples)))
        assert mean_queue_l4span < 0.05 * mean_queue_baseline

    def test_marks_are_actually_generated(self, prague_pair):
        _, l4span = prague_pair
        assert l4span.marker_summary["marked_packets"] > 0
        assert l4span.marker_summary["shortcircuited_acks"] > 0


class TestMultiUe:
    def test_congested_cell_baseline_bloats_and_l4span_does_not(self):
        baseline = _run("none", "prague", duration=4.0, num_ues=4)
        l4span = _run("l4span", "prague", duration=4.0, num_ues=4)
        assert baseline.median_owd_ms() > 200
        assert l4span.median_owd_ms() < 100
        # Every UE keeps receiving data under L4Span.
        assert all(rate > 0 for rate in l4span.per_ue_throughput.values())

    def test_classic_flows_also_benefit_in_a_busy_cell(self):
        baseline = _run("none", "cubic", duration=4.0, num_ues=4)
        l4span = _run("l4span", "cubic", duration=4.0, num_ues=4)
        assert l4span.median_owd_ms() < baseline.median_owd_ms()


class TestSchedulersAndModes:
    def test_proportional_fair_scheduler_runs(self):
        result = _run("l4span", "prague", duration=2.5, num_ues=2,
                      scheduler="pf")
        assert result.total_goodput_mbps() > 1.0

    def test_rlc_um_mode_works_end_to_end(self):
        result = _run("l4span", "prague", duration=2.5, rlc_mode="um")
        assert result.total_goodput_mbps() > 1.0
        assert result.median_owd_ms() < 200

    def test_short_rlc_queue_limits_delay_even_without_l4span(self):
        deep = _run("none", "cubic", duration=3.0, num_ues=2)
        shallow = _run("none", "cubic", duration=3.0, num_ues=2,
                       rlc_queue_sdus=256)
        assert shallow.median_owd_ms() < deep.median_owd_ms()

    def test_mobile_channel_profile_runs(self):
        result = _run("l4span", "prague", duration=2.5, num_ues=2,
                      channel_profile="mobile")
        assert result.total_goodput_mbps() > 0.5


class TestShortFlows:
    def test_short_flow_completes_and_l4span_speeds_it_up(self):
        flows = short_long_mix("prague", slf_start=2.0)
        baseline = run_scenario(ScenarioSpec(
            num_ues=1, duration_s=5.0, marker="none", flows=flows, seed=3))
        l4span = run_scenario(ScenarioSpec(
            num_ues=1, duration_s=5.0, marker="l4span", flows=flows, seed=3))
        slf_base = baseline.flows_by_label("slf")[0]
        slf_l4s = l4span.flows_by_label("slf")[0]
        assert slf_l4s.completion_time is not None
        if slf_base.completion_time is not None:
            assert slf_l4s.completion_time <= slf_base.completion_time * 1.05


class TestShortCircuit:
    def test_shortcircuit_reduces_feedback_delay(self):
        common = dict(num_ues=1, duration_s=4.0, cc_name="prague",
                      marker="l4span", wan_rtt=ms(10), seed=3)
        with_sc = run_scenario(ScenarioSpec(
            l4span_config=L4SpanConfig(enable_shortcircuit=True), **common))
        without_sc = run_scenario(ScenarioSpec(
            l4span_config=L4SpanConfig(enable_shortcircuit=False), **common))
        assert with_sc.marker_summary["shortcircuited_acks"] > 0
        assert without_sc.marker_summary["shortcircuited_acks"] == 0
        # Both configurations keep the queue controlled.
        assert with_sc.median_owd_ms() < 100
        assert without_sc.median_owd_ms() < 150


class TestInteractiveVideo:
    def test_scream_over_udp_is_marked_on_the_downlink(self):
        flows = [FlowSpec(flow_id=0, ue_id=0, cc_name="scream", label="video")]
        result = run_scenario(ScenarioSpec(
            num_ues=1, duration_s=4.0, marker="l4span", flows=flows,
            wan_rtt=ms(20), seed=3))
        video = result.flows[0]
        assert video.goodput_mbps > 0.2
        assert result.marker_summary["shortcircuited_acks"] == 0


class TestWiredReference:
    def test_wired_dualpi2_gives_low_rtt_and_high_throughput(self):
        result = run_wired_scenario(WiredScenarioConfig(
            cc_names=["prague", "cubic"], bottleneck_mbps=40, rtt=ms(20),
            duration_s=4.0))
        prague = result.flow("prague")
        assert prague.goodput_mbps > 10
        median_rtt = sorted(prague.rtt_samples)[len(prague.rtt_samples) // 2]
        assert median_rtt < 0.06


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = _run("l4span", "prague", duration=2.0)
        b = _run("l4span", "prague", duration=2.0)
        assert a.median_owd_ms() == b.median_owd_ms()
        assert a.total_goodput_mbps() == b.total_goodput_mbps()

    def test_different_seeds_differ(self):
        a = run_scenario(ScenarioSpec(num_ues=1, duration_s=2.0,
                                        cc_name="prague", marker="l4span",
                                        channel_profile="mobile", seed=1))
        b = run_scenario(ScenarioSpec(num_ues=1, duration_s=2.0,
                                        cc_name="prague", marker="l4span",
                                        channel_profile="mobile", seed=2))
        assert a.median_owd_ms() != b.median_owd_ms()
