"""Every figure of the paper's table at a tier-1 scale, each run checked
against the paper's qualitative claim for its figure or table."""

from __future__ import annotations

import math

import pytest

from repro.core.shared_drb import SHARED_DRB_STRATEGIES
from repro.experiments.comparisons import (improvement_table, overhead_summary,
                                           throughput_improvement)
from repro.experiments.figures import jain_index, run_figure
from repro.experiments.scenario import build_scenario
from repro.experiments.spec import ScenarioSpec

pytestmark = pytest.mark.filterwarnings("ignore")


def test_fig2_motivation_shapes():
    rows = run_figure("fig2", duration_s=4.0, bottleneck_shift=False)
    panels = {row["panel"] for row in rows}
    assert panels == {"wired+dualpi2", "5g", "5g+l4span"}
    plain = next(r for r in rows if r["panel"] == "5g" and r["cc"] == "prague")
    spanned = next(r for r in rows
                   if r["panel"] == "5g+l4span" and r["cc"] == "prague")
    assert spanned["rtt_ms"] < plain["rtt_ms"]


def test_fig9_sweep_and_improvement_table():
    sweep = run_figure("fig9", cc_names=("prague",), ue_counts=(2,),
                       duration_s=3.0)
    assert len(sweep) == 4
    rows = improvement_table(sweep)
    assert [row["channel"] for row in rows] == ["static", "mobile"]
    # Prague's one-way delay drops by more than half under L4Span, on the
    # static and on the mobile channel.
    assert all(row["owd_reduction_pct"] > 50 for row in rows)


def test_fig24_reno_owd_reduction():
    sweep = run_figure("fig24", channels=("static",), duration_s=3.0)
    rows = improvement_table(sweep)
    assert {row["cc"] for row in rows} == {"bbr", "reno"}
    # Reno's one-way delay drops by more than half under L4Span (Fig. 24);
    # at 2 UEs it does not -- see the strict xfail below.
    reno = next(row for row in rows if row["cc"] == "reno")
    assert reno["owd_reduction_pct"] > 50


@pytest.mark.xfail(strict=True, reason=(
    "Eq. 2 takes rtt = initial_rtt + predicted_sojourn, so a classic bearer "
    "holding a deep slow-start queue gets p ~ 5e-6 and is never marked"))
def test_fig24_two_ue_reno_marks_every_flow():
    """The Fig. 24 cell at 2 UEs: UE 1's Reno flow gets no mark at all.

    Its bearer overshoots in slow start (0.26 s sojourn at 3.0 MB/s), and
    the classic probability falls as the standing queue it should drain
    grows, so the run's median OWD is higher with L4Span than without.
    """
    built = build_scenario(ScenarioSpec(
        num_ues=2, cc_name="reno", marker="l4span", channel_profile="static",
        duration_s=4.0, seed=11))
    built.run()
    marks = built.flow_mark_counts()
    assert all(marks.get(spec.flow_id, (0, 0))[0] > 0
               for spec in built.flow_specs)


def test_fig10_breakdown_rows():
    rows = run_figure("fig10", ue_counts=(2,), duration_s=2.5)
    assert len(rows) == 4
    for row in rows:
        assert row["total_ms"] > 0
        assert row["queuing_ms"] >= 0
    for scheduler in ("rr", "pf"):
        with_l4span = next(r for r in rows
                           if r["scheduler"] == scheduler and r["l4span"])
        without = next(r for r in rows
                       if r["scheduler"] == scheduler and not r["l4span"])
        # Queuing dominates the plain RAN; L4Span removes most of it.
        assert with_l4span["queuing_ms"] < without["queuing_ms"]


def test_fig11_short_flow_rows():
    rows = run_figure("fig11", cc_names=("prague", "cubic"), duration_s=5.0,
                      slf_start=2.5)
    assert len(rows) == 4
    for cc in ("prague", "cubic"):
        with_l4span = next(r for r in rows if r["cc"] == cc and r["l4span"])
        without = next(r for r in rows if r["cc"] == cc and not r["l4span"])
        # The short flow finishes no later behind an L4Span-managed long flow.
        assert with_l4span["slf_finish_time_ms"] is not None
        assert without["slf_finish_time_ms"] is not None
        assert (with_l4span["slf_finish_time_ms"]
                <= without["slf_finish_time_ms"] * 1.2)


def test_fig12_tcran_comparison():
    rows = run_figure("fig12", cc_names=("prague",), channels=("static",),
                      duration_s=3.0)
    assert len(rows) == 2
    improvements = throughput_improvement(rows)
    assert len(improvements) == 1
    # Both in-RAN markers keep the one-way delay far below the unmanaged
    # multi-second bloat.
    assert all(row["owd_median_ms"] < 1000 for row in rows)


def test_fig13_interactive_rows():
    rows = run_figure("fig13", channels=("static",), num_ues=2, duration_s=3.0)
    assert len(rows) == 4
    assert {row["cc"] for row in rows} == {"scream", "udp_prague"}
    assert all(row["per_ue_tput_mbps"] > 0 for row in rows)


def test_fig14_fairness_panels():
    panels = run_figure("fig14", duration_s=5.0, stagger_s=1.0)
    assert len(panels) == 4
    for panel in panels:
        assert 0.0 <= panel["fairness_index"] <= 1.0
    same_rtt = next(p for p in panels if "equal RTT" in p["panel"])
    assert same_rtt["fairness_index"] > 0.6
    assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)


def test_fig15_shortcircuit_rows():
    rows = run_figure("fig15", cc_names=("prague",), duration_s=3.0)
    assert len(rows) == 2
    with_sc = next(r for r in rows if r["shortcircuit"])
    without_sc = next(r for r in rows if not r["shortcircuit"])
    assert with_sc["shortcircuited_acks"] > 0
    assert without_sc["shortcircuited_acks"] == 0
    # Short-circuiting must not cost throughput (paper Fig. 15b).
    assert with_sc["throughput_mbps"] > 0.5 * without_sc["throughput_mbps"]


def test_fig16_shared_drb_coupled_strategy():
    rows = run_figure("fig16", duration_s=4.0)
    assert [row["strategy"] for row in rows] == list(SHARED_DRB_STRATEGIES)
    row = next(r for r in rows if r["strategy"] == "l4span")
    # The coupled strategy keeps both flows alive on the shared bearer.
    assert 0.0 <= row["l4s_throughput_share"] <= 1.0
    assert row["l4s_tput_mbps"] > 0
    assert row["classic_tput_mbps"] > 0


def test_fig17_queue_cdf_rows():
    rows = run_figure("fig17", cc_names=("prague",), channels=("static",),
                      num_ues=2, duration_s=3.0)
    assert len(rows) == 1
    assert rows[0]["queue_summary"]["count"] > 0
    # L4S queues stay small under L4Span (low occupancy, ultra-low delay).
    assert rows[0]["queue_summary"]["p90"] < 200


def test_fig18_coherence_validates_window_choice():
    rows = run_figure("fig18", duration_s=20.0)
    assert len(rows) == 2
    for row in rows:
        assert row["num_periods"] > 10
        assert row["fraction_above_window"] > 0.9


def test_fig19_threshold_sweep_shape():
    rows = run_figure("fig19", thresholds_ms=(1.0, 10.0, 100.0), duration_s=3.0)
    assert len(rows) == 3
    by_threshold = {row["threshold_ms"]: row for row in rows}
    # A tiny threshold sacrifices throughput; a huge one sacrifices latency.
    assert by_threshold[100.0]["rate_sum_mbps"] >= \
        by_threshold[1.0]["rate_sum_mbps"] * 0.9
    assert by_threshold[1.0]["rtt_mean_ms"] <= \
        by_threshold[100.0]["rtt_mean_ms"]
    # Throughput does not keep improving past the paper's 10 ms choice.
    assert by_threshold[100.0]["rate_sum_mbps"] <= \
        by_threshold[10.0]["rate_sum_mbps"] * 1.35


def test_fig20_rate_error_rows():
    rows = run_figure("fig20", num_ues=2, duration_s=3.0)
    assert len(rows) == 3
    # Errors centre near zero across channel conditions ("most of the time
    # the errors are near 0%").
    for row in rows:
        assert row["error_summary"]["count"] > 0
        assert abs(row["error_summary"]["median"]) < 40.0


def test_fig21_processing_rows():
    rows = run_figure("fig21", num_ues=2, duration_s=2.0)
    events = {row["event"] for row in rows}
    assert events == {"downlink", "uplink", "feedback"}
    # Every handler type was exercised and completes in bounded time.
    for row in rows:
        assert row["count"] > 0
        assert 0 < row["median_us"] < 10_000


def test_table1_overhead_rows():
    rows = run_figure("table1", busy_ues=2, duration_s=1.5)
    assert len(rows) == 4
    summary = overhead_summary(rows)
    assert {row["state"] for row in summary} == {"idle", "busy"}
    busy = next(row for row in summary if row["state"] == "busy")
    # L4Span's own handlers are a small share of the total work, mirroring
    # the paper's <2% CPU overhead on srsRAN.
    assert busy["handler_share_pct"] < 50.0


def test_marking_strategy_ablation_rows():
    rows = run_figure("ablation-marking", duration_s=3.0, channel="static")
    markers = {row["marker"] for row in rows}
    assert "l4span" in markers and "ran_dualpi2" in markers
    l4span_row = next(r for r in rows if r["marker"] == "l4span")
    none_row = next(r for r in rows if r["marker"] == "none")
    assert l4span_row["owd_median_ms"] < none_row["owd_median_ms"]
    # The hard 1 ms threshold leaves throughput on the table compared with
    # L4Span's error-aware marking (paper: 73% lower throughput).
    dualpi2_row = next(r for r in rows if r["marker"] == "ran_dualpi2")
    assert l4span_row["throughput_mbps"] >= \
        0.9 * dualpi2_row["throughput_mbps"]


def test_window_sweep_rows():
    rows = run_figure("ablation-window", duration_s=2.5, channel="static",
                      windows_ms=(6.0, 12.45))
    assert len(rows) == 2
    assert all(not math.isnan(row["owd_median_ms"]) for row in rows)
