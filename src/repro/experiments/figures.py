"""The paper's figures and tables as one table of sweep grids.

Every entry of :data:`FIGURES` is one ``repro experiment`` name: the paper's
claim it reproduces, a default grid, ``cells(grid)`` expanding the grid into
picklable cells (scenario-spec dicts, or ``(label, spec dict)`` tuples) and a
module-level ``run_cell`` turning one cell into rows.  :func:`run_figure` runs
any entry through :class:`~repro.experiments.runner.SweepRunner`, so every
figure accepts ``workers`` and a parallel run returns the rows of a
sequential one.

The default grids are scaled down from the paper's (16 and 64 UEs, 20+ second
runs) so a pure-Python run takes minutes, while preserving the comparisons
(who wins, by how much).  A grid key exists only where a caller sets it;
seeds and every other setting are constants of their entry.  The comparisons
the claims are stated in (OWD reduction, overhead, ...) are computed from the
rows by :mod:`repro.experiments.comparisons`.
"""

from __future__ import annotations

import itertools
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from repro.channel.coherence import fraction_longer_than, stable_periods
from repro.channel.fading import FadingChannel
from repro.core.config import L4SpanConfig
from repro.core.shared_drb import SHARED_DRB_STRATEGIES, ForcedStrategyLayer
from repro.experiments.runner import SweepRunner
from repro.experiments.scenario import build_scenario, run_scenario
from repro.experiments.spec import ScenarioSpec
from repro.experiments.wired import WiredScenarioConfig, run_wired_scenario
from repro.metrics.stats import box_stats, cdf_points, percentile, summarize
from repro.units import ms
from repro.workloads.flows import FlowSpec
from repro.workloads.short_flows import DEFAULT_SLF_BYTES, short_long_mix
from repro.workloads.video import interactive_video_flows

#: The ±L4Span pair most grids compare.
_MARKERS = ("none", "l4span")


@dataclass(frozen=True)
class Figure:
    """One figure or table of the paper: its claim, grid, cells and runner."""

    claim: str
    grid: dict
    cells: Callable[[dict], list]
    run_cell: Callable[[object], list[dict]]


def _run_spec(cell: dict):
    """Run one spec-dict cell; returns ``(spec, result)``."""
    spec = ScenarioSpec.from_dict(cell)
    return spec, run_scenario(spec)


def _median(samples) -> float:
    return summarize(samples).get("median", float("nan"))


def _owd_and_throughput(result) -> dict:
    return {"owd_median_ms": box_stats(result.all_owd_samples()).median * 1e3,
            "throughput_mbps": result.total_goodput_mbps()}


# --------------------------------------------------------------------------- #
# Fig. 2 -- motivation
# --------------------------------------------------------------------------- #
def _motivation_cells(grid: dict) -> list:
    duration = grid["duration_s"]
    wired = {"cc_names": ["prague", "cubic"], "bottleneck_mbps": 40.0,
             "rtt": 0.02, "duration_s": min(duration, 6.0), "seed": 7}
    schedule = []
    if grid["bottleneck_shift"]:
        # The wired middlebox drops below the RAN capacity for the middle
        # third of the run.
        schedule = [(duration * (1.0 / 3.0), 15.0), (duration * (2.0 / 3.0), 200.0)]
    flows = [FlowSpec(flow_id=0, ue_id=0, cc_name="prague", label="prague"),
             FlowSpec(flow_id=1, ue_id=0, cc_name="cubic", label="cubic")]
    return [("wired+dualpi2", wired)] + [
        (panel, ScenarioSpec(
            num_ues=1, duration_s=duration, marker=marker, wan_rtt=ms(38),
            seed=7, flows=flows, wired_bottleneck_mbps=200.0,
            wired_bottleneck_schedule=schedule).to_dict())
        for panel, marker in (("5g", "none"), ("5g+l4span", "l4span"))]


def _motivation_cell(cell: tuple) -> list[dict]:
    panel, spec = cell
    if panel == "wired+dualpi2":
        flows, queue = run_wired_scenario(WiredScenarioConfig(**spec)).flows, {}
    else:
        _, result = _run_spec(spec)
        samples = result.queue_length_samples
        flows = result.flows
        queue = {"mean_queue_sdus": sum(samples) / len(samples) if samples else 0.0}
    return [{"panel": panel, "cc": flow.cc_name,
             "rtt_ms": _median(flow.rtt_samples) * 1e3,
             "throughput_mbps": flow.goodput_mbps, **queue} for flow in flows]


# --------------------------------------------------------------------------- #
# Figs. 9 and 24 -- the TCP sweep
# --------------------------------------------------------------------------- #
def _tcp_sweep_cells(cc_names: Iterable[str], channels: Iterable[str],
                     ue_counts: Iterable[int], duration_s: float) -> list:
    return [ScenarioSpec(num_ues=ues, duration_s=duration_s, cc_name=cc,
                         marker=marker, channel_profile=channel, seed=11).to_dict()
            for cc, channel, ues, marker in itertools.product(
                cc_names, channels, ue_counts, _MARKERS)]


def _tcp_sweep_cell(cell: dict) -> list[dict]:
    spec, result = _run_spec(cell)
    owd = box_stats(result.all_owd_samples())
    return [{"cc": spec.cc_name, "channel": spec.channel_profile,
             "ues": spec.num_ues, "rlc_queue": spec.rlc_queue_sdus,
             "wan_rtt_ms": spec.wan_rtt * 1e3, "l4span": spec.marker == "l4span",
             "owd_median_ms": owd.median * 1e3, "owd_p90_ms": owd.p90 * 1e3,
             "per_ue_tput_median_mbps": box_stats(
                 [f.goodput_mbps for f in result.flows]).median,
             "total_goodput_mbps": result.total_goodput_mbps()}]


# --------------------------------------------------------------------------- #
# Fig. 10 -- one-way delay breakdown
# --------------------------------------------------------------------------- #
def _breakdown_cells(grid: dict) -> list:
    return [ScenarioSpec(num_ues=ues, duration_s=grid["duration_s"], cc_name="prague",
                         marker=marker, scheduler=scheduler, seed=5).to_dict()
            for scheduler, ues, marker in itertools.product(
                ("rr", "pf"), grid["ue_counts"], _MARKERS)]


def _breakdown_cell(cell: dict) -> list[dict]:
    spec, result = _run_spec(cell)
    breakdown = result.delay_breakdown
    return [{"scheduler": spec.scheduler, "ues": spec.num_ues,
             "l4span": spec.marker == "l4span",
             "propagation_ms": breakdown.get("propagation", 0.0) * 1e3,
             "queuing_ms": breakdown.get("queuing", 0.0) * 1e3,
             "scheduling_ms": breakdown.get("scheduling", 0.0) * 1e3,
             "other_ms": breakdown.get("other", 0.0) * 1e3,
             "total_ms": sum(breakdown.values()) * 1e3}]


# --------------------------------------------------------------------------- #
# Fig. 11 -- short flows behind a long flow
# --------------------------------------------------------------------------- #
def _short_flow_cells(grid: dict) -> list:
    return [ScenarioSpec(num_ues=1, duration_s=grid["duration_s"], cc_name=cc,
                         marker=marker, seed=21,
                         flows=short_long_mix(cc, slf_start=grid["slf_start"],
                                              slf_bytes=DEFAULT_SLF_BYTES)).to_dict()
            for cc, marker in itertools.product(grid["cc_names"], _MARKERS)]


def _short_flow_cell(cell: dict) -> list[dict]:
    spec, result = _run_spec(cell)
    slf_start = next(f.start_time for f in spec.flows if f.label == "slf")
    slf = result.flows_by_label("slf")[0]
    finish = None
    if slf.completion_time is not None:
        finish = (slf.completion_time - slf_start) * 1e3
    return [{"cc": spec.cc_name, "l4span": spec.marker == "l4span",
             "slf_finish_time_ms": finish,
             "llf_rate_mbps": result.flows_by_label("llf")[0].goodput_mbps}]


# --------------------------------------------------------------------------- #
# Fig. 12 -- L4Span versus TC-RAN
# --------------------------------------------------------------------------- #
def _tcran_cells(grid: dict) -> list:
    return [ScenarioSpec(num_ues=1, duration_s=grid["duration_s"], cc_name=cc,
                         marker=marker, channel_profile=channel, wan_rtt=ms(38),
                         seed=13).to_dict()
            for cc, channel, marker in itertools.product(
                grid["cc_names"], grid["channels"], ("l4span", "tcran"))]


def _tcran_cell(cell: dict) -> list[dict]:
    spec, result = _run_spec(cell)
    return [{"cc": spec.cc_name, "channel": spec.channel_profile,
             "wan_rtt_ms": spec.wan_rtt * 1e3, "marker": spec.marker,
             **_owd_and_throughput(result)}]


# --------------------------------------------------------------------------- #
# Fig. 13 -- interactive video
# --------------------------------------------------------------------------- #
def _interactive_cells(grid: dict) -> list:
    num_ues = grid["num_ues"]
    return [ScenarioSpec(num_ues=num_ues, duration_s=grid["duration_s"], cc_name=cc,
                         marker=marker, channel_profile=channel, wan_rtt=0.02,
                         flows=interactive_video_flows(num_ues, cc_name=cc),
                         seed=17).to_dict()
            for cc, channel, marker in itertools.product(
                ("scream", "udp_prague"), grid["channels"], _MARKERS)]


def _interactive_cell(cell: dict) -> list[dict]:
    spec, result = _run_spec(cell)
    rtt = box_stats(result.all_rtt_samples())
    return [{"cc": spec.cc_name, "channel": spec.channel_profile,
             "l4span": spec.marker == "l4span",
             "rtt_median_ms": rtt.median * 1e3, "rtt_p90_ms": rtt.p90 * 1e3,
             "per_ue_tput_mbps": box_stats(
                 [f.goodput_mbps for f in result.flows]).median}]


# --------------------------------------------------------------------------- #
# Fig. 14 -- fairness
# --------------------------------------------------------------------------- #
def jain_index(values: list[float]) -> float:
    """Jain's fairness index of a set of throughputs (1 = perfectly fair)."""
    values = [v for v in values if v >= 0]
    if not values or sum(values) == 0:
        return 0.0
    return (sum(values) ** 2) / (len(values) * sum(v * v for v in values))


def _fairness_cells(grid: dict) -> list:
    duration, stagger = grid["duration_s"], grid["stagger_s"]
    panels = [("3x prague (equal RTT)", ["prague", "prague", "prague"], None),
              ("3x prague (distinct RTT)", ["prague", "prague", "prague"],
               [ms(18), ms(38), ms(78)]),
              ("2x prague + cubic", ["prague", "cubic", "prague"], None),
              ("2x prague + bbr2", ["prague", "bbr2", "prague"], None)]
    return [(name, ScenarioSpec(
                num_ues=len(cc_names), duration_s=duration, marker="l4span",
                seed=23, wan_rtt=ms(38),
                flows=[FlowSpec(flow_id=i, ue_id=i, cc_name=cc,
                                start_time=i * stagger,
                                stop_time=duration - i * stagger * 0.5,
                                label=f"{cc}-{i}",
                                wan_rtt=rtts[i] if rtts is not None else None)
                       for i, cc in enumerate(cc_names)]).to_dict())
            for name, cc_names, rtts in panels]


def _fairness_cell(cell: tuple) -> list[dict]:
    panel, spec_dict = cell
    spec, result = _run_spec(spec_dict)
    # Mean throughput over the interval in which every flow is active.
    start = max(f.start_time for f in spec.flows)
    end = min(f.stop_time or spec.duration_s for f in spec.flows)
    throughputs = []
    for flow in result.flows:
        overlap = [v for t, v in flow.throughput_series.points() if start <= t <= end]
        throughputs.append(sum(overlap) / len(overlap) * 8 / 1e6 if overlap else 0.0)
    return [{"panel": panel, "fairness_index": jain_index(throughputs),
             "mean_throughputs_mbps": throughputs}]


# --------------------------------------------------------------------------- #
# Fig. 15 -- feedback short-circuiting
# --------------------------------------------------------------------------- #
def _shortcircuit_cells(grid: dict) -> list:
    return [ScenarioSpec(num_ues=1, duration_s=grid["duration_s"], cc_name=cc,
                         marker="l4span", wan_rtt=ms(10),   # a "local server"
                         l4span_config=L4SpanConfig(enable_shortcircuit=shortcircuit),
                         seed=29).to_dict()
            for cc, shortcircuit in itertools.product(grid["cc_names"], (True, False))]


def _shortcircuit_cell(cell: dict) -> list[dict]:
    spec, result = _run_spec(cell)
    rtts = result.all_rtt_samples()
    return [{"cc": spec.cc_name,
             "shortcircuit": spec.l4span_config.enable_shortcircuit,
             "rtt_mean_ms": (sum(rtts) / len(rtts) * 1e3) if rtts else None,
             "rtt_p999_ms": percentile(rtts, 99.9) * 1e3 if rtts else None,
             "rtt_cdf": cdf_points(rtts, max_points=50),
             "throughput_mbps": result.total_goodput_mbps(),
             "shortcircuited_acks": result.marker_summary.get("shortcircuited_acks", 0)}]


# --------------------------------------------------------------------------- #
# Fig. 16 -- L4S and classic flows sharing one DRB
# --------------------------------------------------------------------------- #
def _shared_drb_cells(grid: dict) -> list:
    spec = ScenarioSpec(
        num_ues=1, duration_s=grid["duration_s"], marker="l4span",
        separate_drbs=False, seed=31,
        flows=[FlowSpec(flow_id=0, ue_id=0, cc_name="prague", label="l4s"),
               FlowSpec(flow_id=1, ue_id=0, cc_name="cubic", label="classic")])
    return [(strategy, spec.to_dict()) for strategy in SHARED_DRB_STRATEGIES]


def _shared_drb_cell(cell: tuple) -> list[dict]:
    strategy, spec_dict = cell
    spec = ScenarioSpec.from_dict(spec_dict)
    built = build_scenario(spec)
    built.marker = ForcedStrategyLayer(built.sim, config=spec.l4span_config,
                                       strategy=strategy)
    built.gnb.set_marker(built.marker)
    result = built.run()
    l4s = result.flows_by_label("l4s")[0]
    classic = result.flows_by_label("classic")[0]
    l4s_rtt, classic_rtt = _median(l4s.rtt_samples), _median(classic.rtt_samples)
    total_tput = l4s.goodput_mbps + classic.goodput_mbps
    total_rtt = l4s_rtt + classic_rtt
    return [{"strategy": strategy,
             "l4s_throughput_share": (l4s.goodput_mbps / total_tput
                                      if total_tput > 0 else float("nan")),
             "l4s_rtt_share": l4s_rtt / total_rtt if total_rtt > 0 else float("nan"),
             "l4s_tput_mbps": l4s.goodput_mbps,
             "classic_tput_mbps": classic.goodput_mbps}]


# --------------------------------------------------------------------------- #
# Fig. 17 -- RLC queue length CDFs
# --------------------------------------------------------------------------- #
def _queue_cdf_cells(grid: dict) -> list:
    return [ScenarioSpec(num_ues=grid["num_ues"], duration_s=grid["duration_s"],
                         cc_name=cc, marker="l4span", channel_profile=channel,
                         seed=37).to_dict()
            for cc, channel in itertools.product(grid["cc_names"], grid["channels"])]


def _queue_cdf_cell(cell: dict) -> list[dict]:
    spec, result = _run_spec(cell)
    samples = result.queue_length_samples
    return [{"cc": spec.cc_name, "channel": spec.channel_profile,
             "queue_summary": summarize(samples),
             "queue_cdf": cdf_points([float(s) for s in samples], max_points=50),
             "fraction_zero": (sum(1 for s in samples if s == 0) / len(samples)
                               if samples else float("nan"))}]


# --------------------------------------------------------------------------- #
# Fig. 18 -- channel-stable periods versus the estimation window
# --------------------------------------------------------------------------- #
def _coherence_cells(grid: dict) -> list:
    duration = grid["duration_s"]
    return [
        # 600 MHz FDD: long coherence time (low carrier, mostly stationary UEs).
        ("fdd_600mhz", {"mean_snr_db": 18.0, "std_snr_db": 1.5, "speed_kmh": 1.5,
                        "carrier_ghz": 0.6, "seed": 41, "duration_s": duration}),
        # 2.5 GHz TDD: shorter coherence time (higher carrier, walking UEs).
        ("tdd_2.5ghz", {"mean_snr_db": 16.0, "std_snr_db": 2.0, "speed_kmh": 4.0,
                        "carrier_ghz": 2.5, "seed": 42, "duration_s": duration}),
    ]


def _coherence_cell(cell: tuple) -> list[dict]:
    name, params = cell
    params = dict(params)
    seed, duration = params.pop("seed"), params.pop("duration_s")
    channel = FadingChannel(rng=np.random.default_rng(seed), **params)
    trace = channel.mcs_trace(duration, 0.002)
    periods = stable_periods(trace, max_deviation=5, max_period=1.0)
    return [{"cell": name, "coherence_time_ms": channel.coherence_time * 1e3,
             "num_periods": len(periods),
             # 12.45 ms: the estimation window, half the 24.9 ms coherence time.
             "fraction_above_window": fraction_longer_than(periods, 0.01245),
             "period_cdf": cdf_points(periods, max_points=50)}]


# --------------------------------------------------------------------------- #
# Fig. 19 -- the sojourn-time threshold
# --------------------------------------------------------------------------- #
def _threshold_cells(grid: dict) -> list:
    return [(threshold_ms, ScenarioSpec(
                num_ues=1, duration_s=grid["duration_s"], cc_name="prague",
                marker="l4span",
                l4span_config=L4SpanConfig(sojourn_threshold=ms(threshold_ms)),
                seed=43).to_dict())
            for threshold_ms in grid["thresholds_ms"]]


def _threshold_cell(cell: tuple) -> list[dict]:
    threshold_ms, spec_dict = cell
    spec, result = _run_spec(spec_dict)
    return [{"threshold_ms": threshold_ms, "ues": spec.num_ues,
             "rtt_mean_ms": box_stats(result.all_rtt_samples()).mean * 1e3,
             "rate_sum_mbps": result.total_goodput_mbps()}]


# --------------------------------------------------------------------------- #
# Fig. 20 -- egress-rate estimation error
# --------------------------------------------------------------------------- #
def _rate_error_cells(grid: dict) -> list:
    return [ScenarioSpec(num_ues=grid["num_ues"], duration_s=grid["duration_s"],
                         cc_name="prague", marker="l4span", channel_profile=channel,
                         rate_probe=True, seed=47).to_dict()
            for channel in ("static", "pedestrian", "vehicular")]


def _rate_error_cell(cell: dict) -> list[dict]:
    spec, result = _run_spec(cell)
    errors = result.rate_estimation_errors
    return [{"channel": spec.channel_profile, "error_summary": summarize(errors),
             "median_abs_error_pct": (percentile([abs(e) for e in errors], 50)
                                      if errors else float("nan")),
             "error_cdf": cdf_points(errors, max_points=50)}]


# --------------------------------------------------------------------------- #
# Fig. 21 -- per-event processing time
# --------------------------------------------------------------------------- #
def _processing_cells(grid: dict) -> list:
    return [ScenarioSpec(num_ues=grid["num_ues"], duration_s=grid["duration_s"],
                         cc_name="prague", marker="l4span",
                         l4span_config=L4SpanConfig(measure_processing=True),
                         seed=53).to_dict()]


def _processing_cell(cell: dict) -> list[dict]:
    built = build_scenario(ScenarioSpec.from_dict(cell))
    built.run()
    rows = []
    for event_type, samples in built.marker.processing_times.items():
        micros = [s * 1e6 for s in samples]
        rows.append({
            "event": event_type, "count": len(micros),
            "median_us": percentile(micros, 50) if micros else float("nan"),
            "p97_us": percentile(micros, 97) if micros else float("nan"),
            "summary": summarize(micros),
            "cdf": cdf_points(micros, max_points=50),
        })
    return rows


# --------------------------------------------------------------------------- #
# Table 1 -- CPU and memory overhead
# --------------------------------------------------------------------------- #
def _overhead_cells(grid: dict) -> list:
    return [(state, ScenarioSpec(
                num_ues=num_ues, duration_s=grid["duration_s"], cc_name="prague",
                marker=marker, l4span_config=L4SpanConfig(measure_processing=True),
                seed=59).to_dict())
            for state, num_ues in (("idle", 1), ("busy", grid["busy_ues"]))
            for marker in _MARKERS]


def _overhead_cell(cell: tuple) -> list[dict]:
    # Each cell measures its own wall clock and peak memory in its worker
    # process; concurrent cells can contend (SMT siblings, caches), so run
    # with workers=1 when the absolute numbers matter.
    state, spec_dict = cell
    spec = ScenarioSpec.from_dict(spec_dict)
    tracemalloc.start()
    built = build_scenario(spec)
    start = time.perf_counter()
    result = built.run()
    wall = time.perf_counter() - start
    _, peak_memory = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    handler_time = 0.0
    if hasattr(built.marker, "processing_times"):
        handler_time = sum(sum(v) for v in built.marker.processing_times.values())
    return [{"marker": spec.marker, "ues": spec.num_ues, "wall_seconds": wall,
             "events": result.events_processed,
             "peak_memory_mb": peak_memory / 1e6,
             "handler_seconds": handler_time,
             "handler_share_pct": 100.0 * handler_time / wall if wall > 0 else 0.0,
             "state": state}]


# --------------------------------------------------------------------------- #
# Ablations -- marking strategy and estimation window
# --------------------------------------------------------------------------- #
def _ablation_spec(grid: dict, **overrides) -> dict:
    return ScenarioSpec(num_ues=1, duration_s=grid["duration_s"], cc_name="prague",
                        channel_profile=grid["channel"], seed=61,
                        **overrides).to_dict()


def _marking_cell(cell: dict) -> list[dict]:
    spec, result = _run_spec(cell)
    return [{"marker": spec.marker, **_owd_and_throughput(result)}]


def _window_cells(grid: dict) -> list:
    return [(window_ms, _ablation_spec(
                grid, marker="l4span",
                l4span_config=L4SpanConfig(coherence_time=ms(2 * window_ms))))
            for window_ms in grid["windows_ms"]]


def _window_cell(cell: tuple) -> list[dict]:
    window_ms, spec_dict = cell
    _, result = _run_spec(spec_dict)
    return [{"window_ms": window_ms, **_owd_and_throughput(result)}]


# --------------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------------- #
FIGURES: dict[str, Figure] = {
    "fig2": Figure(
        claim=("Motivation: CUBIC and Prague in wired, plain-5G and 5G+L4Span.  For "
               "each of the three network configurations, the RTT / throughput (and, "
               "for the 5G cases, RLC queue) behaviour of a Prague flow and a CUBIC "
               "flow.  The 5G runs include the paper's bottleneck shift: a wired "
               "middlebox is throttled below the RAN capacity for the middle third "
               "of the run and restored afterwards."),
        grid={"duration_s": 8.0, "bottleneck_shift": True},
        cells=_motivation_cells, run_cell=_motivation_cell),
    "fig9": Figure(
        claim=("The main TCP sweep.  For every combination of congestion-control "
               "algorithm, channel condition (static / mobile), UE count, RLC queue "
               "length, WAN RTT and L4Span on/off, a concurrent-download scenario "
               "reports the per-UE one-way delay and throughput box statistics -- "
               "the quantities plotted in the paper's Fig. 9 (Prague / BBRv2 / "
               "CUBIC)."),
        grid={"cc_names": ("prague", "bbr2", "cubic"), "ue_counts": (4,),
              "duration_s": 6.0},
        cells=lambda grid: _tcp_sweep_cells(grid["cc_names"], ("static", "mobile"),
                                            grid["ue_counts"], grid["duration_s"]),
        run_cell=_tcp_sweep_cell),
    "fig10": Figure(
        claim=("One-way delay breakdown under RR and PF scheduling.  For each "
               "(scheduler, UE count, ±L4Span) combination, concurrent Prague "
               "downloads report the average propagation / scheduling / queuing / "
               "other components of the one-way delay."),
        grid={"ue_counts": (4,), "duration_s": 5.0},
        cells=_breakdown_cells, run_cell=_breakdown_cell),
    "fig11": Figure(
        claim=("Short-lived flow completion time vs long-lived flow rate.  A 14 kB "
               "short flow starts while a long-lived flow of the same algorithm is "
               "saturating the UE's bearer; the metric is the short flow's finish "
               "time (and the long flow's retained throughput), with and without "
               "L4Span."),
        grid={"cc_names": ("prague", "bbr2", "cubic"), "duration_s": 8.0,
              "slf_start": 4.0},
        cells=_short_flow_cells, run_cell=_short_flow_cell),
    "fig12": Figure(
        claim=("L4Span versus the TC-RAN baseline.  One UE, a Prague or CUBIC flow, "
               "static or mobile channel, near (38 ms) or far (106 ms) server: "
               "compare one-way delay and throughput under L4Span and under TC-RAN "
               "(CoDel / ECN-CoDel between SDAP and PDCP with fixed thresholds).  "
               "The grid runs the near server."),
        grid={"cc_names": ("prague", "cubic"), "channels": ("static", "mobile"),
              "duration_s": 8.0},
        cells=_tcran_cells, run_cell=_tcran_cell),
    "fig13": Figure(
        claim=("Interactive video congestion control (SCReAM and UDP Prague).  "
               "Several UEs run concurrent interactive-video downlinks under static, "
               "pedestrian and vehicular channels; the metric is per-flow RTT and "
               "throughput with and without L4Span.  Both algorithms run over UDP, "
               "so L4Span uses downlink IP-ECN marking (no feedback "
               "short-circuiting), as in the paper."),
        grid={"channels": ("static", "pedestrian", "vehicular"), "num_ues": 4,
              "duration_s": 6.0},
        cells=_interactive_cells, run_cell=_interactive_cell),
    "fig14": Figure(
        claim=("Throughput fairness among flows under L4Span.  Three UEs with "
               "staggered start/stop times share the cell; the panels are (a) three "
               "Prague flows with the same RTT, (b) three Prague flows with distinct "
               "RTTs, (c) two Prague flows plus a CUBIC flow, (d) two Prague flows "
               "plus BBRv2.  The output is each flow's mean throughput plus Jain's "
               "fairness index over the interval when all flows are active."),
        grid={"duration_s": 9.0, "stagger_s": 1.5},
        cells=_fairness_cells, run_cell=_fairness_cell),
    "fig15": Figure(
        claim=("Effectiveness of feedback short-circuiting.  One UE, a local "
               "(low-RTT) server, Prague or CUBIC: compare the RTT and throughput "
               "CDFs with the short-circuiting rewrite enabled versus disabled (all "
               "other L4Span machinery unchanged)."),
        grid={"cc_names": ("prague", "cubic"), "duration_s": 8.0},
        cells=_shortcircuit_cells, run_cell=_shortcircuit_cell),
    "fig16": Figure(
        claim=("L4S and classic flows sharing one DRB.  A single UE without "
               "multi-DRB support carries one Prague and one CUBIC flow in the same "
               "bearer.  Four marking strategies are compared: the per-class "
               "\"Original\" strategies applied independently, marking both flows "
               "with the L4S strategy, marking both with the classic strategy, and "
               "L4Span's coupled strategy.  The metric is the L4S flow's share of "
               "throughput and of RTT (0.5 = perfectly balanced)."),
        grid={"duration_s": 8.0},
        cells=_shared_drb_cells, run_cell=_shared_drb_cell),
    "fig17": Figure(
        claim=("RLC queue length CDFs under L4Span.  Concurrent Prague or CUBIC "
               "downloads in static or mobile channels; the output is the CDF of "
               "sampled RLC queue lengths (in SDUs).  The paper's point is that the "
               "classic queue never drains to zero (no under-utilisation) while the "
               "L4S queue stays very small."),
        grid={"cc_names": ("prague", "cubic"), "channels": ("static", "mobile"),
              "num_ues": 4, "duration_s": 6.0},
        cells=_queue_cdf_cells, run_cell=_queue_cdf_cell),
    "fig18": Figure(
        claim=("Channel-stable-period CDF versus the estimation window.  The paper "
               "captures DCIs from two commercial cells (a 600 MHz FDD cell and a "
               "2.5 GHz TDD cell) with NR-Scope and measures how long the scheduled "
               "MCS stays within a deviation of 5.  Synthetic MCS traces from fading "
               "channels configured to mimic those two cells go through the "
               "identical stability analysis, checking that well over 90% of stable "
               "periods exceed the 12.45 ms estimation window."),
        grid={"duration_s": 30.0},
        cells=_coherence_cells, run_cell=_coherence_cell),
    "fig19": Figure(
        claim=("Impact of the sojourn-time threshold tau_s.  Sweep the marking "
               "threshold from 1 ms to 100 ms and report each configuration's RTT "
               "and summed rate; the paper selects 10 ms as the point where "
               "throughput has recovered while RTT is still low."),
        grid={"thresholds_ms": (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
              "duration_s": 6.0},
        cells=_threshold_cells, run_cell=_threshold_cell),
    "fig20": Figure(
        claim=("Egress-rate estimation error CDF.  Concurrent downloads under "
               "static, pedestrian and vehicular channels; the L4Span layer's "
               "smoothed egress-rate estimate is compared against the ground truth "
               "(the RLC's transmitted-byte counter differenced over the sampling "
               "interval), and the distribution of relative errors is reported."),
        grid={"num_ues": 4, "duration_s": 6.0},
        cells=_rate_error_cells, run_cell=_rate_error_cell),
    "fig21": Figure(
        claim=("L4Span per-event processing time.  Wall-clock instrumentation of "
               "the three L4Span handlers (downlink packet, uplink packet, RAN "
               "feedback) during a busy multi-UE run reports their processing-time "
               "distributions.  Absolute numbers are Python-level -- roughly 6-12 "
               "microseconds per call depending on the host -- where the paper's "
               "C++ prototype finishes in 1-4; the relevant comparison is the "
               "relative cost of the three event types and the per-packet "
               "constancy."),
        grid={"num_ues": 4, "duration_s": 4.0},
        cells=_processing_cells, run_cell=_processing_cell),
    "fig24": Figure(
        claim=("The appendix TCP sweep: the Fig. 9 grid with the paper's Fig. 24 "
               "algorithms (BBR / Reno), reporting the per-UE one-way delay and "
               "throughput box statistics."),
        grid={"channels": ("static", "mobile"), "duration_s": 6.0},
        cells=lambda grid: _tcp_sweep_cells(("bbr", "reno"), grid["channels"], (4,),
                                            grid["duration_s"]),
        run_cell=_tcp_sweep_cell),
    "table1": Figure(
        claim=("CPU and memory overhead of L4Span relative to the plain RAN.  The "
               "paper compares srsRAN's CPU/memory usage with and without L4Span in "
               "an idle cell and in a busy (64 concurrent downloads) cell, finding "
               "under 2% extra CPU and under 0.02% extra memory.  The analogue here "
               "is the wall-clock cost and event count of the same simulated "
               "scenario with the marker disabled versus enabled, plus the share of "
               "wall-clock time spent inside the L4Span handlers themselves."),
        grid={"busy_ues": 4, "duration_s": 3.0},
        cells=_overhead_cells, run_cell=_overhead_cell),
    "ablation-marking": Figure(
        claim=("Section 6.3.1: L4Span's error-aware marking versus "
               "DualPi2-in-the-RAN with a hard 1 ms or 10 ms sojourn threshold."),
        grid={"duration_s": 6.0, "channel": "mobile"},
        cells=lambda grid: [_ablation_spec(grid, marker=marker) for marker in (
            "l4span", "ran_dualpi2", "ran_dualpi2_10ms", "none")],
        run_cell=_marking_cell),
    "ablation-window": Figure(
        claim=("Sensitivity of the egress-rate estimation window (the paper fixes "
               "it at half the 24.9 ms coherence time)."),
        grid={"duration_s": 6.0, "channel": "mobile",
              "windows_ms": (3.0, 6.0, 12.45, 25.0, 50.0)},
        cells=_window_cells, run_cell=_window_cell),
}


def run_figure(name: str, *, workers: Optional[int] = 1,
               progress: Optional[Callable[[int, int], None]] = None,
               **grid) -> list[dict]:
    """Run figure ``name`` over its default grid updated by ``grid``; its rows.

    Raises ``KeyError`` for an unknown figure, ``ValueError`` for an unknown
    grid key.
    """
    figure = FIGURES[name]
    unknown = sorted(set(grid) - set(figure.grid))
    if unknown:
        raise ValueError(f"{name}: unknown grid key(s) {unknown}; "
                         f"valid keys: {sorted(figure.grid)}")
    cells = figure.cells({**figure.grid, **grid})
    results = SweepRunner(workers=workers, progress=progress).map(figure.run_cell, cells)
    return [row for rows in results for row in rows]
