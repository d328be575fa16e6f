"""Fig. 9 (and Fig. 24) -- the main TCP sweep.

For every combination of congestion-control algorithm, channel condition
(static / mobile), UE count, RLC queue length, WAN RTT and L4Span on/off, the
harness runs a concurrent-download scenario and reports the per-UE one-way
delay and throughput box statistics -- the quantities plotted in the paper's
Fig. 9 (Prague / BBRv2 / CUBIC) and Fig. 24 (BBR / Reno).

The full grid of the paper (16 and 64 UEs, 20+ second runs) is expensive in
a pure-Python simulator; ``SweepConfig`` therefore defaults to a scaled-down
grid that preserves the comparisons (who wins, by how much) and can be dialled
up through its fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.experiments.runner import SweepRunner
from repro.experiments.scenario import run_scenario
from repro.experiments.spec import ScenarioSpec
from repro.metrics.stats import BoxStats, box_stats
from repro.ran.identifiers import DEFAULT_RLC_QUEUE_SDUS
from repro.units import ms


@dataclass
class SweepConfig:
    """The sweep grid (scaled down by default)."""

    cc_names: tuple = ("prague", "bbr2", "cubic")
    channels: tuple = ("static", "mobile")
    ue_counts: tuple = (4,)
    rlc_queues: tuple = (DEFAULT_RLC_QUEUE_SDUS,)
    wan_rtts: tuple = (ms(38),)
    markers: tuple = ("none", "l4span")
    duration_s: float = 6.0
    seed: int = 11


@dataclass
class SweepCell:
    """One cell of the sweep: one (cc, channel, UEs, queue, RTT, marker) run."""

    cc_name: str
    channel: str
    num_ues: int
    rlc_queue: int
    wan_rtt: float
    marker: str
    owd: BoxStats
    per_ue_throughput_mbps: BoxStats
    total_goodput_mbps: float

    def as_row(self) -> dict:
        """A flat dictionary row for reports."""
        return {
            "cc": self.cc_name, "channel": self.channel, "ues": self.num_ues,
            "rlc_queue": self.rlc_queue, "wan_rtt_ms": self.wan_rtt * 1e3,
            "l4span": self.marker == "l4span",
            "owd_median_ms": self.owd.median * 1e3,
            "owd_p90_ms": self.owd.p90 * 1e3,
            "per_ue_tput_median_mbps": self.per_ue_throughput_mbps.median,
            "total_goodput_mbps": self.total_goodput_mbps,
        }


def run_spec_cell(spec: ScenarioSpec) -> SweepCell:
    """Run one cell of the Fig. 9 grid, described by its scenario spec."""
    result = run_scenario(spec)
    per_ue_mbps = [f.goodput_mbps for f in result.flows]
    return SweepCell(cc_name=spec.cc_name, channel=spec.channel_profile,
                     num_ues=spec.num_ues, rlc_queue=spec.rlc_queue_sdus,
                     wan_rtt=spec.wan_rtt, marker=spec.marker,
                     owd=box_stats(result.all_owd_samples()),
                     per_ue_throughput_mbps=box_stats(per_ue_mbps),
                     total_goodput_mbps=result.total_goodput_mbps())


def sweep_cells(config: SweepConfig) -> list[dict]:
    """The grid as a list of picklable scenario-spec dicts."""
    return [ScenarioSpec(
                num_ues=ues, duration_s=config.duration_s, cc_name=cc,
                marker=marker, channel_profile=channel, wan_rtt=rtt,
                rlc_queue_sdus=queue, seed=config.seed).to_dict()
            for cc, channel, ues, queue, rtt, marker in itertools.product(
                config.cc_names, config.channels, config.ue_counts,
                config.rlc_queues, config.wan_rtts, config.markers)]


def _run_cell(cell: dict) -> SweepCell:
    """Module-level (spawn-safe) adapter from a spec dict to its result."""
    return run_spec_cell(ScenarioSpec.from_dict(cell))


def run_fig9(config: Optional[SweepConfig] = None, workers: int = 1,
             progress: Optional[Callable[[int, int], None]] = None
             ) -> list[SweepCell]:
    """Run the whole (scaled-down) Fig. 9 grid, optionally in parallel."""
    config = config if config is not None else SweepConfig()
    runner = SweepRunner(workers=workers, progress=progress)
    return runner.map(_run_cell, sweep_cells(config))


def run_fig24(config: Optional[SweepConfig] = None, workers: int = 1,
              progress: Optional[Callable[[int, int], None]] = None
              ) -> list[SweepCell]:
    """Run the appendix sweep (BBR and Reno) on the same grid."""
    config = config if config is not None else SweepConfig()
    appendix = SweepConfig(cc_names=("bbr", "reno"), channels=config.channels,
                           ue_counts=config.ue_counts,
                           rlc_queues=config.rlc_queues,
                           wan_rtts=config.wan_rtts, markers=config.markers,
                           duration_s=config.duration_s, seed=config.seed)
    return run_fig9(appendix, workers=workers, progress=progress)


def improvement_table(cells: Iterable[SweepCell]) -> list[dict]:
    """Pair up the ±L4Span cells and compute the paper's headline reductions."""
    cells = list(cells)
    rows = []
    for cell in cells:
        if cell.marker != "l4span":
            continue
        baseline = next(
            (c for c in cells if c.marker == "none"
             and (c.cc_name, c.channel, c.num_ues, c.rlc_queue, c.wan_rtt)
             == (cell.cc_name, cell.channel, cell.num_ues, cell.rlc_queue,
                 cell.wan_rtt)), None)
        if baseline is None or baseline.owd.median != baseline.owd.median:
            continue
        reduction = 100.0 * (baseline.owd.median - cell.owd.median) \
            / baseline.owd.median if baseline.owd.median > 0 else 0.0
        tput_change = 0.0
        if baseline.per_ue_throughput_mbps.median > 0:
            tput_change = 100.0 * (
                cell.per_ue_throughput_mbps.median
                - baseline.per_ue_throughput_mbps.median) \
                / baseline.per_ue_throughput_mbps.median
        rows.append({"cc": cell.cc_name, "channel": cell.channel,
                     "ues": cell.num_ues, "rlc_queue": cell.rlc_queue,
                     "owd_reduction_pct": reduction,
                     "throughput_change_pct": tput_change})
    return rows
