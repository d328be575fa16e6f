"""The generic 5G scenario builder used by every experiment harness.

A scenario is described declaratively by a
:class:`~repro.experiments.spec.ScenarioSpec` and wires, for each flow:

    content server (CC sender)
        -> WAN delay pipe (half the flow's WAN RTT)
        -> [optional wired middlebox whose rate can be throttled]
        -> 5G core (UPF)
        -> serving gNB CU-UP (marker: none / L4Span / TC-RAN / RAN-DualPi2)
        -> F1-U -> DU RLC queue -> MAC/PHY -> UE
        -> client receiver
        -> uplink (UE grant-cycle delay) -> gNB CU (marker sees the ACK)
        -> 5G core -> WAN delay pipe -> back to the sender

One scenario may hold several cells (gNBs) sharing the single 5G core; each
UE attaches to the cell named by its :class:`~repro.experiments.spec.UeSpec`,
with its own channel profile, SNR and RLC configuration — and may *move*
between cells mid-run when the spec's ``mobility`` block is enabled (a
:class:`~repro.ran.mobility.MobilityManager` executes the handovers and the
result carries one record per handover).  The builder runs the
discrete-event simulation for the configured duration, collecting one-way
delays, RTTs, throughput, RLC queue occupancy and the delay breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cc.base import Sender
from repro.cc.factory import is_udp_algorithm, make_receiver, make_sender
from repro.channel.profiles import make_channel
from repro.core.factory import make_marker
from repro.core.l4span import L4SpanLayer
from repro.experiments.spec import (CellSpec, ScenarioSpec, UeSpec)
from repro.metrics.collectors import (DelayBreakdownAccumulator,
                                      OwdCollector, ProgressReporter,
                                      QueueSampler, RateEstimationProbe,
                                      ThroughputCollector, TimeSeries,
                                      merge_numeric_summaries,
                                      merge_sample_dicts)
from repro.metrics.stats import box_stats, summarize
from repro.net.addresses import FiveTuple, ue_ip_address
from repro.net.packet import Packet
from repro.net.pipe import DelayPipe
from repro.net.router import BottleneckRouter
from repro.ran.core import CORE_PROCESSING_DELAY, FiveGCore
from repro.ran.gnb import GNodeB
from repro.ran.identifiers import RlcMode
from repro.ran.scheduling import resolve_scheduler
from repro.ran.mobility import (MobilityManager, MobilityTopology,
                                merge_handover_records)
from repro.ran.ue import UeConfig, UeContext
from repro.sim.engine import Simulator
from repro.units import mbps, to_mbps
from repro.workloads.flows import FlowSpec


@dataclass
class FlowResult:
    """Per-flow measurements extracted after a run."""

    flow_id: int
    ue_id: int
    cc_name: str
    label: str
    owd_samples: list[float]
    rtt_samples: list[float]
    goodput_bytes_per_s: float
    completion_time: Optional[float]
    congestion_events: int
    marked_fraction: float
    throughput_series: TimeSeries

    @property
    def goodput_mbps(self) -> float:
        """Average received rate in Mbit/s."""
        return to_mbps(self.goodput_bytes_per_s)

    def owd_box(self):
        """Box statistics (median/quartiles/whiskers) of the one-way delay."""
        return box_stats(self.owd_samples)


@dataclass
class ScenarioResult:
    """Everything an experiment harness needs after one run."""

    config: ScenarioSpec
    flows: list[FlowResult]
    queue_length_samples: list[int]
    queue_length_by_drb: dict[str, list[int]]
    delay_breakdown: dict[str, float]
    marker_summary: dict
    per_ue_throughput: dict[int, float]
    rate_estimation_errors: list[float]
    duration_s: float
    events_processed: int
    #: One dict per executed handover (``ue_id``, ``time``, ``from_cell``,
    #: ``to_cell``, forward/flush counts, ``completed_at`` and the measured
    #: per-flow ``data_gap_s``); empty without mobility.
    handovers: list = field(default_factory=list)
    #: Synchronizer statistics of a sharded run (window count and bounds,
    #: boundary exchanges); empty for single-loop runs.
    sharding_stats: dict = field(default_factory=dict)
    #: Aggregate background-population counters summed over cells
    #: (``n_background``, ``granted_prb_slots``, ``served_bytes``,
    #: ``active_ue_seconds``, ``kernel_steps``); empty without a population.
    background: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def flow(self, flow_id: int) -> FlowResult:
        """Look up one flow's results."""
        for flow in self.flows:
            if flow.flow_id == flow_id:
                return flow
        raise KeyError(f"no flow {flow_id} in result")

    def flows_by_label(self, label: str) -> list[FlowResult]:
        """All flows tagged with ``label`` by the workload."""
        return [f for f in self.flows if f.label == label]

    def all_owd_samples(self) -> list[float]:
        """One-way delay samples pooled across flows."""
        merged: list[float] = []
        for flow in self.flows:
            merged.extend(flow.owd_samples)
        return merged

    def all_rtt_samples(self) -> list[float]:
        """RTT samples pooled across flows."""
        merged: list[float] = []
        for flow in self.flows:
            merged.extend(flow.rtt_samples)
        return merged

    def median_owd_ms(self) -> float:
        """Median one-way delay across all flows, in milliseconds."""
        samples = self.all_owd_samples()
        return box_stats(samples).median * 1e3 if samples else float("nan")

    def total_goodput_mbps(self) -> float:
        """Sum of all flows' average goodput in Mbit/s."""
        return sum(f.goodput_mbps for f in self.flows)

    def background_throughput_mbps(self) -> float:
        """Aggregate served rate of the background population, Mbit/s."""
        if not self.background or self.duration_s <= 0:
            return 0.0
        return to_mbps(self.background.get("served_bytes", 0.0)
                       / self.duration_s)

    def simulated_ue_seconds(self) -> float:
        """Total simulated UE-time of this run (foreground + background).

        Dividing by the wall-clock run time yields the bench metric
        *simulated-UE-seconds per second* -- the scale measure the dense-cell
        population kernel is built for.
        """
        foreground = len(self.config.resolved_ues())
        cells = len(self.config.resolved_cells())
        background = self.config.population.n_background * cells
        return (foreground + background) * self.duration_s

    def summary(self) -> dict:
        """Compact dictionary summary used by reports and the quickstart."""
        owd = summarize(self.all_owd_samples())
        rtt = summarize(self.all_rtt_samples())
        return {
            "label": self.config.label(),
            "median_owd_ms": owd.get("median", float("nan")) * 1e3
            if owd.get("count") else float("nan"),
            "p90_owd_ms": owd.get("p90", float("nan")) * 1e3
            if owd.get("count") else float("nan"),
            "median_rtt_ms": rtt.get("median", float("nan")) * 1e3
            if rtt.get("count") else float("nan"),
            "total_goodput_mbps": self.total_goodput_mbps(),
            "mean_queue_sdus": (sum(self.queue_length_samples)
                                / len(self.queue_length_samples)
                                if self.queue_length_samples else 0.0),
            "marked_packets": self.marker_summary.get("marked_packets", 0),
            "background_ues": self.background.get("n_background", 0),
            "background_goodput_mbps": self.background_throughput_mbps(),
            "events": self.events_processed,
        }


#: Drop-tail buffer of the wired middlebox (``_insert_wired_bottleneck``);
#: the sharded runtime's hosted queue and its egress predictor share it.
WIRED_MIDDLEBOX_QUEUE_BYTES = 1_500_000


class BuiltScenario:
    """A wired-up scenario ready to run (exposed for advanced tests)."""

    def __init__(self, config: ScenarioSpec) -> None:
        self.config = config.validate()
        self.sim = Simulator(seed=config.seed)
        self.cell_specs: list[CellSpec] = config.resolved_cells()
        self.markers: dict[int, object] = {}
        self.gnbs: dict[int, GNodeB] = {}
        for cell_spec in self.cell_specs:
            marker = make_marker(config.marker, self.sim,
                                 l4span_config=config.l4span_config)
            name = ("gnb" if cell_spec.cell_id == 0
                    else f"gnb{cell_spec.cell_id}")
            gnb = GNodeB(self.sim, cell=cell_spec.radio,
                         scheduler_policy=resolve_scheduler(cell_spec.scheduler),
                         marker=marker, air_config=cell_spec.air, name=name)
            self.markers[cell_spec.cell_id] = marker
            self.gnbs[cell_spec.cell_id] = gnb
        first_cell = self.cell_specs[0].cell_id
        #: The first cell's gNB / marker (the whole scenario's, when there is
        #: only one cell) — the view most harnesses and tests use.
        self.gnb = self.gnbs[first_cell]
        self.marker = self.markers[first_cell]
        self.core = FiveGCore(self.sim)
        for gnb in self.gnbs.values():
            gnb.cu.uplink_sink = self.core.receive_uplink
        #: Per-cell aggregated background populations; empty when the spec's
        #: population block is disabled (the numpy kernel is never imported).
        self.backgrounds: dict[int, object] = {}
        if config.population.enabled:
            from repro.ran.background import BackgroundPopulation
            for cell_spec in self.cell_specs:
                gnb = self.gnbs[cell_spec.cell_id]
                population = BackgroundPopulation(
                    self.sim, cell_spec.cell_id, gnb.cell, config.population)
                gnb.du.mac.attach_background(population)
                self.backgrounds[cell_spec.cell_id] = population
        self.ues: dict[int, UeContext] = {}
        self.ue_specs: dict[int, UeSpec] = {ue.ue_id: ue
                                            for ue in config.resolved_ues()}
        self.senders: dict[int, Sender] = {}
        self.receivers: dict[int, object] = {}
        self.flow_specs: list[FlowSpec] = config.resolved_flows()
        self.owd = OwdCollector()
        self.throughput = ThroughputCollector(window=config.throughput_window)
        self.breakdown = DelayBreakdownAccumulator()
        self.queue_sampler = QueueSampler(self.sim, list(self.gnbs.values()),
                                          interval=config.queue_sample_interval)
        self.rate_probe: Optional[RateEstimationProbe] = None
        #: Live-metric snapshot emitter; None until ``attach_progress``.
        self.progress_reporter: Optional[ProgressReporter] = None
        self._owd_callbacks: dict[int, object] = {}
        self._build_ues()
        self._build_flows()
        #: Executes the spec's handover schedule; None without mobility.
        #: The sharded runtime builds its own manager per shard instead
        #: (sub-specs carry mobility stripped), so this stays single-loop.
        self.mobility: Optional[MobilityManager] = None
        if config.mobility.enabled:
            self.mobility = MobilityManager(
                self, mobility_topology(config), config.mobility,
                commit_lag=snr_commit_lag(config))
        if config.rate_probe and isinstance(self.marker, L4SpanLayer):
            self.rate_probe = RateEstimationProbe(self.sim, self.gnb,
                                                  self.marker)
        self._wired: Optional[BottleneckRouter] = None
        if config.wired_bottleneck_mbps is not None:
            self._insert_wired_bottleneck()

    # ------------------------------------------------------------------ #
    def build_mobile_ue(self, ue_spec: UeSpec, cell_id: int,
                        attach_tag: str = "") -> UeContext:
        """Build a UE context attached to ``cell_id``'s radio environment.

        ``attach_tag`` qualifies every per-UE random stream; the initial
        attach uses ``""`` (the historical names), handover re-attachments
        use ``"#aN"`` so the draw sequences are identical between the
        single loop and any shard split.
        """
        gnb = self.gnbs[cell_id]
        channel = make_channel(
            ue_spec.channel_profile,
            rng=self.sim.random.stream(
                f"channel-ue{ue_spec.ue_id}{attach_tag}"),
            mean_snr_db=ue_spec.mean_snr_db,
            carrier_ghz=gnb.cell.carrier_ghz,
            ue_index=ue_spec.ue_id)
        rlc_mode = (RlcMode.AM if ue_spec.rlc_mode == "am"
                    else RlcMode.UM)
        ue_config = UeConfig(ue_id=ue_spec.ue_id,
                             channel_profile=ue_spec.channel_profile,
                             rlc_mode=rlc_mode,
                             rlc_queue_sdus=ue_spec.rlc_queue_sdus,
                             separate_drbs=ue_spec.separate_drbs)
        return UeContext(self.sim, ue_config, channel, attach_tag=attach_tag)

    def register_ue_route(self, ue_id: int, gnb: GNodeB) -> None:
        """(Re-)point the core's downlink route for a UE at ``gnb``."""
        self.core.register_ue_address(ue_ip_address(ue_id), gnb, ue_id)

    def invalidate_samplers(self) -> None:
        """Topology changed (handover): periodic samplers must re-scan."""
        self.queue_sampler.invalidate()

    def _build_ues(self) -> None:
        for ue_spec in self.ue_specs.values():
            ue = self.build_mobile_ue(ue_spec, ue_spec.cell_id)
            self.gnbs[ue_spec.cell_id].attach_ue(ue)
            self.register_ue_route(ue_spec.ue_id, self.gnbs[ue_spec.cell_id])
            self.ues[ue_spec.ue_id] = ue

    def _insert_wired_bottleneck(self) -> None:
        config = self.config
        self._wired = BottleneckRouter(
            self.sim, rate=mbps(config.wired_bottleneck_mbps),
            sink=self.core, queue_bytes=WIRED_MIDDLEBOX_QUEUE_BYTES,
            name="wired-middlebox")
        # Re-point every already-built WAN pipe at the middlebox.
        for pipe in self._wan_pipes:
            pipe.sink = self._wired
        for start_time, rate_mbps in config.wired_bottleneck_schedule:
            self.sim.schedule_at(start_time, self._wired.set_rate,
                                 mbps(rate_mbps))

    def _build_flows(self) -> None:
        config = self.config
        self._wan_pipes: list[DelayPipe] = []
        legs = wan_one_way_legs(config)
        for spec in self.flow_specs:
            one_way = legs[spec.flow_id]
            protocol = "udp" if is_udp_algorithm(spec.cc_name) else "tcp"
            five_tuple = FiveTuple(src_ip="10.0.0.1", src_port=443,
                                   dst_ip=ue_ip_address(spec.ue_id),
                                   dst_port=50_000 + spec.flow_id,
                                   protocol=protocol)
            forward = DelayPipe(self.sim, one_way, sink=self.core,
                                name=f"wan-dl-{spec.flow_id}")
            self._wan_pipes.append(forward)
            sender = make_sender(spec.cc_name, self.sim, spec.flow_id,
                                 five_tuple, path=forward,
                                 flow_bytes=spec.flow_bytes)
            self.senders[spec.flow_id] = sender
            self.attach_flow_endpoint(spec, self.ues[spec.ue_id])
            reverse = DelayPipe(self.sim, one_way, sink=sender,
                                name=f"wan-ul-{spec.flow_id}")
            self.core.register_uplink_route(spec.flow_id, reverse)
            self.sim.schedule_at(spec.start_time, sender.start)
            if spec.stop_time is not None:
                self.sim.schedule_at(spec.stop_time, sender.stop)

    def attach_flow_endpoint(self, spec: FlowSpec, ue: UeContext):
        """Create (or re-create, on handover) a flow's client-side receiver.

        The receiver is registered on ``ue`` and recorded in
        :attr:`receivers`; its measurement callback feeds this scenario's
        collectors.  Mobility re-invokes this at every arrival -- the fresh
        receiver then adopts the transferred transport state.
        """
        owd_cb = self._owd_callbacks.get(spec.flow_id)
        if owd_cb is None:
            owd_cb = self._make_owd_callback(spec)
            self._owd_callbacks[spec.flow_id] = owd_cb
        receiver = make_receiver(spec.cc_name, self.sim, spec.flow_id,
                                 send_feedback=ue.send_uplink,
                                 owd_callback=owd_cb)
        ue.register_receiver(spec.flow_id, receiver)
        self.receivers[spec.flow_id] = receiver
        return receiver

    def _make_owd_callback(self, spec: FlowSpec):
        def callback(owd: float, packet: Packet) -> None:
            now = self.sim.now
            if now >= self.config.warmup_s:
                self.owd.record(spec.flow_id, owd, now)
                self.breakdown.record_packet(packet, now)
            self.throughput.record(spec.flow_id, packet.size, now)
        return callback

    # ------------------------------------------------------------------ #
    def flow_mark_counts(self) -> dict[int, tuple[int, int]]:
        """Per-flow ``(marked, downlink)`` packet counts across *all* cells.

        A mobile flow leaves one :class:`FlowRecord` behind in every cell it
        visited, so its figure-level ``marked_fraction`` must merge them; the
        flow id is recovered from the record's five-tuple (``dst_port``
        encodes it), which also covers shard scenarios serving a visiting UE
        whose flow spec lives on another shard.
        """
        counts: dict[int, list[int]] = {}
        for marker in self.markers.values():
            if not isinstance(marker, L4SpanLayer):
                continue
            for five_tuple, record in marker.flows.items():
                flow_id = five_tuple.dst_port - 50_000
                entry = counts.setdefault(flow_id, [0, 0])
                entry[0] += record.marked_packets
                entry[1] += record.downlink_packets
        return {flow_id: (marked, downlink)
                for flow_id, (marked, downlink) in counts.items()}

    def marker_cell_summaries(self) -> list[tuple[int, dict]]:
        """Per-cell ``(cell_id, summary)`` pairs, in cell declaration order."""
        def one(marker) -> dict:
            if hasattr(marker, "summary"):
                return marker.summary()
            return {"marked_packets": getattr(marker, "marked_packets", 0)}
        return [(cell.cell_id, one(self.markers[cell.cell_id]))
                for cell in self.cell_specs]

    def attach_progress(self, callback,
                        interval: float = 0.25) -> ProgressReporter:
        """Emit live per-flow metric snapshots to ``callback`` while running.

        The progress hook behind ``repro.api.run(..., progress=...)`` and
        the scenario service's event stream; see
        :class:`repro.metrics.collectors.ProgressReporter` for the snapshot
        shape.  The callback runs inside the event loop and must not block.
        """
        if self.progress_reporter is not None:
            self.progress_reporter.stop()
        self.progress_reporter = ProgressReporter(
            self.sim, self.throughput, callback, interval=interval)
        return self.progress_reporter

    def stop_collectors(self) -> None:
        """Stop periodic machinery (MAC clocks, samplers, probes)."""
        for gnb in self.gnbs.values():
            gnb.stop()
        self.queue_sampler.stop()
        if self.mobility is not None:
            self.mobility.stop()
        if self.rate_probe is not None:
            self.rate_probe.stop()
        if self.progress_reporter is not None:
            self.progress_reporter.stop()

    def run(self) -> ScenarioResult:
        """Run the simulation and assemble its result (a one-part merge)."""
        events = self.sim.run(until=self.config.duration_s)
        if self.progress_reporter is not None:
            # Instrumentation must be invisible in the result document:
            # identical runs with and without a progress hook report the
            # same event count (the reporter's own ticks are not workload).
            events -= self.progress_reporter.snapshots
        self.stop_collectors()
        return assemble_result(self.config, [self.part(events)])

    def part(self, events: int) -> RunPart:
        """This loop's measurements, packaged for :func:`assemble_result`."""
        flows = {}
        for spec in self.flow_specs:
            stats = self.senders[spec.flow_id].stats
            flows[spec.flow_id] = (
                self.owd.samples.get(spec.flow_id, []),
                list(stats.rtt_samples), stats.completion_time,
                stats.congestion_events,
                self.throughput.series.get(spec.flow_id, TimeSeries()))
        part = RunPart(
            flows=flows,
            flow_bytes=self.throughput.total_bytes,
            flow_mark_counts=self.flow_mark_counts(),
            queue_lengths=self.queue_sampler.length_samples,
            bearer_order=[(cell_id,
                           [label for label, _ in gnb.du.labeled_rlc_items()])
                          for cell_id, gnb in self.gnbs.items()],
            breakdown_count=self.breakdown.count,
            breakdown_sums=self.breakdown.sums,
            marker_summaries=self.marker_cell_summaries(),
            rate_errors=(self.rate_probe.errors_percent
                         if self.rate_probe is not None else []),
            events_processed=events,
            backgrounds=[(cell_id, population.summary())
                         for cell_id, population in self.backgrounds.items()])
        if self.mobility is not None:
            part.handover_records = self.mobility.records
            part.owd_times = self.owd.sample_times
        return part


@dataclass
class RunPart:
    """One event loop's share of a run, for :func:`assemble_result`.

    A single-loop run is one part; a sharded run has one per shard, which a
    worker process ships back pickled.
    """

    #: Flow id -> ``(owd samples, rtt samples, completion time, congestion
    #: events, throughput series)`` of each flow whose sender ran here.
    flows: dict[int, tuple]
    #: Received bytes and ``(marked, downlink)`` packets by flow id, for
    #: every flow this loop delivered or marked; summed over the parts.
    flow_bytes: dict[int, int]
    flow_mark_counts: dict[int, tuple[int, int]]
    #: Queue-length samples by bearer; each cell's bearers at the end.
    queue_lengths: dict[str, list[int]]
    bearer_order: list[tuple[int, list[str]]]
    breakdown_count: int
    breakdown_sums: dict[str, float]
    marker_summaries: list[tuple[int, dict]]
    rate_errors: list[float]
    events_processed: int
    #: Per-cell ``(cell_id, background counters)``; empty without a
    #: population.
    backgrounds: list[tuple[int, dict]]
    shard_index: int = 0
    #: Handover records executed here, and the one-way-delay sample times
    #: of this loop's flows that their data gaps are measured on.
    handover_records: list[dict] = field(default_factory=list)
    owd_times: dict[int, list[float]] = field(default_factory=dict)
    #: Fragments of a flow served by several loops, by flow id: one-way
    #: delay ``(times, samples)`` and delivery ``(times, sizes)``.  Only
    #: the sharded mobility coupling retains them.
    owd_fragments: dict[int, tuple[list[float], list[float]]] = \
        field(default_factory=dict)
    rate_fragments: dict[int, tuple[list[float], list[int]]] = \
        field(default_factory=dict)


def _time_ordered(fragments: list[dict], flow_id: int) -> list[tuple]:
    """One flow's ``(time, value)`` pairs from every part's fragments, in
    delivery-time order (ties keep the shard order)."""
    pairs = [pair for by_flow in fragments
             for pair in zip(*by_flow.get(flow_id, ((), ())))]
    pairs.sort(key=lambda pair: pair[0])
    return pairs


def assemble_result(config: ScenarioSpec, parts: list[RunPart],
                    sharding_stats: Optional[dict] = None) -> ScenarioResult:
    """Build a run's :class:`ScenarioResult` from its parts.

    The only result assembler: a single-loop run is a merge of one part, a
    sharded run a merge of one part per shard, and the two agree to the
    bit.  Orderings the result makes observable come from the spec and the
    shard index, never from the order the parts arrive in: flows in
    declared order, queue samples cell by cell in declaration order (a
    bearer released mid-run by a handover departure is listed by no cell
    at the end and comes last), marker summaries merged over cells in
    declaration order, and so are the background counters.  Goodput,
    marked fraction and per-UE throughput are
    computed here from byte and mark counts summed over the parts.  A flow
    whose parts carry fragments has its one-way delays re-merged in
    delivery-time order and its throughput series replayed from the merged
    deliveries (the rate windows are event-anchored, so per-part series
    cannot be concatenated); every other flow is taken as collected.  One
    quantity is deterministic but not the single loop's:
    ``events_processed`` is summed over the parts' loops, and each shard
    ticks its own queue sampler.
    """
    parts = sorted(parts, key=lambda part: part.shard_index)
    resolved_flows = config.resolved_flows()
    cells = [cell.cell_id for cell in config.resolved_cells()]
    collected = {flow_id: flow for part in parts
                 for flow_id, flow in part.flows.items()}
    flow_bytes: dict[int, int] = {}
    mark_counts: dict[int, tuple[int, int]] = {}
    for part in parts:
        for flow_id, size in part.flow_bytes.items():
            flow_bytes[flow_id] = flow_bytes.get(flow_id, 0) + size
        for flow_id, (marked, downlink) in part.flow_mark_counts.items():
            total = mark_counts.get(flow_id, (0, 0))
            mark_counts[flow_id] = (total[0] + marked, total[1] + downlink)
    owd_times = {flow_id: times for part in parts
                 for flow_id, times in part.owd_times.items()}
    replay = ThroughputCollector(window=config.throughput_window)
    flows: list[FlowResult] = []
    per_ue: dict[int, float] = {}
    for spec in resolved_flows:
        owd, rtt, completion, congestion, series = collected[spec.flow_id]
        pairs = _time_ordered([part.owd_fragments for part in parts],
                              spec.flow_id)
        if pairs:
            owd_times[spec.flow_id] = [t for t, _v in pairs]
            owd = [v for _t, v in pairs]
        deliveries = _time_ordered([part.rate_fragments for part in parts],
                                   spec.flow_id)
        if deliveries:
            for now, size in deliveries:
                replay.record(spec.flow_id, size, now)
            series = replay.series.get(spec.flow_id, TimeSeries())
        duration = config.duration_s - spec.start_time
        if spec.stop_time is not None:
            duration = min(duration, spec.stop_time - spec.start_time)
        received = flow_bytes.get(spec.flow_id, 0)
        marked, downlink = mark_counts.get(spec.flow_id, (0, 0))
        flows.append(FlowResult(
            flow_id=spec.flow_id, ue_id=spec.ue_id, cc_name=spec.cc_name,
            label=spec.label, owd_samples=owd, rtt_samples=rtt,
            goodput_bytes_per_s=received / max(duration, 1e-9),
            completion_time=completion, congestion_events=congestion,
            marked_fraction=marked / downlink if downlink else 0.0,
            throughput_series=series))
        per_ue[spec.ue_id] = (per_ue.get(spec.ue_id, 0.0)
                              + received / max(config.duration_s, 1e-9))

    bearer_names = {cell_id: names for part in parts
                    for cell_id, names in part.bearer_order}
    all_lengths = merge_sample_dicts(part.queue_lengths for part in parts)
    queue_by_drb = {name: all_lengths[name] for cell in cells
                    for name in bearer_names.get(cell, [])
                    if name in all_lengths}
    for name, values in all_lengths.items():
        queue_by_drb.setdefault(name, values)

    breakdown = DelayBreakdownAccumulator()
    for part in parts:
        breakdown.merge_from(part.breakdown_count, part.breakdown_sums)
    summaries = {cell_id: summary for part in parts
                 for cell_id, summary in part.marker_summaries}
    backgrounds = {cell_id: counters for part in parts
                   for cell_id, counters in part.backgrounds}
    background: dict = {}
    if backgrounds:
        from repro.ran.background import merge_background_summaries
        background = merge_background_summaries(
            [backgrounds[cell] for cell in cells if cell in backgrounds])
    handovers = merge_handover_records(part.handover_records
                                       for part in parts)
    attach_data_gaps(handovers, owd_times,
                     {flow.flow_id: flow.ue_id for flow in resolved_flows})
    return ScenarioResult(
        config=config,
        flows=flows,
        queue_length_samples=[sample for values in queue_by_drb.values()
                              for sample in values],
        queue_length_by_drb=queue_by_drb,
        delay_breakdown=breakdown.averages(),
        marker_summary=merge_numeric_summaries(
            [summaries[cell] for cell in cells if cell in summaries]),
        per_ue_throughput=per_ue,
        rate_estimation_errors=[error for part in parts
                                for error in part.rate_errors],
        duration_s=config.duration_s,
        events_processed=sum(part.events_processed for part in parts),
        handovers=handovers,
        sharding_stats=dict(sharding_stats or {}),
        background=background)


def wan_one_way_legs(spec: ScenarioSpec) -> dict[int, float]:
    """Every resolved flow's WAN one-way leg (half its RTT), by flow id.

    The one place a flow's own ``wan_rtt`` falls back to the scenario's:
    the WAN pipes, the shard lookahead, the SNR commit lag and the sharded
    runtime's WAN-entry cuts must agree on these to the bit.
    """
    return {flow.flow_id: (flow.wan_rtt if flow.wan_rtt is not None
                           else spec.wan_rtt) / 2.0
            for flow in spec.resolved_flows()}


def boundary_lookahead(spec: ScenarioSpec) -> float:
    """The conservative window: the minimum WAN one-way leg of any flow."""
    legs = wan_one_way_legs(spec).values()
    return max(min(legs, default=spec.wan_rtt / 2.0), 1e-4)


def min_snr_commit_lag(spec: ScenarioSpec) -> float:
    """The smallest decide-to-commit lag a shard split can honour exactly.

    One conservative lookahead (the barrier that publishes the decision to
    every shard) plus the longest WAN one-way leg (the latest-resolving
    routing lookup in flight when the decision lands) plus the core
    processing delay (a strict safety margin, so lookups at exactly the
    commit time always see the adopted itinerary first).
    """
    longest = max(wan_one_way_legs(spec).values(), default=spec.wan_rtt / 2.0)
    return boundary_lookahead(spec) + longest + CORE_PROCESSING_DELAY


def snr_commit_lag(spec: ScenarioSpec) -> float:
    """The decide-to-commit lag of this spec's SNR-triggered handovers.

    The spec's ``mobility.commit_lag_s`` override, or the computed safe
    minimum (:func:`min_snr_commit_lag`).  The single loop and the sharded
    runtime both resolve the lag through this function, which is what makes
    their handover timelines and per-flow metrics identical.
    """
    if spec.mobility.commit_lag_s is not None:
        return spec.mobility.commit_lag_s
    return min_snr_commit_lag(spec)


def mobility_topology(spec: ScenarioSpec) -> MobilityTopology:
    """Resolve a spec's mobility block into the manager's full-scenario view.

    Shared by the single loop (``BuiltScenario``) and the sharded runtime
    (which builds one manager per shard from the *full* spec).
    """
    itineraries: dict[int, list[tuple[float, int]]] = {}
    ue_specs = {ue.ue_id: ue for ue in spec.resolved_ues()}
    for ue_id, ue in ue_specs.items():
        itineraries[ue_id] = [(0.0, ue.cell_id)]
    for ho in spec.mobility.handovers:
        itineraries[ho.ue_id].append((ho.time, ho.target_cell))
    flows_by_ue: dict[int, list[FlowSpec]] = {}
    for flow in spec.resolved_flows():
        flows_by_ue.setdefault(flow.ue_id, []).append(flow)
    return MobilityTopology(
        itineraries=itineraries, ue_specs=ue_specs, flows_by_ue=flows_by_ue,
        cells_order=[cell.cell_id for cell in spec.resolved_cells()])


def attach_data_gaps(handovers: list[dict],
                     owd_times_by_flow: dict[int, list[float]],
                     flow_ues: dict[int, int]) -> None:
    """Annotate handover records with the measured per-flow delivery gap.

    For each handover at time ``t`` and each flow terminating at the moved
    UE, the gap is the span between the last delivery before ``t`` and the
    first delivery at or after ``t`` -- the observable service interruption.
    Computed from the (post-warmup) one-way-delay sample times, identically
    for single-loop and merged sharded results.
    """
    for record in handovers:
        gaps: dict[int, float] = {}
        t = record["time"]
        for flow_id, ue_id in flow_ues.items():
            if ue_id != record["ue_id"]:
                continue
            times = owd_times_by_flow.get(flow_id, [])
            before = max((x for x in times if x < t), default=None)
            after = min((x for x in times if x >= t), default=None)
            if before is not None and after is not None:
                gaps[flow_id] = after - before
        record["data_gap_s"] = gaps


def build_scenario(config: ScenarioSpec) -> BuiltScenario:
    """Construct (but do not run) a scenario."""
    return BuiltScenario(config)


def run_scenario(config: ScenarioSpec, progress=None,
                 progress_interval_s: float = 0.25) -> ScenarioResult:
    """Build and run a scenario, returning its results.

    When the spec's ``sharding`` block asks for it (and the scenario is
    shardable), cells are distributed over shard processes by the sharded
    runtime; the merged result carries the exact single-loop report schema.

    ``progress`` (optional) receives live metric snapshots every
    ``progress_interval_s`` simulated seconds: per-flow snapshots from the
    single event loop (see :meth:`BuiltScenario.attach_progress`), coarser
    per-barrier-window snapshots from the sharded runtime (the shards own
    the flow state mid-run).  Measured results are unaffected either
    way.
    """
    if config.sharding.enabled:
        from repro.experiments.sharded import run_scenario_sharded
        return run_scenario_sharded(config, progress=progress,
                                    progress_interval_s=progress_interval_s)
    built = build_scenario(config)
    if progress is not None:
        built.attach_progress(progress, interval=progress_interval_s)
    return built.run()
