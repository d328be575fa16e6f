"""Isolated drivers: one layer's public functions, a fixed number of times.

Each driver builds its subject from public constructors only, runs a fixed
operation count and returns raw seconds per operation; :func:`run_drivers`
brackets the whole set with calibrations and converts to speed-corrected
ns / us per op.  A number here moving while the workloads' ``wall_s`` stays
flat means the layer was not on the blocking path -- which is why these are
layer metrics with no bound, not claims.

Layers without a driver (see the README for why): ``cc`` (a sender needs a
peer and a path, i.e. a scenario), ``ran.mac`` / ``ran.phy`` /
``ran.background`` / ``ran.mobility`` / ``ran.other`` (built by
``BuiltScenario`` wiring, not by public constructors) and
``experiments.sharded`` (only exists across a barrier; its process
accounting metrics come from the ``coupled_shards`` workload instead).
The service's ``reject`` / ``list_runs`` timings need a populated service
and are taken inside ``service_short_jobs``.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

import repro.api as api
from repro.aqm.dualpi2 import DualPi2Core
from repro.channel.fading import FadingChannel
from repro.core.egress import EgressRateEstimator
from repro.core.marking import classic_mark_probability, l4s_mark_probability
from repro.core.profile_table import ProfileEntry
from repro.experiments.spec import ScenarioSpec
from repro.metrics.collectors import OwdCollector, ThroughputCollector
from repro.net.addresses import make_flow_tuple
from repro.net.checksum import mark_ce_with_checksum, recompute_checksums
from repro.net.ecn import ECN
from repro.net.packet import make_data_packet
from repro.ran.identifiers import DrbConfig
from repro.ran.phy import AirInterface
from repro.ran.rlc import RlcEntity
from repro.sim.engine import Simulator

import speed


def _packets(count: int) -> list:
    five_tuple = make_flow_tuple(0)
    return [make_data_packet(0, five_tuple, index * 1400, 1400, ECN.ECT1, 0.0)
            for index in range(count)]


def sim_event() -> float:
    """``Simulator.schedule`` + ``run``: 50 self-rescheduling timer chains."""
    sim = Simulator(seed=1)

    def tick() -> None:
        sim.schedule(1.0, tick)

    for chain in range(50):
        sim.schedule(chain * 0.01, tick)
    start = perf_counter()
    processed = sim.run(until=6000.0)
    return (perf_counter() - start) / processed


def sim_slot_tick() -> float:
    """``add_slot_timer``: an off-heap 0.5 ms slot clock doing nothing."""
    ticks = 400_000
    sim = Simulator(seed=1)

    def tick(barrier_time, barrier_seq) -> None:
        timer.advance(sim.events)

    timer = sim.add_slot_timer(0.0005, tick)
    start = perf_counter()
    sim.run(until=ticks * 0.0005)
    return (perf_counter() - start) / ticks


def channel_efficiency() -> float:
    """``FadingChannel.efficiency`` once per 0.5 ms slot, deep fades on."""
    calls = 300_000
    channel = FadingChannel(rng=np.random.default_rng(1), deep_fade_rate=0.2)
    efficiency = channel.efficiency
    start = perf_counter()
    for slot in range(calls):
        efficiency(slot * 0.0005)
    return (perf_counter() - start) / calls


def rlc_sdu() -> float:
    """``RlcEntity.enqueue`` + ``pull``: 32-SDU bursts drained by one grant."""
    sdus, burst = 32_000, 32
    sim = Simulator(seed=1)
    entity = RlcEntity(sim, ue_id=0, config=DrbConfig(drb_id=1),
                       air=AirInterface(sim),
                       deliver=lambda packet, time: None,
                       send_status=lambda txed, delivered, time: None)
    packets = _packets(sdus)
    grant = burst * packets[0].size
    start = perf_counter()
    for base in range(0, sdus, burst):
        for sn in range(base, base + burst):
            entity.enqueue(sn, packets[sn])
        entity.pull(grant)
    return (perf_counter() - start) / sdus


def core_mark_probability() -> float:
    """``l4s_mark_probability`` + ``classic_mark_probability`` per packet."""
    calls = 300_000
    start = perf_counter()
    for index in range(calls):
        queued = 1500.0 * (index & 63)
        l4s_mark_probability(queued, 2.5e6, 2.0e5, 0.010)
        classic_mark_probability(1400.0, 0.030 + queued / 2.5e6, 2.5e6)
    return (perf_counter() - start) / calls


def core_egress_report() -> float:
    """``EgressRateEstimator.observe_transmissions``: 4 SDUs per 1 ms report."""
    reports = 30_000
    estimator = EgressRateEstimator(window=0.0125)
    batches = [[ProfileEntry(sn=4 * index + k, size=1440,
                             ingress_time=index * 0.001,
                             transmitted_time=index * 0.001 + k * 0.0002)
                for k in range(4)] for index in range(reports)]
    start = perf_counter()
    for batch in batches:
        estimator.observe_transmissions(batch)
    return (perf_counter() - start) / reports


def net_checksum_mark() -> float:
    """``mark_ce_with_checksum`` on packets whose IP checksum is known."""
    packets = _packets(50_000)
    for packet in packets:
        recompute_checksums(packet)
    start = perf_counter()
    for packet in packets:
        mark_ce_with_checksum(packet, "ledger")
    return (perf_counter() - start) / len(packets)


def aqm_dualpi2_update() -> float:
    """``DualPi2Core.update`` with a sawtooth classic-queue delay."""
    calls = 600_000
    core = DualPi2Core()
    update = core.update
    start = perf_counter()
    for index in range(calls):
        update(0.001 * (index & 31))
    return (perf_counter() - start) / calls


def metrics_record() -> float:
    """``OwdCollector.record`` + ``ThroughputCollector.record`` per packet."""
    calls = 400_000
    owd = OwdCollector()
    throughput = ThroughputCollector()
    start = perf_counter()
    for index in range(calls):
        now = index * 0.0005
        owd.record(index & 3, 0.02, now)
        throughput.record(index & 3, 1440, now)
    return (perf_counter() - start) / calls


def spec_roundtrip() -> float:
    """``ScenarioSpec.from_dict`` -> ``validate`` -> ``to_dict``, eight-cell."""
    rounds = 500
    data = api.load_spec("eight-cell").to_dict()
    start = perf_counter()
    for _ in range(rounds):
        if ScenarioSpec.from_dict(data).validate().to_dict() != data:
            raise RuntimeError("eight-cell spec does not round-trip")
    return (perf_counter() - start) / rounds


def document() -> float:
    """``result_document`` + ``dump_document`` + ``check_document``."""
    rounds = 200
    result = api.run(api.ScenarioSpec(num_ues=2, duration_s=0.2, seed=1))
    start = perf_counter()
    for _ in range(rounds):
        text = api.dump_document(api.result_document(result))
        api.check_document(json.loads(text))
    return (perf_counter() - start) / rounds


#: metric name -> (driver, multiplier from seconds to the metric's unit)
DRIVERS = {
    "sim.event_ns": (sim_event, 1e9),
    "sim.slot_tick_ns": (sim_slot_tick, 1e9),
    "channel.efficiency_ns": (channel_efficiency, 1e9),
    "ran.rlc.sdu_ns": (rlc_sdu, 1e9),
    "core.mark_probability_ns": (core_mark_probability, 1e9),
    "core.egress_report_ns": (core_egress_report, 1e9),
    "net.checksum_mark_ns": (net_checksum_mark, 1e9),
    "aqm.dualpi2_update_ns": (aqm_dualpi2_update, 1e9),
    "metrics.record_ns": (metrics_record, 1e9),
    "experiments.spec_roundtrip_us": (spec_roundtrip, 1e6),
    "experiments.document_us": (document, 1e6),
}


def run_drivers() -> dict:
    """Every driver once; speed-corrected values keyed by metric name."""
    before = speed.calibrate()
    raw = {name: driver() * scale for name, (driver, scale) in DRIVERS.items()}
    after = speed.calibrate()
    return {name: speed.corrected(value, before, after)
            for name, value in raw.items()}
