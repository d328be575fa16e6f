"""The wired L4S topology of the motivation experiment (Fig. 2a).

One server, one DualPi2 router, one client: the configuration in which L4S
achieves line rate at ~1 ms queueing delay and CUBIC sits at the classic
15-20 ms target.  Used as the reference point the 5G results are contrasted
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.aqm.dualpi2 import DualPi2Router
from repro.cc.factory import make_receiver, make_sender
from repro.metrics.collectors import ThroughputCollector, TimeSeries
from repro.net.addresses import FiveTuple
from repro.net.packet import Packet
from repro.net.pipe import DelayPipe
from repro.sim.engine import Simulator
from repro.units import mbps, ms, to_mbps


@dataclass
class WiredScenarioConfig:
    """A wired bottleneck shared by one flow per listed algorithm."""

    cc_names: list[str] = field(default_factory=lambda: ["prague", "cubic"])
    bottleneck_mbps: float = 40.0
    rtt: float = ms(20)
    duration_s: float = 5.0
    seed: int = 1


@dataclass
class WiredFlowResult:
    """Per-flow outcome of a wired run."""

    cc_name: str
    rtt_samples: list[float]
    goodput_mbps: float
    throughput_series: TimeSeries


@dataclass
class WiredScenarioResult:
    """All flows of a wired run."""

    config: WiredScenarioConfig
    flows: list[WiredFlowResult]

    def flow(self, cc_name: str) -> WiredFlowResult:
        for flow in self.flows:
            if flow.cc_name == cc_name:
                return flow
        raise KeyError(cc_name)


def run_wired_scenario(config: Optional[WiredScenarioConfig] = None
                       ) -> WiredScenarioResult:
    """Run the wired-bottleneck topology and return per-flow results."""
    config = config if config is not None else WiredScenarioConfig()
    sim = Simulator(seed=config.seed)
    one_way = config.rtt / 2.0
    router = DualPi2Router(sim, rate=mbps(config.bottleneck_mbps))
    throughput = ThroughputCollector()
    receivers = {}
    senders = {}

    class _Demux:
        """Deliver router output to the right flow's receiver."""

        def receive(self, packet: Packet) -> None:
            receiver = receivers.get(packet.flow_id)
            if receiver is not None:
                receiver.receive(packet)

    delivery = DelayPipe(sim, one_way, sink=_Demux(), name="wired-deliver")
    router.sink = delivery
    for index, cc_name in enumerate(config.cc_names):
        five_tuple = FiveTuple("10.0.0.1", 443, "10.1.0.2", 50_000 + index,
                               protocol="tcp")
        forward = DelayPipe(sim, 0.0, sink=router, name=f"fwd-{index}")
        sender = make_sender(cc_name, sim, index, five_tuple, path=forward)
        reverse = DelayPipe(sim, one_way, sink=sender,
                            name=f"rev-{index}")

        def make_cb(flow_id: int):
            def cb(owd: float, packet: Packet) -> None:
                throughput.record(flow_id, packet.size, sim.now)
            return cb

        receiver = make_receiver(cc_name, sim, index,
                                 send_feedback=reverse.receive,
                                 owd_callback=make_cb(index))
        receivers[index] = receiver
        senders[index] = sender
        sim.schedule_at(0.0, sender.start)
    sim.run(until=config.duration_s)
    router.stop()
    flows = []
    for index, cc_name in enumerate(config.cc_names):
        rate = throughput.average_rate(index, duration=config.duration_s)
        flows.append(WiredFlowResult(
            cc_name=cc_name,
            rtt_samples=list(senders[index].stats.rtt_samples),
            goodput_mbps=to_mbps(rate),
            throughput_series=throughput.series.get(index, TimeSeries())))
    return WiredScenarioResult(config=config, flows=flows)
