"""UE context: channel, bearers, client endpoints and the uplink path.

The UE is where downlink SDUs terminate (they are handed to the client-side
transport receiver of their flow) and where uplink ACK/feedback packets are
born.  An uplink packet waits a stochastic delay accounting for the
scheduling request / buffer-status-report / grant cycle
(:meth:`UeContext.send_uplink`) before re-entering the gNB, where the marker
may rewrite it (feedback short-circuiting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.channel.base import ChannelModel
from repro.net.base import PacketSink
from repro.net.packet import Packet
from repro.ran.identifiers import (DrbConfig, DrbServiceClass, RlcMode, UeId,
                                   DEFAULT_RLC_QUEUE_SDUS)
from repro.sim.engine import Simulator
from repro.sim.randomness import block_draws
from repro.units import ms

#: Uplink delay added per further UE attached to the same gNB.
UPLINK_PER_UE_LOAD = ms(0.05)


@dataclass
class UeConfig:
    """Configuration of one UE.

    Attributes:
        ue_id: identifier unique within the scenario.
        channel_profile: named channel condition ("static", "pedestrian",
            "vehicular", "mobile").
        rlc_mode: RLC mode for every bearer of this UE.
        rlc_queue_sdus: RLC transmission-queue capacity (16384 default /
            256 short, per Fig. 9).
        separate_drbs: when True the UE gets an L4S bearer and a classic
            bearer; when False a single shared bearer (Fig. 16 scenario).
        uplink_base_delay / uplink_jitter: parameters of the uplink model.
    """

    ue_id: UeId
    channel_profile: str = "static"
    rlc_mode: RlcMode = RlcMode.AM
    rlc_queue_sdus: int = DEFAULT_RLC_QUEUE_SDUS
    separate_drbs: bool = True
    uplink_base_delay: float = ms(4.0)
    uplink_jitter: float = ms(2.0)

    def drb_configs(self) -> list[DrbConfig]:
        """Materialise the bearer configurations implied by this UE config."""
        if self.separate_drbs:
            return [
                DrbConfig(drb_id=1, rlc_mode=self.rlc_mode,
                          max_queue_sdus=self.rlc_queue_sdus,
                          service_class=DrbServiceClass.L4S),
                DrbConfig(drb_id=2, rlc_mode=self.rlc_mode,
                          max_queue_sdus=self.rlc_queue_sdus,
                          service_class=DrbServiceClass.CLASSIC),
            ]
        return [DrbConfig(drb_id=1, rlc_mode=self.rlc_mode,
                          max_queue_sdus=self.rlc_queue_sdus,
                          service_class=DrbServiceClass.MIXED)]


class UeContext:
    """Run-time state of one UE attached to the gNB.

    An uplink packet's delay is ``base + Exp(jitter) + UPLINK_PER_UE_LOAD *
    (active_ues - 1)``: a fixed grant-cycle floor, exponential jitter from
    contention, and a mild per-active-UE component reflecting the shared
    uplink control channel (``active_ues`` counts the UEs attached to the
    serving gNB).
    """

    def __init__(self, sim: Simulator, config: UeConfig,
                 channel: ChannelModel, stream_tag: str = "") -> None:
        self._sim = sim
        self.config = config
        self.ue_id: UeId = config.ue_id
        self.channel = channel
        #: "" for the initial attach, "#aN" after the N-th handover: every
        #: per-UE random stream of this context is qualified by it (so a
        #: handed-over UE draws the same uplink sequence whether its new
        #: cell runs in the shared loop or on another shard).
        self.stream_tag = stream_tag
        # Read on every ACK, so copied out of the config once.
        self.uplink_base_delay = config.uplink_base_delay
        self.uplink_jitter = config.uplink_jitter
        # One uplink draw happens per ACK: read the stream's standard
        # exponentials in blocks (same variate sequence as scalar draws).
        self._exponential = block_draws(
            sim.random.stream(f"uplink-ue{config.ue_id}{stream_tag}"),
            "exponential")
        #: The serving gNB's attached UEs (set on attach); their count
        #: scales the uplink load term.
        self.cell_ues: dict[UeId, "UeContext"] = {}
        self._receivers: dict[int, PacketSink] = {}
        self._default_receiver: Optional[PacketSink] = None
        #: set by the gNB when the UE attaches; carries uplink packets back in.
        self.uplink_sink: Optional[Callable[[Packet, UeId], None]] = None
        self.delivered_packets = 0
        self.delivered_bytes = 0
        #: Uplink packets drawn and scheduled but not yet handed to the gNB;
        #: the sharded synchronizer reads this to prove a boundary channel
        #: has drained before widening its windows.
        self.inflight_uplinks = 0

    # ------------------------------------------------------------------ #
    # Client-side endpoints
    # ------------------------------------------------------------------ #
    def register_receiver(self, flow_id: int, receiver: PacketSink) -> None:
        """Attach the client-side transport receiver for one flow."""
        self._receivers[flow_id] = receiver

    def set_default_receiver(self, receiver: PacketSink) -> None:
        """Receiver used for flows without an explicit registration."""
        self._default_receiver = receiver

    # ------------------------------------------------------------------ #
    # Downlink termination
    # ------------------------------------------------------------------ #
    def deliver(self, packet: Packet, delivery_time: float) -> None:
        """Hand a downlink packet that survived the air interface to its flow."""
        self.delivered_packets += 1
        self.delivered_bytes += packet.size
        receiver = self._receivers.get(packet.flow_id, self._default_receiver)
        if receiver is not None:
            receiver.receive(packet)

    # ------------------------------------------------------------------ #
    # Uplink origination
    # ------------------------------------------------------------------ #
    def send_uplink(self, packet: Packet) -> None:
        """Send an uplink packet (ACK / application feedback) toward the gNB."""
        if self.uplink_sink is None:
            raise RuntimeError(f"UE {self.ue_id} is not attached to a gNB")
        self.inflight_uplinks += 1
        jitter = (self.uplink_jitter * self._exponential()
                  if self.uplink_jitter > 0 else 0.0)
        load = UPLINK_PER_UE_LOAD * max(0, len(self.cell_ues) - 1)
        self._sim.schedule(self.uplink_base_delay + jitter + load,
                           self._uplink_arrive, packet)

    def _uplink_arrive(self, packet: Packet) -> None:
        self.inflight_uplinks -= 1
        sink = self.uplink_sink
        if sink is not None:
            sink(packet, self.ue_id)
