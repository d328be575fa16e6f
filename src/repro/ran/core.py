"""The 5G core / UPF: routing between the WAN and the RAN.

The core forwards downlink datagrams to the gNB serving their destination UE
and uplink datagrams back onto the wide-area path of their flow.  A small GTP-U
encapsulation/processing latency is modelled; the core performs no queueing of
its own (the paper's bottleneck is always the RAN or an explicit wired
middlebox).

When a scenario is sharded across processes a mobile UE's ACKs can surface on
a shard that does not host its flow's WAN return path; such uplink packets are
handed to :attr:`FiveGCore.remote_sink` (the sharded runtime's mobility sink)
instead of being dropped, so one core instance per shard collectively behaves
like the single shared core of the unsharded run.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.base import PacketSink
from repro.net.packet import Packet
from repro.ran.identifiers import UeId
from repro.sim.engine import Simulator
from repro.units import us

#: GTP-U encapsulation/processing latency of the core, shared with the
#: sharded runtime (the conservative window bound of a shared middlebox's
#: egress→remote-core hop is exactly this constant).
CORE_PROCESSING_DELAY = us(150)


class FiveGCore:
    """UPF-style router between the WAN and one or more gNBs."""

    def __init__(self, sim: Simulator,
                 processing_delay: float = CORE_PROCESSING_DELAY,
                 name: str = "5gc") -> None:
        self._sim = sim
        self.name = name
        self.processing_delay = processing_delay
        #: Destination IP -> (the serving CU's ``receive_downlink``, UE id).
        self._downlink_routes: dict[str, tuple[Callable, UeId]] = {}
        self._uplink_routes: dict[int, PacketSink] = {}
        self._default_uplink: Optional[PacketSink] = None
        #: Where uplink packets with no local route go; ``None`` (the
        #: default) drops them.  Unroutable downlink always raises.
        self.remote_sink: Optional[PacketSink] = None
        self.downlink_packets = 0
        self.uplink_packets = 0

    # ------------------------------------------------------------------ #
    # Routing table management
    # ------------------------------------------------------------------ #
    def register_ue_address(self, ip_address: str, gnb, ue_id: UeId) -> None:
        """Route downlink packets destined to ``ip_address`` to ``gnb``/``ue_id``.

        The route holds the gNB's CU entry itself, so a routed packet costs
        one call into the RAN.
        """
        self._downlink_routes[ip_address] = (gnb.cu.receive_downlink, ue_id)

    def register_uplink_route(self, flow_id: int, sink: PacketSink) -> None:
        """Route uplink packets of ``flow_id`` (ACKs) onto their WAN return path."""
        self._uplink_routes[flow_id] = sink

    def set_default_uplink(self, sink: PacketSink) -> None:
        """Fallback WAN sink for uplink packets of unregistered flows."""
        self._default_uplink = sink

    # ------------------------------------------------------------------ #
    # Data plane
    # ------------------------------------------------------------------ #
    def receive(self, packet: Packet) -> None:
        """Downlink entry point (the WAN path's sink)."""
        route = self._downlink_routes.get(packet.five_tuple.dst_ip)
        if route is None:
            raise KeyError(
                f"no UE registered for {packet.five_tuple.dst_ip}")
        receive_downlink, ue_id = route
        self.downlink_packets += 1
        packet.timestamps.setdefault("core_ingress", self._sim.now)
        self._sim.schedule(self.processing_delay, receive_downlink,
                           packet, ue_id)

    def deliver_downlink(self, packet: Packet) -> None:
        """Hand an already-processed downlink packet to its serving gNB.

        The sharded runtime's shared-middlebox path uses this for packets
        that crossed the shard boundary *after* core ingress: the packet is
        pre-stamped (``core_ingress`` at the middlebox egress time) and the
        boundary delivery already accounts for :attr:`processing_delay`, so
        this routes and forwards immediately instead of re-delaying.
        """
        route = self._downlink_routes.get(packet.five_tuple.dst_ip)
        if route is None:
            raise KeyError(
                f"no UE registered for {packet.five_tuple.dst_ip}")
        receive_downlink, ue_id = route
        self.downlink_packets += 1
        receive_downlink(packet, ue_id)

    def receive_uplink(self, packet: Packet) -> None:
        """Uplink entry point (the gNB's CU feeds packets here)."""
        self.uplink_packets += 1
        sink = self._uplink_routes.get(packet.flow_id, self._default_uplink)
        if sink is None:
            if self.remote_sink is not None:
                self.remote_sink.receive(packet)
            return
        self._sim.schedule(self.processing_delay, sink.receive, packet)
