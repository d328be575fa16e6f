"""A bottleneck router: an AQM-managed link plus simple next-hop forwarding.

The wired topology of the motivation experiment (server -> L4S router ->
client) is a :class:`BottleneckRouter` with a DualPi2 AQM; the 5G topologies
use it (without an AQM) to model wired middleboxes whose capacity can be
throttled to move the bottleneck out of the RAN and back (Fig. 2b/2c).
"""

from __future__ import annotations

from typing import Optional

from repro.net.base import PacketSink
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.engine import Simulator


class BottleneckRouter:
    """One input, one output link, optional AQM.

    The router itself adds no processing delay; all queueing happens in the
    output :class:`~repro.net.link.Link`.
    """

    def __init__(self, sim: Simulator, rate: float, delay: float = 0.0,
                 sink: Optional[PacketSink] = None, aqm=None,
                 queue_bytes: Optional[int] = None,
                 queue_packets: Optional[int] = None,
                 name: str = "router") -> None:
        self._sim = sim
        self.name = name
        self.link = Link(sim, rate=rate, delay=delay, sink=sink,
                         queue_bytes=queue_bytes, queue_packets=queue_packets,
                         aqm=aqm, name=f"{name}-out")

    def receive(self, packet: Packet) -> None:
        packet.timestamps.setdefault("router_ingress", self._sim.now)
        self.link.receive(packet)

    def set_rate(self, rate: float) -> None:
        """Throttle or restore the output rate (bytes/s)."""
        self.link.set_rate(rate)

    @property
    def queued_bytes(self) -> int:
        """Bytes currently buffered at the bottleneck."""
        return self.link.queued_bytes
