"""Fixed-delay pass-through elements.

The wide-area path between the content server and the 5G core is modelled as
a :class:`DelayPipe` whose one-way delay is half the uncongested ping time
reported in the paper (38 ms or 106 ms RTT to the Azure instances).
"""

from __future__ import annotations

from typing import Optional

from repro.net.base import PacketSink
from repro.net.packet import Packet
from repro.sim.engine import Simulator


class DelayPipe:
    """Deliver each packet to ``sink`` after a constant delay.

    The pipe has infinite capacity: it models propagation, not queueing.
    The sink may be assigned after construction, but it must be bound when
    a packet enters: the pipe schedules that sink's ``receive`` directly,
    and a packet entering a pipe with no sink raises.
    """

    def __init__(self, sim: Simulator, delay: float,
                 sink: Optional[PacketSink] = None,
                 name: str = "pipe") -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self._sim = sim
        self.delay = delay
        self.sink = sink
        self.name = name
        self.forwarded_packets = 0
        self.forwarded_bytes = 0

    def receive(self, packet: Packet) -> None:
        sink = self.sink
        if sink is None:
            raise RuntimeError(f"{self.name}: a packet entered a pipe with "
                               f"no sink")
        self.forwarded_packets += 1
        self.forwarded_bytes += packet.size
        if self.delay == 0:
            sink.receive(packet)
        else:
            self._sim.schedule(self.delay, sink.receive, packet)
