"""A serialising link: finite rate plus propagation delay.

Used for the wired bottleneck in the motivation experiment (Fig. 2a) and for
any fixed-rate middlebox placed between the content server and the 5G core.
"""

from __future__ import annotations

from typing import Optional

from repro.net.base import PacketSink
from repro.net.packet import Packet
from repro.net.queueing import DropTailQueue
from repro.sim.engine import Simulator
from repro.units import transmission_time


class Link:
    """A point-to-point link with an output queue.

    Packets received while the link is busy wait in an internal drop-tail
    queue.  An optional AQM object (anything with ``on_enqueue(packet, queue)``
    and ``on_dequeue(packet, queue, now)`` hooks) can mark or drop packets;
    see :mod:`repro.aqm`.

    Args:
        sim: simulator.
        rate: bytes per second; ``float('inf')`` disables serialisation delay.
        delay: propagation delay in seconds.
        sink: downstream component.
        queue_bytes / queue_packets: buffer limits.
        aqm: optional active-queue-management hook object.
    """

    def __init__(self, sim: Simulator, rate: float, delay: float = 0.0,
                 sink: Optional[PacketSink] = None,
                 queue_bytes: Optional[int] = None,
                 queue_packets: Optional[int] = None,
                 aqm=None, name: str = "link") -> None:
        self._sim = sim
        self.rate = rate
        self.delay = delay
        self.sink = sink
        self.aqm = aqm
        self.name = name
        self.queue = DropTailQueue(max_packets=queue_packets,
                                   max_bytes=queue_bytes)
        self._busy = False
        self.transmitted_packets = 0
        self.transmitted_bytes = 0
        self.dropped_by_aqm = 0

    # ------------------------------------------------------------------ #
    def receive(self, packet: Packet) -> None:
        packet.timestamps.setdefault("link_enqueue", self._sim.now)
        if self.aqm is not None:
            verdict = self.aqm.on_enqueue(packet, self.queue, self._sim.now)
            if verdict is False:
                self.dropped_by_aqm += 1
                return
        if not self.queue.enqueue(packet):
            return
        if not self._busy:
            self._transmit_next()

    # ------------------------------------------------------------------ #
    def _transmit_next(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            self._busy = False
            return
        if self.aqm is not None:
            verdict = self.aqm.on_dequeue(packet, self.queue, self._sim.now)
            if verdict is False:
                self.dropped_by_aqm += 1
                self._sim.call_soon(self._transmit_next)
                return
        self._busy = True
        serialization = transmission_time(packet.size, self.rate)
        if serialization == float("inf"):
            # Link with zero rate: hold the packet until the rate changes.
            self.queue._queue.appendleft(packet)  # noqa: SLF001 - re-queue head
            self.queue.bytes += packet.size
            self._busy = False
            return
        self._sim.schedule(serialization, self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        self.transmitted_packets += 1
        self.transmitted_bytes += packet.size
        if self.sink is not None:
            if self.delay > 0:
                self._sim.schedule(self.delay, self.sink.receive, packet)
            else:
                self.sink.receive(packet)
        self._transmit_next()

    # ------------------------------------------------------------------ #
    @property
    def queued_bytes(self) -> int:
        """Bytes currently waiting in the output buffer."""
        return self.queue.bytes

    def set_rate(self, rate: float) -> None:
        """Change the link rate; takes effect for the next serialisation."""
        was_stalled = self.rate <= 0 and not self._busy and not self.queue.empty
        self.rate = rate
        if was_stalled and rate > 0:
            self._transmit_next()
