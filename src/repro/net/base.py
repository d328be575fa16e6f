"""Common interfaces for packet-processing components.

Every element of the data path -- wired links, queues, the RAN layers, the
L4Span layer and the transport endpoints -- implements the tiny
:class:`PacketSink` protocol: a single ``receive(packet)`` method.  Components
are chained by assigning ``sink`` attributes, which keeps topology wiring
explicit and easy to rearrange in experiment code.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.net.packet import Packet


@runtime_checkable
class PacketSink(Protocol):
    """Anything that can accept a packet."""

    def receive(self, packet: Packet) -> None:
        """Consume ``packet``; ownership transfers to the callee."""
        ...


class NullSink:
    """A sink that counts and discards everything it receives."""

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0

    def receive(self, packet: Packet) -> None:
        self.packets += 1
        self.bytes += packet.size


class CollectorSink:
    """A sink that stores received packets, for tests and probes."""

    def __init__(self) -> None:
        self.received: list[Packet] = []

    def receive(self, packet: Packet) -> None:
        self.received.append(packet)

    def __len__(self) -> int:
        return len(self.received)


class Tap:
    """Pass-through element that invokes a callback on every packet.

    Useful for inserting measurement probes anywhere in a path without
    changing component behaviour.
    """

    def __init__(self, callback, sink: Optional[PacketSink] = None) -> None:
        self._callback = callback
        self.sink = sink

    def receive(self, packet: Packet) -> None:
        self._callback(packet)
        if self.sink is not None:
            self.sink.receive(packet)
