"""Drop-tail FIFO queues with byte and packet limits.

These are used for the wired bottleneck's buffer and as the building block
inside the RLC entity's transmission queue.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.packet import Packet


class DropTailQueue:
    """A FIFO of packets bounded in packets and/or bytes.

    Args:
        max_packets: drop arrivals once this many packets are queued
            (``None`` for unlimited).
        max_bytes: drop arrivals once this many bytes are queued
            (``None`` for unlimited).
    """

    def __init__(self, max_packets: Optional[int] = None,
                 max_bytes: Optional[int] = None) -> None:
        self._queue: deque[Packet] = deque()
        self.max_packets = max_packets
        self.max_bytes = max_bytes
        self.bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.enqueued_packets = 0

    @property
    def empty(self) -> bool:
        """True when no packet is queued."""
        return not self._queue

    def would_overflow(self, packet: Packet) -> bool:
        """True when enqueueing ``packet`` would exceed a limit."""
        if self.max_packets is not None and len(self._queue) >= self.max_packets:
            return True
        if self.max_bytes is not None and self.bytes + packet.size > self.max_bytes:
            return True
        return False

    def enqueue(self, packet: Packet) -> bool:
        """Append ``packet``; returns False (and counts a drop) on overflow."""
        if self.would_overflow(packet):
            self.dropped_packets += 1
            self.dropped_bytes += packet.size
            return False
        self._queue.append(packet)
        self.bytes += packet.size
        self.enqueued_packets += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head packet, or None when empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self.bytes -= packet.size
        return packet

    def peek(self) -> Optional[Packet]:
        """Return the head packet without removing it."""
        if not self._queue:
            return None
        return self._queue[0]

    def clear(self) -> None:
        """Discard every queued packet."""
        self._queue.clear()
        self.bytes = 0
