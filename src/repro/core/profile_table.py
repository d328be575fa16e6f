"""The packet profile table (paper §4.3.2, Fig. 5).

L4Span tracks every downlink packet of a bearer through three timestamps:

* **ingress** -- when the packet entered the CU-UP L4Span layer;
* **transmitted** -- when the RLC reported (over F1-U) that the packet was
  handed to MAC/PHY;
* **delivered** -- when the RLC reported UE delivery (RLC AM only).

Because the F1-U delivery-status report carries only the *highest*
transmitted / delivered PDCP sequence numbers, a report at time *t* marks
every not-yet-transmitted entry with SN <= highest as transmitted at *t*
(respectively delivered).  The standing queue is exactly the set of entries
with no transmitted timestamp; its byte total is the ``N_queue`` used by the
marking equations.

The table mirrors PDCP's sequence numbering by assigning SNs in arrival
order, which is valid because the CU submits packets to PDCP in the same
order it showed them to L4Span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(slots=True)
class ProfileEntry:
    """Per-packet record in the profile table."""

    sn: int
    size: int
    ingress_time: float
    transmitted_time: Optional[float] = None
    delivered_time: Optional[float] = None

    def queueing_delay(self) -> Optional[float]:
        """Measured queueing (sojourn) delay, once transmitted."""
        if self.transmitted_time is None:
            return None
        return self.transmitted_time - self.ingress_time

    def retransmission_delay(self) -> Optional[float]:
        """Delay between transmission and UE delivery (RLC AM only)."""
        if self.transmitted_time is None or self.delivered_time is None:
            return None
        return self.delivered_time - self.transmitted_time


class DrbProfile:
    """Profile table of a single (UE, DRB) bearer."""

    def __init__(self, horizon: float = 2.0) -> None:
        #: SN -> entry, in SN order (dicts keep insertion order).
        self._entries: dict[int, ProfileEntry] = {}
        self._next_sn = 0
        self.horizon = horizon
        self.highest_txed_sn: Optional[int] = None
        self.highest_delivered_sn: Optional[int] = None
        self._queued_bytes = 0
        self.total_packets = 0
        self.total_bytes = 0

    # ------------------------------------------------------------------ #
    # Ingress
    # ------------------------------------------------------------------ #
    def add_packet(self, size: int, now: float) -> int:
        """Record a packet entering the bearer; returns its (mirrored) SN."""
        sn = self._next_sn
        self._next_sn += 1
        self._entries[sn] = ProfileEntry(sn, size, now)
        self._queued_bytes += size
        self.total_packets += 1
        self.total_bytes += size
        return sn

    # ------------------------------------------------------------------ #
    # F1-U feedback
    # ------------------------------------------------------------------ #
    def on_feedback(self, highest_txed_sn: Optional[int],
                    highest_delivered_sn: Optional[int],
                    timestamp: float) -> list[ProfileEntry]:
        """Apply a delivery-status report.

        Returns the entries newly marked as transmitted (in SN order), which
        the egress-rate estimator consumes.
        """
        newly_transmitted: list[ProfileEntry] = []
        if highest_txed_sn is not None:
            start = 0 if self.highest_txed_sn is None else self.highest_txed_sn + 1
            for sn in range(start, highest_txed_sn + 1):
                entry = self._entries.get(sn)
                if entry is None or entry.transmitted_time is not None:
                    continue
                entry.transmitted_time = timestamp
                self._queued_bytes -= entry.size
                newly_transmitted.append(entry)
            if (self.highest_txed_sn is None
                    or highest_txed_sn > self.highest_txed_sn):
                self.highest_txed_sn = highest_txed_sn
        if highest_delivered_sn is not None:
            start = (0 if self.highest_delivered_sn is None
                     else self.highest_delivered_sn + 1)
            for sn in range(start, highest_delivered_sn + 1):
                entry = self._entries.get(sn)
                if entry is not None and entry.delivered_time is None:
                    entry.delivered_time = timestamp
            if (self.highest_delivered_sn is None
                    or highest_delivered_sn > self.highest_delivered_sn):
                self.highest_delivered_sn = highest_delivered_sn
        return newly_transmitted

    # ------------------------------------------------------------------ #
    # Queue state
    # ------------------------------------------------------------------ #
    @property
    def queued_bytes(self) -> int:
        """Bytes of the standing queue (entries not yet transmitted)."""
        return max(0, self._queued_bytes)

    @property
    def queued_packets(self) -> int:
        """Number of packets still waiting for transmission."""
        if self.highest_txed_sn is None:
            return len(self._entries)
        return max(0, self._next_sn - (self.highest_txed_sn + 1))

    def oldest_queued_entry(self) -> Optional[ProfileEntry]:
        """The head of the standing queue (oldest untransmitted entry).

        Because a delivery-status report marks every SN up to the highest
        transmitted one, the standing queue is exactly the contiguous SN range
        above ``highest_txed_sn``; the head is therefore a direct lookup.
        """
        head_sn = 0 if self.highest_txed_sn is None else self.highest_txed_sn + 1
        return self._entries.get(head_sn)

    def head_sojourn(self, now: float) -> float:
        """Measured sojourn time of the standing-queue head (0 when empty)."""
        head = self.oldest_queued_entry()
        if head is None:
            return 0.0
        return max(0.0, now - head.ingress_time)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def purge(self, now: float) -> int:
        """Drop transmitted entries older than the retention horizon.

        Returns the number of purged entries.
        """
        cutoff = now - self.horizon
        entries = self._entries
        stale = []
        for entry in entries.values():
            transmitted = entry.transmitted_time
            if transmitted is None or transmitted >= cutoff:
                break
            stale.append(entry.sn)
        for sn in stale:
            del entries[sn]
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ProfileEntry]:
        return iter(self._entries.values())

    def entry(self, sn: int) -> Optional[ProfileEntry]:
        """Look up one entry by sequence number."""
        return self._entries.get(sn)

    def measured_queueing_delays(self) -> list[float]:
        """Queueing delays of every transmitted entry still retained."""
        delays = (e.queueing_delay() for e in self._entries.values())
        return [delay for delay in delays if delay is not None]
