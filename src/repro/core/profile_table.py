"""The packet profile table (paper §4.3.2, Fig. 5).

The table of one attachment of a bearer holds exactly its standing queue:
one entry per SDU its PDCP entity numbered (keyed by that SN, stamped with
its **ingress** time) that the RLC has not yet reported as handed to MAC/PHY.

Because the F1-U delivery-status report carries only the *highest*
transmitted PDCP sequence number, a report at time *t* pops every entry with
SN <= highest, stamps it **transmitted** at *t* and hands it once to the
egress-rate estimator (Eqs. 3-4).  The byte total of what remains is the
``N_queue`` used by the marking equations.  Transmitted entries and delivery
times are not kept, because nothing reads them: memory follows the queue,
not the rate times the run length.
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

    def queueing_delay(self) -> Optional[float]:
        """Measured queueing (sojourn) delay, once transmitted."""
        if self.transmitted_time is None:
            return None
        return self.transmitted_time - self.ingress_time


class DrbProfile:
    """Profile table of a single (UE, DRB) bearer."""

    def __init__(self) -> None:
        #: SN -> entry of the standing queue, in SN order (dicts keep
        #: insertion order).
        self._entries: dict[int, ProfileEntry] = {}
        self.highest_txed_sn: Optional[int] = None
        self.queued_bytes = 0  # N_queue: the bytes the entries hold
        self.total_packets = 0
        self.total_bytes = 0

    # ------------------------------------------------------------------ #
    # Ingress
    # ------------------------------------------------------------------ #
    def add_packet(self, sn: int, size: int, now: float) -> None:
        """Record an SDU that PDCP numbered ``sn`` entering the bearer."""
        self._entries[sn] = ProfileEntry(sn, size, now)
        self.queued_bytes += size
        self.total_packets += 1
        self.total_bytes += size

    # ------------------------------------------------------------------ #
    # F1-U feedback
    # ------------------------------------------------------------------ #
    def on_feedback(self, highest_txed_sn: Optional[int],
                    timestamp: float) -> list[ProfileEntry]:
        """Apply a delivery-status report's highest transmitted SN.

        Pops the entries it newly reports as transmitted and returns them
        (in SN order, stamped with ``timestamp``) for the egress-rate
        estimator.
        """
        newly_transmitted: list[ProfileEntry] = []
        highest = self.highest_txed_sn
        if highest_txed_sn is None or (highest is not None
                                       and highest_txed_sn <= highest):
            return newly_transmitted
        pop = self._entries.pop
        for sn in range(0 if highest is None else highest + 1,
                        highest_txed_sn + 1):
            entry = pop(sn, None)
            if entry is None:
                continue
            entry.transmitted_time = timestamp
            self.queued_bytes -= entry.size
            newly_transmitted.append(entry)
        self.highest_txed_sn = highest_txed_sn
        return newly_transmitted

    # ------------------------------------------------------------------ #
    # Queue state
    # ------------------------------------------------------------------ #
    @property
    def queued_packets(self) -> int:
        """Number of packets still waiting for transmission."""
        return len(self._entries)

    def oldest_queued_entry(self) -> Optional[ProfileEntry]:
        """The head of the standing queue (oldest untransmitted entry).

        Because a delivery-status report pops every SN up to the highest
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

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ProfileEntry]:
        return iter(self._entries.values())
