"""Per-flow state kept by the L4Span layer.

L4Span maintains, for every five-tuple it has seen, the bearer it maps to,
its service class, an initial RTT estimate (from the interval between the
first forward packets of the flow) and -- when feedback short-circuiting is
active -- the tentative AccECN counters / classic ECE latch that will be
written into uplink ACKs instead of marking downlink packets over the radio
link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.addresses import FiveTuple
from repro.net.ecn import FlowClass
from repro.net.packet import AccEcnCounters
from repro.ran.identifiers import DrbId, UeId


@dataclass
class FlowRecord:
    """Everything L4Span remembers about one flow."""

    five_tuple: FiveTuple
    ue_id: UeId
    drb_id: DrbId
    flow_class: FlowClass
    protocol: str = "tcp"
    uses_accecn: bool = False
    first_downlink_time: Optional[float] = None
    initial_rtt: Optional[float] = None
    #: Tentative marking book-keeping for feedback short-circuiting.
    tentative: AccEcnCounters = field(default_factory=AccEcnCounters)
    ece_latched: bool = False
    downlink_packets: int = 0
    downlink_bytes: int = 0
    marked_packets: int = 0
    marked_bytes: int = 0
    shortcircuited_acks: int = 0

    # ------------------------------------------------------------------ #
    def record_downlink(self, size: int, now: float) -> None:
        """Account a downlink packet of this flow."""
        self.downlink_packets += 1
        self.downlink_bytes += size
        if self.first_downlink_time is None:
            self.first_downlink_time = now

    def record_mark(self, size: int, ecn_capable_l4s: bool) -> None:
        """Account a marking decision (tentative or applied)."""
        self.marked_packets += 1
        self.marked_bytes += size
        self.tentative.ce_packets += 1
        self.tentative.ce_bytes += size
        if not self.uses_accecn:
            self.ece_latched = True

    def record_unmarked(self, size: int) -> None:
        """Account a packet the layer decided not to mark."""
        if self.flow_class == FlowClass.L4S:
            self.tentative.ect1_bytes += size
        else:
            self.tentative.ect0_bytes += size

    def observe_uplink(self, now: float) -> None:
        """Update the initial-RTT estimate from the first uplink packet seen."""
        if self.initial_rtt is None and self.first_downlink_time is not None:
            self.initial_rtt = max(1e-4, now - self.first_downlink_time)
