"""Interface between the RAN's CU-UP and an in-RAN marking layer.

The CU-UP invokes the attached marker on exactly the three events the paper's
pseudocode defines (Appendix A):

* a downlink IP datagram arriving from the 5G core,
* a downlink-data-delivery-status report arriving over F1-U, and
* an uplink packet (potentially a TCP ACK to rewrite) passing through.

:class:`~repro.core.l4span.L4SpanLayer`, the TC-RAN baseline and the in-RAN
DualPi2 baseline all implement this protocol; :class:`NoopMarker` is the
"no L4Span deployed" configuration.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.net.packet import Packet
from repro.ran.f1u import DeliveryStatus
from repro.ran.identifiers import DrbId, UeId
from repro.registry import MARKERS


@runtime_checkable
class RanMarker(Protocol):
    """Protocol implemented by every in-RAN marking layer."""

    def on_downlink_packet(self, packet: Packet, ue_id: UeId, drb_id: DrbId,
                           now: float) -> None:
        """Observe (and possibly mark) a downlink datagram entering the CU."""
        ...

    def on_ran_feedback(self, status: DeliveryStatus, now: float) -> None:
        """Consume an F1-U delivery-status report."""
        ...

    def on_uplink_packet(self, packet: Packet, now: float) -> None:
        """Observe (and possibly rewrite) an uplink packet leaving the RAN."""
        ...


class NoopMarker:
    """The baseline RAN: no in-network congestion signalling at all."""

    name = "none"

    def __init__(self) -> None:
        self.downlink_packets = 0
        self.feedback_messages = 0
        self.uplink_packets = 0

    def on_downlink_packet(self, packet: Packet, ue_id: UeId, drb_id: DrbId,
                           now: float) -> None:
        self.downlink_packets += 1

    def on_ran_feedback(self, status: DeliveryStatus, now: float) -> None:
        self.feedback_messages += 1

    def on_uplink_packet(self, packet: Packet, now: float) -> None:
        self.uplink_packets += 1


@MARKERS.register("none")
def _build_noop_marker(sim, l4span_config=None) -> NoopMarker:
    """The "no in-RAN marking" baseline (``sim``/config are unused)."""
    return NoopMarker()
