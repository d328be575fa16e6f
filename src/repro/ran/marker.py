"""Interface between the RAN's CU-UP and an in-RAN marking layer.

The CU-UP invokes the attached marker on the three events the paper's
pseudocode defines (Appendix A):

* a downlink IP datagram arriving from the 5G core,
* a downlink-data-delivery-status report arriving over F1-U, and
* an uplink packet (potentially a TCP ACK to rewrite) passing through;

and on two handover events: a forwarded SDU entering the target cell's
PDCP, and a UE leaving the cell.  A bearer's state belongs to one
attachment, named by its attach tag (``""``, then ``"#a1"``, ... after each
handover): a report of a released bearer finds no state and is discarded.

:class:`~repro.core.l4span.L4SpanLayer`, the TC-RAN baseline and the in-RAN
DualPi2 baseline all derive from :class:`RanMarker`; :class:`NoopMarker` is
the "no L4Span deployed" configuration.
"""

from __future__ import annotations

from repro.net.packet import Packet
from repro.ran.f1u import DeliveryStatus
from repro.ran.identifiers import DrbId, UeId
from repro.registry import MARKERS


class RanMarker:
    """Base of every in-RAN marking layer: its counters and bearer tables.

    ``_drbs`` maps a bearer's :class:`~repro.ran.identifiers.DrbKey` (attach
    tag included) to the state ``drb_state`` builds; ``state.profile`` is
    the bearer's profile table.
    """

    def __init__(self) -> None:
        self._drbs: dict = {}
        self.downlink_packets = 0
        self.uplink_packets = 0
        self.feedback_messages = 0
        self.marked_packets = 0

    def drb_state(self, ue_id: UeId, drb_id: DrbId, attach_tag: str = ""):
        """Get or create the state of one bearer of one attachment."""
        raise NotImplementedError

    def on_downlink_packet(self, packet: Packet, ue_id: UeId, drb_id: DrbId,
                           sn: int, now: float, attach_tag: str = "") -> None:
        """Observe (and possibly mark) a downlink datagram entering the CU,
        which its PDCP entity is about to number ``sn``."""
        raise NotImplementedError

    def on_forwarded_sdu(self, packet: Packet, ue_id: UeId, drb_id: DrbId,
                         sn: int, now: float, attach_tag: str) -> None:
        """A handover-forwarded SDU joins the target bearer's table under the
        target PDCP's SN; the source cell's marker already decided its mark."""
        self.drb_state(ue_id, drb_id, attach_tag).profile.add_packet(
            sn, packet.size, now)

    def release_ue(self, ue_id: UeId) -> None:
        """The UE left this cell: its bearers' state ends with the attachment."""
        for key in [key for key in self._drbs if key.ue_id == ue_id]:
            del self._drbs[key]

    def on_ran_feedback(self, status: DeliveryStatus, now: float) -> None:
        """Consume an F1-U delivery-status report."""
        raise NotImplementedError

    def on_uplink_packet(self, packet: Packet, now: float) -> None:
        """Observe (and possibly rewrite) an uplink packet leaving the RAN."""
        self.uplink_packets += 1


class NoopMarker(RanMarker):
    """The baseline RAN: no in-network congestion signalling at all."""

    name = "none"

    def on_downlink_packet(self, packet: Packet, ue_id: UeId, drb_id: DrbId,
                           sn: int, now: float, attach_tag: str = "") -> None:
        self.downlink_packets += 1

    def on_forwarded_sdu(self, packet: Packet, ue_id: UeId, drb_id: DrbId,
                         sn: int, now: float, attach_tag: str) -> None:
        pass

    def on_ran_feedback(self, status: DeliveryStatus, now: float) -> None:
        self.feedback_messages += 1


@MARKERS.register("none")
def _build_noop_marker(sim, l4span_config=None) -> NoopMarker:
    """The "no in-RAN marking" baseline (``sim``/config are unused)."""
    return NoopMarker()
