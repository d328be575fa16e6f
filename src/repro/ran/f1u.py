"""The F1-U interface between CU-UP and DU (3GPP TS 38.425).

Downlink user data flows CU -> DU; *downlink data delivery status* (DDDS)
messages flow DU -> CU.  L4Span consumes only the two mandatory DDDS fields:
the highest PDCP sequence number transmitted to the lower layers and the
highest PDCP sequence number successfully delivered to the UE, each with the
timestamp at which the RLC generated the report (paper §4.3.1).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from repro.ran.identifiers import DrbId, UeId
from repro.sim.engine import Simulator
from repro.units import us


class DeliveryStatus(NamedTuple):
    """One downlink-data-delivery-status message (immutable, one per report).

    Attributes:
        ue_id / drb_id: the bearer the report describes.
        highest_txed_sn: highest PDCP SN handed to MAC/PHY so far, or None if
            nothing has been transmitted yet.
        highest_delivered_sn: highest PDCP SN acknowledged by the UE's RLC
            (None in RLC UM, which provides no delivery feedback).
        timestamp: DU-side time at which the event that triggered the report
            happened.
        desired_buffer_size: optional flow-control hint (bytes) -- carried by
            the real message; unused by L4Span but kept for completeness.
    """

    ue_id: UeId
    drb_id: DrbId
    highest_txed_sn: Optional[int]
    highest_delivered_sn: Optional[int]
    timestamp: float
    desired_buffer_size: int = 0


#: Builds a report without the named tuple's Python-level ``__new__``.
_tuple_new = tuple.__new__


class F1UInterface:
    """A bidirectional CU<->DU conduit with a small, configurable latency.

    In the 7.2x split the CU-UP and DU may be co-located or connected over a
    midhaul link; the default 250 microseconds models a co-located deployment
    (srsCU and srsDU on the same server, as in the paper's testbed).
    """

    def __init__(self, sim: Simulator, latency: float = us(250),
                 name: str = "f1u") -> None:
        self._sim = sim
        self.latency = latency
        self.name = name
        self._downlink_handler: Optional[Callable] = None
        self._status_handler: Optional[
            Callable[[DeliveryStatus, float], None]] = None
        self.downlink_sdus = 0
        self.status_messages = 0

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def connect_du(self, downlink_handler: Callable) -> None:
        """Register the DU-side handler for downlink SDUs."""
        self._downlink_handler = downlink_handler

    def connect_cu(self,
                   status_handler: Callable[[DeliveryStatus, float], None]
                   ) -> None:
        """Register the CU-side handler for delivery-status feedback.

        It is called as ``status_handler(status, arrival_time)``; the CU
        registers its marker's ``on_ran_feedback`` here.
        """
        self._status_handler = status_handler

    # ------------------------------------------------------------------ #
    # Data plane
    # ------------------------------------------------------------------ #
    def send_downlink_sdu(self, ue_id: UeId, drb_id: DrbId, sn: int,
                          packet) -> None:
        """Carry one PDCP SDU from the CU to the DU's RLC entity."""
        if self._downlink_handler is None:
            raise RuntimeError("F1-U has no DU connected")
        self.downlink_sdus += 1
        self._sim.schedule(self.latency, self._downlink_handler,
                           ue_id, drb_id, sn, packet)

    def status_sender(self, ue_id: UeId, drb_id: DrbId
                      ) -> Callable[[Optional[int], Optional[int], float],
                                    None]:
        """The DU side of one bearer's DDDS reports.

        The returned ``send_status(highest_txed_sn, highest_delivered_sn,
        timestamp)`` is the bearer's RLC reporting callback: it builds the
        :class:`DeliveryStatus` and schedules the CU's handler, with the
        arrival time, one latency later.  Without a CU the report is
        dropped uncounted.
        """
        sim = self._sim

        def send_status(highest_txed_sn: Optional[int],
                        highest_delivered_sn: Optional[int],
                        timestamp: float) -> None:
            handler = self._status_handler
            if handler is None:
                return
            self.status_messages += 1
            arrival = sim.now + self.latency
            sim.schedule_at(arrival, handler, _tuple_new(DeliveryStatus, (
                ue_id, drb_id, highest_txed_sn, highest_delivered_sn,
                timestamp, 0)), arrival)
        return send_status
