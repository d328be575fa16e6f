"""TC-RAN baseline: CoDel / ECN-CoDel inside the RAN with fixed thresholds.

TC-RAN (Irazabal & Nikaein) places a Linux-style qdisc between the SDAP and
PDCP layers and marks or drops packets when the measured sojourn time exceeds
a fixed CoDel target.  The reproduction drives the same CoDel control law with
the sojourn times *measured* from F1-U feedback (transmit minus ingress time)
and marks downlink packets directly -- no egress-rate adaptation and no
feedback short-circuiting, which is exactly what the paper's comparison
(Fig. 12) exercises: similar delay for Prague but lower utilisation, and
under-utilisation for CUBIC because of the fixed 5 ms target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.profile_table import DrbProfile
from repro.net.checksum import mark_ce_with_checksum
from repro.net.ecn import ECN
from repro.net.packet import Packet
from repro.ran.f1u import DeliveryStatus
from repro.ran.identifiers import DrbId, DrbKey, UeId
from repro.ran.marker import RanMarker
from repro.registry import MARKERS
from repro.sim.engine import Simulator
from repro.units import ms


@dataclass
class _CodelDrbState:
    """CoDel control-law state for one bearer."""

    profile: DrbProfile = field(default_factory=DrbProfile)
    recent_sojourn: float = 0.0
    first_above_time: Optional[float] = None
    marking: bool = False
    count: int = 0
    next_mark_time: float = 0.0
    marks: int = 0


class TcRanMarker(RanMarker):
    """CoDel-with-marking between SDAP and PDCP."""

    name = "tcran"

    def __init__(self, sim: Simulator, target: float = ms(5),
                 interval: float = ms(100)) -> None:
        super().__init__()
        self._sim = sim
        self.target = target
        self.interval = interval

    # ------------------------------------------------------------------ #
    def drb_state(self, ue_id: UeId, drb_id: DrbId,
                  attach_tag: str = "") -> _CodelDrbState:
        state = self._drbs.get((ue_id, drb_id, attach_tag))
        if state is None:
            state = _CodelDrbState()
            self._drbs[DrbKey(ue_id, drb_id, attach_tag)] = state
        return state

    # ------------------------------------------------------------------ #
    def on_downlink_packet(self, packet: Packet, ue_id: UeId, drb_id: DrbId,
                           sn: int, now: float, attach_tag: str = "") -> None:
        self.downlink_packets += 1
        state = self.drb_state(ue_id, drb_id, attach_tag)
        state.profile.add_packet(sn, packet.size, now)
        if not state.marking:
            return
        if now < state.next_mark_time:
            return
        if packet.ecn == ECN.NOT_ECT:
            return
        mark_ce_with_checksum(packet, by=self.name)
        state.marks += 1
        self.marked_packets += 1
        state.count += 1
        state.next_mark_time = now + self.interval / math.sqrt(max(1, state.count))

    def on_ran_feedback(self, status: DeliveryStatus, now: float) -> None:
        self.feedback_messages += 1
        state = self._drbs.get((status.ue_id, status.drb_id,
                                status.attach_tag))
        if state is None:
            return  # a released bearer's report: another PDCP's SNs
        newly = state.profile.on_feedback(status.highest_txed_sn,
                                          status.timestamp)
        if newly:  # the sojourn of the newest transmission
            state.recent_sojourn = newly[-1].queueing_delay()
        self._update_control_law(state, now)

    def _update_control_law(self, state: _CodelDrbState, now: float) -> None:
        if state.recent_sojourn < self.target:
            state.first_above_time = None
            if state.marking:
                state.marking = False
            return
        if state.first_above_time is None:
            state.first_above_time = now + self.interval
            return
        if now >= state.first_above_time and not state.marking:
            state.marking = True
            state.count = max(1, state.count - 2) if state.count > 2 else 1
            state.next_mark_time = now


@MARKERS.register("tcran")
def _build_tcran_marker(sim: Simulator, l4span_config=None) -> TcRanMarker:
    """TC-RAN: CoDel-style hard-threshold marking at the CU."""
    return TcRanMarker(sim)
