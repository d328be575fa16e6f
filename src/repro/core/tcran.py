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


class TcRanMarker:
    """CoDel-with-marking between SDAP and PDCP."""

    name = "tcran"

    def __init__(self, sim: Simulator, target: float = ms(5),
                 interval: float = ms(100)) -> None:
        self._sim = sim
        self.target = target
        self.interval = interval
        self._drbs: dict[DrbKey, _CodelDrbState] = {}
        self.downlink_packets = 0
        self.uplink_packets = 0
        self.feedback_messages = 0
        self.marked_packets = 0

    # ------------------------------------------------------------------ #
    def _state(self, ue_id: UeId, drb_id: DrbId) -> _CodelDrbState:
        state = self._drbs.get((ue_id, drb_id))
        if state is None:
            state = _CodelDrbState()
            self._drbs[DrbKey(ue_id, drb_id)] = state
        return state

    # ------------------------------------------------------------------ #
    def on_downlink_packet(self, packet: Packet, ue_id: UeId, drb_id: DrbId,
                           now: float) -> None:
        self.downlink_packets += 1
        state = self._state(ue_id, drb_id)
        state.profile.add_packet(packet.size, now)
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
        state = self._state(status.ue_id, status.drb_id)
        newly = state.profile.on_feedback(status.highest_txed_sn,
                                          status.highest_delivered_sn,
                                          status.timestamp)
        for entry in newly:
            delay = entry.queueing_delay()
            if delay is not None:
                state.recent_sojourn = delay
        state.profile.purge(now)
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

    def on_uplink_packet(self, packet: Packet, now: float) -> None:
        self.uplink_packets += 1


@MARKERS.register("tcran")
def _build_tcran_marker(sim: Simulator, l4span_config=None) -> TcRanMarker:
    """TC-RAN: CoDel-style hard-threshold marking at the CU."""
    return TcRanMarker(sim)
