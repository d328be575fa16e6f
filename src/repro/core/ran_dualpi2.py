"""The "DualPi2 in the RAN" baseline of the marking-behaviour microbenchmark.

Section 6.3.1 re-implements the wired DualPi2 strategy at the same place
L4Span sits, to show that a hard sojourn-time threshold (1 ms or 10 ms) on the
*measured* queue delay cannot track a volatile wireless egress rate and causes
severe under-utilisation.  This marker reproduces that baseline:

* L4S packets are marked whenever the measured standing-queue sojourn exceeds
  the threshold (DualPi2's L-queue step), plus the coupled probability;
* classic packets are marked with ``p' ** 2`` where ``p'`` is a PI controller
  tracking the measured sojourn against the classic 15 ms target.

Marking is applied to downlink packets (no short-circuiting, no error-aware
softening), exactly like a wired DualPi2 dropped into the CU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aqm.dualpi2 import DualPi2Core
from repro.core.profile_table import DrbProfile
from repro.net.checksum import mark_ce_with_checksum
from repro.net.ecn import ECN, FlowClass
from repro.net.packet import Packet
from repro.ran.f1u import DeliveryStatus
from repro.ran.identifiers import DrbId, DrbKey, UeId
from repro.registry import MARKERS
from repro.sim.engine import Simulator
from repro.sim.randomness import block_draws, chance
from repro.units import ms


@dataclass
class _DualPi2DrbState:
    """Per-bearer state of the in-RAN DualPi2 baseline."""

    profile: DrbProfile = field(default_factory=DrbProfile)
    core: DualPi2Core = field(default_factory=DualPi2Core)
    last_update: float = 0.0
    marks: int = 0
    #: Uniform block draws of the marking stream; set by ``_state``.
    mark_draw: object = None


class RanDualPi2Marker:
    """Wired DualPi2 semantics applied at the CU, for the §6.3.1 ablation."""

    name = "ran_dualpi2"

    def __init__(self, sim: Simulator, l4s_threshold: float = ms(1),
                 classic_target: float = ms(15)) -> None:
        self._sim = sim
        self.l4s_threshold = l4s_threshold
        self.classic_target = classic_target
        self._drbs: dict[DrbKey, _DualPi2DrbState] = {}
        self._ue_stream_tags: dict[UeId, str] = {}
        self.downlink_packets = 0
        self.uplink_packets = 0
        self.feedback_messages = 0
        self.marked_packets = 0

    def set_ue_stream_tag(self, ue_id: UeId, tag: str) -> None:
        """Qualify future marking streams of ``ue_id`` (handover arrival)."""
        self._ue_stream_tags[ue_id] = tag

    # ------------------------------------------------------------------ #
    def _state(self, ue_id: UeId, drb_id: DrbId) -> _DualPi2DrbState:
        state = self._drbs.get((ue_id, drb_id))
        if state is None:
            state = _DualPi2DrbState()
            state.core.l4s_threshold = self.l4s_threshold
            state.core.target = self.classic_target
            state.mark_draw = block_draws(self._sim.random.stream(
                f"ran-dualpi2-{ue_id}-{drb_id}"
                f"{self._ue_stream_tags.get(ue_id, '')}"))
            self._drbs[DrbKey(ue_id, drb_id)] = state
        return state

    # ------------------------------------------------------------------ #
    def on_downlink_packet(self, packet: Packet, ue_id: UeId, drb_id: DrbId,
                           now: float) -> None:
        self.downlink_packets += 1
        state = self._state(ue_id, drb_id)
        state.profile.add_packet(packet.size, now)
        if packet.ecn == ECN.NOT_ECT:
            return
        sojourn = state.profile.head_sojourn(now)
        if packet.flow_class == FlowClass.L4S:
            probability = state.core.l4s_mark_probability(sojourn)
        else:
            probability = state.core.p_classic
        if chance(state.mark_draw, probability):
            mark_ce_with_checksum(packet, by=self.name)
            state.marks += 1
            self.marked_packets += 1

    def on_ran_feedback(self, status: DeliveryStatus, now: float) -> None:
        self.feedback_messages += 1
        state = self._state(status.ue_id, status.drb_id)
        state.profile.on_feedback(status.highest_txed_sn,
                                  status.highest_delivered_sn,
                                  status.timestamp)
        state.profile.purge(now)
        # Advance the PI controller at its nominal cadence using the measured
        # head sojourn as the classic queue-delay signal.
        if now - state.last_update >= state.core.tupdate:
            state.core.update(state.profile.head_sojourn(now))
            state.last_update = now

    def on_uplink_packet(self, packet: Packet, now: float) -> None:
        self.uplink_packets += 1


@MARKERS.register("ran_dualpi2")
def _build_ran_dualpi2(sim: Simulator, l4span_config=None) -> RanDualPi2Marker:
    """DualPi2 moved into the RAN, with its stock 1 ms L4S step threshold."""
    return RanDualPi2Marker(sim, l4s_threshold=ms(1))


@MARKERS.register("ran_dualpi2_10ms")
def _build_ran_dualpi2_10ms(sim: Simulator,
                            l4span_config=None) -> RanDualPi2Marker:
    """RAN DualPi2 with the threshold lifted to L4Span's 10 ms tau_s."""
    return RanDualPi2Marker(sim, l4s_threshold=ms(10))
