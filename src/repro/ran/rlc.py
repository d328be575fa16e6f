"""The RLC entity: the queue where 5G downlink latency is born.

One :class:`RlcEntity` exists per (UE, DRB).  Downlink PDCP SDUs wait in its
transmission queue until the MAC scheduler grants the UE transmission
opportunities; the entity then segments SDUs into the granted transport-block
bytes, hands them to the air interface, and -- in acknowledged mode --
retransmits blocks the air interface ultimately fails to deliver.

The entity reports *downlink data delivery status* over F1-U whenever it
transmits an SDU (highest transmitted SN) and, in AM, whenever the UE's RLC
acknowledges delivery (highest delivered SN).  These reports are the only
visibility L4Span has into the queue (paper §4.3.1).

Hot-path notes (this module runs once per MAC grant and once per delivered
transport block):

* ``rlc_head`` timestamps are written only when the head of the queue
  actually changes (enqueue into an empty queue, head pop, retransmission
  takeover) instead of once per grant iteration, and a re-queued SDU that
  (re)reaches the head gets a *fresh* stamp -- so
  :meth:`head_of_line_wait` measures the current head tenure rather than the
  first time the SDU ever saw the head.
* In-order delivery is event-driven: an SDU is parked only when it arrives
  ahead of ``_next_delivery_sn``; there is no speculative flush walk per
  delivered SDU.
* A caller that issues several sub-grants in one scheduling decision (the DU
  splitting a MAC grant across bearers) can pass ``report=False`` and flush
  one combined F1-U report afterwards via :meth:`flush_status`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.packet import Packet
from repro.ran.identifiers import DrbConfig, DrbId, RlcMode, UeId
from repro.ran.phy import AirInterface
from repro.sim.engine import Simulator
from repro.units import ms


@dataclass(slots=True)
class RlcSdu:
    """One PDCP SDU sitting in (or moving through) the RLC."""

    sn: int
    packet: Packet
    size: int
    ingress_time: float
    #: Bytes still to transmit: ``size`` on enqueue and on every re-queue.
    remaining: int
    retransmissions: int = 0
    transmitted_time: Optional[float] = None
    delivered_time: Optional[float] = None


class RlcEntity:
    """Transmission (and, for AM, retransmission) queue of one bearer.

    Args:
        sim: simulator.
        ue_id / config: owning UE and bearer configuration.
        air: the air-interface delay model used for transmitted blocks.
        deliver: callback ``deliver(packet, delivery_time)`` invoked when an
            SDU reaches the UE.
        send_status: callback taking ``(highest_txed_sn, highest_delivered_sn,
            timestamp)`` used to emit F1-U delivery-status reports.
        status_delay: latency between a delivery event at the UE and the RLC
            ACK reaching the DU (models the UE status-reporting cadence).
    """

    __slots__ = ("_sim", "ue_id", "config", "drb_id", "_air", "_deliver",
                 "_send_status", "status_delay", "_tx_queue", "_retx_queue",
                 "highest_txed_sn", "highest_delivered_sn", "enqueued_sdus",
                 "dropped_sdus", "delivered_sdus", "lost_sdus",
                 "transmitted_bytes", "backlog_bytes", "_next_delivery_sn",
                 "_pending_delivery", "_skipped_sns", "reassembly_timeout",
                 "_delivery_report_pending", "_status_dirty", "_is_am",
                 "_max_queue_sdus", "_released", "abandoned_sdus", "mac")

    def __init__(self, sim: Simulator, ue_id: UeId, config: DrbConfig,
                 air: AirInterface,
                 deliver: Callable[[Packet, float], None],
                 send_status: Callable[[Optional[int], Optional[int], float], None],
                 status_delay: float = ms(10.0)) -> None:
        self._sim = sim
        self.ue_id = ue_id
        self.config = config
        self.drb_id: DrbId = config.drb_id
        self._air = air
        self._deliver = deliver
        self._send_status = send_status
        self.status_delay = status_delay

        self._tx_queue: deque[RlcSdu] = deque()
        self._retx_queue: deque[RlcSdu] = deque()
        self.highest_txed_sn: Optional[int] = None
        self.highest_delivered_sn: Optional[int] = None

        self.enqueued_sdus = 0
        self.dropped_sdus = 0
        self.delivered_sdus = 0
        self.lost_sdus = 0
        self.transmitted_bytes = 0
        #: Bytes waiting for a transmission grant (tx + re-tx queues); a plain
        #: attribute because the MAC reads it for every UE on every slot.
        self.backlog_bytes = 0

        # In-order delivery towards the UE's upper layers: SDUs whose air
        # transfer finished out of order wait here, keyed by SN, until the
        # gap closes (or, in UM, until the reassembly timer gives up on it).
        self._next_delivery_sn = 0
        self._pending_delivery: dict[int, tuple[RlcSdu, float]] = {}
        self._skipped_sns: set[int] = set()
        self.reassembly_timeout = ms(40.0)
        self._delivery_report_pending = False
        self._status_dirty = False
        # Mode/limit resolved once: reading enum-valued dataclass fields per
        # delivered block is measurable at scenario event rates.
        self._is_am = config.rlc_mode == RlcMode.AM
        self._max_queue_sdus = config.max_queue_sdus
        # Set by release() when the UE hands over away from this cell; air
        # blocks still in flight then complete against a dead entity.
        self._released = False
        self.abandoned_sdus = 0
        #: The cell's MacScheduler (set by the DU): backlog growth wakes it.
        self.mac = None

    # ------------------------------------------------------------------ #
    # Ingress (from PDCP over F1-U)
    # ------------------------------------------------------------------ #
    def enqueue(self, sn: int, packet: Packet) -> bool:
        """Append one SDU to the transmission queue.

        Returns False (and drops the SDU) when the queue already holds
        ``max_queue_sdus`` SDUs, mirroring srsRAN's bounded RLC queue.
        """
        if len(self._tx_queue) + len(self._retx_queue) >= self._max_queue_sdus:
            self.dropped_sdus += 1
            return False
        now = self._sim.now
        size = packet.size
        stamps = packet.timestamps
        stamps.setdefault("rlc_enqueue", now)
        sdu = RlcSdu(sn, packet, size, now, size)
        if not self._tx_queue and not self._retx_queue:
            stamps.setdefault("rlc_head", now)
        self._tx_queue.append(sdu)
        self.backlog_bytes += size
        self.enqueued_sdus += 1
        if self.mac is not None and self.mac._timer.parked:
            self.mac.wake()
        return True

    # ------------------------------------------------------------------ #
    # Queue state
    # ------------------------------------------------------------------ #
    @property
    def queue_length_sdus(self) -> int:
        """Number of SDUs waiting (the unit the paper's Fig. 17 reports)."""
        return len(self._tx_queue) + len(self._retx_queue)

    def head_of_line_wait(self) -> float:
        """Seconds the current head SDU has waited since (re)reaching the head."""
        head = self._head()
        if head is None:
            return 0.0
        stamp = head.packet.timestamps.get("rlc_head", head.ingress_time)
        return max(0.0, self._sim.now - stamp)

    def _head(self) -> Optional[RlcSdu]:
        if self._retx_queue:
            return self._retx_queue[0]
        if self._tx_queue:
            return self._tx_queue[0]
        return None

    # ------------------------------------------------------------------ #
    # Egress (MAC grant)
    # ------------------------------------------------------------------ #
    def pull(self, grant_bytes: int, report: bool = True) -> int:
        """Consume up to ``grant_bytes`` from the queues; returns bytes used.

        SDUs are segmented: a grant smaller than the head SDU reduces its
        ``remaining`` counter, and the SDU is only considered *transmitted*
        (triggering the F1-U report and the air-interface transfer) when its
        last segment leaves.  One delivery-status report is emitted per grant
        (not per SDU), mirroring the batched DDDS reports of a real DU; with
        ``report=False`` even that report is deferred until
        :meth:`flush_status`, letting the DU coalesce several sub-grants of
        one scheduling decision into a single report.
        """
        now = self._sim.now
        retx = self._retx_queue
        tx = self._tx_queue
        used = 0
        transmitted_any = False
        while used < grant_bytes:
            queue = retx if retx else tx
            if not queue:
                break
            sdu = queue[0]
            budget = grant_bytes - used
            remaining = sdu.remaining
            if remaining > budget:
                sdu.remaining = remaining - budget
                used += budget
                break
            used += remaining
            sdu.remaining = 0
            queue.popleft()
            self.backlog_bytes -= sdu.size
            # The SDU's last segment left: hand it to the air interface.
            sdu.transmitted_time = now
            sdu.packet.timestamps["rlc_dequeue"] = now
            sn = sdu.sn
            if self.highest_txed_sn is None or sn > self.highest_txed_sn:
                self.highest_txed_sn = sn
            self._air.transmit(self.ue_id, self._on_sdu_delivered,
                               self._on_sdu_failed, sdu)
            transmitted_any = True
            nxt = retx[0] if retx else (tx[0] if tx else None)
            if nxt is not None:
                nxt.packet.timestamps["rlc_head"] = now
        self.transmitted_bytes += used
        if transmitted_any:
            if report:
                self._send_status(self.highest_txed_sn,
                                  self.highest_delivered_sn, now)
            else:
                self._status_dirty = True
        return used

    def flush_status(self) -> None:
        """Emit the delivery-status report deferred by ``pull(report=False)``.

        A no-op unless a deferred pull actually transmitted something, so the
        DU can call it unconditionally after splitting a grant.
        """
        if self._status_dirty:
            self._status_dirty = False
            self._send_status(self.highest_txed_sn, self.highest_delivered_sn,
                              self._sim.now)

    # ------------------------------------------------------------------ #
    # Handover release
    # ------------------------------------------------------------------ #
    def release(self) -> tuple[list[Packet], int]:
        """Detach this entity from service (the UE handed over away).

        Returns ``(queued_packets, pending_dropped)``: the SDU packets still
        waiting for a grant, in the order they would have been served
        (retransmissions first), and the count of SDUs that had crossed the
        air but were still parked in the in-order delivery buffer (those are
        dropped -- the UE left before the gap below them closed).  After
        release the entity ignores the outcomes of air blocks still in
        flight (counted in :attr:`abandoned_sdus`) and emits no further
        F1-U reports.
        """
        packets = ([sdu.packet for sdu in self._retx_queue]
                   + [sdu.packet for sdu in self._tx_queue])
        pending_dropped = len(self._pending_delivery)
        self._retx_queue.clear()
        self._tx_queue.clear()
        self._pending_delivery.clear()
        self._skipped_sns.clear()
        self.backlog_bytes = 0
        self._status_dirty = False
        self._released = True
        return packets, pending_dropped

    # ------------------------------------------------------------------ #
    # Transmission outcome handling
    # ------------------------------------------------------------------ #
    def _on_sdu_delivered(self, sdu: RlcSdu, delivery_time: float) -> None:
        if self._released:
            self.abandoned_sdus += 1
            return
        sdu.delivered_time = delivery_time
        self.delivered_sdus += 1
        sn = sdu.sn
        next_sn = self._next_delivery_sn
        if sn < next_sn:
            # The reassembly timer (or a permanent failure bookkeeping bug)
            # already advanced past this SN: a late-but-successful delivery
            # must still reach the UE immediately -- parking it in
            # ``_pending_delivery`` would leak it forever.
            self._skipped_sns.discard(sn)
            now = self._sim.now
            sdu.packet.timestamps.setdefault("ue_delivered", now)
            self._deliver(sdu.packet, now)
        elif sn == next_sn:
            self._pending_delivery[sn] = (sdu, delivery_time)
            self._flush_in_order()
        else:
            self._pending_delivery[sn] = (sdu, delivery_time)
            if not self._is_am:
                # A gap ahead of this SDU will never be retransmitted in UM;
                # give it one reassembly-timer's grace, then skip it.
                self._sim.schedule(self.reassembly_timeout,
                                   self._um_reassembly_expiry, sn)
        if self._is_am:
            if self.highest_delivered_sn is None or sn > self.highest_delivered_sn:
                self.highest_delivered_sn = sn
            if not self._delivery_report_pending:
                self._delivery_report_pending = True
                self._sim.schedule(self.status_delay, self._report_delivery)

    def _flush_in_order(self) -> None:
        """Hand every in-sequence pending SDU to the UE, in SN order."""
        pending = self._pending_delivery
        skipped = self._skipped_sns
        next_sn = self._next_delivery_sn
        now = self._sim.now
        while True:
            if skipped and next_sn in skipped:
                skipped.discard(next_sn)
                next_sn += 1
                continue
            item = pending.pop(next_sn, None)
            if item is None:
                break
            packet = item[0].packet
            packet.timestamps.setdefault("ue_delivered", now)
            self._deliver(packet, now)
            next_sn += 1
        self._next_delivery_sn = next_sn

    def _um_reassembly_expiry(self, received_sn: int) -> None:
        """UM reassembly timer: give up on gaps below an SDU already received."""
        if self._released or received_sn < self._next_delivery_sn:
            return
        for sn in range(self._next_delivery_sn, received_sn):
            if sn not in self._pending_delivery:
                self._skipped_sns.add(sn)
        self._flush_in_order()

    def _report_delivery(self) -> None:
        self._delivery_report_pending = False
        if self._released:
            return
        self._send_status(self.highest_txed_sn, self.highest_delivered_sn,
                          self._sim.now)

    def _on_sdu_failed(self, sdu: RlcSdu, failure_time: float) -> None:
        if self._released:
            self.abandoned_sdus += 1
            return
        if self._is_am and sdu.retransmissions < 8:
            sdu.retransmissions += 1
            sdu.remaining = sdu.size
            if not self._retx_queue:
                # The re-queued SDU takes over the head (the re-tx queue has
                # priority): give it a fresh head stamp so head-of-line wait
                # is not inflated by its first pass through the queue.
                sdu.packet.timestamps["rlc_head"] = self._sim.now
            self._retx_queue.append(sdu)
            self.backlog_bytes += sdu.size
            if self.mac is not None and self.mac._timer.parked:
                self.mac.wake()
        else:
            self.lost_sdus += 1
            # Never block in-order delivery on an SDU that will not arrive.
            if sdu.sn >= self._next_delivery_sn:
                self._skipped_sns.add(sdu.sn)
                self._flush_in_order()

    # ------------------------------------------------------------------ #
    def queued_sdu_sizes(self) -> list[int]:
        """Sizes of every SDU still waiting, head first (used by probes)."""
        return ([s.size for s in self._retx_queue]
                + [s.size for s in self._tx_queue])
