"""Tests for the RLC entity: queueing, grants, feedback and in-order delivery."""

from __future__ import annotations

import pytest

from repro.net.ecn import ECN
from repro.net.packet import make_data_packet
from repro.ran.identifiers import DrbConfig, RlcMode
from repro.ran.phy import AirInterface, AirInterfaceConfig
from repro.ran.rlc import RlcEntity


class RlcHarness:
    """An RLC entity with captured delivery and status callbacks."""

    def __init__(self, sim, mode=RlcMode.AM, max_sdus=100, bler=0.0):
        self.delivered = []
        self.status_reports = []
        air = AirInterface(sim, AirInterfaceConfig(target_bler=bler,
                                                   delivery_jitter=0.0))
        self.entity = RlcEntity(
            sim, ue_id=0,
            config=DrbConfig(drb_id=1, rlc_mode=mode, max_queue_sdus=max_sdus),
            air=air,
            deliver=lambda packet, t: self.delivered.append(packet),
            send_status=lambda tx, dl, t: self.status_reports.append((tx, dl, t)))

    def enqueue_packets(self, five_tuple, count, payload=1400, start_sn=0):
        for i in range(count):
            packet = make_data_packet(0, five_tuple, i * payload, payload,
                                      ECN.ECT1, 0.0)
            self.entity.enqueue(start_sn + i, packet)


class TestRlcQueueing:
    def test_enqueue_tracks_backlog(self, sim, five_tuple):
        harness = RlcHarness(sim)
        harness.enqueue_packets(five_tuple, 3)
        assert harness.entity.queue_length_sdus == 3
        assert harness.entity.backlog_bytes == 3 * 1440

    def test_queue_limit_drops(self, sim, five_tuple):
        harness = RlcHarness(sim, max_sdus=2)
        harness.enqueue_packets(five_tuple, 5)
        assert harness.entity.queue_length_sdus == 2
        assert harness.entity.dropped_sdus == 3

    def test_pull_consumes_whole_sdus_and_reports_status(self, sim, five_tuple):
        harness = RlcHarness(sim)
        harness.enqueue_packets(five_tuple, 3)
        used = harness.entity.pull(2 * 1440)
        assert used == 2 * 1440
        assert harness.entity.queue_length_sdus == 1
        assert harness.status_reports  # one batched report per grant
        assert harness.status_reports[-1][0] == 1  # highest txed SN

    def test_partial_grant_segments_sdu(self, sim, five_tuple):
        harness = RlcHarness(sim)
        harness.enqueue_packets(five_tuple, 1)
        used = harness.entity.pull(700)
        assert used == 700
        # Not yet transmitted: the SDU still occupies the queue.
        assert harness.entity.queue_length_sdus == 1
        assert harness.entity.highest_txed_sn is None
        used = harness.entity.pull(800)
        assert used == 1440 - 700
        assert harness.entity.highest_txed_sn == 0

    def test_pull_on_empty_queue_returns_zero(self, sim, five_tuple):
        harness = RlcHarness(sim)
        assert harness.entity.pull(5000) == 0

    def test_delivery_reaches_ue(self, sim, five_tuple):
        harness = RlcHarness(sim)
        harness.enqueue_packets(five_tuple, 2)
        harness.entity.pull(2 * 1440)
        sim.run(until=0.1)
        assert len(harness.delivered) == 2

    def test_in_order_delivery_despite_harq_jitter(self, sim, five_tuple):
        harness = RlcHarness(sim, bler=0.3)
        harness.enqueue_packets(five_tuple, 20)
        harness.entity.pull(20 * 1440)
        sim.run(until=1.0)
        assert len(harness.delivered) == 20
        seqs = [p.seq for p in harness.delivered]
        assert seqs == sorted(seqs)

    def test_delivered_sn_reported_in_am(self, sim, five_tuple):
        harness = RlcHarness(sim, mode=RlcMode.AM)
        harness.enqueue_packets(five_tuple, 2)
        harness.entity.pull(2 * 1440)
        sim.run(until=0.5)
        assert harness.entity.highest_delivered_sn == 1
        assert any(report[1] == 1 for report in harness.status_reports)

    def test_um_mode_never_reports_delivery(self, sim, five_tuple):
        harness = RlcHarness(sim, mode=RlcMode.UM)
        harness.enqueue_packets(five_tuple, 2)
        harness.entity.pull(2 * 1440)
        sim.run(until=0.5)
        assert all(report[1] is None for report in harness.status_reports)

    def test_timestamps_stamped_for_breakdown(self, sim, five_tuple):
        harness = RlcHarness(sim)
        harness.enqueue_packets(five_tuple, 1)
        harness.entity.pull(1440)
        sim.run(until=0.1)
        packet = harness.delivered[0]
        assert "rlc_enqueue" in packet.timestamps
        assert "rlc_dequeue" in packet.timestamps
        assert "ue_delivered" in packet.timestamps
        assert (packet.timestamps["ue_delivered"]
                >= packet.timestamps["rlc_dequeue"]
                >= packet.timestamps["rlc_enqueue"])

    def test_head_of_line_wait_grows_with_time(self, sim, five_tuple):
        harness = RlcHarness(sim)
        harness.enqueue_packets(five_tuple, 1)
        sim.schedule(0.2, lambda: None)
        sim.run()
        assert harness.entity.head_of_line_wait() == pytest.approx(0.2)


class TestRlcRetransmissionAccounting:
    """AM retransmission bookkeeping: bytes, loss and head-of-line stamps."""

    def test_am_retx_byte_accounting_invariant(self, sim, five_tuple):
        # target_bler=1.0 makes every HARQ attempt (and the final decode)
        # fail, so each transmission is re-queued until the 8-retx cap.
        harness = RlcHarness(sim, bler=1.0)
        entity = harness.entity
        harness.enqueue_packets(five_tuple, 1)
        for _attempt in range(9):  # initial transmission + 8 retransmissions
            assert entity.backlog_bytes == sum(entity.queued_sdu_sizes())
            assert entity.queue_length_sdus == 1
            used = entity.pull(1440)
            assert used == 1440
            assert entity.backlog_bytes == 0
            sim.run(until=sim.now + 1.0)  # air failure -> re-queue (or loss)
        assert entity.lost_sdus == 1
        assert entity.queue_length_sdus == 0
        assert entity.backlog_bytes == 0
        assert harness.delivered == []

    def test_reenqueued_packet_keeps_first_enqueue_stamp(self, sim,
                                                         five_tuple):
        """A packet entering a second RLC queue (a handover-forwarded SDU)
        keeps its first ``rlc_enqueue`` and ``rlc_head`` stamps; leaving the
        queue overrides ``rlc_dequeue``."""
        first, second = RlcHarness(sim).entity, RlcHarness(sim).entity
        packet = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0)
        first.enqueue(0, packet)
        first.pull(1440)
        sim.schedule(0.001, lambda: None)
        sim.run()
        second.enqueue(0, packet)
        second.pull(1440)
        assert packet.timestamps["rlc_enqueue"] == 0.0
        assert packet.timestamps["rlc_head"] == 0.0
        assert packet.timestamps["rlc_dequeue"] == sim.now > 0.0

    def test_requeued_sdu_gets_fresh_head_stamp(self, sim, five_tuple):
        """After a HARQ failure the re-queued SDU must not report a
        head-of-line wait inflated by its first pass through the queue."""
        harness = RlcHarness(sim, bler=1.0)
        entity = harness.entity
        harness.enqueue_packets(five_tuple, 1)
        entity.pull(1440)
        # Failure (and re-queue) happens at base_delay + 3 * harq_rtt = 26 ms.
        requeue_time = 0.002 + 3 * 0.008
        sim.schedule(0.05, lambda: None)
        sim.run()
        assert entity.queue_length_sdus == 1
        assert entity.head_of_line_wait() == pytest.approx(
            sim.now - requeue_time)


class TestRlcInOrderDelivery:
    """In-order delivery across skipped SNs and late UM deliveries."""

    def _detach_queued_sdus(self, entity, count):
        """Take the queued SDUs out of the entity so delivery outcomes can be
        injected in a controlled order (as if their air transfers raced)."""
        sdus = list(entity._tx_queue)[:count]
        for _ in range(count):
            entity._tx_queue.popleft()
        entity.backlog_bytes -= sum(s.size for s in sdus)
        return sdus

    def test_um_late_delivery_after_expiry_is_not_leaked(self, sim, five_tuple):
        harness = RlcHarness(sim, mode=RlcMode.UM)
        entity = harness.entity
        harness.enqueue_packets(five_tuple, 3)
        sdus = self._detach_queued_sdus(entity, 3)
        # SNs 1 and 2 complete their air transfer while SN 0 is still in
        # flight: the gap holds delivery back.
        entity._on_sdu_delivered(sdus[1], sim.now)
        entity._on_sdu_delivered(sdus[2], sim.now)
        assert harness.delivered == []
        # The UM reassembly timer gives up on the gap...
        sim.run(until=0.1)
        assert [p.seq for p in harness.delivered] == [1400, 2800]
        # ...and a late-but-successful SN 0 must still reach the UE
        # immediately instead of parking in the pending map forever.
        entity._on_sdu_delivered(sdus[0], sim.now)
        assert [p.seq for p in harness.delivered] == [1400, 2800, 0]
        assert entity._pending_delivery == {}
        assert entity._skipped_sns == set()

    def test_flush_across_skipped_sns(self, sim, five_tuple):
        harness = RlcHarness(sim, mode=RlcMode.UM)
        entity = harness.entity
        harness.enqueue_packets(five_tuple, 4)
        sdus = self._detach_queued_sdus(entity, 4)
        # SNs 0 and 1 are permanently lost (UM never retransmits), SN 2 lands.
        entity._on_sdu_failed(sdus[0], sim.now)
        entity._on_sdu_failed(sdus[1], sim.now)
        assert entity.lost_sdus == 2
        entity._on_sdu_delivered(sdus[2], sim.now)
        assert [p.seq for p in harness.delivered] == [2800]
        # Delivery resumed past the skipped gap: SN 3 flows straight through.
        entity._on_sdu_delivered(sdus[3], sim.now)
        assert [p.seq for p in harness.delivered] == [2800, 4200]

    def test_am_delivery_resumes_after_exhausted_retx(self, sim, five_tuple):
        """A lost AM SDU (retx cap hit) must not block later SNs."""
        harness = RlcHarness(sim, bler=1.0)
        entity = harness.entity
        harness.enqueue_packets(five_tuple, 2)
        sdus = self._detach_queued_sdus(entity, 2)
        sdus[0].retransmissions = 8  # cap reached: the next failure is final
        entity._on_sdu_failed(sdus[0], sim.now)
        assert entity.lost_sdus == 1
        entity._on_sdu_delivered(sdus[1], sim.now)
        assert [p.seq for p in harness.delivered] == [1400]
