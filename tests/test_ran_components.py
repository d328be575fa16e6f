"""Tests for cell config, SDAP, PDCP, F1-U, PHY and the MAC scheduler."""

from __future__ import annotations

import random

import pytest

from repro.channel.static import StaticChannel
from repro.net.ecn import ECN
from repro.net.packet import make_data_packet
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.f1u import DeliveryStatus, F1UInterface
from repro.ran.identifiers import DrbConfig, DrbServiceClass
from repro.ran.mac import MacScheduler, SchedulerPolicy
from repro.ran.pdcp import PdcpEntity
from repro.ran.phy import AirInterface, AirInterfaceConfig
from repro.ran.sdap import SdapEntity
from repro.ran.ue import UeConfig, UeContext
from repro.sim.engine import Simulator


class TestCellConfig:
    def test_slot_duration_for_30khz(self):
        assert CellConfig(subcarrier_spacing_khz=30).slot_duration == pytest.approx(0.0005)

    def test_slot_duration_for_15khz(self):
        assert CellConfig(subcarrier_spacing_khz=15).slot_duration == pytest.approx(0.001)

    def test_peak_rate_close_to_paper_cell(self):
        # The paper's 20 MHz n78 cell yields roughly 40 Mbit/s.
        assert 30 <= CellConfig().peak_rate_mbps() <= 50

    def test_capacity_scales_with_prbs(self):
        cell = CellConfig()
        assert cell.slot_capacity_bytes(5.0, num_prb=10) < \
            cell.slot_capacity_bytes(5.0, num_prb=40)

    def test_describe_mentions_bandwidth(self):
        assert "20 MHz" in CellConfig().describe()


class TestSdap:
    def _sdap_with_split_drbs(self):
        return SdapEntity(0, [
            DrbConfig(1, service_class=DrbServiceClass.L4S),
            DrbConfig(2, service_class=DrbServiceClass.CLASSIC),
        ])

    def test_l4s_packet_maps_to_l4s_drb(self, five_tuple):
        sdap = self._sdap_with_split_drbs()
        packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
        assert sdap.drb_for_packet(packet) == 1

    def test_classic_packet_maps_to_classic_drb(self, five_tuple):
        sdap = self._sdap_with_split_drbs()
        packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT0, 0.0)
        assert sdap.drb_for_packet(packet) == 2

    def test_single_drb_catches_everything(self, five_tuple):
        sdap = SdapEntity(0, [DrbConfig(1)])
        for ecn in (ECN.ECT0, ECN.ECT1, ECN.NOT_ECT):
            packet = make_data_packet(0, five_tuple, 0, 100, ecn, 0.0)
            assert sdap.drb_for_packet(packet) == 1

    def test_explicit_qfi_pin_wins(self, five_tuple):
        sdap = self._sdap_with_split_drbs()
        sdap.map_qfi(9, 2)
        packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
        assert sdap.drb_for_packet(packet, qfi=9) == 2

    def test_pinning_unknown_drb_rejected(self):
        sdap = self._sdap_with_split_drbs()
        with pytest.raises(KeyError):
            sdap.map_qfi(9, 99)

    def test_needs_at_least_one_drb(self):
        with pytest.raises(ValueError):
            SdapEntity(0, [])


class TestPdcp:
    def test_sequence_numbers_increase(self, five_tuple):
        submitted = []
        pdcp = PdcpEntity(0, DrbConfig(1),
                          send_downlink=lambda *args: submitted.append(args))
        for i in range(3):
            packet = make_data_packet(0, five_tuple, i * 100, 100, ECN.ECT1, 0.0)
            sn = pdcp.submit(packet)
            assert sn == i
            assert packet.payload_info["pdcp_sn"] == i
        assert len(submitted) == 3


class TestF1U:
    def test_downlink_sdu_arrives_after_latency(self, sim, five_tuple):
        received = []
        f1u = F1UInterface(sim, latency=0.001)
        f1u.connect_du(lambda *args: received.append((sim.now, args)))
        packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
        f1u.send_downlink_sdu(0, 1, 5, packet)
        sim.run()
        assert len(received) == 1
        assert received[0][0] == pytest.approx(0.001)
        assert received[0][1][2] == 5

    def test_status_report_reaches_cu(self, sim):
        reports = []
        f1u = F1UInterface(sim, latency=0.001)
        f1u.connect_cu(reports.append)
        f1u.send_delivery_status(DeliveryStatus(0, 1, 7, 3, 0.0))
        sim.run()
        assert reports[0].highest_txed_sn == 7

    def test_downlink_without_du_raises(self, sim, five_tuple):
        f1u = F1UInterface(sim)
        packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
        with pytest.raises(RuntimeError):
            f1u.send_downlink_sdu(0, 1, 0, packet)

    def test_status_without_cu_is_dropped_silently(self, sim):
        f1u = F1UInterface(sim)
        f1u.send_delivery_status(DeliveryStatus(0, 1, 1, None, 0.0))
        assert f1u.status_messages == 0


class TestAirInterface:
    def test_all_blocks_resolve(self, sim):
        air = AirInterface(sim, AirInterfaceConfig(target_bler=0.2))
        outcomes = []
        for _ in range(200):
            air.transmit(0, on_delivered=lambda t: outcomes.append("ok"),
                         on_failed=lambda t: outcomes.append("fail"))
        sim.run()
        assert len(outcomes) == 200
        assert outcomes.count("ok") > 150

    def test_zero_bler_never_fails_or_retransmits(self, sim):
        air = AirInterface(sim, AirInterfaceConfig(target_bler=0.0))
        delivered = []
        for _ in range(50):
            air.transmit(0, on_delivered=delivered.append,
                         on_failed=lambda t: pytest.fail("unexpected failure"))
        sim.run()
        assert len(delivered) == 50
        assert air.harq_retransmissions == 0

    def test_harq_adds_delay(self, sim):
        config = AirInterfaceConfig(target_bler=0.9, delivery_jitter=0.0)
        air = AirInterface(sim, config)
        times = []
        for _ in range(50):
            air.transmit(0, on_delivered=times.append, on_failed=times.append)
        sim.run()
        # With 90% BLER most blocks need several HARQ rounds.
        assert max(times) > config.base_delay + config.harq_rtt


class TestMacScheduler:
    def _scheduler_with_ues(self, sim, num_ues, policy, backlogs):
        cell = CellConfig()
        scheduler = MacScheduler(sim, cell, policy=policy)
        pulls = {ue: [] for ue in range(num_ues)}

        def make_pull(ue):
            def pull(grant):
                pulls[ue].append(grant)
                return min(grant, backlogs[ue])
            return pull

        for ue in range(num_ues):
            scheduler.register_ue(ue, StaticChannel(snr_db=22),
                                  backlog_bytes=lambda ue=ue: backlogs[ue],
                                  pull=make_pull(ue))
        return scheduler, pulls

    def test_round_robin_splits_grants_evenly(self, sim):
        backlogs = {0: 10**7, 1: 10**7}
        scheduler, pulls = self._scheduler_with_ues(
            sim, 2, SchedulerPolicy.ROUND_ROBIN, backlogs)
        sim.run(until=0.05)
        scheduler.stop()
        total0, total1 = sum(pulls[0]), sum(pulls[1])
        assert total0 > 0 and total1 > 0
        assert abs(total0 - total1) / max(total0, total1) < 0.1

    def test_idle_ues_are_not_scheduled(self, sim):
        backlogs = {0: 10**7, 1: 0}
        scheduler, pulls = self._scheduler_with_ues(
            sim, 2, SchedulerPolicy.ROUND_ROBIN, backlogs)
        sim.run(until=0.05)
        scheduler.stop()
        assert sum(pulls[1]) == 0
        assert sum(pulls[0]) > 0

    def test_single_ue_gets_near_cell_capacity(self, sim):
        backlogs = {0: 10**9}
        scheduler, pulls = self._scheduler_with_ues(
            sim, 1, SchedulerPolicy.ROUND_ROBIN, backlogs)
        sim.run(until=1.0)
        scheduler.stop()
        rate_mbps = sum(pulls[0]) * 8 / 1e6
        assert 25 <= rate_mbps <= 55

    def test_proportional_fair_serves_all_backlogged_ues(self, sim):
        backlogs = {ue: 10**7 for ue in range(4)}
        scheduler, pulls = self._scheduler_with_ues(
            sim, 4, SchedulerPolicy.PROPORTIONAL_FAIR, backlogs)
        sim.run(until=0.2)
        scheduler.stop()
        assert all(sum(pulls[ue]) > 0 for ue in range(4))

    def test_throughput_report_covers_all_ues(self, sim):
        backlogs = {0: 10**7, 1: 10**7}
        scheduler, _ = self._scheduler_with_ues(
            sim, 2, SchedulerPolicy.ROUND_ROBIN, backlogs)
        sim.run(until=0.05)
        scheduler.stop()
        report = scheduler.throughput_report()
        assert set(report) == {0, 1}


class TestMacPull:
    def _du(self, separate_drbs):
        sim = Simulator(seed=1)
        du = DistributedUnit(sim, CellConfig(), F1UInterface(sim),
                             air_config=AirInterfaceConfig(target_bler=0.0))
        du.attach_ue(UeContext(sim, UeConfig(ue_id=0,
                                             separate_drbs=separate_drbs),
                               StaticChannel(snr_db=22)))
        return du

    @pytest.mark.parametrize("drb_ids", [(1,), (1, 2)])
    def test_mac_pull_matches_pull_for_ue(self, five_tuple, drb_ids):
        """The pull the MAC holds for a UE and ``pull_for_ue`` move the same
        bytes from the same bearers and keep the same rotation, over grants
        that reach none, one or every bearer."""
        rng = random.Random(5)
        fast = self._du(len(drb_ids) > 1)
        reference = self._du(len(drb_ids) > 1)
        pull = fast.mac._ues[0].pull
        next_sn = dict.fromkeys(drb_ids, 0)
        for step in range(400):
            for drb_id in drb_ids:
                for _ in range(rng.choice([0, 0, 0, 1, 3])):
                    size = rng.choice([40, 700, 1400])
                    for du in (fast, reference):
                        du.handle_downlink_sdu(0, drb_id, next_sn[drb_id],
                                               make_data_packet(
                                                   0, five_tuple, step, size,
                                                   ECN.ECT1, 0.0))
                    next_sn[drb_id] += 1
            grant = rng.choice([100, 700, 1500, 4000])
            assert pull(grant) == reference.pull_for_ue(0, grant)
            assert ([fast.rlc_entity(0, d).backlog_bytes for d in drb_ids]
                    == [reference.rlc_entity(0, d).backlog_bytes
                        for d in drb_ids])
            assert fast._pull_rotation == reference._pull_rotation
