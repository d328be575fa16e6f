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

    @pytest.mark.parametrize("configs, expected", [
        # L4S + classic: ECT(1) and CE ride the L4S bearer, ECT(0) the
        # classic one, Not-ECT falls back to the first (default) bearer.
        ([DrbConfig(1, service_class=DrbServiceClass.L4S),
          DrbConfig(2, service_class=DrbServiceClass.CLASSIC)],
         {ECN.NOT_ECT: 1, ECN.ECT1: 1, ECN.ECT0: 2, ECN.CE: 1}),
        # One mixed bearer carries every class.
        ([DrbConfig(3, service_class=DrbServiceClass.MIXED)],
         {ECN.NOT_ECT: 3, ECN.ECT1: 3, ECN.ECT0: 3, ECN.CE: 3}),
        # Only an L4S bearer: what it is not provisioned for takes the
        # default bearer, which is the same one.
        ([DrbConfig(4, service_class=DrbServiceClass.L4S)],
         {ECN.NOT_ECT: 4, ECN.ECT1: 4, ECN.ECT0: 4, ECN.CE: 4}),
    ], ids=["l4s+classic", "mixed-only", "default-only"])
    def test_codepoint_table_follows_the_classification_rule(
            self, five_tuple, configs, expected):
        sdap = SdapEntity(0, configs)
        assert sdap.drb_by_codepoint == tuple(
            expected[codepoint] for codepoint in sorted(ECN))
        for codepoint, drb_id in expected.items():
            packet = make_data_packet(0, five_tuple, 0, 100, codepoint, 0.0)
            assert sdap.drb_for_packet(packet) == drb_id

    def test_explicit_qfi_pin_wins(self, five_tuple):
        sdap = self._sdap_with_split_drbs()
        sdap.map_qfi(9, 2)
        packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
        assert sdap.drb_for_packet(packet, qfi=9) == 2
        # The pin overrides the table only for its own QFI.
        assert sdap.drb_for_packet(packet) == 1
        assert sdap.drb_for_packet(packet, qfi=8) == 1

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
        f1u.connect_cu(lambda status, now: reports.append((status, now)))
        f1u.status_sender(0, 1)(7, 3, 0.0)
        sim.run()
        assert reports == [(DeliveryStatus(0, 1, 7, 3, 0.0), 0.001)]
        assert f1u.status_messages == 1

    def test_downlink_without_du_raises(self, sim, five_tuple):
        f1u = F1UInterface(sim)
        packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
        with pytest.raises(RuntimeError):
            f1u.send_downlink_sdu(0, 1, 0, packet)

    def test_status_without_cu_is_dropped_silently(self, sim):
        f1u = F1UInterface(sim)
        f1u.status_sender(0, 1)(1, None, 0.0)
        assert f1u.status_messages == 0
        assert sim.run() == 0


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


class _FixedChannel:
    """A channel at one efficiency that counts its samples."""

    def __init__(self, value):
        self.value = value
        self.reads = 0

    def efficiency(self, now):
        self.reads += 1
        return self.value


class _StubPopulation:
    """A background population with a fixed demand that records the
    ``(prbs, count)`` hand-offs the MAC makes to it."""

    def __init__(self, demand_count):
        self.demand_count = demand_count
        self.handed = []

    def on_slots(self, prbs, count, now):
        self.handed.append((prbs, count))


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

    #: ``policy -> background claimants -> (PRBs per ue_id, PRBs left to
    #: the population, _rr_offset after the slot)`` for one slot over four
    #: UEs with :data:`_EFFICIENCY`, starting from ``_rr_offset == 1``.
    #: RR: ``51 // claimants`` each, the remainder rotated over ue_id order.
    #: PF: the population takes ``51 * 3 // 7``, the UEs round their
    #: weight share of the rest; with none it is 8/22/4/16 = 50, so the
    #: top weight (UE 1) takes the leftover; with three it is 5/13/3/10 =
    #: 31, so the lowest weight (UE 2) is clamped to what is left.
    _SPLIT = {
        "rr": {0: ({0: 13, 1: 13, 2: 12, 3: 13}, 0, 2),
               3: ({0: 8, 1: 7, 2: 7, 3: 7}, 22, 2)},
        "pf": {0: ({0: 8, 1: 23, 2: 4, 3: 16}, 0, 1),
               3: ({0: 5, 1: 13, 2: 2, 3: 10}, 21, 1)},
    }
    _EFFICIENCY = {0: 1.9, 1: 4.9, 2: 1.0, 3: 3.7}

    def _one_slot(self, sim, policy, bg_demand, order, efficiency):
        """Register UEs in ``order`` with fixed channels and stub pulls,
        attach a stub population and run one slot."""
        scheduler = MacScheduler(sim, CellConfig(),
                                 policy=SchedulerPolicy(policy))
        pulls = []
        population = _StubPopulation(bg_demand)
        for ue_id in order:
            scheduler.register_ue(
                ue_id, _FixedChannel(efficiency[ue_id]),
                backlog_bytes=lambda: 10**7,
                pull=lambda grant, ue_id=ue_id: pulls.append(
                    (ue_id, grant)) or grant)
        scheduler.attach_background(population)
        scheduler._rr_offset = 1
        return scheduler, pulls, population

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (2, 0, 3, 1)],
                             ids=["id-order", "out-of-order"])
    @pytest.mark.parametrize("bg_demand", [0, 3])
    @pytest.mark.parametrize("policy", ["rr", "pf"])
    def test_one_slot_split_in_closed_form(self, sim, policy, bg_demand,
                                           order):
        scheduler, pulls, population = self._one_slot(
            sim, policy, bg_demand, order, self._EFFICIENCY)
        scheduler._on_slot()
        prbs, bg_prbs, offset = self._SPLIT[policy][bg_demand]
        cell = scheduler.cell
        assert sum(prbs.values()) + bg_prbs == cell.num_prb
        # RR pulls in ue_id order, PF in registration order.
        assert [ue_id for ue_id, _ in pulls] == (
            sorted(order) if policy == "rr" else list(order))
        assert dict(pulls) == {
            ue_id: cell.slot_capacity_bytes(self._EFFICIENCY[ue_id],
                                            num_prb=k)
            for ue_id, k in prbs.items()}
        assert population.handed == [(bg_prbs, 1)]
        assert scheduler._rr_offset == offset
        # Every channel was sampled once: every share is non-zero.
        assert all(state.channel.reads == 1
                   for state in scheduler._ue_states)

    @pytest.mark.parametrize("bg_demand, prbs, bg_prbs", [
        (0, {0: 13, 1: 13, 2: 12, 3: 13}, 0),
        (3, {0: 8, 1: 7, 2: 7, 3: 8}, 21)])
    def test_pf_without_capacity_splits_equally(self, sim, bg_demand, prbs,
                                                bg_prbs):
        """No UE can carry a byte: PF splits its budget (all PRBs less the
        population's share) equally with the rotation over the four UEs."""
        scheduler, pulls, population = self._one_slot(
            sim, "pf", bg_demand, (2, 0, 3, 1), dict.fromkeys(range(4), 0.0))
        served = {}
        scheduler._serve = (
            lambda state, efficiency, k: served.__setitem__(state.ue_id, k))
        scheduler._on_slot()
        assert served == prbs and not pulls
        assert population.handed == [(bg_prbs, 1)]
        assert scheduler._rr_offset == 2  # (1 + 1) % 4 UEs

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
