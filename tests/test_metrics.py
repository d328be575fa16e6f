"""Tests for statistics, collectors and the delay breakdown."""

from __future__ import annotations

import math

import pytest

from repro.metrics.breakdown import breakdown_from_packet
from repro.metrics.collectors import (DelayBreakdownAccumulator, OwdCollector,
                                      SampleReservoir, ThroughputCollector,
                                      TimeSeries)
from repro.metrics.stats import (box_stats, cdf_points, percentile,
                                 reduction_percent, summarize)
from repro.net.ecn import ECN
from repro.net.packet import make_data_packet


class TestSampleReservoir:
    def test_below_capacity_is_exact(self):
        reservoir = SampleReservoir(100)
        reservoir.extend(range(50))
        assert list(reservoir) == list(range(50))
        assert reservoir.observed == 50

    def test_capacity_bounds_length(self):
        reservoir = SampleReservoir(64)
        reservoir.extend(range(10_000))
        assert len(reservoir) == 64
        assert reservoir.observed == 10_000
        assert all(0 <= value < 10_000 for value in reservoir)

    def test_replacement_is_deterministic(self):
        first, second = SampleReservoir(32), SampleReservoir(32)
        first.extend(range(1000))
        second.extend(range(1000))
        assert list(first) == list(second)

    def test_is_a_list(self):
        reservoir = SampleReservoir(8)
        reservoir.append(1.5)
        assert sum(reservoir) == 1.5
        assert list(reservoir) == [1.5]
        assert min(reservoir) == 1.5

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            SampleReservoir(0)

    def test_pickle_and_deepcopy_round_trip(self):
        import copy
        import pickle
        reservoir = SampleReservoir(8)
        reservoir.extend(range(20))
        for clone in (pickle.loads(pickle.dumps(reservoir)),
                      copy.deepcopy(reservoir)):
            assert list(clone) == list(reservoir)
            assert clone.capacity == 8
            assert clone.observed == 20
            clone.append(99)  # replacement stream continues identically
        twin = pickle.loads(pickle.dumps(reservoir))
        reservoir.append(99)
        twin.append(99)
        assert list(twin) == list(reservoir)


class TestStats:
    def test_box_stats_of_known_sample(self):
        stats = box_stats(list(range(1, 101)))
        assert stats.median == pytest.approx(50.5)
        assert stats.p25 == pytest.approx(25.75)
        assert stats.p90 == pytest.approx(90.1)
        assert stats.count == 100

    def test_box_stats_empty_sample(self):
        stats = box_stats([])
        assert math.isnan(stats.median)
        assert stats.count == 0

    def test_percentile_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_cdf_points_monotone_and_bounded(self):
        points = cdf_points([5, 1, 3, 2, 4])
        values = [v for v, _ in points]
        fractions = [f for _, f in points]
        assert values == sorted(values)
        assert fractions[-1] == pytest.approx(1.0)
        assert all(0 < f <= 1 for f in fractions)

    def test_cdf_points_downsamples(self):
        points = cdf_points(list(range(1000)), max_points=50)
        assert len(points) == 50

    def test_summarize_keys(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(2.0)
        assert summarize([]) == {"count": 0}

    def test_reduction_percent(self):
        assert reduction_percent(100.0, 2.0) == pytest.approx(98.0)
        assert reduction_percent(0.0, 1.0) == 0.0


class TestCollectors:
    def test_owd_collector_per_flow(self):
        collector = OwdCollector()
        collector.record(0, 0.01, 1.0)
        collector.record(0, 0.02, 2.0)
        collector.record(1, 0.05, 1.0)
        assert collector.flow_summary(0)["count"] == 2
        assert len(collector.all_samples()) == 3

    def test_throughput_collector_average_rate(self):
        collector = ThroughputCollector(window=0.1)
        for i in range(100):
            collector.record(0, 1000, i * 0.01)
        # 1000 bytes every 10 ms -> 100 kB/s
        assert collector.average_rate(0) == pytest.approx(100_000, rel=0.05)

    def test_throughput_collector_windowed_series(self):
        collector = ThroughputCollector(window=0.1)
        for i in range(100):
            collector.record(0, 1000, i * 0.01)
        series = collector.series[0]
        assert len(series) > 3
        assert series.mean() == pytest.approx(100_000, rel=0.2)

    def test_timeseries_points(self):
        series = TimeSeries()
        series.append(1.0, 2.0)
        series.append(2.0, 4.0)
        assert series.points() == [(1.0, 2.0), (2.0, 4.0)]
        assert series.mean() == 3.0
        assert math.isnan(TimeSeries().mean())


class TestBreakdown:
    def _stamped_packet(self, five_tuple):
        packet = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0)
        packet.timestamps.update(cu_ingress=0.020, rlc_enqueue=0.021,
                                 rlc_head=0.030, rlc_dequeue=0.045,
                                 ue_delivered=0.050)
        return packet

    def test_components_sum_to_total_delay(self, five_tuple):
        packet = self._stamped_packet(five_tuple)
        breakdown = breakdown_from_packet(packet, 0.050)
        assert breakdown.propagation == pytest.approx(0.020)
        assert breakdown.queuing == pytest.approx(0.009)
        assert breakdown.scheduling == pytest.approx(0.015)
        assert sum(breakdown) == pytest.approx(0.050)

    def test_packet_without_ran_stamps_returns_none(self, five_tuple):
        packet = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0)
        assert breakdown_from_packet(packet, 1.0) is None

    def test_accumulator_averages(self, five_tuple):
        accumulator = DelayBreakdownAccumulator()
        accumulator.record_packet(self._stamped_packet(five_tuple), 0.050)
        accumulator.record_packet(self._stamped_packet(five_tuple), 0.050)
        averages = accumulator.averages()
        assert averages["queuing"] == pytest.approx(0.009)
        assert accumulator.count == 2

    def test_accumulator_handles_no_packets(self):
        assert DelayBreakdownAccumulator().averages()["queuing"] == 0.0
