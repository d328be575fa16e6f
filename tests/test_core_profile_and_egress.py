"""Tests for the packet profile table, egress estimator and sojourn predictor."""

from __future__ import annotations

import pytest

from repro.core.egress import EgressRateEstimator
from repro.core.profile_table import DrbProfile
from repro.core.sojourn import (SojournPredictor, rtt_cost_of_overestimate,
                                throughput_cost_of_underestimate)


class TestDrbProfile:
    def test_entries_are_keyed_by_pdcp_sn(self):
        profile = DrbProfile()
        for sn in range(5):
            profile.add_packet(sn, 100, sn * 0.001)
        assert [entry.sn for entry in profile] == list(range(5))
        assert profile.queued_packets == len(profile) == 5

    def test_feedback_marks_all_sns_up_to_highest(self):
        profile = DrbProfile()
        for i in range(5):
            profile.add_packet(i, 1000, i * 0.001)
        newly = profile.on_feedback(highest_txed_sn=2, timestamp=0.01)
        assert [e.sn for e in newly] == [0, 1, 2]
        assert profile.queued_packets == 2
        assert profile.queued_bytes == 2000

    def test_repeated_feedback_is_idempotent(self):
        profile = DrbProfile()
        for i in range(3):
            profile.add_packet(i, 1000, 0.0)
        profile.on_feedback(1, 0.01)
        newly = profile.on_feedback(1, 0.02)
        assert newly == []
        assert profile.queued_bytes == 1000

    def test_head_sojourn_of_standing_queue(self):
        profile = DrbProfile()
        profile.add_packet(0, 1000, 0.0)
        profile.add_packet(1, 1000, 0.005)
        profile.on_feedback(0, 0.006)
        assert profile.oldest_queued_entry().sn == 1
        assert profile.head_sojourn(0.02) == pytest.approx(0.015)

    def test_head_sojourn_zero_when_empty(self):
        profile = DrbProfile()
        assert profile.head_sojourn(1.0) == 0.0
        profile.add_packet(0, 1000, 0.0)
        profile.on_feedback(0, 0.001)
        assert profile.head_sojourn(1.0) == 0.0

    def test_feedback_pops_transmitted_entries(self):
        profile = DrbProfile()
        for i in range(10):
            profile.add_packet(i, 1000, i * 0.01)
        newly = profile.on_feedback(4, 0.1)
        assert [entry.transmitted_time for entry in newly] == [0.1] * 5
        assert newly[0].queueing_delay() == pytest.approx(0.1)
        assert [entry.sn for entry in profile] == list(range(5, 10))
        assert profile.queued_packets == len(profile) == 5

    def test_stale_feedback_is_ignored(self):
        """A report older than one already applied pops nothing; the next
        newer one pops only the SNs above the last reported."""
        profile = DrbProfile()
        for i in range(8):
            profile.add_packet(i, 1000, i * 0.01)
        profile.on_feedback(4, 0.1)
        assert profile.on_feedback(2, 0.11) == []
        assert profile.highest_txed_sn == 4
        assert [entry.sn for entry in profile] == [5, 6, 7]
        newly = profile.on_feedback(6, 0.12)
        assert [entry.sn for entry in newly] == [5, 6]
        assert [entry.sn for entry in profile] == [7]
        assert profile.queued_bytes == 1000

    def test_queued_bytes_never_negative(self):
        profile = DrbProfile()
        profile.add_packet(0, 1000, 0.0)
        profile.on_feedback(5, 0.01)  # feedback beyond what exists
        assert profile.queued_bytes == 0


class _Entry:
    """Minimal stand-in for a ProfileEntry in estimator tests."""

    def __init__(self, transmitted_time, size):
        self.transmitted_time = transmitted_time
        self.size = size


class TestEgressRateEstimator:
    def test_constant_rate_is_recovered(self):
        estimator = EgressRateEstimator(window=0.01)
        # 1000 bytes every 1 ms -> 1 MB/s.
        estimate = None
        for i in range(1, 100):
            estimate = estimator.observe_transmissions(
                [_Entry(i * 0.001, 1000)])
        assert estimate.smoothed_rate == pytest.approx(1_000_000, rel=0.15)

    def test_error_std_small_for_constant_rate(self):
        estimator = EgressRateEstimator(window=0.01)
        for i in range(1, 200):
            estimator.observe_transmissions([_Entry(i * 0.001, 1000)])
        estimate = estimator.last_estimate
        assert estimate.error_std < 0.2 * estimate.smoothed_rate

    def test_error_std_grows_with_volatility(self):
        stable = EgressRateEstimator(window=0.01)
        volatile = EgressRateEstimator(window=0.01)
        for i in range(1, 200):
            stable.observe_transmissions([_Entry(i * 0.001, 1000)])
            # Alternate burst sizes *within* the averaging window so the
            # instantaneous-rate samples inside one window disagree.
            size = 2500 if (i // 3) % 2 == 0 else 100
            volatile.observe_transmissions([_Entry(i * 0.001, size)])
        assert volatile.last_estimate.error_std > stable.last_estimate.error_std

    def test_no_transmissions_keeps_previous_estimate(self):
        estimator = EgressRateEstimator(window=0.01)
        estimator.observe_transmissions([_Entry(0.001, 1000)])
        before = estimator.last_estimate
        after = estimator.observe_transmissions([])
        assert after is before

    def test_rate_tracks_change_after_coherence_window(self):
        estimator = EgressRateEstimator(window=0.01)
        for i in range(1, 50):
            estimator.observe_transmissions([_Entry(i * 0.001, 2000)])
        high = estimator.last_estimate.smoothed_rate
        for i in range(50, 120):
            estimator.observe_transmissions([_Entry(i * 0.001, 200)])
        low = estimator.last_estimate.smoothed_rate
        assert low < 0.5 * high

    def test_defaults_before_any_estimate(self):
        estimator = EgressRateEstimator(window=0.01)
        assert estimator.rate_or_default(123.0) == 123.0
        assert estimator.error_std_or_default(4.0) == 4.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            EgressRateEstimator(window=0.0)

    def test_welford_window_matches_direct_two_pass(self):
        """The running Welford accumulator is numerically equivalent to the
        direct ``sum()`` mean/variance passes it replaced, across a bursty
        random feed that exercises both insertion and window expiry."""
        import math
        import random

        rng = random.Random(42)
        estimator = EgressRateEstimator(window=0.01)
        window: list[tuple[float, float]] = []  # (time, instantaneous rate)
        now = 0.0
        for _ in range(500):
            now += rng.uniform(0.0002, 0.004)
            size = rng.choice((100, 1448, 2896, 40_000))
            estimate = estimator.observe_transmissions([_Entry(now, size)])
            # Direct reference: rebuild the instantaneous-rate window and
            # compute mean/std with fresh full passes.
            window.append((now, estimate.instantaneous_rate))
            window = [(t, r) for t, r in window if t > now - 0.01]
            rates = [r for _t, r in window]
            mean = sum(rates) / len(rates)
            variance = (sum((r - mean) ** 2 for r in rates) / len(rates)
                        if len(rates) > 1 else 0.0)
            assert estimate.samples_in_window == len(rates)
            assert estimate.smoothed_rate == pytest.approx(mean, rel=1e-9)
            # The std sits ~4 orders of magnitude below the mean, so a few
            # ulps of cancellation in the remove step are expected; 1e-6
            # relative is far below anything the marking rule can perceive.
            assert estimate.error_std == pytest.approx(math.sqrt(variance),
                                                       rel=1e-6, abs=1e-6)

    def test_welford_window_matches_pvariance(self):
        """The estimator's running window against statistics.pvariance:
        its smoothed rate is the window's mean and its error std the
        window's population std, across insertions and expiries of
        instantaneous rates around 1e7 bytes/s."""
        import statistics

        estimator = EgressRateEstimator(window=0.01)
        sizes = [100_000, 120_000, 30_000, 500_000, 499_000, 1_000, 250_000]
        samples: list[tuple[float, float]] = []
        for index, size in enumerate(sizes * 3):
            now = (index + 1) * 0.003
            estimate = estimator.observe_transmissions([_Entry(now, size)])
            samples.append((now, estimate.instantaneous_rate))
            window = [rate for t, rate in samples if t > now - 0.01]
            assert estimate.samples_in_window == len(window)
            assert estimate.smoothed_rate == pytest.approx(
                statistics.fmean(window), rel=1e-12)
            assert estimate.error_std ** 2 == pytest.approx(
                statistics.pvariance(window), rel=1e-9)


class TestSojournPredictor:
    def _estimate(self, rate, err=0.0):
        from repro.core.egress import RateEstimate
        return RateEstimate(timestamp=0.0, smoothed_rate=rate,
                            instantaneous_rate=rate, error_std=err,
                            samples_in_window=5)

    def test_empty_queue_predicts_zero(self):
        prediction = SojournPredictor().predict(0, self._estimate(1e6))
        assert prediction.sojourn == 0.0

    def test_sojourn_is_queue_over_rate(self):
        prediction = SojournPredictor().predict(50_000, self._estimate(1e6))
        assert prediction.sojourn == pytest.approx(0.05)

    def test_unknown_rate_gives_pessimistic_sojourn(self):
        prediction = SojournPredictor().predict(50_000, None)
        assert prediction.sojourn == SojournPredictor.UNKNOWN_RATE_SOJOURN

    def test_confidence_flag(self):
        confident = SojournPredictor().predict(1000, self._estimate(1e6, 1e4))
        shaky = SojournPredictor().predict(1000, self._estimate(1e6, 5e5))
        assert confident.is_confident
        assert not shaky.is_confident

    def test_error_cost_model_directions(self):
        assert rtt_cost_of_overestimate(0.04, 1e6, 2e6) > 0
        assert rtt_cost_of_overestimate(0.04, 1e6, 0.5e6) == 0
        assert throughput_cost_of_underestimate(0.04, 0.01, 1e6, 0.5e6) > 0
        assert throughput_cost_of_underestimate(0.04, 0.01, 1e6, 2e6) == 0
