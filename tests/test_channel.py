"""Tests for the channel models, MCS tables and coherence analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.base import ChannelModel, ChannelSample
from repro.channel.coherence import fraction_longer_than, stable_periods
from repro.channel.fading import FadingChannel, coherence_time_for_speed, doppler_spread
from repro.channel.mcs import (cqi_from_snr, efficiency_from_cqi,
                               efficiency_from_snr, mcs_from_snr, snr_for_cqi)
from repro.channel.profiles import CHANNEL_PROFILES, make_channel
from repro.channel.static import StaticChannel
from repro.channel.trace import TraceChannel


class TestMcsTables:
    def test_cqi_monotone_in_snr(self):
        snrs = np.linspace(-10, 30, 100)
        cqis = [cqi_from_snr(s) for s in snrs]
        assert all(b >= a for a, b in zip(cqis, cqis[1:]))

    def test_efficiency_monotone_in_cqi(self):
        effs = [efficiency_from_cqi(c) for c in range(16)]
        assert all(b >= a for a, b in zip(effs, effs[1:]))

    def test_extreme_snrs_clamp(self):
        assert cqi_from_snr(-50) == 0
        assert cqi_from_snr(60) == 15
        assert efficiency_from_snr(60) == efficiency_from_cqi(15)

    def test_snr_for_cqi_is_inverse(self):
        for cqi in range(1, 16):
            assert cqi_from_snr(snr_for_cqi(cqi) + 0.01) == cqi

    def test_mcs_range(self):
        assert 0 <= mcs_from_snr(-20) <= 27
        assert 0 <= mcs_from_snr(40) <= 27

    def test_array_mappers_match_scalar_at_boundaries(self):
        # BackgroundPopulation and FadingChannel.mcs_trace rest on the
        # array table lookups rounding exactly like the scalar bisect at
        # every CQI threshold: pin each threshold itself (a right-closed
        # boundary) plus one ulp-ish step either side.
        from repro.channel.mcs import (_CQI_SNR_THRESHOLDS_DB,
                                       cqi_from_snr_array,
                                       efficiency_from_snr_array,
                                       mcs_from_snr_array)
        probes = []
        for threshold in _CQI_SNR_THRESHOLDS_DB:
            probes.extend([np.nextafter(threshold, -np.inf), threshold,
                           np.nextafter(threshold, np.inf)])
        probes.extend([-1e9, 1e9])
        snr = np.asarray(probes)
        assert cqi_from_snr_array(snr).tolist() == [
            cqi_from_snr(s) for s in probes]
        assert efficiency_from_snr_array(snr).tolist() == [
            efficiency_from_snr(s) for s in probes]
        assert mcs_from_snr_array(snr).tolist() == [
            mcs_from_snr(s) for s in probes]


class TestCoherenceTime:
    def test_doppler_increases_with_speed(self):
        assert doppler_spread(70, 3.5) > doppler_spread(3, 3.5)

    def test_vehicular_coherence_is_milliseconds(self):
        # The Clarke-model rule gives a few milliseconds at 3.5 GHz / 70 km/h;
        # the paper adopts the larger measured value (24.9 ms) as its pre-set.
        tc = coherence_time_for_speed(70, 3.5)
        assert 0.0005 < tc < 0.01
        assert tc < coherence_time_for_speed(3, 3.5)

    def test_zero_speed_is_infinite(self):
        assert coherence_time_for_speed(0, 3.5) == float("inf")


class TestChannels:
    def test_static_channel_is_constant_without_noise(self):
        channel = StaticChannel(snr_db=20, noise_std_db=0.0)
        samples = [channel.sample(t).snr_db for t in np.linspace(0, 10, 20)]
        assert all(s == 20 for s in samples)

    def test_sample_carries_consistent_cqi(self):
        sample = ChannelSample.from_snr(0.0, 22.0)
        assert sample.cqi == cqi_from_snr(22.0)
        assert sample.efficiency == efficiency_from_cqi(sample.cqi)

    def test_fading_channel_reverts_to_mean(self):
        channel = FadingChannel(mean_snr_db=20, std_snr_db=4, speed_kmh=70,
                                rng=np.random.default_rng(1))
        samples = [channel.sample(t * 0.001).snr_db for t in range(20_000)]
        assert abs(np.mean(samples) - 20) < 1.5

    def test_fading_channel_varies(self):
        channel = FadingChannel(mean_snr_db=20, std_snr_db=4, speed_kmh=70,
                                rng=np.random.default_rng(1))
        samples = [channel.sample(t * 0.001).snr_db for t in range(5_000)]
        assert np.std(samples) > 1.0

    def test_vehicular_varies_faster_than_pedestrian(self):
        fast = FadingChannel(mean_snr_db=20, std_snr_db=4, speed_kmh=70,
                             rng=np.random.default_rng(1))
        slow = FadingChannel(mean_snr_db=20, std_snr_db=4, speed_kmh=3,
                             rng=np.random.default_rng(1))
        def lag1_diff(channel):
            samples = [channel.sample(t * 0.001).snr_db for t in range(3000)]
            return np.mean(np.abs(np.diff(samples)))
        assert lag1_diff(fast) > lag1_diff(slow)

    def test_array_mcs_trace_matches_sample_loop(self):
        """FadingChannel.mcs_trace (vectorized table gather) must be
        bit-identical to the generic sample()-per-point implementation."""
        def make():
            return FadingChannel(mean_snr_db=18, std_snr_db=5, speed_kmh=30,
                                 rng=np.random.default_rng(9),
                                 deep_fade_rate=0.5, deep_fade_depth_db=12,
                                 deep_fade_duration=0.2)
        fast = make().mcs_trace(2.0, 0.005)
        generic = ChannelModel.mcs_trace(make(), 2.0, 0.005)
        assert fast == generic

    def test_deep_fade_reduces_snr(self):
        channel = FadingChannel(mean_snr_db=20, std_snr_db=0.1, speed_kmh=3,
                                rng=np.random.default_rng(1),
                                deep_fade_rate=50.0, deep_fade_depth_db=15,
                                deep_fade_duration=1.0)
        samples = [channel.sample(t * 0.01).snr_db for t in range(500)]
        assert min(samples) < 10

    def test_trace_channel_piecewise_constant(self):
        channel = TraceChannel([(0.0, 10.0), (1.0, 20.0)])
        assert channel.sample(0.5).snr_db == 10.0
        assert channel.sample(1.5).snr_db == 20.0

    def test_trace_channel_looping(self):
        channel = TraceChannel([(0.0, 10.0), (1.0, 20.0)], loop_period=2.0)
        assert channel.sample(2.5).snr_db == 10.0

    def test_trace_channel_requires_breakpoints(self):
        with pytest.raises(ValueError):
            TraceChannel([])

    def test_profiles_factory(self):
        rng = np.random.default_rng(0)
        for profile in CHANNEL_PROFILES:
            channel = make_channel(profile, rng, ue_index=1)
            assert channel.sample(0.0).efficiency >= 0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            make_channel("underwater", np.random.default_rng(0))


class TestStablePeriods:
    def test_constant_trace_truncated_at_max_period(self):
        trace = [(i * 0.01, 10) for i in range(500)]  # 5 s of identical MCS
        periods = stable_periods(trace, max_period=1.0)
        assert all(p <= 1.0 for p in periods)
        assert sum(periods) > 4.0

    def test_alternating_extremes_give_short_periods(self):
        trace = [(i * 0.01, 0 if i % 2 else 27) for i in range(200)]
        periods = stable_periods(trace, max_deviation=5)
        assert max(periods) <= 0.02

    def test_deviation_threshold_respected(self):
        trace = [(i * 0.01, 10 + (i % 4)) for i in range(100)]  # deviation 3
        periods = stable_periods(trace, max_deviation=5, max_period=10.0)
        assert len(periods) == 1

    def test_unsorted_trace_rejected(self):
        with pytest.raises(ValueError):
            stable_periods([(1.0, 5), (0.5, 5)])

    def test_fraction_longer_than(self):
        assert fraction_longer_than([0.1, 0.2, 0.3], 0.15) == pytest.approx(2 / 3)
        assert fraction_longer_than([], 0.1) == 0.0
