"""Tests for periodic timers (``Simulator.every``) and named random streams."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.randomness import RandomStreams


class TestEvery:
    def test_ticks_at_fixed_period(self):
        sim = Simulator()
        ticks = []
        sim.every(0.5, lambda: ticks.append(sim.now), start_at=0.5)
        sim.run(until=2.4)
        assert ticks == [0.5, 1.0, 1.5, 2.0]
        # The first tick defaults to one period from now.
        later = []
        sim.every(0.5, lambda: later.append(sim.now))
        sim.run(until=3.5)
        assert later == [2.9, 3.4]

    def test_stop_prevents_future_ticks(self):
        sim = Simulator()
        ticks = []
        timer = sim.every(0.5, lambda: ticks.append(sim.now), start_at=0.5)
        sim.schedule(1.2, timer.stop)
        sim.run(until=5.0)
        assert ticks == [0.5, 1.0]

    def test_zero_period_rejected(self):
        sim = Simulator()
        for period in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(SimulationError, match="finite and positive"):
                sim.every(period, lambda: None)

    def test_tick_counter(self):
        """Each tick is one processed event and one sequence number (the
        one at creation stands for the first tick's push)."""
        sim = Simulator()
        sim.every(1.0, lambda: None, start_at=1.0)
        assert sim.events._next_seq == 1
        assert sim.run(until=3.5) == 3
        assert sim.processed_events == 3 and sim.events._next_seq == 4

    def test_callback_can_stop_process(self):
        sim = Simulator()
        calls = []
        seqs = []

        def callback():
            calls.append(sim.now)
            seqs.append(sim.events._next_seq)
            if len(calls) == 2:
                timer.stop()

        timer = sim.every(1.0, callback, start_at=1.0)
        sim.run(until=10.0)
        assert len(calls) == 2 and sim.processed_events == 2
        # Stopped inside its callback: no re-arm, no sequence number.
        assert sim.events._next_seq == seqs[-1]
        assert sim.peek_time() is None


class TestRandomStreams:
    def test_same_seed_and_name_reproduces_sequence(self):
        a = RandomStreams(7)
        b = RandomStreams(7)
        assert [a.uniform("x") for _ in range(5)] == \
            [b.uniform("x") for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(7)
        seq_x = [streams.uniform("x") for _ in range(5)]
        seq_y = [streams.uniform("y") for _ in range(5)]
        assert seq_x != seq_y

    def test_different_seeds_differ(self):
        assert RandomStreams(1).uniform("x") != RandomStreams(2).uniform("x")

    def test_bernoulli_extremes(self):
        streams = RandomStreams(3)
        assert streams.bernoulli("s", 0.0) is False
        assert streams.bernoulli("s", 1.0) is True

    def test_bernoulli_rate_roughly_matches_probability(self):
        streams = RandomStreams(3)
        hits = sum(streams.bernoulli("s", 0.3) for _ in range(2000))
        assert 450 <= hits <= 750

    def test_normal_with_zero_scale_returns_mean(self):
        streams = RandomStreams(3)
        assert streams.normal("n", loc=5.0, scale=0.0) == 5.0

    def test_exponential_mean_is_positive(self):
        streams = RandomStreams(3)
        samples = [streams.exponential("e", 2.0) for _ in range(500)]
        assert all(s >= 0 for s in samples)
        assert 1.5 < sum(samples) / len(samples) < 2.6

    def test_uniform_in_unit_interval(self):
        streams = RandomStreams(9)
        for _ in range(100):
            value = streams.uniform("u")
            assert 0.0 <= value < 1.0
