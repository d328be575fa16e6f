"""Tests for periodic timers (``Simulator.every``), named random streams and
their block draws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.randomness import DRAW_BLOCK, RandomStreams, block_draws, chance


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
        assert sim._next_seq == 1
        assert sim.run(until=3.5) == 3
        assert sim.processed_events == 3 and sim._next_seq == 4

    def test_callback_can_stop_process(self):
        sim = Simulator()
        calls = []
        seqs = []

        def callback():
            calls.append(sim.now)
            seqs.append(sim._next_seq)
            if len(calls) == 2:
                timer.stop()

        timer = sim.every(1.0, callback, start_at=1.0)
        sim.run(until=10.0)
        assert len(calls) == 2 and sim.processed_events == 2
        # Stopped inside its callback: no re-arm, no sequence number.
        assert sim._next_seq == seqs[-1]
        assert sim.peek_time() is None


class TestRandomStreams:
    def test_same_seed_and_name_reproduces_sequence(self):
        a = block_draws(RandomStreams(7).stream("x"))
        b = block_draws(RandomStreams(7).stream("x"))
        assert [a() for _ in range(5)] == [b() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(7)
        x, y = block_draws(streams.stream("x")), block_draws(streams.stream("y"))
        assert [x() for _ in range(5)] != [y() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert (block_draws(RandomStreams(1).stream("x"))()
                != block_draws(RandomStreams(2).stream("x"))())

    def test_stream_is_cached_per_name(self):
        streams = RandomStreams(3)
        assert streams.stream("s") is streams.stream("s")
        assert streams.stream("s") is not streams.stream("t")

    def test_chance_rate_roughly_matches_probability(self):
        draw = block_draws(RandomStreams(3).stream("s"))
        hits = sum(chance(draw, 0.3) for _ in range(2000))
        assert 450 <= hits <= 750

    def test_exponential_mean_is_positive(self):
        draw = block_draws(RandomStreams(3).stream("e"), "exponential")
        samples = [2.0 * draw() for _ in range(500)]
        assert all(s >= 0 for s in samples)
        assert 1.5 < sum(samples) / len(samples) < 2.6

    def test_uniform_in_unit_interval(self):
        draw = block_draws(RandomStreams(9).stream("u"))
        assert all(0.0 <= draw() < 1.0 for _ in range(300))


#: The scalar ``Generator`` call each kind of block draw stands for, with the
#: scale (``loc`` for the normal) a caller applies to the block value.
_SCALAR = {
    "uniform": (lambda rng, loc, scale: rng.random(),
                lambda value, loc, scale: value),
    "normal": (lambda rng, loc, scale: rng.normal(loc, scale),
               lambda value, loc, scale: loc + scale * value),
    "exponential": (lambda rng, loc, scale: rng.exponential(scale),
                    lambda value, loc, scale: scale * value),
}


class TestBlockDraws:
    """Block draws equal the scalar ``Generator`` calls, value for value."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1),
           kind=st.sampled_from(sorted(_SCALAR)),
           count=st.integers(0, 5 * DRAW_BLOCK + 3),
           block=st.sampled_from([1, 7, DRAW_BLOCK, 256]),
           loc=st.floats(-50.0, 50.0),
           scale=st.floats(1e-3, 20.0))
    def test_equal_to_scalar_draws(self, seed, kind, count, block, loc, scale):
        scalar, apply = _SCALAR[kind]
        reference = np.random.default_rng(seed)
        draw = block_draws(np.random.default_rng(seed), kind, block)
        expected = [float(scalar(reference, loc, scale)) for _ in range(count)]
        got = [apply(draw(), loc, scale) for _ in range(count)]
        assert got == expected
        assert all(type(value) is float for value in got)

    def test_refills_lazily(self):
        """A reader takes a block from its generator only when asked for a
        value past the current one: up to then the generator is free for
        scalar draws (fading's deep-fade duration relies on this)."""
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        draw = block_draws(rng, "uniform", 4)
        assert rng.bit_generator.state == twin.bit_generator.state
        draw()
        twin.random(4)
        for _ in range(3):
            draw()
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.exponential(2.0) == twin.exponential(2.0)
        assert draw() == twin.random(4)[0]

    def test_degenerate_chance_consumes_nothing(self):
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        draw = block_draws(rng)
        for probability, outcome in ((0.0, False), (-0.5, False),
                                     (1.0, True), (1.5, True)):
            assert all(chance(draw, probability) is outcome
                       for _ in range(10))
        assert draw() == twin.random()

    def test_chance_takes_a_generator_method_too(self):
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        draw = block_draws(twin)
        assert ([chance(rng.random, 0.4) for _ in range(200)]
                == [chance(draw, 0.4) for _ in range(200)])
