"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestEventQueue:
    """The simulator's event heap, driven through schedule/cancel/run."""

    def test_pop_returns_events_in_time_order(self):
        sim = Simulator()
        order = []
        for time in (2.0, 1.0, 3.0):
            sim.schedule_at(time, lambda: order.append(sim.now))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        first = sim.schedule_at(1.0, lambda: fired.append(first))
        second = sim.schedule_at(1.0, lambda: fired.append(second))
        sim.run()
        assert fired[0] is first
        assert fired[1] is second

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, fired.append, "event")
        sim.schedule_at(2.0, fired.append, "keeper")
        sim.cancel(event)
        sim.run()
        assert fired == ["keeper"]

    def test_peek_time_ignores_cancelled_head(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(5.0, lambda: None)
        sim.cancel(event)
        assert sim.peek_time() == 5.0

    def test_len_counts_pending(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending_events == 2

    def test_cancelled_entry_past_the_window_is_not_fired_or_counted(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.5, fired.append, "a")
        doomed = sim.schedule(2.0, fired.append, "doomed")
        sim.schedule(3.0, fired.append, "b")
        sim.cancel(doomed)
        assert sim.run(until=1.0) == 1
        assert sim.now == 1.0
        assert sim.peek_time() == 3.0
        assert sim.run(until=2.5) == 0
        assert sim.now == 2.5
        assert sim.run() == 1
        assert fired == ["a", "b"]
        assert sim.processed_events == 2

    def test_only_cancelled_entries_left_do_not_advance_the_clock(self):
        sim = Simulator()
        sim.schedule(0.5, lambda: None)
        sim.cancel(sim.schedule(2.0, lambda: None))
        assert sim.run(until=1.0) == 1
        assert sim.now == 0.5
        assert sim.pending_events == 0

    def test_cancelling_a_fired_handle_is_a_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.run(until=1.5)
        sim.cancel(handle)
        assert sim.pending_events == 1
        assert sim.run() == 1
        assert fired == [1, 2]
        assert sim.processed_events == 2


class TestSimulator:
    def test_run_until_stops_clock_at_horizon(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_events_fire_at_their_scheduled_time(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run(until=2.0)
        assert times == [0.5, 1.5]

    def test_callbacks_receive_arguments(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.1, seen.append, "hello")
        sim.run()
        assert seen == ["hello"]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_time_is_rejected_and_leaves_the_clock_finite(self):
        sim = Simulator()
        nan = float("nan")
        fired = []

        def probe():
            with pytest.raises(SimulationError):
                sim.schedule(nan, fired.append, "nan delay")
            with pytest.raises(SimulationError):
                sim.schedule_at(nan, fired.append, "nan time")
            sim.call_soon(lambda: fired.append(sim.now))

        for index in range(1, 11):
            sim.schedule_at(0.5 * index, probe)
        with pytest.raises(SimulationError):
            sim.schedule(nan, fired.append, "nan delay")
        with pytest.raises(SimulationError):
            sim.schedule_at(nan, fired.append, "nan time")
        sim.run()
        assert fired == [0.5 * index for index in range(1, 11)]
        assert sim.now == 5.0

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(sim.now)
            if depth < 3:
                sim.schedule(1.0, chain, depth + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_stop_interrupts_run(self):
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.now == 1.0

    def test_processed_events_accumulates(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        sim.run()
        assert sim.processed_events == 2

    def test_processed_events_is_live_during_run(self):
        # Watchdog pattern: a callback must see the counter advance mid-run.
        sim = Simulator()
        seen = []

        def spin():
            seen.append(sim.processed_events)
            if sim.processed_events < 3:
                sim.schedule(1.0, spin)

        sim.schedule(1.0, spin)
        sim.run()
        # The counter increments after each callback returns, so the Nth
        # firing observes N-1 processed events.
        assert seen == [0, 1, 2, 3]

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        times = []
        sim.schedule(1.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.0]

    def test_peek_time_reports_next_live_event(self):
        sim = Simulator()
        assert sim.peek_time() is None
        doomed = sim.schedule(0.5, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.peek_time() == 0.5
        sim.cancel(doomed)
        assert sim.peek_time() == 2.0
        assert sim.pending_events == 1

    def test_peek_time_between_windowed_runs(self):
        """The windowed execution pattern the sharded runtime uses."""
        sim = Simulator()
        fired = []
        sim.schedule(0.75, fired.append, "a")
        sim.run(until=0.5)
        assert sim.now == 0.5
        assert fired == []
        assert sim.peek_time() == 0.75
        sim.run(until=1.0)
        assert fired == ["a"]
        assert sim.peek_time() is None
