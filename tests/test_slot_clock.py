"""The MAC slot clock: timer wheel, slot batching and quiet-run collapse.

Every MAC scheduler ticks on the simulator's off-heap timer wheel
(:class:`repro.sim.engine.SlotTimer`).  The reference these tests compare
against is the clock it replaced: a :class:`~repro.sim.process.PeriodicProcess`
pushing one heap event per tick.  Firing order, tie-break sequence numbers,
event counts and every MAC counter must be identical under both.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.presets import make_preset
from repro.experiments.scenario import build_scenario
from repro.experiments.spec import ScenarioSpec
from repro.ran.mac import MacScheduler
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.sim.process import PeriodicProcess

PERIOD = 0.0005


# --------------------------------------------------------------------- #
# (a) The wheel against a PeriodicProcess on a bare simulator
# --------------------------------------------------------------------- #
def heap_clock(sim: Simulator, body, start_at: float):
    """The reference: one heap event per tick."""
    return PeriodicProcess(sim, PERIOD, body, start_at=start_at)


def wheel_clock(sim: Simulator, body, start_at: float):
    """A wheel timer whose callback batches as far as its contract allows."""

    def fire(barrier_time, barrier_seq) -> None:
        while True:
            body()
            sim._processed += 1
            timer.advance(sim.events)
            if timer.stopped or not sim._running:
                return
            key = (timer.time, timer.seq)
            if key > (barrier_time, barrier_seq):
                return
            heap = sim.events.heap
            if heap and heap[0][:2] < key:
                return
            sim.now = timer.time

    timer = sim.add_slot_timer(PERIOD, fire, start_at=start_at)
    return timer


CLOCKS = {"heap": heap_clock, "wheel": wheel_clock}


def tick_time(index: int, start: float = 0.0) -> float:
    """Time of tick ``index``, accumulated the way both clocks do."""
    time = start
    for _ in range(index):
        time += PERIOD
    return time


class Script:
    """One clocked run; ``log`` is what the two clocks must agree on."""

    def __init__(self, clock: str) -> None:
        self.sim = Simulator(seed=1)
        self.make_clock = CLOCKS[clock]
        self.log: list = []

    def note(self, label: str) -> None:
        self.log.append((label, self.sim.now, self.sim.processed_events))

    def clock(self, label: str, start_at: float = 0.0, body=None):
        def tick() -> None:
            self.note(label)
            if body is not None:
                body()
        return self.make_clock(self.sim, tick, start_at)

    def outcome(self) -> tuple:
        sim = self.sim
        return (self.log, sim.now, sim.processed_events,
                sim.events._next_seq)


def script_same_instant_events(clock: str) -> tuple:
    """Heap events at exactly tick times, scheduled before and after the
    previous tick ran, and from inside a tick."""
    run = Script(clock)
    sim = run.sim
    # Scheduled before the clock exists: lower sequence than any tick.
    for index in (0, 3, 4):
        sim.schedule_at(tick_time(index), run.note, f"early@{index}")

    def body() -> None:
        if len(run.log) < 40:
            # Lands exactly on the next tick, sequenced before its re-arm.
            sim.schedule(PERIOD, run.note, "from-tick")

    run.clock("tick", body=body)

    def after_tick_two() -> None:
        run.note("between")
        # Tick 3 is already armed: these sequence after it.
        sim.schedule_at(tick_time(3), run.note, "late@3")
        sim.schedule_at(tick_time(7), run.note, "late@7")

    sim.schedule_at(tick_time(2) + PERIOD / 4, after_tick_two)
    sim.run(until=tick_time(12) + PERIOD / 2)
    return run.outcome()


def script_two_clocks(clock: str) -> tuple:
    """Two clocks on the same grid plus one offset by half a period: each
    is the other's batching barrier."""
    run = Script(clock)
    run.clock("a")
    run.clock("b")
    run.clock("c", start_at=PERIOD / 2)
    run.sim.schedule_at(tick_time(5), run.note, "event@5")
    run.sim.run(until=tick_time(9))
    return run.outcome()


def script_stop_from_heap(clock: str) -> tuple:
    run = Script(clock)
    sim = run.sim
    victim = run.clock("victim")
    run.clock("survivor")

    def stop_victim() -> None:
        run.note("stop")
        victim.stop()

    # Same instant as tick 4 but sequenced before it: tick 4 must not fire.
    sim.schedule_at(tick_time(4), stop_victim)
    sim.run(until=tick_time(8))
    return run.outcome()


def script_stop_only_clock(clock: str) -> tuple:
    """With its only clock stopped and the heap empty the run drains: the
    clock stays where the last event left it instead of jumping to until."""
    run = Script(clock)
    only = run.clock("only")
    run.sim.schedule_at(tick_time(3) + PERIOD / 2, only.stop)
    run.sim.run(until=1.0)
    return run.outcome()


def script_add_mid_run(clock: str) -> tuple:
    run = Script(clock)
    sim = run.sim
    run.clock("first")

    def add() -> None:
        run.note("add")
        # Starts now: earlier than the running clock's next tick.
        run.clock("second", start_at=sim.now)

    sim.schedule_at(tick_time(3) + PERIOD / 3, add)
    sim.run(until=tick_time(8))
    return run.outcome()


def script_until_on_tick(clock: str) -> tuple:
    """A tick exactly at ``until`` fires in that window, not the next."""
    run = Script(clock)
    sim = run.sim
    run.clock("tick")
    sim.schedule_at(tick_time(6), run.note, "event@6")
    sim.run(until=tick_time(6))
    run.note("window-end")
    sim.run(until=tick_time(6))
    run.note("empty-window")
    sim.run(until=tick_time(10) + PERIOD / 2)
    return run.outcome()


def script_max_events(clock: str) -> tuple:
    """A budget is exact: no batch may overshoot it."""
    run = Script(clock)
    sim = run.sim
    run.clock("tick")
    sim.schedule_at(tick_time(2), run.note, "event@2")
    counts = [sim.run(max_events=3), sim.run(max_events=1),
              sim.run(until=tick_time(7), max_events=100)]
    return run.outcome(), counts


def script_stop_inside_tick(clock: str) -> tuple:
    run = Script(clock)
    sim = run.sim

    def body() -> None:
        if sim.now >= tick_time(5):
            sim.stop()

    run.clock("tick", body=body)
    sim.run(until=1.0)
    run.note("stopped")
    sim.run(until=tick_time(8))
    return run.outcome()


def script_step(clock: str) -> tuple:
    run = Script(clock)
    sim = run.sim
    run.clock("a")
    run.clock("b", start_at=PERIOD / 2)
    sim.schedule_at(tick_time(2), run.note, "event@2")
    cancelled = sim.schedule_at(tick_time(1), run.note, "cancelled")
    cancelled.cancel()
    steps = 0
    while sim.peek_time() <= tick_time(4):
        assert sim.step()
        steps += 1
    return run.outcome(), steps


SCRIPTS = [script_same_instant_events, script_two_clocks,
           script_stop_from_heap, script_stop_only_clock, script_add_mid_run,
           script_until_on_tick, script_max_events, script_stop_inside_tick,
           script_step]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.__name__)
def test_wheel_fires_like_periodic_process(script):
    assert script("wheel") == script("heap")


def test_scripts_exercise_what_they_claim():
    """Guards against scripts that agree because nothing happened."""
    log, now, processed, _ = script_same_instant_events("wheel")
    labels = [entry[0] for entry in log]
    at_three = [label for label, time, _ in log if time == tick_time(3)]
    assert at_three == ["early@3", "from-tick", "tick", "late@3"]
    assert labels.count("tick") == 13 and now == tick_time(12) + PERIOD / 2

    log, _, _, _ = script_stop_from_heap("wheel")
    victim_times = [time for label, time, _ in log if label == "victim"]
    assert victim_times == [tick_time(i) for i in range(4)]

    log, now, _, _ = script_stop_only_clock("wheel")
    assert now == tick_time(3) + PERIOD / 2 and len(log) == 4

    log, _, _, _ = script_until_on_tick("wheel")
    labels = [entry[0] for entry in log]
    end = labels.index("window-end")
    assert labels[end - 2:end + 2] == ["event@6", "tick", "window-end",
                                       "empty-window"]

    (log, _, processed, _), counts = script_max_events("wheel")
    assert counts == [3, 1, 5] and processed == 9

    (log, _, _, _), steps = script_step("wheel")
    assert steps == len(log) and "cancelled" not in [e[0] for e in log]


def test_wheel_callback_batches_between_heap_events():
    """The engine lets a lone timer run ahead to the heap head: far fewer
    callback invocations than ticks."""
    sim = Simulator(seed=1)
    ticks = []
    calls = []
    inner = wheel_clock(sim, lambda: ticks.append(sim.now), 0.0)
    batching = inner.callback
    inner.callback = lambda *barrier: (calls.append(sim.now),
                                       batching(*barrier))
    sim.schedule_at(tick_time(50) + PERIOD / 2, lambda: None)
    sim.run(until=tick_time(99))
    assert len(ticks) == 100
    assert len(calls) == 2
    assert sim.processed_events == 101


def test_step_returns_false_when_idle():
    sim = Simulator()
    assert not sim.step()
    timer = sim.add_slot_timer(PERIOD, lambda *barrier: timer.advance(
        sim.events))
    assert sim.step() and timer.time == PERIOD
    timer.stop()
    assert not sim.step()
    assert sim.peek_time() is None


# --------------------------------------------------------------------- #
# (b) MacScheduler on the wheel against _on_slot driven from the heap
# --------------------------------------------------------------------- #
def heap_driven_mac(monkeypatch) -> None:
    """Drive ``MacScheduler._on_slot`` from a PeriodicProcess: the clock the
    wheel replaced, kept here as the reference implementation."""

    def add_slot_timer(sim, period, callback, start_at=None):
        mac = callback.__self__
        assert callback == mac._run_slot_batch
        return PeriodicProcess(sim, period, mac._on_slot,
                               start_at=start_at, name="mac-slot")

    monkeypatch.setattr(Simulator, "add_slot_timer", add_slot_timer)


def mac_fingerprint(spec: ScenarioSpec) -> dict:
    built = build_scenario(spec)
    result = built.run()
    cells = {}
    for cell_id, gnb in built.gnbs.items():
        mac = gnb.du.mac
        cells[cell_id] = {
            "slots": mac.slots, "busy_slots": mac.busy_slots,
            "rr_offset": mac._rr_offset,
            "ues": {ue_id: (state.average_throughput,
                            state.served_bytes_total, state.scheduled_slots)
                    for ue_id, state in mac._ues.items()},
            "background": (mac._background.summary()
                           if mac._background is not None else None)}
    return {
        "cells": cells,
        "processed_events": built.sim.processed_events,
        "next_seq": built.sim.events._next_seq,
        "flows": [(flow.flow_id, flow.goodput_bytes_per_s,
                   flow.congestion_events, flow.marked_fraction,
                   tuple(flow.owd_samples), tuple(flow.rtt_samples))
                  for flow in result.flows],
        "events_processed": result.events_processed}


def _dense() -> ScenarioSpec:
    return dataclasses.replace(make_preset("dense-cell"), duration_s=0.5)


def _fading() -> ScenarioSpec:
    return ScenarioSpec(num_ues=2, duration_s=1.0, cc_name="prague",
                        marker="l4span", channel_profile="pedestrian", seed=5)


def _two_cells() -> ScenarioSpec:
    return dataclasses.replace(make_preset("two-cell-imbalance"),
                               duration_s=1.0)


@pytest.mark.parametrize("make_spec", [_dense, _fading, _two_cells],
                         ids=["dense-cell", "fading-2ue", "two-cell"])
def test_mac_on_wheel_equals_heap_driven_slots(make_spec, monkeypatch):
    wheel = mac_fingerprint(make_spec())
    with monkeypatch.context() as patch:
        heap_driven_mac(patch)
        heap = mac_fingerprint(make_spec())
    assert all(cell["slots"] > 0 for cell in wheel["cells"].values())
    assert wheel == heap


# --------------------------------------------------------------------- #
# (c) The default backend gets the collapse
# --------------------------------------------------------------------- #
def test_default_backend_collapses_quiet_slots(monkeypatch):
    counts = {"on_slot": 0, "push": 0}
    on_slot = MacScheduler._on_slot
    push = EventQueue.push

    def counting_on_slot(self):
        counts["on_slot"] += 1
        on_slot(self)

    def counting_push(self, time, callback, args=()):
        counts["push"] += 1
        return push(self, time, callback, args)

    monkeypatch.setattr(MacScheduler, "_on_slot", counting_on_slot)
    monkeypatch.setattr(EventQueue, "push", counting_push)
    built = build_scenario(
        dataclasses.replace(make_preset("dense-cell"), duration_s=2.0))
    result = built.run()
    mac = built.gnb.du.mac
    assert mac.slots >= 4000
    assert counts["on_slot"] < mac.slots
    assert counts["push"] < 0.25 * result.events_processed


# --------------------------------------------------------------------- #
# step() drives the slot clocks too
# --------------------------------------------------------------------- #
def test_step_loop_equals_run():
    spec = ScenarioSpec(num_ues=2, duration_s=0.2, cc_name="prague",
                        marker="l4span", seed=3, warmup_s=0.05)
    ran = build_scenario(spec)
    ran_result = ran.run()

    stepped = build_scenario(spec)
    sim = stepped.sim
    while sim.peek_time() <= spec.duration_s:
        assert sim.step()
    stepped.stop_collectors()
    stepped_result = stepped.collect(sim.processed_events)

    assert sim.processed_events == ran.sim.processed_events
    assert stepped.gnb.du.mac.slots == ran.gnb.du.mac.slots >= 400
    assert len(stepped_result.flows) == len(ran_result.flows) == 2
    for mine, theirs in zip(stepped_result.flows, ran_result.flows):
        assert mine.owd_samples == theirs.owd_samples != []
        assert mine.marked_fraction == theirs.marked_fraction
        assert mine.rtt_samples == theirs.rtt_samples
        assert mine.goodput_bytes_per_s == theirs.goodput_bytes_per_s
