"""The MAC slot clock: timer wheel, slot batching and quiet-run collapse.

Every MAC scheduler ticks on the simulator's off-heap timer wheel
(:class:`repro.sim.timers.SlotTimer`), and so does every slower periodic
process (``Simulator.every``: samplers, probes, AQM updaters, feedback
clocks).  The reference these tests compare against is the clock the wheel
replaced: a self-rescheduling heap callback (:class:`HeapClock`) pushing one
heap event per tick.  Firing order, tie-break sequence numbers, event counts
and every MAC counter must be identical under both.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.static import StaticChannel
from repro.experiments.presets import make_preset
from repro.experiments.scenario import build_scenario
from repro.experiments.spec import HandoverSpec, ScenarioSpec
from repro.net.ecn import ECN
from repro.net.packet import make_data_packet
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.f1u import F1UInterface
from repro.ran.mac import MacScheduler, SchedulerPolicy
from repro.ran.phy import AirInterfaceConfig
from repro.ran.ue import UeConfig, UeContext
from repro.sim.engine import Simulator

PERIOD = 0.0005


class HeapClock:
    """The reference clock: a self-rescheduling heap callback, one heap
    event per tick.  ``parked`` and ``skipped`` are inert, so a MAC driven
    by it runs every slot body and has nothing to replay when it wakes."""

    parked = property(lambda self: False, lambda self, value: None)
    skipped = 0

    def __init__(self, sim: Simulator, period: float, body,
                 start_at: float) -> None:
        self.sim, self.period, self.body, self.ticks = sim, period, body, 0
        self.pending = sim.schedule_at(max(start_at, sim.now), self.tick)

    def tick(self) -> None:
        self.ticks += 1
        self.body()
        if self.pending is not None:  # not stopped by its own body
            self.pending = self.sim.schedule(self.period, self.tick)

    def stop(self) -> None:
        if self.pending is not None:
            self.sim.cancel(self.pending)
            self.pending = None


# --------------------------------------------------------------------- #
# (a) The wheel against the heap reference on a bare simulator
# --------------------------------------------------------------------- #
def heap_clock(sim: Simulator, body, start_at: float, period: float = PERIOD):
    """The reference: one heap event per tick."""
    return HeapClock(sim, period, body, start_at)


def wheel_clock(sim: Simulator, body, start_at: float,
                period: float = PERIOD):
    """A wheel timer whose callback batches as far as its contract allows."""

    def fire(barrier_time, barrier_seq) -> None:
        while True:
            body()
            sim._processed += 1
            timer.advance(sim)
            if timer.stopped or not sim._running:
                return
            key = (timer.time, timer.seq)
            if key > (barrier_time, barrier_seq):
                return
            heap = sim.heap
            if heap and (heap[0][0], heap[0][1]) < key:
                return
            sim.now = timer.time

    timer = sim.add_slot_timer(period, fire, start_at=start_at)
    return timer


def every_clock(sim: Simulator, body, start_at: float,
                period: float = PERIOD):
    """``Simulator.every``: a wheel timer firing one tick per call."""
    return sim.every(period, body, start_at=start_at)


CLOCKS = {"heap": heap_clock, "wheel": wheel_clock, "every": every_clock}


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
                sim._next_seq)


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


SCRIPTS = [script_same_instant_events, script_two_clocks,
           script_stop_from_heap, script_stop_only_clock, script_add_mid_run,
           script_until_on_tick, script_stop_inside_tick]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.__name__)
def test_wheel_fires_like_periodic_process(script):
    assert script("wheel") == script("heap") == script("every")


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


def test_timer_added_by_a_callback_after_it_advanced():
    """A callback that re-arms before starting a new, earlier timer leaves
    the firing timer off the head: the loop re-sorts the wheel instead of
    re-seating the head."""
    sim = Simulator(seed=1)
    fired = []

    def fire(barrier_time, barrier_seq) -> None:
        fired.append(("a", sim.now))
        sim._processed += 1
        timer.advance(sim)
        if len(fired) == 1:
            sim.every(PERIOD, lambda: fired.append(("b", sim.now)),
                      start_at=PERIOD / 2)

    timer = sim.add_slot_timer(PERIOD, fire)
    sim.every(PERIOD, lambda: fired.append(("c", sim.now)),
              start_at=0.75 * PERIOD)
    sim.run(until=2 * PERIOD)
    assert fired == [("a", 0.0), ("b", PERIOD / 2), ("c", 0.75 * PERIOD),
                     ("a", PERIOD), ("b", 1.5 * PERIOD),
                     ("c", 1.75 * PERIOD), ("a", 2 * PERIOD)]


# --------------------------------------------------------------------- #
# (a') Parked wheel timers: the run loop takes their ticks itself
# --------------------------------------------------------------------- #
def parked_clocks(clock: str, labels: list, parked: set, events: list,
                  drive, grid=None) -> tuple:
    """``labels`` clocks, the ``parked`` ones with no body; all start at 0
    with period ``PERIOD`` unless ``grid`` gives a ``(start_at, period)``.

    On the heap a parked clock is a HeapClock doing nothing; on the
    wheel it is a parked timer the loop null-ticks.  Every live firing and
    every heap event records the clock, the event total and the queue's
    sequence counter, which together pin the firing order; each clock's
    final ``(time, seq, ticks)`` pins the keys the null ticks consumed.
    """
    run = Script(clock)
    sim = run.sim

    def note(label: str) -> None:
        run.log.append((label, sim.now, sim.processed_events,
                        sim._next_seq))

    for time, label in events:
        sim.schedule_at(time, note, label)
    clocks = {}
    for label in labels:
        live = label not in parked
        clocks[label] = run.make_clock(
            sim, (lambda label=label: note(label)) if live else (lambda: None),
            *(grid or {}).get(label, (0.0, PERIOD)))
        if clock == "wheel" and not live:
            clocks[label].parked = True
    drive(sim, note)
    finals = {}
    for label, made in clocks.items():
        if clock == "wheel":
            ticks = made.skipped if label in parked else None
            finals[label] = (made.time, made.seq, ticks)
        else:
            ticks = made.ticks if label in parked else None
            finals[label] = (made.pending[0], made.pending[1], ticks)
    return run.outcome(), finals


@pytest.mark.parametrize("count", [1, 2, 4, 8])
def test_parked_timers_keep_every_key(count):
    rng = random.Random(count)
    labels = [f"c{index}" for index in range(count)]
    events = [(tick_time(rng.randrange(40)) + rng.choice((0.0, PERIOD / 3)),
               f"event{index}") for index in range(12)]
    subsets = [set(labels), set(labels[::2]), set(labels[1:])] + [
        {label for label in labels if rng.random() < 0.5} for _ in range(5)]
    for parked in subsets:
        def drive(sim, note):
            sim.run(until=tick_time(40))
        wheel = parked_clocks("wheel", labels, parked, events, drive)
        heap = parked_clocks("heap", labels, parked, events, drive)
        assert wheel == heap
        (log, now, processed, _), finals = wheel
        assert processed == 41 * count + len(events)
        assert all(finals[label][2] == 41 for label in parked)


def test_parked_timers_on_unequal_grids_keep_every_key():
    """Periods and phases that make a fired timer belong mid-wheel, not at
    the tail -- or leave it the head, when a heap event cuts ``f`` short.
    ``g`` is a sampler-like clock 100 slots slow: after each of its ticks it
    is the tail, and every faster tick re-seats ahead of it."""
    labels = ["a", "b", "c", "d", "e", "f", "g"]
    grid = {"c": (0.0, 2.5 * PERIOD), "d": (PERIOD / 2, PERIOD),
            "e": (PERIOD / 3, 1.75 * PERIOD), "f": (0.0, PERIOD / 4),
            "g": (PERIOD / 5, 100 * PERIOD)}
    events = [(tick_time(index) + PERIOD / 5, f"event{index}")
              for index in (3, 11, 12, 29, 150)]

    def drive(sim, note):
        for window in (7, 7, 20, 33, 120, 230):
            sim.run(until=tick_time(window) + PERIOD / 7)

    for parked in ({"a", "c", "e"}, {"b", "c", "d", "f"}, {"a", "g"},
                   set(labels), set()):
        wheel = parked_clocks("wheel", labels, parked, events, drive, grid)
        assert wheel == parked_clocks("heap", labels, parked, events, drive,
                                      grid)


def test_heap_event_at_a_null_tick_keeps_its_side():
    """An event at exactly a tick time fires before the tick when it was
    pushed before the previous tick re-armed, after it otherwise -- for a
    null tick as for a real one (the recorded event total tells which)."""
    def drive(sim, note):
        def between() -> None:
            note("between")
            sim.schedule_at(tick_time(6), note, "late@6")
        sim.schedule_at(tick_time(6), note, "early@6")
        sim.schedule_at(tick_time(5) + PERIOD / 4, between)
        sim.run(until=tick_time(9))

    wheel = parked_clocks("wheel", ["a", "b"], {"a", "b"}, [], drive)
    assert wheel == parked_clocks("heap", ["a", "b"], {"a", "b"}, [], drive)
    at_six = {label: processed for label, time, processed, _ in wheel[0][0]
              if time == tick_time(6)}
    # 12 ticks + "between" precede early@6; both clocks' tick 6 precede late@6.
    assert at_six == {"early@6": 13, "late@6": 16}


# --------------------------------------------------------------------- #
# (b) MacScheduler on the wheel against _on_slot driven from the heap
# --------------------------------------------------------------------- #
def heap_driven_mac(monkeypatch) -> None:
    """Drive ``MacScheduler._on_slot`` from a :class:`HeapClock`: the clock
    the wheel replaced, kept here as the reference implementation.  Every
    other timer (``Simulator.every``) stays on the real wheel."""
    wheel_timer = Simulator.add_slot_timer

    def add_slot_timer(sim, period, callback, start_at=None):
        mac = getattr(callback, "__self__", None)
        if not isinstance(mac, MacScheduler):
            return wheel_timer(sim, period, callback, start_at)
        assert callback == mac._run_slot_batch
        return HeapClock(sim, period, mac._on_slot, start_at)

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
        "next_seq": built.sim._next_seq,
        "flows": [(flow.flow_id, flow.goodput_bytes_per_s,
                   flow.congestion_events, flow.marked_fraction,
                   tuple(flow.owd_samples), tuple(flow.rtt_samples))
                  for flow in result.flows],
        "events_processed": result.events_processed,
        "null_ticks": {cell_id: gnb.du.mac.null_ticks
                       for cell_id, gnb in built.gnbs.items()}}


def _dense() -> ScenarioSpec:
    return dataclasses.replace(make_preset("dense-cell"), duration_s=0.5)


def _fading() -> ScenarioSpec:
    return ScenarioSpec(num_ues=2, duration_s=1.0, cc_name="prague",
                        marker="l4span", channel_profile="pedestrian", seed=5)


def _two_cells() -> ScenarioSpec:
    return dataclasses.replace(make_preset("two-cell-imbalance"),
                               duration_s=1.0)


def _coupled() -> ScenarioSpec:
    return dataclasses.replace(make_preset("coupled-core"), duration_s=1.0)


def _handover() -> ScenarioSpec:
    return dataclasses.replace(make_preset("handover"), duration_s=2.5)


def _handover_into_idle_cell() -> ScenarioSpec:
    """UE 0 arrives at a cell that has been parked since its first slot:
    its SDUs are Xn-forwarded into fresh RLC queues during the interruption
    (MAC registration deferred), and ``register_with_mac`` starts service."""
    spec = make_preset("handover")
    mobility = dataclasses.replace(spec.mobility, handovers=[
        HandoverSpec(time=0.6, ue_id=0, target_cell=1)])
    return dataclasses.replace(spec, duration_s=1.2, ues=spec.ues[:2],
                               mobility=mobility)


@pytest.mark.parametrize(
    "make_spec, parks",
    [(_dense, False), (_fading, True), (_two_cells, True), (_coupled, True),
     (_handover, True), (_handover_into_idle_cell, True)],
    ids=["dense-cell", "fading-2ue", "two-cell", "coupled-core", "handover",
         "handover-into-idle-cell"])
def test_mac_on_wheel_equals_heap_driven_slots(make_spec, parks, monkeypatch):
    wheel = mac_fingerprint(make_spec())
    with monkeypatch.context() as patch:
        heap_driven_mac(patch)
        heap = mac_fingerprint(make_spec())
    assert all(cell["slots"] > 0 for cell in wheel["cells"].values())
    null_ticks = wheel.pop("null_ticks")
    assert set(heap.pop("null_ticks").values()) == {0}
    assert wheel == heap
    # A population keeps its cell off the null-tick path; every other
    # scenario here has idle stretches that take it.
    assert all(count > 0 for count in null_ticks.values()) == parks
    assert parks or not any(null_ticks.values())


def test_handover_target_was_parked_until_the_ue_arrived():
    built = build_scenario(_handover_into_idle_cell())
    target = built.gnbs[1].du.mac
    seen = {}

    def before_handover() -> None:
        seen["parked"] = target._timer.parked
        seen["skipped"] = target._timer.skipped

    built.sim.schedule_at(0.59, before_handover)
    result = built.run()
    assert seen["parked"] and seen["skipped"] >= 1000
    assert target.busy_slots > 0 and target.null_ticks >= 1000
    assert [record["to_cell"] for record in result.handovers] == [1]


# --------------------------------------------------------------------- #
# (b') One MAC, scripted backlog: park, wake and the counters in between
# --------------------------------------------------------------------- #
class MacRig:
    """``cells`` schedulers on one simulator, one scripted UE each.

    ``arrive`` is the rig's RLC: backlog grows, and whatever makes it grow
    wakes a parked scheduler (the contract of ``register_ue``).
    """

    def __init__(self, cells: int = 1) -> None:
        self.sim = Simulator(seed=1)
        self.backlog = [0] * cells
        self.log: list = []
        self.macs = []
        for cell in range(cells):
            mac = MacScheduler(self.sim, CellConfig(),
                               policy=SchedulerPolicy.PROPORTIONAL_FAIR)
            mac.register_ue(cell, StaticChannel(snr_db=22),
                            backlog_bytes=lambda cell=cell: self.backlog[cell],
                            pull=lambda grant, cell=cell: self.pull(cell, grant))
            self.macs.append(mac)

    def pull(self, cell: int, grant: int) -> int:
        used = min(grant, self.backlog[cell])
        self.backlog[cell] -= used
        return used

    def arrive(self, cell: int, size: int) -> None:
        self.backlog[cell] += size
        mac = self.macs[cell]
        if mac._timer.parked:
            mac.wake()
        self.read(cell, "arrive")

    def read(self, cell: int, label: str) -> None:
        """Read the counters the way a mid-run reader must: wake first."""
        mac = self.macs[cell]
        mac.wake()
        state = mac._ues[cell]
        self.log.append((label, cell, self.sim.now, mac.slots, mac.busy_slots,
                         state.average_throughput, state.served_bytes_total,
                         self.sim.processed_events, self.sim._next_seq))

    def outcome(self) -> tuple:
        for cell, mac in enumerate(self.macs):
            mac.stop()
            self.read(cell, "stopped")
        return self.log, self.sim.now


def on_both_clocks(script) -> tuple:
    """``script(rig)`` on the wheel, then on the heap-driven reference."""
    wheel = script(MacRig)
    with pytest.MonkeyPatch.context() as patch:
        heap_driven_mac(patch)
        heap = script(MacRig)
    return wheel, heap


def test_wake_at_exactly_a_tick_time_before_and_after_the_tick():
    def script(make_rig):
        rig = make_rig()
        sim = rig.sim
        # Pushed before tick 300 is armed: fires just before it.
        sim.schedule_at(tick_time(300), rig.read, 0, "before-tick-300")

        def arm_late_reader() -> None:
            # Tick 600 is armed by now: this one fires just after it.
            sim.schedule_at(tick_time(600), rig.read, 0, "after-tick-600")
            sim.schedule_at(tick_time(700), rig.arrive, 0, 30_000)

        sim.schedule_at(tick_time(599) + PERIOD / 4, arm_late_reader)
        sim.run(until=tick_time(900))
        return rig.outcome(), rig.macs[0].null_ticks

    (wheel, null_ticks), (heap, _) = on_both_clocks(script)
    assert wheel == heap
    slots = {entry[0]: entry[3] for entry in wheel[0]}
    assert slots["before-tick-300"] == 300 and slots["after-tick-600"] == 601
    assert null_ticks > 800  # idle but for the burst at tick 700


def test_counters_are_exact_after_wake_and_after_stop():
    """A cell parked for 1,000 ticks: a heap callback that calls ``wake()``
    reads exact counters, and ``stop()`` flushes without being asked."""
    rig = MacRig()
    mac, sim = rig.macs[0], rig.sim
    rig.backlog[0] = 50_000  # drained in the first few slots
    seen = {}

    def reader() -> None:
        seen["stale"] = (mac.slots, mac._timer.skipped)
        mac.wake()
        seen["fresh"] = (mac.slots, mac._timer.skipped, mac.null_ticks)

    sim.schedule_at(tick_time(1200) + PERIOD / 2, reader)
    sim.run(until=tick_time(1500))
    stale_slots, skipped = seen["stale"]
    assert skipped >= 1000 and stale_slots + skipped == 1201
    assert seen["fresh"] == (1201, 0, skipped)
    assert mac.slots < 1501  # parked again since the reader woke it
    mac.stop()
    # Two idle slots ran for real: the two that parked the clock.
    assert mac.slots == 1501 and mac.null_ticks == 1501 - mac.busy_slots - 2
    # The replayed EWMA is the one 1,501 real slots compute.
    with pytest.MonkeyPatch.context() as patch:
        heap_driven_mac(patch)
        reference = MacRig()
        reference.backlog[0] = 50_000
        reference.sim.run(until=tick_time(1500))
    assert (mac._ues[0].average_throughput
            == reference.macs[0]._ues[0].average_throughput)
    assert mac.busy_slots == reference.macs[0].busy_slots


@settings(max_examples=40, deadline=None)
@given(cells=st.integers(1, 4),
       arrivals=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 239),
                                   st.sampled_from([0.0, PERIOD / 2]),
                                   st.integers(1, 40_000)), max_size=12),
       windows=st.lists(st.integers(0, 240), max_size=8))
def test_random_arrivals_and_windows_match_the_heap_clock(cells, arrivals,
                                                          windows):
    """Arrivals on and between tick times, one to four same-instant cells,
    and the run chopped into ``run(until=)`` windows the way the sharded
    runtime does: equal fingerprints."""
    def script(make_rig):
        rig = make_rig(cells)
        for cell, tick, offset, size in arrivals:
            rig.sim.schedule_at(tick_time(tick) + offset, rig.arrive,
                                cell % cells, size)
        for tick in sorted(windows):
            rig.sim.run(until=tick_time(tick))
            rig.log.append(("window", rig.sim.now,
                            rig.sim.processed_events))
        rig.sim.run(until=tick_time(240))
        return rig.outcome()

    wheel, heap = on_both_clocks(script)
    assert wheel == heap


# --------------------------------------------------------------------- #
# (b'') Who wakes a parked cell: the two places RLC backlog grows, and
# MAC registration
# --------------------------------------------------------------------- #
def _du_with_ue(sim, five_tuple, bler: float, register_mac: bool):
    du = DistributedUnit(sim, CellConfig(), F1UInterface(sim),
                         air_config=AirInterfaceConfig(target_bler=bler))
    ue = UeContext(sim, UeConfig(ue_id=0), StaticChannel(snr_db=22))
    du.attach_ue(ue, register_mac=register_mac)
    packet = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0)
    return du, ue, packet


def test_deferred_mac_registration_wakes_a_parked_cell(sim, five_tuple):
    """The handover interruption: SDUs queue at a cell whose MAC does not
    know the UE yet, and no further arrival follows the registration."""
    du, ue, packet = _du_with_ue(sim, five_tuple, 0.0, register_mac=False)
    sim.run(until=0.010)
    assert du.mac._timer.parked
    du.handle_downlink_sdu(0, 1, 0, packet)
    sim.run(until=0.020)
    # Woken by the enqueue, parked again: nobody to serve yet.
    assert du.mac._timer.parked and du.ue_backlog_bytes(0) == packet.size
    du.register_with_mac(ue)
    sim.run(until=0.030)
    assert du.ue_backlog_bytes(0) == 0 and du.mac.busy_slots == 1
    du.stop()
    # Four slots ran for real: three that parked the clock, one that served.
    assert du.mac.slots == du.mac.null_ticks + 4 >= 60


def test_am_requeue_wakes_a_parked_cell(sim, five_tuple):
    """A block the air interface gives up on comes back long after the
    cell went idle; every one of its eight retransmissions needs a slot."""
    du, _, packet = _du_with_ue(sim, five_tuple, 1.0, register_mac=True)
    du.handle_downlink_sdu(0, 1, 0, packet)
    sim.run(until=0.5)
    entity = du.rlc_entity(0, 1)
    assert entity.lost_sdus == 1 and du.mac.busy_slots == 9
    assert du.mac._timer.parked and du.mac._timer.skipped > 0


# --------------------------------------------------------------------- #
# (c) The default backend gets the collapse
# --------------------------------------------------------------------- #
def test_default_backend_collapses_quiet_slots(monkeypatch):
    counts = {"on_slot": 0, "push": 0}
    on_slot = MacScheduler._on_slot

    def counting_on_slot(self, *args):
        counts["on_slot"] += 1
        on_slot(self, *args)

    def counting(method):
        def push(self, *args):
            counts["push"] += 1
            return method(self, *args)
        return push

    monkeypatch.setattr(MacScheduler, "_on_slot", counting_on_slot)
    # Every heap push goes through one of the three scheduling calls.
    for name in ("schedule", "schedule_at", "call_soon"):
        monkeypatch.setattr(Simulator, name,
                            counting(getattr(Simulator, name)))
    built = build_scenario(
        dataclasses.replace(make_preset("dense-cell"), duration_s=2.0))
    result = built.run()
    mac = built.gnb.du.mac
    assert mac.slots >= 4000
    assert counts["on_slot"] < mac.slots
    assert counts["push"] < 0.25 * result.events_processed
