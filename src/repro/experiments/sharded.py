"""Process-per-cell sharding of multi-cell scenarios.

A multi-cell :class:`~repro.experiments.spec.ScenarioSpec` describes N radio
cells sharing one 5G core.  The single event loop simulates them back to
back; this module instead runs **one simulator per shard of cells — shard 0
in the coordinating process, each other shard in its own worker process** —
synchronized conservatively by one barrier loop (:func:`_run_shards`): the
same federated decomposition distributed ns-3/OMNeT++ deployments use.

Why it is exact
---------------
The only paths between two cells are WAN → 5G core → RAN and (with
mobility) the handover transfer/forwarding path, and every one of them has
at least one conservative **lookahead** of latency — the minimum WAN
one-way delay of any flow (handover interruption is validated to be no
shorter).  Shards advance in windows bounded by that lookahead; at every
window boundary they exchange timestamped batches at the core/WAN boundary.
Each boundary item carries its *true* single-loop delivery time (a downlink
packet is handed off at WAN-pipe entry stamped ``entry + wan_leg``, an
uplink ACK at core egress stamped ``egress + processing + wan_leg``), which
is always at least one lookahead in the receiver's future — so no shard
ever receives an event inside a window it has already simulated and no
rollback is ever needed.  In the boundary-free case (no coupling below is
active) the split proves no packet can cross shards at all, the
lookahead over zero inter-shard links is unbounded, and each shard runs to
the horizon in one window with no barrier exchanges.

Mobility coupling and the window policy
---------------------------------------
Inter-cell handover (:mod:`repro.ran.mobility`) is what makes the barrier
loop load-bearing: a UE's serving cell — and with it its whole RAN-side
termination — can live on a different shard than its content server and WAN
pipes.  While it does, every data packet, ACK, handover transfer and
forwarded SDU of its flows crosses through :class:`_BoundaryRouter`.  The
synchronizer (:class:`_SyncPlan`, the one window policy) exploits the
*schedule*: outside the union of cross-shard serving intervals (padded by
the interruption window and proven drained by per-shard in-flight reports)
no boundary traffic can exist, so it jumps the barrier straight to the next
coupling interval — and inside coupled phases it still widens windows past
``W + lookahead`` when every shard's next event
(:meth:`repro.sim.engine.Simulator.peek_time`) and every in-flight delivery
provably allow it.

Determinism contract
--------------------
Every random stream in a scenario is named per cell, per UE, per bearer or
per flow (``channel-ue3``, ``air-ue3``, ``l4span-mark-ue3/drb1``, ...), and
shard simulators reuse the *master* seed, so a stream's seed and draw
sequence are identical whether its cell runs in the shared loop or in any
shard.  Handover re-attachments create *fresh attach-qualified* streams
(``air-ue3#a1``) on whichever loop hosts the target cell, preserving the
contract under mobility.  Consequently a sharded run is deterministic for a
fixed shard map, reproducible across repeats and shard counts, and produces
**per-flow metrics identical to the single-loop run**.

Coupled topologies
------------------
Four couplings between cells are part of the barrier protocol:

* **A shared wired middlebox** belongs to no cell and is hosted on shard
  0, the coordinator's own; every shard cuts its senders at WAN entry
  (``mbx_in`` boundary items into the host queue) and the host routes each
  egress by serving cell at egress time (``mbx_core_dl``, pre-stamped) —
  the one hop shorter than the lookahead.  The queue is a drop-tail FIFO
  behind a known rate schedule, so the host *predicts* its egress: every
  barrier computes the knowledge frontier ``K`` (earliest peek / in-flight
  delivery + lookahead; every arrival before it is already known) and
  delivers the host's remote-bound egresses up to ``K`` *in that same
  barrier*.  Exact: items released at barrier *n* have egress in
  ``(K_{n-1}, K_n]``, every target's local time is ``<= K_{n-1}``, so
  ``deliver_at = egress + core_processing`` is never in a target's past,
  and anything released later has egress ``> K_n >=`` the window end.  The
  real link verifies each prediction.
* **SNR-triggered handovers** run two-phase decide-then-commit: the
  serving shard's monitor *decides*, the decision crosses the next barrier
  as a broadcast ``ho_decision`` item, and every loop *commits* the
  transition ``commit_lag`` later — the lag (one lookahead + the longest
  WAN leg + core processing, see
  :func:`~repro.experiments.scenario.snr_commit_lag`) is exactly what
  guarantees every shard and every in-flight routing lookup learns of the
  decision strictly before the commit time.  Each commit pins a barrier at
  its exact time.
* **Interruptions shorter than the lookahead** turn cross-shard handover
  times into *commit points* (:func:`schedule_commit_points`): the barrier
  lands exactly on the handover and the transfer crosses with a
  same-instant stamp instead of one lookahead late.
* **Zero-rate middlebox schedule steps** stall the shared queue; the
  predictor restarts the head packet at the schedule's next positive-rate
  step, or — with no resume left — never releases it, exactly mirroring
  the single loop's stalled link.

An explicitly undersized SNR commit lag, which a split genuinely cannot
reproduce exactly, is still refused up front by :func:`sharding_blockers`
and falls back (with a warning) to the single loop.

The per-shard collector outputs are recombined by the merge helpers in
:mod:`repro.metrics.collectors` into the exact single-loop report schema;
a mobile flow's samples, collected on every shard that served it, are
re-merged in delivery-time order.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import warnings
from bisect import bisect_right, insort
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Optional

from repro.experiments.scenario import (WIRED_MIDDLEBOX_QUEUE_BYTES,
                                        BuiltScenario, FlowResult,
                                        ScenarioResult, ScenarioSpec,
                                        attach_data_gaps, boundary_lookahead,
                                        build_scenario, min_snr_commit_lag,
                                        mobility_topology, snr_commit_lag,
                                        wan_one_way_legs)
from repro.experiments.runner import active_sweep_workers, core_budget
from repro.experiments.spec import MobilitySpec, ShardingSpec
from repro.metrics.collectors import (DelayBreakdownAccumulator,
                                      ThroughputCollector, TimeSeries,
                                      merge_numeric_summaries,
                                      merge_sample_dicts)
from repro.net.addresses import ue_ip_address
from repro.net.packet import Packet
from repro.net.router import BottleneckRouter
from repro.ran.mobility import (HandoverDecision, HandoverTransfer,
                                MobilityManager, merge_handover_records)
from repro.units import mbps, transmission_time

#: Environment variable keeping every shard in the coordinator process (no
#: worker processes), e.g. on sandboxes that cannot fork.
INPROCESS_ENV = "REPRO_SHARD_INPROCESS"

#: Seconds the coordinator waits for a worker message before declaring the
#: run wedged (workers simulate milliseconds per window; this is generous).
_WORKER_TIMEOUT_S = 600.0

#: Pseudo shard index addressing *every other* shard: the boundary router
#: fans a broadcast item (an SNR handover decision) out to all shards but
#: its source.
_BROADCAST = -1


class ShardPlanError(ValueError):
    """Raised when a spec cannot be sharded as requested."""


class ConservativeSyncError(RuntimeError):
    """A boundary packet arrived inside an already-simulated window, or the
    hosted middlebox egressed a packet other than as predicted."""


class ShardWorkerDied(RuntimeError):
    """A shard worker process exited before finishing its run."""


# --------------------------------------------------------------------- #
# Planning: which cell runs where, and how far shards may run ahead
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardPlan:
    """A concrete placement of cells onto shards plus the lookahead window.

    Attributes:
        assignment: ``cell_id -> shard index`` (shard indices are dense,
            ``0 .. num_shards-1``).
        num_shards: number of worker loops.
        lookahead: conservative synchronization window in seconds — the
            minimum WAN one-way leg of any flow, i.e. the closest one cell's
            events can ever matter to another.
    """

    assignment: dict[int, int]
    num_shards: int
    lookahead: float

    def cells_of(self, shard: int) -> list[int]:
        """Cell ids placed on ``shard``, in declaration order."""
        return [cell for cell, s in self.assignment.items() if s == shard]


def sharding_blockers(spec: ScenarioSpec) -> list[str]:
    """Human-readable reasons why ``spec`` cannot be sharded (empty = can).

    The coupled-topology protocol shards these couplings: a shared
    wired middlebox is hosted on one shard with its traffic exchanged as
    boundary items, SNR-triggered handovers run the two-phase
    decide-then-commit protocol, interruptions shorter than the lookahead
    force a barrier at the commit time, and zero-rate middlebox schedule
    steps stall the predicted queue like the real one.
    What remains unshardable is what a split genuinely cannot reproduce
    byte-for-byte.
    """
    blockers = []
    if len(spec.resolved_cells()) < 2:
        blockers.append("fewer than two cells")
    if (spec.mobility.mode == "snr"
            and spec.mobility.commit_lag_s is not None
            and spec.mobility.commit_lag_s
            < min_snr_commit_lag(spec) - 1e-12):
        # A commit lag below one lookahead + the longest WAN leg means a
        # decision could commit before the barrier publishes it (or before
        # in-flight routing lookups resolve); shards would diverge.
        blockers.append("mobility.commit_lag_s is below the safe minimum "
                        f"({min_snr_commit_lag(spec):.6f}s) a shard split "
                        "can honour")
    return blockers


def build_shard_plan(spec: ScenarioSpec,
                     shards: Optional[int] = None) -> ShardPlan:
    """Turn the spec's ``sharding`` block into a concrete :class:`ShardPlan`.

    ``shards`` overrides the block's worker count (the CLI's ``--shards``).
    Auto mode distributes cells round-robin in declaration order; explicit
    mode uses the block's map with shard indices renumbered densely.
    """
    return _shard_plan(spec, shards, active_sweep_workers())


def _shard_plan(spec: ScenarioSpec, shards: Optional[int],
                active: int) -> ShardPlan:
    """:func:`build_shard_plan` with ``active`` sweep workers sharing the
    host's core budget; ``active == 1`` never clamps."""
    sharding = spec.sharding
    cell_ids = [cell.cell_id for cell in spec.resolved_cells()]
    if sharding.mode == "explicit":
        missing = sorted(set(cell_ids) - set(sharding.map))
        if missing:
            raise ShardPlanError(f"sharding map misses cell(s) {missing}")
        raw = {cell: sharding.map[cell] for cell in cell_ids}
        dense = {old: new for new, old in enumerate(sorted(set(raw.values())))}
        assignment = {cell: dense[shard] for cell, shard in raw.items()}
        num_shards = len(dense)
        if shards is not None and shards != num_shards:
            raise ShardPlanError(
                f"--shards {shards} conflicts with the explicit map's "
                f"{num_shards} shard(s); drop one of the two")
        if active > 1 and num_shards * active > core_budget():
            # An explicit map cannot be clamped without breaking the
            # requested placement; warn about the oversubscription instead.
            warnings.warn(
                f"{active} sweep workers x {num_shards} explicit shards "
                f"exceeds the host's core budget {core_budget()}; consider "
                "fewer workers or REPRO_CORE_BUDGET",
                RuntimeWarning, stacklevel=3)
    else:
        num_shards = shards if shards is not None else sharding.shards
        if num_shards is None:
            num_shards = min(len(cell_ids), os.cpu_count() or 1)
        num_shards = max(1, min(int(num_shards), len(cell_ids)))
        if active > 1:
            # Nested parallelism: this scenario runs inside a sweep worker,
            # so workers x shards must stay within the host's core budget.
            allowed = max(1, core_budget() // active)
            if num_shards > allowed:
                warnings.warn(
                    f"{active} sweep workers x {num_shards} shards exceeds "
                    f"the host's core budget {core_budget()}; clamping to "
                    f"{allowed} shard(s) per scenario (override with "
                    "REPRO_CORE_BUDGET)", RuntimeWarning, stacklevel=3)
                num_shards = allowed
        assignment = {cell: index % num_shards
                      for index, cell in enumerate(cell_ids)}
    return ShardPlan(assignment=assignment, num_shards=num_shards,
                     lookahead=boundary_lookahead(spec))


def split_spec(spec: ScenarioSpec, plan: ShardPlan) -> list[ScenarioSpec]:
    """Split a validated spec into one self-contained sub-spec per shard.

    Each sub-spec keeps the master seed (the determinism contract above),
    carries the fully resolved cells/UEs/flows of its shard, and has
    sharding *and mobility* switched off — a mobile UE's flows, senders and
    WAN pipes live on its **home** shard (the shard of its initial cell),
    and the shard-local :class:`~repro.ran.mobility.MobilityManager` built
    from the full spec executes arrivals/departures against the local
    cells.  Only the shard hosting the scenario's first cell keeps
    ``rate_probe`` (the single loop probes the first cell only).  The wired
    middlebox is likewise stripped: the coupling runtime rebuilds the one
    shared queue on its host shard instead of one queue per shard.
    """
    cells = spec.resolved_cells()
    ues = spec.resolved_ues()
    flows = spec.resolved_flows()
    first_cell = cells[0].cell_id
    subs = []
    for shard in range(plan.num_shards):
        shard_cell_ids = {cell_id for cell_id, s in plan.assignment.items()
                          if s == shard}
        shard_cells = [c for c in cells if c.cell_id in shard_cell_ids]
        shard_ues = [u for u in ues if u.cell_id in shard_cell_ids]
        shard_ue_ids = {u.ue_id for u in shard_ues}
        shard_flows = [f for f in flows if f.ue_id in shard_ue_ids]
        subs.append(dataclasses.replace(
            spec,
            name=f"{spec.label()}#shard{shard}",
            num_ues=0,
            cells=shard_cells,
            ues=shard_ues,
            flows=shard_flows,
            rate_probe=spec.rate_probe and first_cell in shard_cell_ids,
            sharding=ShardingSpec(mode="off"),
            mobility=MobilitySpec(),
            wired_bottleneck_mbps=None,
            wired_bottleneck_schedule=[]))
    return subs


def potentially_mobile_ues(spec: ScenarioSpec) -> set[int]:
    """UEs whose serving cell may change mid-run under this spec.

    Scheduled mobility names them in its itineraries; the SNR monitor may
    move any watched UE (``mobility.ues``, or every UE when empty), so a
    sharded run treats the whole watched set as mobile — their flows are
    entry-routed by the dynamic itinerary and their samples re-merged by
    :func:`merge_shard_results`, whether or not a handover actually fires.
    """
    if not spec.mobility.enabled:
        return set()
    if spec.mobility.mode == "snr":
        if spec.mobility.ues:
            return set(spec.mobility.ues)
        return {ue.ue_id for ue in spec.resolved_ues()}
    return mobility_topology(spec).mobile_ue_ids()


def schedule_commit_points(spec: ScenarioSpec, plan: ShardPlan) -> list[float]:
    """Barrier times the handover *schedule* forces on the synchronizer.

    A cross-shard handover whose interruption is shorter than the lookahead
    cannot ship its transfer one lookahead late (receiver state would land
    after service resumed); instead the synchronizer places a barrier at
    the handover time itself and the transfer crosses with a same-instant
    delivery stamp.  Interruptions of at least one lookahead keep the
    classic stamp and need no barrier.
    """
    if (not spec.mobility.enabled
            or spec.mobility.interruption_s >= plan.lookahead - 1e-12):
        return []
    points = []
    for tr in mobility_topology(spec).transitions():
        if (plan.assignment[tr.from_cell] != plan.assignment[tr.to_cell]
                and 0.0 < tr.time < spec.duration_s):
            points.append(tr.time)
    return sorted(set(points))


def mobility_coupling_intervals(spec: ScenarioSpec,
                                plan: ShardPlan) -> list[tuple[float, float]]:
    """Time intervals during which cross-shard boundary traffic can exist.

    A mobile UE couples shards exactly while it is served away from its
    home shard: downlink deliveries into the serving shard happen inside
    the serving segment (the WAN-entry cut routes by arrival time), and the
    handover transfer / forwarded SDUs / uplink tail extend at most
    ``max(lookahead, interruption)`` past it — the in-flight uplink tail
    beyond that is covered dynamically by the per-shard drained reports.
    Returns merged, sorted ``(start, end)`` pairs; empty means every split
    of this spec is boundary-free (``split_spec`` detects mobility-coupled
    splits through exactly this function).
    """
    if not spec.mobility.enabled:
        return []
    topology = mobility_topology(spec)
    horizon = spec.duration_s
    pad = max(plan.lookahead, spec.mobility.interruption_s)
    raw: list[tuple[float, float]] = []
    for ue_id, itinerary in topology.itineraries.items():
        home = plan.assignment[itinerary[0][1]]
        for index, (start, cell) in enumerate(itinerary):
            end = (itinerary[index + 1][0] if index + 1 < len(itinerary)
                   else horizon)
            if plan.assignment[cell] != home and start < horizon:
                raw.append((start, min(end, horizon) + pad))
    raw.sort()
    merged: list[tuple[float, float]] = []
    for start, end in raw:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class _SyncPlan:
    """Decides how far all shards may advance before the next barrier.

    The one window policy: (a) jump across phases where the mobility
    schedule (plus the shards' drained reports) proves no boundary traffic
    can exist, and (b) inside coupled phases run up to the knowledge
    frontier :attr:`frontier` — every shard's next pending event and every
    in-flight boundary delivery are at or after its floor, any future
    handoff happens at an event ≥ that floor and is delivered ≥ one
    lookahead after it.

    **Commit points** cap a window further — exact times a barrier must
    land on: scheduled cross-shard handovers with interruption < lookahead
    (known up front) and SNR handover commits (added mid-run when a
    decision crosses the barrier).  A shared wired middlebox, feeding
    *remote* cores one core-processing delay after egress, caps nothing:
    an arrival its host does not know yet lands at ``K`` or later, and the
    egresses predicted up to ``K`` cross in the barrier that computed it.

    ``always_coupled`` (SNR mobility, a middlebox) disables schedule
    jumps — there is no schedule proving any phase boundary-free.  A split
    with neither that nor a coupling interval is boundary-free
    (:attr:`coupled` is false) and runs a single window.
    """

    def __init__(self, horizon: float, lookahead: float,
                 coupling: list[tuple[float, float]],
                 commit_points: Optional[list[float]] = None,
                 always_coupled: bool = False) -> None:
        self.horizon = horizon
        self.lookahead = lookahead
        self.coupling = coupling
        self.commit_points: list[float] = sorted(set(commit_points or ()))
        self.always_coupled = always_coupled
        #: ``K`` as of the latest barrier (no arrival precedes one lookahead).
        self.frontier = lookahead
        self.windows = 0
        #: How many windows each term bound (set by :meth:`first_window`).
        self.window_bounds: dict[str, int] = {}

    @property
    def coupled(self) -> bool:
        """True when two shards could ever owe each other a boundary item."""
        return self.always_coupled or bool(self.coupling)

    def add_commit_point(self, when: float) -> None:
        """Register a mid-run commit (an SNR decision crossing the barrier)."""
        if when < self.horizon and when not in self.commit_points:
            insort(self.commit_points, when)

    def _commit_cap(self, now: float) -> Optional[float]:
        index = bisect_right(self.commit_points, now + 1e-12)
        if index < len(self.commit_points):
            return self.commit_points[index]
        return None

    def _capped(self, now: float, window: float, bound: str) -> float:
        cap = self._commit_cap(now)
        if cap is not None and cap < window:
            window, bound = cap, "commit"
        self.window_bounds[bound] += 1
        # Commit caps lie after ``now``: the clamp guards hand-built plans.
        return min(self.horizon, max(window, now + 1e-12))

    def first_window(self) -> float:
        """Where the first barrier lands (the horizon when boundary-free)."""
        self.window_bounds = dict.fromkeys(("lookahead", "commit", "jump"), 0)
        if not self.coupled:
            # Lookahead over zero inter-shard links is unbounded.
            self.window_bounds["lookahead"] = 1
            return self.horizon
        if not self.always_coupled:
            jump = self._jump_target(0.0)
            if jump is not None:
                return self._capped(0.0, jump, "jump")
        return self._capped(0.0, self.lookahead, "lookahead")

    def next_window(self, now: float, peeks: list[Optional[float]],
                    min_deliver: Optional[float], all_idle: bool) -> float:
        """The next barrier after ``now`` given the shards' reports."""
        if now >= self.horizon:
            return now
        floors = [p for p in peeks if p is not None]
        if min_deliver is not None:
            floors.append(min_deliver)
        self.frontier = ((max(now, min(floors)) if floors else now)
                         + self.lookahead)
        if all_idle and not self.always_coupled:
            jump = self._jump_target(now)
            if jump is not None:
                return self._capped(now, jump, "jump")
        return self._capped(now, self.frontier, "lookahead")

    def _jump_target(self, now: float) -> Optional[float]:
        """Next barrier when no coupling overlaps ``now``; None if coupled."""
        nxt = None
        for start, end in self.coupling:
            if start <= now < end:
                return None
            if start > now:
                nxt = start
                break
        target = self.horizon if nxt is None else min(nxt, self.horizon)
        return target if target > now else None


@dataclass(frozen=True)
class _CouplingPlan:
    """What couples the shards of one split: built once by the coordinator,
    read by the synchronizer and pickled to every shard host."""

    #: The full (unsplit) spec; sub-specs carry mobility and the middlebox
    #: stripped.
    spec: ScenarioSpec
    plan: ShardPlan

    @property
    def mbx_shard(self) -> Optional[int]:
        """The shared wired middlebox's shard: 0, the coordinator's, or None."""
        return None if self.spec.wired_bottleneck_mbps is None else 0

    def sync_plan(self) -> _SyncPlan:
        """The window policy over what each coupling contributes: mobility
        its schedule (or, SNR-triggered, none), the others no schedule."""
        mobility = self.spec.mobility
        return _SyncPlan(
            horizon=self.spec.duration_s, lookahead=self.plan.lookahead,
            coupling=mobility_coupling_intervals(self.spec, self.plan),
            commit_points=schedule_commit_points(self.spec, self.plan),
            always_coupled=((mobility.enabled and mobility.mode == "snr")
                            or self.mbx_shard is not None))


# --------------------------------------------------------------------- #
# One shard: a built sub-scenario advanced window by window
# --------------------------------------------------------------------- #
@dataclass
class ShardResult:
    """Everything one shard ships back for the merge step (picklable)."""

    shard_index: int
    flows: list[FlowResult]
    queue_lengths: dict[str, list[int]]
    bearer_order: list[tuple[int, list[str]]]
    breakdown_count: int
    breakdown_sums: dict[str, float]
    marker_summaries: list[tuple[int, dict]]
    per_ue_throughput: dict[int, float]
    rate_errors: list[float]
    events_processed: int
    #: Mobile-flow sample fragments: a flow served by several shards has
    #: its one-way delays and raw delivery events re-merged in
    #: delivery-time order by :func:`merge_shard_results` (the throughput
    #: series is replayed from the merged events — its rate windows are
    #: event-anchored, so per-shard series cannot be concatenated).
    mobile_owd: dict[int, tuple[list[float], list[float]]] = \
        field(default_factory=dict)
    mobile_rate_events: dict[int, tuple[list[float], list[int]]] = \
        field(default_factory=dict)
    handover_records: list[dict] = field(default_factory=list)
    #: Per-flow ``(marked, downlink)`` packet counts over this shard's
    #: markers — a mobile flow's ``marked_fraction`` is recomputed at merge
    #: time from the counts summed across every shard that served it.
    flow_mark_counts: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: Aggregate background-population counters of this shard's cells.
    background: dict = field(default_factory=dict)


class _CouplingRuntime:
    """The seam between :class:`ShardHost` and one coupling's shard side.

    The host keeps a list of these and knows nothing else about mobility
    or the middlebox; the defaults are a coupling that takes no
    boundary items, may always emit some and adds nothing to the result.
    """

    #: Boundary item mode -> ``handler(at, payload)`` scheduling an inbound
    #: item of that mode onto the local loop.
    inject_handlers: dict = {}

    def boundary_idle(self) -> bool:
        """True when this coupling provably cannot emit boundary traffic."""
        return False

    def release(self, frontier: float) -> None:
        """Shard 0's barrier hook, its batch injected: the frontier ``K``."""

    def finish(self, result: ShardResult) -> None:
        """Add this coupling's share to the shard's packaged result."""


class _DynamicItinerary:
    """A UE's serving-cell timeline, growable by adopted SNR decisions.

    The scheduled prefix is immutable; :meth:`extend` appends a commit —
    lookups strictly before the commit time keep resolving the old cell,
    which is why a shard may adopt a decision the instant it learns of it
    (the commit lag guarantees no lookup at or past the commit time has
    been evaluated yet).
    """

    __slots__ = ("_times", "_cells")

    def __init__(self, itinerary: list[tuple[float, int]]) -> None:
        self._times = [entry[0] for entry in itinerary]
        self._cells = [entry[1] for entry in itinerary]

    def cell_at(self, t: float) -> int:
        """The serving cell at time ``t`` (handover boundaries inclusive)."""
        return self._cells[max(bisect_right(self._times, t) - 1, 0)]

    def extend(self, time: float, cell: int) -> None:
        """Append a committed handover (commit times strictly increase)."""
        self._times.append(time)
        self._cells.append(cell)


class _WanEntryCut:
    """A local sender's forward path, cut at WAN entry.

    The cut happens at pipe *entry* because that is where one full WAN leg
    of latency — at least the conservative lookahead — still lies ahead:
    the leg is applied arithmetically and the handoff carries the true
    pipe-exit time, so the far side ingests the packet at exactly the
    single loop's time.  The stamp is never late: an arrival is one WAN leg
    past the sender event that caused it, and no window end ever exceeds
    the global event floor plus the lookahead.

    A fixed ``target`` shard always hands off — towards the shared
    middlebox's host (``mbx_in``) even when that is this very shard, so
    simultaneous arrivals from different shards share one router-sorted
    injection order (flow declaration order, the single loop's tie order)
    instead of local-first.  An ``itinerary`` routes a mobile UE's packet
    by its core-arrival time instead, which reproduces exactly the single
    loop's route-at-core-ingress behaviour: scheduled handovers are known
    up front, SNR commits are appended when their decisions are adopted —
    always before any lookup at or past the commit time.
    """

    __slots__ = ("_host", "_sim", "_assignment", "_leg", "_mode", "_target",
                 "_itinerary")

    def __init__(self, host: "ShardHost", assignment: dict[int, int],
                 wan_leg: float, mode: str, target: Optional[int] = None,
                 itinerary: Optional[_DynamicItinerary] = None) -> None:
        self._host = host
        self._sim = host.scenario.sim
        self._assignment = assignment
        self._leg = wan_leg
        self._mode = mode
        self._target = target
        # The shared dynamic itinerary object (adopted SNR commits mutate
        # it in place, visible to this cached reference).
        self._itinerary = itinerary

    def receive(self, packet: Packet) -> None:
        """Hand one downlink packet to whoever owns its pipe-exit time."""
        host = self._host
        arrival = self._sim.now + self._leg
        target = self._target
        if target is None:
            target = self._assignment[self._itinerary.cell_at(arrival)]
            if target == host.shard_index:
                self._sim.schedule_at(arrival, host.scenario.core.receive,
                                      packet)
                return
        host.hand_off(arrival, packet, target, self._mode)


class _ShardMobility(_CouplingRuntime):
    """Glues one shard's scenario into the full-spec mobility plan.

    Builds the shard-local :class:`MobilityManager` (arrivals into and
    departures from local cells), pre-routes mobile uplink home as the
    core's ``remote_sink``, ships handover transfers across the boundary
    (stamped one lookahead late, or at the commit barrier itself when the
    interruption is shorter than the lookahead), and — for SNR mobility —
    publishes this shard's handover decisions as broadcast boundary items
    and adopts the other shards' into the dynamic itineraries.
    """

    def __init__(self, host: "ShardHost", coupling: _CouplingPlan) -> None:
        full_spec = coupling.spec
        self.shard_index = host.shard_index
        self.assignment = coupling.plan.assignment
        self.lookahead = coupling.plan.lookahead
        self.interruption = full_spec.mobility.interruption_s
        self.scenario = scenario = host.scenario
        self.sim = scenario.sim
        self.core_processing = scenario.core.processing_delay
        self.hand_off = host.hand_off
        topology = mobility_topology(full_spec)
        itineraries = topology.itineraries
        self._dynamic: dict[int, _DynamicItinerary] = {
            ue_id: _DynamicItinerary(itinerary)
            for ue_id, itinerary in itineraries.items()}
        self.mobile_ues = potentially_mobile_ues(full_spec)
        home_shard = {ue_id: self.assignment[itin[0][1]]
                      for ue_id, itin in itineraries.items()}
        local_cells = {cell for cell, shard in self.assignment.items()
                       if shard == self.shard_index}
        snr_mode = full_spec.mobility.mode == "snr"
        if snr_mode:
            # Any watched UE may be handed to any cell; every away-from-home
            # watched UE is a potential visitor here.
            visiting = {ue_id for ue_id in self.mobile_ues
                        if home_shard[ue_id] != self.shard_index}
        else:
            visiting = {ue_id for ue_id in self.mobile_ues
                        if home_shard[ue_id] != self.shard_index
                        and any(self.assignment[cell] == self.shard_index
                                for _t, cell in itineraries[ue_id])}
        self.manager = MobilityManager(
            scenario, topology, full_spec.mobility,
            local_cells=local_cells, transfer_out=self._send_transfer,
            visiting_ues=visiting,
            commit_lag=snr_commit_lag(full_spec),
            decision_out=self._publish_decision if snr_mode else None)
        # Per-mobile-flow routing tables (home shard, WAN one-way leg).
        legs = wan_one_way_legs(full_spec)
        self.flow_home: dict[int, int] = {}
        self.flow_wan_leg: dict[int, float] = {}
        for flow in full_spec.resolved_flows():
            if flow.ue_id in self.mobile_ues:
                self.flow_home[flow.flow_id] = home_shard[flow.ue_id]
                self.flow_wan_leg[flow.flow_id] = legs[flow.flow_id]
        scenario.throughput.retain_events_for = set(self.flow_home)
        scenario.core.remote_sink = self
        self.inject_handlers = {"wan_ul": self._inject_uplink,
                                "ho_transfer": self._inject_transfer,
                                "ho_decision": self._inject_decision}

    def itinerary_of(self, ue_id: int) -> _DynamicItinerary:
        """The UE's shared (mutable) serving-cell timeline."""
        return self._dynamic[ue_id]

    def receive(self, packet: Packet) -> None:
        """Core ``remote_sink``: an uplink packet with no local WAN path.

        A mobile flow's ACK leaving a serving shard goes to its home shard
        carrying the true sender-arrival time (``egress + core processing
        + wan_leg``); any other stray is dropped, as the single core drops
        an uplink packet of an unknown flow.
        """
        flow_id = packet.flow_id
        if packet.is_ack and flow_id in self.flow_home:
            deliver = ((self.sim.now + self.core_processing)
                       + self.flow_wan_leg[flow_id])
            self.hand_off(deliver, packet, self.flow_home[flow_id], "wan_ul")

    def _transfer_stamp(self, transfer_time: float) -> float:
        # Interruption >= lookahead: stamp one lookahead after the
        # transfer, no barrier needed.  Shorter: the synchronizer barriers
        # exactly at the commit time and the transfer crosses with a
        # same-instant stamp.
        if self.interruption >= self.lookahead - 1e-12:
            return transfer_time + self.lookahead
        return transfer_time

    def _send_transfer(self, transfer: HandoverTransfer,
                       target_cell: int) -> None:
        self.hand_off(self._transfer_stamp(transfer.time), transfer,
                      self.assignment[target_cell], "ho_transfer")

    def _publish_decision(self, decision: HandoverDecision) -> None:
        """Decide phase, shard side: adopt locally, broadcast to the rest."""
        self._dynamic[decision.ue_id].extend(decision.commit_at,
                                             decision.to_cell)
        self.hand_off(decision.commit_at, decision, _BROADCAST,
                      "ho_decision")

    def _inject_uplink(self, at: float, packet: Packet) -> None:
        self.sim.schedule_at(at, self.scenario.senders[packet.flow_id].receive,
                             packet)

    def _inject_transfer(self, at: float, transfer: HandoverTransfer) -> None:
        self.sim.schedule_at(at, self.manager.apply_transfer, transfer)

    def _inject_decision(self, _at: float,
                         decision: HandoverDecision) -> None:
        """A broadcast decision landed: itinerary first, then the manager.

        Adopted immediately: extending the itinerary is safe (and required)
        before any routing lookup at or past the commit time — the commit
        lag guarantees none happened.
        """
        self._dynamic[decision.ue_id].extend(decision.commit_at,
                                             decision.to_cell)
        self.manager.adopt_decision(decision)

    def boundary_idle(self) -> bool:
        return self.manager.boundary_idle()

    def finish(self, result: ShardResult) -> None:
        """Sample fragments of the mobile flows, and the handover records."""
        scenario = self.scenario
        for flow_id in self.flow_home:
            times = scenario.owd.sample_times.get(flow_id)
            samples = scenario.owd.samples.get(flow_id)
            if times:
                result.mobile_owd[flow_id] = (list(times), list(samples))
            events = scenario.throughput.raw_events.get(flow_id)
            if events and events[0]:
                result.mobile_rate_events[flow_id] = events
        self.manager.stop()
        result.handover_records = [dict(record)
                                   for record in self.manager.records]


# --------------------------------------------------------------------- #
# The shared wired middlebox, hosted on one shard
# --------------------------------------------------------------------- #
class _EgressPredictor:
    """The hosted queue's egress times as a function of its arrivals alone.

    The middlebox is a drop-tail FIFO behind a rate schedule known up
    front, so replaying :class:`~repro.net.link.Link`'s own float
    arithmetic over the arrival sequence — offered in the host loop's
    ``(time, seq)`` order — reproduces its completion times exactly.
    """

    def __init__(self, rate: float, schedule: list,
                 queue_bytes: int) -> None:
        steps = sorted(schedule, key=lambda step: step[0])
        self._times = [start for start, _rate in steps]
        self._rates = [rate] + [mbps(step_rate) for _start, step_rate in steps]
        self._limit = queue_bytes
        self._free = 0.0  # completion of the last admitted packet
        #: ``(serialisation start, size)`` of admitted packets that still
        #: occupy the buffer (the link dequeues a packet when it starts).
        self._waiting: deque = deque()
        self._bytes = 0

    def admit(self, arrival: float, size: int) -> Optional[float]:
        """Egress time of a packet arriving now (None: tail-dropped;
        ``inf``: stalled behind a zero rate that never resumes)."""
        waiting = self._waiting
        # A same-instant start came first: it ran in an earlier arrival's
        # or a schedule step's event.  (A completion tying an arrival to
        # the bit is decided by event order; the verifier catches it.)
        while waiting and waiting[0][0] <= arrival:
            self._bytes -= waiting.popleft()[1]
        if self._bytes + size > self._limit:
            return None
        start = max(arrival, self._free)
        index = bisect_right(self._times, start)
        rate = self._rates[index]
        while rate <= 0 and index < len(self._times):
            # Stalled: the head restarts at the next positive-rate step.
            start, rate = self._times[index], self._rates[index + 1]
            index += 1
        if rate <= 0:
            start = float("inf")  # the schedule never resumes
        self._free = start + transmission_time(size, rate)
        waiting.append((start, size))
        self._bytes += size
        return self._free


class _MiddleboxEgress:
    """The middlebox output link's sink on the host shard."""

    __slots__ = ("_runtime",)

    def __init__(self, runtime: "_SharedMiddlebox") -> None:
        self._runtime = runtime

    def receive(self, packet: Packet) -> None:
        self._runtime.egress(packet)


class _SharedMiddlebox(_CouplingRuntime):
    """One shard-spanning wired middlebox, its queue hosted on shard 0.

    Every shard's local senders are cut at WAN entry towards the host
    shard's single :class:`BottleneckRouter` (``mbx_in`` items, see
    :class:`_WanEntryCut`), and its egress routes each packet to the shard
    serving the destination UE *at egress time* (``mbx_core_dl`` items,
    pre-stamped ``core_ingress``, delivered one core-processing delay
    later).  Uplink bypasses the middlebox exactly like the single loop's
    topology.

    The host does not wait for the queue to drain: at every barrier it
    learns the knowledge frontier ``K`` (:meth:`release`), predicts the
    egress of every arrival before it and ships the remote-bound ones in
    that barrier.  The real link stays the truth for host-local deliveries
    and verifies every prediction (:meth:`egress`).
    """

    def __init__(self, host: "ShardHost", coupling: _CouplingPlan,
                 mobility: Optional[_ShardMobility]) -> None:
        full_spec = coupling.spec
        self.shard_index = host.shard_index
        self.assignment = coupling.plan.assignment
        scenario = host.scenario
        self.sim = scenario.sim
        self.core = scenario.core
        self.core_processing = scenario.core.processing_delay
        self.hand_off = host.hand_off
        # Egress routing tables: destination address -> serving cell, the
        # mobile UEs resolved against their (dynamic) itineraries.
        self._itinerary: dict[str, _DynamicItinerary] = {}
        self._static_cell: dict[str, int] = {}
        mobile = mobility.mobile_ues if mobility is not None else set()
        for ue in full_spec.resolved_ues():
            address = ue_ip_address(ue.ue_id)
            if ue.ue_id in mobile:
                self._itinerary[address] = mobility.itinerary_of(ue.ue_id)
            else:
                self._static_cell[address] = ue.cell_id
        self.horizon = full_spec.duration_s
        #: Known arrivals not yet predicted: a heap of ``(time, injection
        #: order, packet)``, the host loop's order for their real events.
        self._arrivals: list[tuple] = []
        self._injected = count()
        #: Predicted ``(egress, arrival, packet)`` beyond the frontier.
        self._predicted: deque = deque()
        #: Released ``(packet_id, egress, target)``, until the real egress.
        self._expected: deque = deque()
        self.router: Optional[BottleneckRouter] = None
        if self.shard_index == coupling.mbx_shard:
            rate = mbps(full_spec.wired_bottleneck_mbps)
            schedule = full_spec.wired_bottleneck_schedule
            self.router = BottleneckRouter(
                self.sim, rate=rate, sink=_MiddleboxEgress(self),
                queue_bytes=WIRED_MIDDLEBOX_QUEUE_BYTES,
                name="wired-middlebox")
            for start_time, step_rate in schedule:
                self.sim.schedule_at(start_time, self.router.set_rate,
                                     mbps(step_rate))
            self._predictor = _EgressPredictor(rate, schedule,
                                               WIRED_MIDDLEBOX_QUEUE_BYTES)
        self.inject_handlers = {"mbx_in": self._arrive,
                                "mbx_core_dl": self._inject_egressed}

    # ------------------------------------------------------------------ #
    def _arrive(self, when: float, packet: Packet) -> None:
        """Host side: a known arrival, for the real queue and the predictor."""
        self.sim.schedule_at(when, self.router.receive, packet)
        heappush(self._arrivals, (when, next(self._injected), packet))

    def _inject_egressed(self, at: float, packet: Packet) -> None:
        # Crossed the boundary after middlebox egress: already
        # core_ingress-stamped, delivery time covers processing.
        self.sim.schedule_at(at, self.core.deliver_downlink, packet)

    def _target(self, packet: Packet, when: float) -> int:
        """The shard serving the packet's UE at time ``when``."""
        address = packet.five_tuple.dst_ip
        itinerary = self._itinerary.get(address)
        cell = (itinerary.cell_at(when) if itinerary is not None
                else self._static_cell[address])
        return self.assignment[cell]

    def release(self, frontier: float) -> None:
        """Barrier, after injection: predict up to the knowledge frontier.

        Any arrival not yet injected lands at ``frontier`` or later, so the
        FIFO is final for arrivals strictly before it (a same-instant
        unknown one could order first) and so is every egress up to it.
        Routing at such an egress is final too: an SNR decision not yet
        adopted commits more than a lookahead after the frontier's floor.
        Remote-bound packets leave now, stamped as the real queue would
        have (the twin crosses before its ``receive`` event runs); an
        egress delivered past the horizon is never simulated.
        """
        arrivals, predicted = self._arrivals, self._predicted
        while arrivals and arrivals[0][0] < frontier:
            arrival, _order, packet = heappop(arrivals)
            egress = self._predictor.admit(arrival, packet.size)
            if egress is not None:
                predicted.append((egress, arrival, packet))
        while predicted and predicted[0][0] <= frontier:
            egress, arrival, p = predicted.popleft()
            target = self._target(p, egress)
            self._expected.append((p.packet_id, egress, target))
            deliver_at = egress + self.core_processing
            if target != self.shard_index and deliver_at <= self.horizon:
                twin = Packet(
                    p.flow_id, p.five_tuple, p.size, p.ecn, p.protocol, p.seq,
                    p.end_seq, p.is_ack, p.ack_seq, p.ece, p.cwr, p.accecn,
                    p.sent_time, p.packet_id,
                    {"router_ingress": arrival, "link_enqueue": arrival,
                     "core_ingress": egress, **p.timestamps},
                    p.marked_by, p.retransmission, p.payload_info)
                self.hand_off(deliver_at, twin, target, "mbx_core_dl")

    def egress(self, packet: Packet) -> None:
        """Output-link completion: the verifier, and host-local delivery."""
        now = self.sim.now
        target = self._target(packet, now)
        expected = self._expected.popleft() if self._expected else None
        if expected != (packet.packet_id, now, target):
            raise ConservativeSyncError(
                f"middlebox egress of packet {packet.packet_id} at {now!r} "
                f"to shard {target} was predicted as {expected}")
        if target == self.shard_index:
            self.core.receive(packet)


class ShardHost:
    """One shard's simulator, its outbound batch, and the window stepper.

    The host is transport-agnostic: :func:`_run_shards` drives it through
    a :class:`_LocalShard` in the coordinator process or, pumped by
    :func:`_shard_worker`, a :class:`_PipeShard` — the same few methods.

    ``coupling`` activates the coupling runtimes the full spec asks for
    (sub-specs themselves always carry mobility and the middlebox
    stripped); the host then only walks :attr:`couplings`.
    """

    def __init__(self, sub_spec: ScenarioSpec, shard_index: int,
                 coupling: Optional[_CouplingPlan] = None) -> None:
        self.shard_index = shard_index
        self.scenario: BuiltScenario = build_scenario(sub_spec)
        #: Outbound boundary items since the last barrier.
        self._outbound: list[tuple] = []
        self.couplings: list[_CouplingRuntime] = []
        #: Boundary item mode -> ``handler(at, payload)``; the couplings
        #: add theirs to the WAN-entry cut's plain core delivery.
        self._inject = {"core_dl": self._inject_downlink}
        if coupling is not None:
            mobility = None
            if coupling.spec.mobility.enabled:
                mobility = _ShardMobility(self, coupling)
                self.couplings.append(mobility)
            if coupling.mbx_shard is not None:
                self.couplings.append(
                    _SharedMiddlebox(self, coupling, mobility))
            for runtime in self.couplings:
                self._inject.update(runtime.inject_handlers)
            self._cut_wan_entry(coupling, mobility)

    def _cut_wan_entry(self, coupling: _CouplingPlan,
                       mobility: Optional[_ShardMobility]) -> None:
        """Re-cut every local sender whose packets may leave this shard.

        One precedence, by what sits at the far end of the WAN pipe: a
        shared middlebox lies between *every* pipe and the core, so it
        takes every sender (mobile ones included — its egress routes
        those); else a potentially mobile UE, whose flows live on this,
        its home shard.
        """
        assignment = coupling.plan.assignment
        legs = wan_one_way_legs(coupling.spec)
        for flow in coupling.spec.resolved_flows():
            sender = self.scenario.senders.get(flow.flow_id)
            if sender is None:
                continue
            if coupling.mbx_shard is not None:
                cut = {"mode": "mbx_in", "target": coupling.mbx_shard}
            elif mobility is not None and flow.ue_id in mobility.mobile_ues:
                cut = {"mode": "core_dl",
                       "itinerary": mobility.itinerary_of(flow.ue_id)}
            else:
                continue
            sender.path = _WanEntryCut(self, assignment, legs[flow.flow_id],
                                       **cut)

    def hand_off(self, deliver_at: float, payload, target: int,
                 mode: str) -> None:
        """Record an outbound boundary item, pre-routed by its producer.

        There is one item shape: ``(deliver_at, payload, mode, target)`` —
        the exact single-loop delivery time, what is delivered, the inject
        handler that takes it, and the destination shard (or
        :data:`_BROADCAST`).
        """
        self._outbound.append((deliver_at, payload, mode, target))

    def advance(self, until: float) -> list[tuple]:
        """Run the local loop up to ``until``; return drained outbound batch."""
        self.scenario.sim.run(until=until)
        batch, self._outbound = self._outbound, []
        return batch

    def peek(self) -> Optional[float]:
        """Earliest pending local event (the window floor)."""
        return self.scenario.sim.peek_time()

    def boundary_idle(self) -> bool:
        """True when this shard provably cannot emit boundary traffic."""
        return all(runtime.boundary_idle() for runtime in self.couplings)

    def _inject_downlink(self, at: float, packet: Packet) -> None:
        self.scenario.sim.schedule_at(at, self.scenario.core.receive, packet)

    def inject(self, batch: list[tuple]) -> None:
        """Schedule inbound boundary items onto the local loop.

        Every item carries its true single-loop delivery time.  The
        conservative window guarantees it is never in this shard's past —
        enforce it rather than assume it.
        """
        sim = self.scenario.sim
        for deliver_at, payload, mode, _target in batch:
            if deliver_at < sim.now - 1e-12:
                raise ConservativeSyncError(
                    f"shard {self.shard_index}: boundary item for "
                    f"t={deliver_at:.6f} arrived at local time "
                    f"{sim.now:.6f}; lookahead window violated")
            handler = self._inject.get(mode)
            if handler is None:
                raise ValueError(f"unknown boundary item mode {mode!r}")
            handler(max(deliver_at, sim.now), payload)

    def release(self, frontier: float) -> list[tuple]:
        """Shard 0 at a barrier, its batch injected: what the couplings hand
        off knowing the frontier ``K``, drained for this same barrier."""
        for runtime in self.couplings:
            runtime.release(frontier)
        batch, self._outbound = self._outbound, []
        return batch

    def finish(self) -> ShardResult:
        """Stop collectors and package this shard's results for the merge."""
        scenario = self.scenario
        scenario.stop_collectors()
        result = scenario.collect(scenario.sim.processed_events)
        packaged = ShardResult(
            shard_index=self.shard_index,
            flows=result.flows,
            queue_lengths={name: list(values) for name, values
                           in scenario.queue_sampler.length_samples.items()},
            bearer_order=[(cell_id,
                           [label for label, _ in gnb.du.labeled_rlc_items()])
                          for cell_id, gnb in scenario.gnbs.items()],
            breakdown_count=scenario.breakdown.count,
            breakdown_sums=dict(scenario.breakdown.sums),
            marker_summaries=scenario.marker_cell_summaries(),
            per_ue_throughput=result.per_ue_throughput,
            rate_errors=result.rate_estimation_errors,
            events_processed=result.events_processed,
            flow_mark_counts=scenario.flow_mark_counts(),
            background=result.background)
        for runtime in self.couplings:
            runtime.finish(packaged)
        return packaged


# --------------------------------------------------------------------- #
# Boundary routing (coordinator side)
# --------------------------------------------------------------------- #
@dataclass
class _BoundaryRouter:
    """Fans drained boundary items out to the shards they name."""

    num_shards: int
    #: flow_id -> declaration index; simultaneous middlebox arrivals inject
    #: in this order (the single loop's tie order for the initial bursts).
    flow_order: dict[int, int] = field(default_factory=dict)
    routed_packets: int = 0
    #: Earliest delivery time among the items routed by the last
    #: :meth:`route` call (the window floor), or None.
    last_min_deliver: Optional[float] = None
    #: Commit times of handover decisions routed since the last
    #: :meth:`drain_commits` — the synchronizer pins a barrier on each.
    pending_commits: list = field(default_factory=list)

    def route(self, outputs: list[list[tuple]]) -> list[list[tuple]]:
        """Turn per-shard outbound batches into per-shard inbound batches."""
        inbound: list[list[tuple]] = [[] for _ in range(self.num_shards)]
        min_deliver: Optional[float] = None
        for source, batch in enumerate(outputs):
            for item in batch:
                deliver_at, target = item[0], item[3]
                self.routed_packets += 1
                if target == _BROADCAST:
                    # An SNR handover decision: every other shard adopts
                    # it, and the synchronizer pins a barrier at its
                    # commit time.
                    self.pending_commits.append(deliver_at)
                    for shard in range(self.num_shards):
                        if shard != source:
                            inbound[shard].append(item)
                else:
                    inbound[target].append(item)
                if min_deliver is None or deliver_at < min_deliver:
                    min_deliver = deliver_at
        for batch in inbound:
            # Stable sort: simultaneous deliveries inject in a fixed order
            # regardless of how cells were assigned to shards.  Tied
            # middlebox arrivals take flow declaration order — the single
            # loop's scheduling order for simultaneous flow starts; other
            # ties keep the source-shard order.
            batch.sort(key=self._sort_key)
        self.last_min_deliver = min_deliver
        return inbound

    def route_released(self, released: list[tuple], inbound: list[list[tuple]],
                       window_end: float, frontier: float) -> None:
        """Add what shard 0 released knowing ``frontier`` to this barrier's
        inbound batches, guarded at the source: a target's own lateness
        guard fires a pipe hop later and names neither egress nor ``K``."""
        for item in released:
            deliver_at, packet, _mode, target = item
            if deliver_at < window_end:
                egress = packet.timestamps["core_ingress"]
                raise ConservativeSyncError(
                    f"middlebox egress of packet {packet.packet_id} at "
                    f"{egress!r} (K={frontier!r}) is due on shard {target} at "
                    f"{deliver_at!r}, before the window end {window_end!r}")
            self.routed_packets += 1
            inbound[target].append(item)
        for target in {item[3] for item in released}:
            inbound[target].sort(key=self._sort_key)

    def _sort_key(self, item: tuple) -> tuple:
        if item[2] == "mbx_in":
            return (item[0], 1, self.flow_order.get(item[1].flow_id, -1))
        return (item[0], 0, -1)

    def drain_commits(self) -> list[float]:
        """Take (and clear) commit times routed since the last barrier."""
        commits, self.pending_commits = self.pending_commits, []
        return commits


# --------------------------------------------------------------------- #
# Result merge: per-shard collector outputs -> single-loop report schema
# --------------------------------------------------------------------- #
def merge_shard_results(config: ScenarioSpec, plan: ShardPlan,
                        results: list[ShardResult],
                        sharding_stats: Optional[dict] = None
                        ) -> ScenarioResult:
    """Recombine shard results into the exact single-loop result schema.

    Orderings the single loop makes observable are reconstructed from the
    full spec: flows in declared flow order, queue samples cell by cell in
    declaration order, marker summaries merged over cells in declaration
    order.  A mobile flow's samples — collected by every shard that served
    its UE — are re-merged in delivery-time order, its throughput series
    replayed from the merged delivery events and its goodput recomputed
    from the summed byte counts, reproducing the single loop's values
    exactly.  Two quantities are deterministic but *not* order-identical to
    the single loop: ``events_processed`` is the sum over shard loops (each
    shard ticks its own queue sampler), and in mobility runs the key order
    of ``queue_length_by_drb`` — bearers released mid-run by a departure
    are appended after the finish-time bearers rather than in
    first-appearance order (the dict compares equal; only the flattened
    ``queue_length_samples`` concatenation order differs).
    """
    results = sorted(results, key=lambda r: r.shard_index)
    flows_by_id = {flow.flow_id: flow for r in results for flow in r.flows}
    resolved_flows = config.resolved_flows()
    mobile_ues = potentially_mobile_ues(config)
    # A mobile flow leaves flow records behind in every cell (shard) it
    # visited; sum the per-shard mark counts so its merged marked_fraction
    # covers them all, exactly like the single loop's cross-cell merge.
    mark_counts: dict[int, list[int]] = {}
    for r in results:
        for flow_id, (marked, downlink) in r.flow_mark_counts.items():
            entry = mark_counts.setdefault(flow_id, [0, 0])
            entry[0] += marked
            entry[1] += downlink
    merged_owd_times: dict[int, list[float]] = {}
    mobile_flow_bytes: dict[int, int] = {}
    replay = ThroughputCollector(window=config.throughput_window)
    ordered_flows = []
    for spec in resolved_flows:
        flow = flows_by_id[spec.flow_id]
        if spec.ue_id in mobile_ues:
            pairs = [pair for r in results
                     for pair in zip(*r.mobile_owd.get(spec.flow_id,
                                                       ((), ())))]
            pairs.sort(key=lambda pair: pair[0])
            merged_owd_times[spec.flow_id] = [t for t, _v in pairs]
            # Replay the merged delivery events through a fresh collector:
            # its rate windows are event-anchored, so this — not a
            # concatenation of per-shard series — reproduces the single
            # loop's throughput series (and byte totals) exactly.
            events = [event for r in results
                      for event in
                      zip(*r.mobile_rate_events.get(spec.flow_id, ((), ())))]
            events.sort(key=lambda event: event[0])
            for now, size in events:
                replay.record(spec.flow_id, size, now)
            total_bytes = replay.total_bytes.get(spec.flow_id, 0)
            mobile_flow_bytes[spec.flow_id] = total_bytes
            duration = config.duration_s - spec.start_time
            if spec.stop_time is not None:
                duration = min(duration, spec.stop_time - spec.start_time)
            marked, downlink = mark_counts.get(spec.flow_id, [0, 0])
            flow = dataclasses.replace(
                flow,
                owd_samples=[v for _t, v in pairs],
                goodput_bytes_per_s=total_bytes / max(duration, 1e-9),
                marked_fraction=marked / downlink if downlink else 0.0,
                throughput_series=replay.series.get(spec.flow_id,
                                                    TimeSeries()))
        ordered_flows.append(flow)

    bearer_names: dict[int, list[str]] = {}
    for r in results:
        for cell_id, names in r.bearer_order:
            bearer_names[cell_id] = names
    all_lengths = merge_sample_dicts(r.queue_lengths for r in results)
    queue_by_drb: dict[str, list[int]] = {}
    for cell in config.resolved_cells():
        for name in bearer_names.get(cell.cell_id, []):
            if name in all_lengths:
                queue_by_drb[name] = all_lengths[name]
    # Bearers released mid-run (handover departures) are no longer listed
    # by any DU at finish time; their samples still belong in the report.
    for name, values in all_lengths.items():
        queue_by_drb.setdefault(name, values)
    queue_samples = [sample for values in queue_by_drb.values()
                     for sample in values]

    breakdown = DelayBreakdownAccumulator()
    for r in results:
        breakdown.merge_from(r.breakdown_count, r.breakdown_sums)

    summaries: dict[int, dict] = {}
    for r in results:
        for cell_id, summary in r.marker_summaries:
            summaries[cell_id] = summary
    marker_summary = merge_numeric_summaries(
        [summaries[cell.cell_id] for cell in config.resolved_cells()
         if cell.cell_id in summaries])

    merged_ue = {}
    for r in results:
        merged_ue.update(r.per_ue_throughput)
    per_ue: dict[int, float] = {}
    for flow in resolved_flows:
        if flow.ue_id in mobile_ues:
            per_ue.setdefault(flow.ue_id, 0.0)
            per_ue[flow.ue_id] += (mobile_flow_bytes.get(flow.flow_id, 0)
                                   / max(config.duration_s, 1e-9))
        else:
            per_ue.setdefault(flow.ue_id, merged_ue.get(flow.ue_id, 0.0))

    handovers = merge_handover_records(r.handover_records for r in results)
    if handovers:
        attach_data_gaps(handovers, merged_owd_times,
                         {flow.flow_id: flow.ue_id
                          for flow in resolved_flows})

    background: dict = {}
    if any(r.background for r in results):
        from repro.ran.background import merge_background_summaries
        background = merge_background_summaries(
            [r.background for r in results])

    return ScenarioResult(
        config=config,
        flows=ordered_flows,
        queue_length_samples=queue_samples,
        queue_length_by_drb=queue_by_drb,
        delay_breakdown=breakdown.averages(),
        marker_summary=marker_summary,
        per_ue_throughput=per_ue,
        rate_estimation_errors=[error for r in results
                                for error in r.rate_errors],
        duration_s=config.duration_s,
        events_processed=sum(r.events_processed for r in results),
        handovers=handovers,
        sharding_stats=dict(sharding_stats or {}),
        background=background)


# --------------------------------------------------------------------- #
# Shard transports and the one barrier loop
# --------------------------------------------------------------------- #
class _LocalShard:
    """Transport to a :class:`ShardHost` in the coordinator process.

    ``proceed`` only injects; the window is simulated inside ``collect``,
    after every pipe shard was told to proceed, while the workers compute.
    """

    def __init__(self, host: ShardHost) -> None:
        self.host: Optional[ShardHost] = host
        self._window_end = 0.0

    def proceed(self, inbound: list[tuple],
                next_window: Optional[float]) -> None:
        self.host.inject(inbound)
        self._window_end = next_window

    def release(self, frontier: float) -> list[tuple]:
        return self.host.release(frontier)

    def collect(self) -> tuple:
        host = self.host
        return host.advance(self._window_end), host.peek(), host.boundary_idle()

    def result(self) -> ShardResult:
        # Dropped with the packaging: the merge never overlaps a live host.
        host, self.host = self.host, None
        return host.finish()

    def close(self) -> None:
        self.host = None


def _shard_worker(conn, shard_index: int, spec: dict,
                  coupling: _CouplingPlan) -> None:
    """Worker-process main: pump one :class:`ShardHost` over a pipe.

    In lock-step with :func:`_run_shards`, which owns the window clock:
    block for ``("proceed", (inbound_batch, window_end))``, inject, advance,
    send ``("window", (outbound_batch, peek_time, boundary_idle))``.  The
    proceed answering the horizon window has no window end and is answered
    with ``("result", ShardResult)``.  An exception is shipped back as
    ``("error", traceback_text)`` instead of dying silently.
    """
    try:
        host = ShardHost(ScenarioSpec.from_dict(spec), shard_index, coupling)
        while True:
            _kind, (inbound, window_end) = conn.recv()
            host.inject(inbound)
            if window_end is None:
                break
            conn.send(("window", (host.advance(window_end), host.peek(),
                                  host.boundary_idle())))
        conn.send(("result", host.finish()))
    except Exception:  # pragma: no cover - ships the traceback to the parent
        import traceback
        with suppress(OSError):
            conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class _PipeShard:
    """Transport to a :class:`ShardHost` that :func:`_shard_worker` pumps in
    a worker process of its own; same four calls as :class:`_LocalShard`."""

    def __init__(self, context, index: int, spec: dict,
                 coupling: _CouplingPlan) -> None:
        self.index = index
        self.window = 0
        self.conn, child = context.Pipe()
        self.worker = context.Process(target=_shard_worker,
                                      args=(child, index, spec, coupling),
                                      name=f"repro-shard-{index}", daemon=True)
        try:
            with child:
                self.worker.start()
        except BaseException:
            self.conn.close()
            raise

    def _recv(self):
        if not self.conn.poll(_WORKER_TIMEOUT_S):
            raise RuntimeError(f"shard {self.index} sent nothing for "
                               f"{_WORKER_TIMEOUT_S:.0f}s; run wedged")
        try:
            kind, value = self.conn.recv()
        except (EOFError, OSError) as exc:
            self.worker.join(timeout=5.0)
            raise ShardWorkerDied(
                f"shard {self.index} worker died in window {self.window} "
                f"(exit code {self.worker.exitcode})") from exc
        if kind == "error":
            raise RuntimeError(f"shard {self.index} worker failed:\n{value}")
        return value

    def proceed(self, inbound: list[tuple],
                next_window: Optional[float]) -> None:
        with suppress(OSError):  # a dead worker: the next collect names it
            self.conn.send(("proceed", (inbound, next_window)))

    def collect(self) -> tuple:
        self.window += 1
        return self._recv()

    def result(self) -> ShardResult:
        result = self._recv()
        self.worker.join(timeout=5.0)
        return result

    def close(self) -> None:
        """Reap a worker that has not delivered its result: it blocks on its
        pipe (a forked one holds its own copy of the coordinator's end, so
        EOF never comes) until terminated."""
        self.conn.close()
        if self.worker.is_alive():
            self.worker.terminate()
            self.worker.join(timeout=5.0)


def _start_workers(sub_specs: list[ScenarioSpec], coupling: _CouplingPlan,
                   start_method: Optional[str]) -> list[_PipeShard]:
    """One worker process per shard but shard 0, which the coordinator
    hosts itself; ``[]`` (after a warning) where the platform has none."""
    started: list[_PipeShard] = []
    try:
        context = multiprocessing.get_context(start_method or None)
        for index, sub in enumerate(sub_specs[1:], start=1):
            started.append(_PipeShard(context, index, sub.to_dict(),
                                      coupling))
    except (ImportError, NotImplementedError, OSError) as exc:
        # Partial startup (e.g. EAGAIN on the Nth fork): reap the workers
        # that did start before the all-local retry.
        for shard in started:
            shard.close()
        warnings.warn(
            f"shard worker processes unavailable ({exc}); running all "
            f"{len(sub_specs)} shards in-process (same results, no "
            "parallel speedup)", RuntimeWarning, stacklevel=3)
        return []
    return started


def _run_shards(shards: list, router: _BoundaryRouter, sync: _SyncPlan,
                on_window=None) -> list[ShardResult]:
    """The barrier loop: drive every shard, local or piped, window by window.

    Every ``proceed`` of a window precedes its first ``collect``, so the
    workers are computing when the local shards start; reports arrive in
    shard index order, which the router's stable sort relies on.  Shard 0
    is local and hosts the middlebox: what it releases knowing a barrier's
    frontier joins that barrier's inbound batches.
    """
    window_end = sync.first_window()
    for shard in shards:
        shard.proceed([], window_end)
    while True:
        sync.windows += 1
        outputs, peeks, idles = zip(*[shard.collect() for shard in shards])
        inbound = router.route(outputs)
        for when in router.drain_commits():
            sync.add_commit_point(when)
        done = window_end >= sync.horizon - 1e-12
        next_window = (None if done else
                       sync.next_window(window_end, peeks,
                                        router.last_min_deliver, all(idles)))
        shards[0].proceed(inbound[0], next_window)
        router.route_released(shards[0].release(sync.frontier), inbound,
                              window_end, sync.frontier)
        for shard, batch in zip(shards[1:], inbound[1:]):
            shard.proceed(batch, next_window)
        if on_window is not None:
            on_window(window_end)
        if done:
            return [shard.result() for shard in shards]
        window_end = next_window


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def _run_single_loop(config: ScenarioSpec, progress,
                     progress_interval_s: float) -> ScenarioResult:
    """Single-event-loop execution used by the sharded fallback paths."""
    built = build_scenario(
        dataclasses.replace(config, sharding=ShardingSpec(mode="off")))
    if progress is not None:
        built.attach_progress(progress, interval=progress_interval_s)
    return built.run()


def run_scenario_sharded(config: ScenarioSpec, shards: Optional[int] = None,
                         inprocess: Optional[bool] = None,
                         start_method: Optional[str] = None,
                         progress=None,
                         progress_interval_s: float = 0.25
                         ) -> ScenarioResult:
    """Run ``config`` with cells sharded across processes; merged result.

    Falls back with a warning naming the blockers: the few specs a split
    cannot reproduce byte-for-byte (single cell, too-small SNR commit lag)
    run on the classic single loop, and the result's ``sharding_stats``
    records why.
    The coordinator hosts shard 0 itself and starts one worker process per
    further shard; ``inprocess=True``, ``$REPRO_SHARD_INPROCESS`` or a
    platform without worker processes keeps every shard in this process,
    under the same barrier loop (identical results — only wall-clock
    differs).  ``shards`` overrides the spec's shard count.
    """
    config.validate()
    blockers = sharding_blockers(config)
    if blockers:
        if config.sharding.mode == "explicit":
            raise ShardPlanError("spec cannot be sharded: "
                                 + "; ".join(blockers))
        warnings.warn(
            "spec cannot be sharded (" + "; ".join(blockers) + "); "
            "running on the single event loop instead",
            RuntimeWarning, stacklevel=2)
        result = _run_single_loop(config, progress, progress_interval_s)
        result.sharding_stats = {"fallback": "single-loop",
                                 "blockers": list(blockers)}
        return result
    if inprocess is None:
        inprocess = bool(os.environ.get(INPROCESS_ENV))
    # In-process shards start no processes, so they take no share of the
    # core budget that sweep workers divide.
    plan = _shard_plan(config, shards,
                       1 if inprocess else active_sweep_workers())
    if plan.num_shards <= 1:
        return _run_single_loop(config, progress, progress_interval_s)
    sub_specs = split_spec(config, plan)
    coupling = _CouplingPlan(config, plan)
    sync = coupling.sync_plan()
    router = _BoundaryRouter(
        num_shards=plan.num_shards,
        flow_order={flow.flow_id: index for index, flow
                    in enumerate(config.resolved_flows())})
    on_window = None
    if progress is not None:
        def on_window(window_end: float) -> None:
            # The shards own the per-flow state mid-run, so sharded
            # progress is coarser than the single loop's: one snapshot per
            # barrier window, carrying the synchronized simulation time.
            progress({"kind": "window",
                      "time_s": min(window_end, config.duration_s),
                      "windows": sync.windows,
                      "shards": plan.num_shards})
    transports: list = ([] if inprocess else
                        _start_workers(sub_specs, coupling, start_method))
    try:
        # Every worker is forked by now, so no child inherits a local host.
        transports[:0] = [
            _LocalShard(ShardHost(sub, index, coupling))
            for index, sub in enumerate(
                sub_specs[:plan.num_shards - len(transports)])]
        results = _run_shards(transports, router, sync, on_window)
    finally:
        for transport in transports:
            transport.close()
    stats = {"windows": sync.windows,
             "window_bounds": sync.window_bounds,
             "lookahead": plan.lookahead,
             "boundary_required": sync.coupled,
             "routed_packets": router.routed_packets,
             "shards": plan.num_shards}
    return merge_shard_results(config, plan, results, sharding_stats=stats)


__all__ = [
    "ConservativeSyncError",
    "ShardHost",
    "ShardPlan",
    "ShardPlanError",
    "ShardResult",
    "ShardingSpec",
    "boundary_lookahead",
    "build_shard_plan",
    "merge_shard_results",
    "mobility_coupling_intervals",
    "potentially_mobile_ues",
    "run_scenario_sharded",
    "schedule_commit_points",
    "sharding_blockers",
    "split_spec",
]
