"""Run-time measurement collectors attached to scenarios.

Collectors are intentionally cheap: they append to Python lists and do all
statistics after the simulation finishes.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.metrics.breakdown import breakdown_from_packet
from repro.metrics.stats import summarize
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.units import to_mbps


class SampleReservoir(list):
    """A bounded, uniformly representative sample of an append-only stream.

    Behaves exactly like a list until ``capacity`` values have been appended;
    from then on each further value replaces a random retained one with
    probability ``capacity / n`` (Vitter's Algorithm R), so the reservoir
    stays a uniform sample of everything observed while memory stays bounded.
    Long-running senders append an RTT/cwnd sample per ACK, which previously
    grew without limit.

    The replacement RNG is a private ``random.Random`` seeded from the
    capacity, so reservoir contents are a pure function of the append
    sequence -- parallel sweep workers see identical results.  Runs that
    never exceed the capacity are bit-identical to the unbounded behaviour.
    """

    __slots__ = ("capacity", "observed", "_rng")

    def __init__(self, capacity: int) -> None:
        super().__init__()
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.observed = 0
        self._rng = random.Random(0x5EED ^ capacity)

    def append(self, value) -> None:
        n = self.observed = self.observed + 1
        if n <= self.capacity:
            list.append(self, value)
        else:
            slot = self._rng.randrange(n)
            if slot < self.capacity:
                self[slot] = value

    def extend(self, values) -> None:
        for value in values:
            self.append(value)

    def __reduce__(self):
        # list subclasses pickle by replaying items through append(), which
        # here runs before the capacity/observed/_rng slots exist; rebuild
        # explicitly instead so reservoirs survive pickling and deepcopy
        # (e.g. results crossing the parallel sweep's process boundary).
        return (_rebuild_reservoir, (self.capacity, self.observed,
                                     self._rng.getstate(), list(self)))


def _rebuild_reservoir(capacity, observed, rng_state, items):
    reservoir = SampleReservoir(capacity)
    list.extend(reservoir, items)
    reservoir.observed = observed
    reservoir._rng.setstate(rng_state)
    return reservoir


@dataclass
class TimeSeries:
    """A simple (time, value) series with helpers."""

    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def mean(self) -> float:
        if not self.values:
            return float("nan")
        return sum(self.values) / len(self.values)

    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.times, self.values))


class OwdCollector:
    """Collects per-flow one-way delays of delivered downlink packets."""

    def __init__(self) -> None:
        self.samples: dict[int, list[float]] = defaultdict(list)
        self.sample_times: dict[int, list[float]] = defaultdict(list)

    def record(self, flow_id: int, owd: float, now: float) -> None:
        self.samples[flow_id].append(owd)
        self.sample_times[flow_id].append(now)

    def flow_summary(self, flow_id: int) -> dict:
        """Summary statistics of one flow's one-way delay."""
        return summarize(self.samples.get(flow_id, []))

    def all_samples(self) -> list[float]:
        """Every sample across all flows."""
        merged: list[float] = []
        for values in self.samples.values():
            merged.extend(values)
        return merged


class ThroughputCollector:
    """Windowed received-throughput series per flow (bytes/s)."""

    def __init__(self, window: float = 0.25) -> None:
        self.window = window
        self._bytes_in_window: dict[int, int] = defaultdict(int)
        self._window_start: dict[int, float] = {}
        self.series: dict[int, TimeSeries] = defaultdict(TimeSeries)
        self.total_bytes: dict[int, int] = defaultdict(int)
        self.first_time: dict[int, float] = {}
        self.last_time: dict[int, float] = {}
        #: Flow ids whose raw (time, size) events are retained.  The rate
        #: windows are anchored at event times, so a collector that only saw
        #: part of a flow's life (one shard of a mobile flow) cannot have
        #: its series merged with another's — the sharded runtime instead
        #: retains the raw events and replays the merged stream through a
        #: fresh collector, reproducing the single loop exactly.
        self.retain_events_for: Optional[set] = None
        self.raw_events: dict[int, tuple[list[float], list[int]]] = {}

    def record(self, flow_id: int, size: int, now: float) -> None:
        self.total_bytes[flow_id] += size
        self.first_time.setdefault(flow_id, now)
        self.last_time[flow_id] = now
        start = self._window_start.setdefault(flow_id, now)
        self._bytes_in_window[flow_id] += size
        if now - start >= self.window:
            rate = self._bytes_in_window[flow_id] / (now - start)
            self.series[flow_id].append(now, rate)
            self._window_start[flow_id] = now
            self._bytes_in_window[flow_id] = 0
        if self.retain_events_for is not None \
                and flow_id in self.retain_events_for:
            times, sizes = self.raw_events.setdefault(flow_id, ([], []))
            times.append(now)
            sizes.append(size)

    def average_rate(self, flow_id: int,
                     duration: Optional[float] = None) -> float:
        """Mean received rate of a flow in bytes/s."""
        total = self.total_bytes.get(flow_id, 0)
        if total == 0:
            return 0.0
        if duration is None:
            first = self.first_time.get(flow_id, 0.0)
            last = self.last_time.get(flow_id, first)
            duration = max(last - first, 1e-9)
        return total / max(duration, 1e-9)


class DelayBreakdownAccumulator:
    """Averages the per-packet delay breakdown across all delivered packets."""

    def __init__(self) -> None:
        self.count = 0
        self.sums = {"propagation": 0.0, "queuing": 0.0, "scheduling": 0.0,
                     "other": 0.0}

    def record_packet(self, packet: Packet, delivery_time: float) -> None:
        breakdown = breakdown_from_packet(packet, delivery_time)
        if breakdown is None:
            return
        self.count += 1
        sums = self.sums
        sums["propagation"] += breakdown[0]
        sums["queuing"] += breakdown[1]
        sums["scheduling"] += breakdown[2]
        sums["other"] += breakdown[3]

    def averages(self) -> dict:
        """Mean of each component in seconds (zeros when nothing recorded)."""
        if self.count == 0:
            return {key: 0.0 for key in self.sums}
        return {key: value / self.count for key, value in self.sums.items()}

    def merge_from(self, count: int, sums: dict) -> None:
        """Fold another accumulator's raw ``(count, sums)`` into this one.

        Per-shard accumulators ship their exact sums across the process
        boundary, so the merged :meth:`averages` equal the single-loop run's
        (same totals, same divisor) instead of being a mean of means.
        """
        self.count += count
        for key, value in sums.items():
            self.sums[key] = self.sums.get(key, 0.0) + value


# --------------------------------------------------------------------- #
# Shard merge helpers
#
# A sharded scenario produces one collector set per shard process; these
# functions recombine their outputs into the exact schema (and, where the
# single loop's iteration order is observable, the exact ordering) of an
# unsharded run.  They live here, next to the collectors whose outputs they
# merge, so the collection and recombination logic evolve together.
# --------------------------------------------------------------------- #
def merge_sample_dicts(parts) -> dict:
    """Concatenate ``{key: [samples]}`` dicts with disjoint sample streams.

    Keys are expected to be unique per part (bearer names are scenario-global
    because UE ids are); a key appearing in several parts — a bearer whose
    samples were split across result fragments — is concatenated in the order
    the parts are given.
    """
    merged: dict = {}
    for part in parts:
        for key, values in part.items():
            if key in merged:
                merged[key] = list(merged[key]) + list(values)
            else:
                merged[key] = list(values)
    return merged


def merge_numeric_summaries(summaries) -> dict:
    """Merge marker/component summary dicts by summing numeric counters.

    Non-numeric values keep the first occurrence.  A single summary is
    returned unchanged (identity with the single-cell report schema).
    """
    summaries = list(summaries)
    if len(summaries) == 1:
        return summaries[0]
    merged: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if isinstance(value, (int, float)):
                merged[key] = merged.get(key, 0) + value
            else:
                merged.setdefault(key, value)
    return merged


class QueueSampler:
    """Periodically samples RLC queue lengths (in SDUs) and bytes per bearer.

    ``gnb`` may be a single gNB or a list of them (a multi-cell scenario);
    bearer keys ("ueX/drbY") are unique across cells because UE ids are
    scenario-global.
    """

    def __init__(self, sim: Simulator, gnb, interval: float = 0.05) -> None:
        self._sim = sim
        self._gnbs = list(gnb) if isinstance(gnb, (list, tuple)) else [gnb]
        self.interval = interval
        self.length_samples: dict[str, list[int]] = defaultdict(list)
        self.byte_samples: dict[str, list[int]] = defaultdict(list)
        self.times: list[float] = []
        self._bearers: Optional[list[tuple[str, object]]] = None
        self._timer = sim.every(interval, self._sample)

    def _bearer_list(self) -> list[tuple[str, object]]:
        """(name, entity) pairs, cached -- per-tick DrbKey lookups and
        report-dict rebuilds were a measurable share of scenario time.  The
        cache is refreshed whenever a cell gains a bearer (late attach) or
        :meth:`invalidate` is called (a handover swaps bearers without
        changing the total, which a pure count check would miss)."""
        bearers = self._bearers
        total = sum(len(gnb.du.rlc_items()) for gnb in self._gnbs)
        if bearers is None or len(bearers) != total:
            bearers = [item
                       for gnb in self._gnbs
                       for item in gnb.du.labeled_rlc_items()]
            self._bearers = bearers
        return bearers

    def invalidate(self) -> None:
        """Force a bearer re-scan on the next tick (topology changed)."""
        self._bearers = None

    def _sample(self) -> None:
        self.times.append(self._sim.now)
        for name, entity in self._bearer_list():
            self.length_samples[name].append(entity.queue_length_sdus)
            self.byte_samples[name].append(entity.backlog_bytes)

    def all_length_samples(self) -> list[int]:
        """Every queue-length sample across bearers."""
        merged: list[int] = []
        for values in self.length_samples.values():
            merged.extend(values)
        return merged

    def stop(self) -> None:
        self._timer.stop()


class RateEstimationProbe:
    """Samples L4Span's egress-rate estimate against the ground truth.

    The ground truth is the RLC entity's transmitted-byte counter differenced
    over each sampling interval -- the same quantity the estimator tries to
    predict from F1-U reports.  Used by the Fig. 20 harness.
    """

    def __init__(self, sim: Simulator, gnb, l4span,
                 interval: float = 0.05) -> None:
        self._sim = sim
        self._gnb = gnb
        self._l4span = l4span
        self.interval = interval
        self._last_tx_bytes: dict[str, int] = {}
        self.errors_percent: list[float] = []
        self._timer = sim.every(interval, self._sample)

    def _sample(self) -> None:
        for key, state in list(self._l4span.drb_states.items()):
            estimate = state.estimator.last_estimate
            if estimate is None or estimate.smoothed_rate <= 0:
                continue
            try:
                entity = self._gnb.du.rlc_entity(key.ue_id, key.drb_id)
            except KeyError:
                continue
            name = str(key)
            previous = self._last_tx_bytes.get(name)
            current = entity.transmitted_bytes
            self._last_tx_bytes[name] = current
            if previous is None:
                continue
            true_rate = (current - previous) / self.interval
            if true_rate <= 0:
                continue
            error = 100.0 * (estimate.smoothed_rate - true_rate) / true_rate
            self.errors_percent.append(error)

    def stop(self) -> None:
        self._timer.stop()


class ProgressReporter:
    """Periodically feeds live per-flow metric snapshots to a callback.

    The progress hook behind the scenario service's ``GET /runs/{id}/events``
    stream (and any programmatic ``repro.api.run(..., progress=...)`` user):
    every ``interval`` simulated seconds it invokes ``callback`` with one
    plain-dict snapshot::

        {"kind": "snapshot", "time_s": <sim time>, "events": <processed>,
         "flows": {"<flow_id>": {"bytes": <cumulative received>,
                                 "rate_mbps": <rate over the last interval>}}}

    Snapshots are derived from the scenario's existing
    :class:`ThroughputCollector`, so the hook adds one dict build per tick
    and nothing to the per-packet path.  The callback runs inside the event
    loop; it must not block (the service hands snapshots to a queue).
    """

    def __init__(self, sim: Simulator, throughput: ThroughputCollector,
                 callback, interval: float = 0.25) -> None:
        if interval <= 0:
            raise ValueError("progress interval must be positive")
        self._sim = sim
        self._throughput = throughput
        self._callback = callback
        self.interval = interval
        self.snapshots = 0
        self._last_bytes: dict[int, int] = {}
        self._last_time = sim.now
        self._timer = sim.every(interval, self._tick)

    def _tick(self) -> None:
        now = self._sim.now
        elapsed = max(now - self._last_time, 1e-12)
        flows = {}
        for flow_id in sorted(self._throughput.total_bytes):
            total = self._throughput.total_bytes[flow_id]
            delta = total - self._last_bytes.get(flow_id, 0)
            self._last_bytes[flow_id] = total
            flows[str(flow_id)] = {"bytes": int(total),
                                   "rate_mbps": to_mbps(delta / elapsed)}
        self._last_time = now
        self.snapshots += 1
        self._callback({"kind": "snapshot", "time_s": now,
                        "events": self._sim.processed_events,
                        "flows": flows})

    def stop(self) -> None:
        self._timer.stop()
