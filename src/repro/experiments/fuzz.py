"""Differential fuzzing across every runtime axis of the simulator.

The shard synchronizer's correctness argument ("any window end is safe,
any commit point is honoured, ties sort like the single loop") — and its
twin for the result-document path — are only as good as the scenarios
that exercise them.  This module draws small random but always *legal*
:class:`~repro.experiments.spec.ScenarioSpec` instances spanning the
coupled features (shared wired middlebox with zero-rate schedule steps,
SNR-triggered mobility, scheduled handovers with short interruptions,
UE ids past the first client /24, fading channels, background populations)
and checks them against pluggable invariant suites:

* **conservation** — per-flow and per-UE byte accounting agree, every
  delivered packet has a finite non-negative one-way delay, and marked
  fractions stay inside ``[0, 1]``.
* **determinism** — running the same spec twice reproduces the result
  exactly, on every execution path.
* **sharding** — the sharded run's per-flow metrics and handover records
  are bit-identical to the single loop, on static and fading channels
  alike, and it conserves bytes.  A silent fallback or any exception
  (``ConservativeSyncError`` included) is a violation.
* **document** — every run's :func:`~repro.experiments.results.
  result_document` serializes byte-identically across dumps, passes
  :func:`~repro.experiments.results.check_document`, and determinism
  pairs produce byte-equal documents.

``random_spec`` is a pure function of the :class:`random.Random`
instance it is handed, so a seed fully reproduces a failing spec.  The
property tests in ``tests/test_fuzz_spec.py`` drive it through hypothesis,
and :func:`run_campaign` -- the one runner behind ``scripts/fuzz_specs.py``,
for the CI smoke job and the nightly campaign alike -- checks seed ranges
through the sweep runner under the ``REPRO_CORE_BUDGET`` arbiter.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
import warnings
from typing import Callable, Optional, Sequence

from repro.api import ScenarioResult, run
from repro.experiments.results import (check_document, dump_document,
                                       result_document)
from repro.experiments.runner import SweepRunner, core_budget
from repro.experiments.sharded import run_scenario_sharded, sharding_blockers
from repro.experiments.spec import (CellSpec, HandoverSpec, MobilitySpec,
                                    PopulationSpec, ScenarioSpec,
                                    ShardingSpec, UeSpec)
from repro.units import ms
from repro.workloads.flows import FlowSpec

__all__ = ["INVARIANT_SUITES", "SpecRuns", "check_spec", "flows_identical",
           "random_spec", "run_campaign"]

#: Congestion controllers the fuzzer mixes (all deterministic).
_CC_NAMES = ("prague", "cubic", "bbr2")

#: Coupling modes a drawn spec lands in, with rough weights: plain multi-cell
#: splits, a shared wired middlebox, SNR mobility, both at once, and a
#: scheduled ping-pong handover whose interruption is shorter than the
#: barrier lookahead (the commit-point path).
_COUPLINGS = ("plain", "mbx", "snr", "mbx+snr", "short-ho")

#: Fading channel profiles drawn for the determinism-only tier.
_FADING_PROFILES = ("pedestrian", "vehicular")


def random_spec(rng: random.Random, duration_s: float = 0.4) -> ScenarioSpec:
    """Draw one legal scenario from ``rng``, spanning every runtime axis.

    Pure in ``rng``: the same :class:`random.Random` state yields the same
    spec, so one integer seed reproduces any failure.  Axis draws are
    consumed unconditionally, in a fixed order.

    The spec's name records the drawn axes (``fuzz-mbx+high-id+stall``
    style), so campaign reports and corpus entries are self-describing.
    """
    coupling = rng.choice(_COUPLINGS)
    # Axis draws — always consumed, in a fixed order.
    fading = rng.random() < 0.25
    fading_profile = rng.choice(_FADING_PROFILES)
    population = rng.random() < 0.2
    n_background = rng.choice((40, 80, 120))
    high_ids = rng.random() < 0.25
    n_high = rng.randint(1, 2)
    stall = rng.random() < 0.35
    stall_resumes = rng.random() < 0.7
    stall = stall and "mbx" in coupling

    n_cells = rng.randint(2, 3)
    cells = [CellSpec(cell_id=cell) for cell in range(n_cells)]
    n_ues = n_cells + rng.randint(0, 1)
    ues = [UeSpec(ue_id=ue, cell_id=ue % n_cells,
                  mean_snr_db=5.0 if ue == 0 and "snr" in coupling else None)
           for ue in range(n_ues)]
    # Staggered starts and distinct WAN RTTs: the single loop resolves
    # same-instant ties by flow declaration order and the boundary sort
    # mirrors that, but keeping the draws distinct exercises the barrier on
    # timelines that never collapse onto one instant.
    flows = [FlowSpec(flow_id=i, ue_id=i,
                      cc_name=rng.choice(_CC_NAMES),
                      label=f"fuzz-{i}",
                      start_time=round(0.015 * i + rng.random() * 0.01, 6),
                      wan_rtt=ms(rng.choice((18, 28, 38, 58)) + 2 * i))
             for i in range(n_ues)]
    if high_ids:
        # UE 250+i lives in the next client /24 (10.45.1.{i+2}), the same
        # host byte as UE i: every address stays its own UE's.
        for i in range(n_high):
            ue_id = 250 + i
            ues.append(UeSpec(ue_id=ue_id, cell_id=(i + 1) % n_cells))
            flows.append(FlowSpec(
                flow_id=n_ues + i, ue_id=ue_id,
                cc_name=rng.choice(_CC_NAMES),
                label=f"fuzz-ue-{ue_id}",
                start_time=round(0.015 * (n_ues + i) + rng.random() * 0.01, 6),
                wan_rtt=ms(rng.choice((18, 28, 38, 58)) + 2 * (n_ues + i))))
    mobility = MobilitySpec()
    if "snr" in coupling:
        mobility = MobilitySpec(mode="snr", snr_threshold_db=10.0,
                                min_stay_s=rng.choice((0.1, 0.2)),
                                check_interval_s=0.05)
    elif coupling == "short-ho":
        mobility = MobilitySpec(
            mode="schedule", ho_mode=rng.choice(("forward", "flush")),
            interruption_s=0.005,
            handovers=[HandoverSpec(time=duration_s / 2, ue_id=0,
                                    target_cell=1)])
    wired: Optional[float] = None
    schedule: list = []
    if "mbx" in coupling:
        wired = float(rng.choice((30, 50, 80)))
        halve = rng.random() < 0.5
        if stall:
            # A zero-rate step stalls the queue mid-run; sometimes the
            # schedule resumes it, sometimes the stall holds to the
            # horizon (the unbounded-serialization case the shard egress
            # predictor must survive).
            schedule = [(round(duration_s * 0.4, 6), 0.0)]
            if stall_resumes:
                schedule.append((round(duration_s * 0.7, 6), wired * 0.5))
        elif halve:
            schedule = [(duration_s / 2, wired * 0.5)]
    name = "fuzz-" + coupling
    for tag, active in (("fading", fading), ("pop", population),
                        ("high-id", high_ids), ("stall", stall)):
        if active:
            name += f"+{tag}"
    return ScenarioSpec(
        name=name, num_ues=0, duration_s=duration_s,
        channel_profile=fading_profile if fading else "static",
        marker="l4span",
        seed=rng.randrange(2 ** 31),
        wired_bottleneck_mbps=wired, wired_bottleneck_schedule=schedule,
        population=(PopulationSpec(n_background=n_background,
                                   snr_stddev_db=3.0, activity=0.8)
                    if population else PopulationSpec()),
        cells=cells, ues=ues, flows=flows, mobility=mobility)


# --------------------------------------------------------------------------- #
# Result predicates
# --------------------------------------------------------------------------- #
def flows_identical(a: ScenarioResult, b: ScenarioResult) -> bool:
    """Bit-exact equality of the two results' per-flow metrics."""
    if len(a.flows) != len(b.flows):
        return False
    return all(
        x.flow_id == y.flow_id
        and x.owd_samples == y.owd_samples
        and x.rtt_samples == y.rtt_samples
        and x.goodput_bytes_per_s == y.goodput_bytes_per_s
        and x.congestion_events == y.congestion_events
        and x.marked_fraction == y.marked_fraction
        for x, y in zip(a.flows, b.flows))


def _conservation_violations(result: ScenarioResult) -> list[str]:
    """Byte/packet accounting checks inside one result."""
    violations: list[str] = []
    spec = result.config
    flow_bytes = 0.0
    for flow, flow_spec in zip(result.flows, spec.resolved_flows()):
        active = spec.duration_s - flow_spec.start_time
        if flow_spec.stop_time is not None:
            active = min(active, flow_spec.stop_time - flow_spec.start_time)
        flow_bytes += flow.goodput_bytes_per_s * max(active, 1e-9)
        if not 0.0 <= flow.marked_fraction <= 1.0:
            violations.append(
                f"flow {flow.flow_id} marked_fraction {flow.marked_fraction}")
        if any(owd < 0 or owd != owd or owd == float("inf")
               for owd in flow.owd_samples):
            violations.append(
                f"flow {flow.flow_id} has a negative/non-finite OWD sample")
    ue_bytes = sum(result.per_ue_throughput.values()) * spec.duration_s
    if abs(flow_bytes - ue_bytes) > 1e-6 * max(flow_bytes, ue_bytes, 1.0):
        violations.append(
            "byte accounting disagrees: per-flow "
            f"{flow_bytes:.1f}B vs per-UE {ue_bytes:.1f}B")
    return violations


# --------------------------------------------------------------------------- #
# Memoized runs of one spec across execution paths
# --------------------------------------------------------------------------- #
class SpecRuns:
    """Lazily runs one spec on each execution path, memoizing results.

    Suites share runs through this cache, so checking five invariant
    tiers costs each (path, repeat) combination exactly once.  Sharded
    runs that raise have the exception memoized and re-raised, keeping a
    failing path from re-running per suite.
    """

    def __init__(self, spec: ScenarioSpec,
                 shard_counts: Sequence[int] = (2,)) -> None:
        self.spec = spec.validate()
        self.shard_counts = tuple(shard_counts)
        self._single: dict[int, ScenarioResult] = {}
        self._sharded: dict[int, object] = {}

    def single(self, repeat: int = 0) -> ScenarioResult:
        """The single-loop result of run number ``repeat``."""
        if repeat not in self._single:
            spec = dataclasses.replace(
                self.spec, sharding=ShardingSpec(mode="off"))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                self._single[repeat] = run(spec)
        return self._single[repeat]

    def sharded(self, shards: int) -> ScenarioResult:
        """The sharded result; re-raises a memoized failure."""
        if shards not in self._sharded:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    self._sharded[shards] = run_scenario_sharded(
                        self.spec, shards=shards, inprocess=True)
            except Exception as exc:  # noqa: BLE001 - memoized, re-raised
                self._sharded[shards] = exc
        value = self._sharded[shards]
        if isinstance(value, Exception):
            raise value
        return value

    def completed(self) -> list[tuple[str, ScenarioResult]]:
        """Every (label, result) pair materialized so far."""
        runs = [(f"single[run{repeat}]", result)
                for repeat, result in self._single.items()]
        runs.extend((f"sharded[{shards}]", value)
                    for shards, value in self._sharded.items()
                    if not isinstance(value, Exception))
        return runs


# --------------------------------------------------------------------------- #
# Invariant suites
# --------------------------------------------------------------------------- #
def _suite_conservation(runs: SpecRuns) -> list[str]:
    return _conservation_violations(runs.single())


def _suite_determinism(runs: SpecRuns) -> list[str]:
    if not flows_identical(runs.single(), runs.single(repeat=1)):
        return ["single loop is not deterministic across repeats"]
    return []


def _suite_sharding(runs: SpecRuns) -> list[str]:
    violations: list[str] = []
    single = runs.single()
    for shards in runs.shard_counts:
        try:
            sharded = runs.sharded(shards)
        except Exception as exc:  # noqa: BLE001 - any barrier fault counts
            violations.append(f"shards={shards} raised "
                              f"{type(exc).__name__}: {exc}")
            continue
        if sharded.sharding_stats.get("fallback"):
            violations.append(f"shards={shards} silently fell back: "
                              f"{sharded.sharding_stats}")
            continue
        # A plan gets at most one shard per cell; anything else it runs
        # short (a core-budget clamp, say) hides the requested split.
        expected = min(shards, len(runs.spec.resolved_cells()))
        ran = sharded.sharding_stats.get("shards", 1)
        if ran != expected:
            violations.append(f"shards={shards} ran {ran} shards")
        if not flows_identical(single, sharded):
            violations.append(f"shards={shards} per-flow metrics differ "
                              "from single loop")
        if single.handovers != sharded.handovers:
            violations.append(f"shards={shards} handover records differ "
                              "from single loop")
        violations.extend(f"shards={shards}: {reason}"
                          for reason in _conservation_violations(sharded))
    return violations


def _suite_document(runs: SpecRuns) -> list[str]:
    violations: list[str] = []
    texts: dict[str, str] = {}
    for label, result in runs.completed():
        document = result_document(result)
        text = dump_document(document)
        if dump_document(result_document(result)) != text:
            violations.append(f"{label}: result_document serialization is "
                              "not byte-stable across dumps")
        try:
            check_document(json.loads(text))
        except ValueError as exc:
            violations.append(f"{label}: check_document rejected the "
                              f"document: {exc}")
        texts[label] = text
    # Determinism pairs must produce byte-equal documents.
    a = texts.get("single[run0]")
    b = texts.get("single[run1]")
    if a is not None and b is not None and a != b:
        violations.append("repeat runs serialize to different "
                          "documents (byte identity broken)")
    return violations


#: Pluggable invariant suites, each ``fn(SpecRuns) -> [violation, ...]``.
#: Order matters mildly: the document suite audits whatever runs earlier
#: suites materialized.
INVARIANT_SUITES: dict[str, Callable[[SpecRuns], list[str]]] = {
    "conservation": _suite_conservation,
    "determinism": _suite_determinism,
    "sharding": _suite_sharding,
    "document": _suite_document,
}


def check_spec(spec: ScenarioSpec,
               shard_counts: Sequence[int] = (2,),
               suites: Optional[Sequence[str]] = None) -> list[str]:
    """Run every invariant suite against ``spec``; return violations.

    An empty list means every invariant held.  Violations carry their
    suite name as a ``suite:`` prefix (``sharding: shards=2 ...``), which
    the minimizer uses as a failure signature.  Any exception out of a
    run (``ConservativeSyncError`` included) is itself a violation,
    reported rather than raised so a fuzz campaign sees all failures.
    """
    spec = spec.validate()
    violations = [f"blocker: unexpected sharding blocker: {reason}"
                  for reason in sharding_blockers(spec)]
    if violations:
        return violations
    runs = SpecRuns(spec, shard_counts=shard_counts)
    for name in (suites if suites is not None else INVARIANT_SUITES):
        suite = INVARIANT_SUITES[name]
        try:
            violations.extend(f"{name}: {reason}" for reason in suite(runs))
        except Exception as exc:  # noqa: BLE001 - a crashed suite is a finding
            violations.append(f"{name}: raised {type(exc).__name__}: {exc}")
    return violations


# --------------------------------------------------------------------------- #
# Campaign runner
# --------------------------------------------------------------------------- #
#: Seeds per worker in one campaign chunk: the time budget is checked
#: between chunks, so a chunk bounds how far a campaign overruns it.
_CHUNK_SEEDS_PER_WORKER = 4


def _check_seed(item: tuple) -> dict:
    """Check one seed (module-level so sweep workers can pickle it)."""
    seed, duration_s, shard_counts, suites = item
    spec = random_spec(random.Random(seed), duration_s=duration_s)
    started = time.monotonic()
    violations = check_spec(spec, shard_counts=shard_counts, suites=suites)
    return {"seed": seed, "name": spec.name,
            "elapsed_s": round(time.monotonic() - started, 3),
            "violations": violations}


def run_campaign(count: int, seed: int = 0, duration_s: float = 0.4,
                 shard_counts: Sequence[int] = (2,),
                 suites: Optional[Sequence[str]] = None,
                 workers: Optional[int] = None,
                 time_budget_s: Optional[float] = None,
                 progress: Optional[Callable[[dict], None]] = None) -> dict:
    """Fuzz ``count`` consecutive seeds; return the campaign report.

    Seeds run through :class:`~repro.experiments.runner.SweepRunner` in
    consecutive chunks of a few seeds per worker, so records arrive in
    seed order whatever the worker count, and a platform without worker
    processes degrades to checking in this process.  Workers default to
    (and are always clamped by) the host's ``REPRO_CORE_BUDGET`` arbiter.
    ``time_budget_s`` stops the campaign before the next chunk once the
    wall clock is spent; the report records how far it got.
    ``progress(record)`` is called per seed as each chunk completes.
    """
    budget = core_budget()
    workers = max(1, min(budget if workers is None else int(workers),
                         budget, count))
    runner = SweepRunner(workers=workers)
    chunk = _CHUNK_SEEDS_PER_WORKER * workers
    suites = tuple(suites) if suites is not None else None
    started = time.monotonic()
    records: list[dict] = []
    stopped_early = False
    for first in range(seed, seed + count, chunk):
        if (time_budget_s is not None
                and time.monotonic() - started >= time_budget_s):
            stopped_early = True
            break
        items = [(item_seed, duration_s, tuple(shard_counts), suites)
                 for item_seed in range(first, min(first + chunk,
                                                   seed + count))]
        for record in runner.map(_check_seed, items):
            records.append(record)
            if progress is not None:
                progress(record)
    return {
        "schema": 1,
        "params": {"count": count, "seed": seed, "duration_s": duration_s,
                   "shard_counts": list(shard_counts),
                   "suites": list(INVARIANT_SUITES if suites is None
                                  else suites),
                   "time_budget_s": time_budget_s},
        "workers": workers,
        "seeds_checked": len(records),
        "stopped_early": stopped_early,
        "elapsed_s": round(time.monotonic() - started, 3),
        "failures": [record for record in records if record["violations"]],
        "names": sorted({record["name"] for record in records}),
    }
