"""The ledger's five workloads, each one closed-loop operation generator.

Every workload runs through the public front door only (``repro.api``, plus
``repro.service.server.ScenarioService`` for the one that measures the
service) and never names an engine backend, so it measures what a user gets
by default.  ``--seed`` becomes each spec's ``seed`` (under the benchmark
driver, each repeat's seed is drawn from it: :class:`SeedSweep`); the same
seed yields byte-identical documents, which ``run.check_repeats`` relies on.

Why these five (the measured layer shares are in the README):

* ``prague_fading`` -- packet-bound: CC callbacks, marker, checksum, heap.
* ``dense_cell`` -- slot-bound: MAC + the background population kernel.
* ``coupled_shards`` -- barrier-bound: shard windows, pipes and merge.
* ``marker_contrast`` -- the same RLC/CC layers used two ways (bufferbloat
  and loss without a marker, shallow queues and ECN with L4Span), and the
  paper's headline as numbers.
* ``service_short_jobs`` -- set-up-bound: validation, build, collect,
  document, archive and HTTP around a very short event loop.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import os
import shutil
import tempfile
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import repro.api as api
from repro.service.server import ScenarioService

import layers
from definition import DURATION_SCALE, MIN_GOODPUT_RETAINED_PCT
from stats import highest_percentile, percentile

#: Simulated duration a set-up measurement cuts every spec to, seconds.
SETUP_DURATION_S = 0.05

#: Environment knobs that would change what the default spec resolves to.
SCRUBBED_ENV = ("REPRO_ENGINE", "REPRO_CORE_BUDGET", "REPRO_SHARD_INPROCESS",
                "REPRO_RUNS_DIR")


@dataclass
class Observation:
    """What one repeat of a workload produced."""

    elapsed: float = 0.0          #: raw host seconds of the timed region
    attempted: int = 0            #: operations (scenario runs or jobs)
    failures: list = field(default_factory=list)
    documents: list = field(default_factory=list)   #: canonical texts
    stats: dict = field(default_factory=dict)       #: exact simulated values
    samples: dict = field(default_factory=dict)     #: raw latency samples, s
    profiles: dict = field(default_factory=dict)    #: op label -> cProfiles
    warnings: list = field(default_factory=list)    #: warnings the runs raised
    seed_index: int = 0           #: which of a sweep's seeds produced this

    @property
    def doc_sha256(self) -> str:
        digest = hashlib.sha256()
        for text in self.documents:
            digest.update(text.encode("utf-8"))
        return digest.hexdigest()


# --------------------------------------------------------------------- #
# exact statistics out of a run
def document_counters(document: dict) -> dict:
    """The additive counters a result document already carries."""
    marker = document["marker_summary"]
    sharding = document["sharding"]
    background = document["background"]
    return {
        "sim.events": document["events_processed"],
        "core.downlink_packets": marker.get("downlink_packets", 0),
        "core.marked_packets": marker.get("marked_packets", 0),
        "core.shortcircuited_acks": marker.get("shortcircuited_acks", 0),
        "core.feedback_messages": marker.get("feedback_messages", 0),
        "ran.mobility.handovers": len(document["handovers"]),
        "ran.background.ue_seconds": (background.get("n_background", 0)
                                      * document["duration_s"]),
        "experiments.sharded.windows": sharding.get("windows", 0),
        "experiments.sharded.routed_packets": sharding.get("routed_packets",
                                                           0),
    }


def flow_statistics(result) -> dict:
    """Delay, goodput and queue statistics of one run (not additive)."""
    owd = result.all_owd_samples()
    queue = result.queue_length_samples
    return {
        "owd_samples": len(owd),
        "owd_p50_ms": percentile(owd, 50.0) * 1e3 if owd else 0.0,
        "owd_p99_ms": percentile(owd, 99.0) * 1e3 if owd else 0.0,
        "owd_highest_percentile": highest_percentile(len(owd)),
        "goodput_mbps": result.total_goodput_mbps(),
        "ran.rlc.queue_p50_sdus": percentile(queue, 50.0) if queue else 0,
        "metrics.delay_queuing_ms":
            result.delay_breakdown.get("queuing", 0.0) * 1e3,
        "metrics.delay_scheduling_ms":
            result.delay_breakdown.get("scheduling", 0.0) * 1e3,
    }


def _add_counters(total: dict, counters: dict) -> None:
    for key, value in counters.items():
        total[key] = total.get(key, 0) + value


# --------------------------------------------------------------------- #
class ScenarioWorkload:
    """One or more scenario runs per repeat, timed as one region.

    ``ops`` is a list of ``(label, spec, options)``; the repeat's elapsed
    time is the sum over its operations (build + run + result document +
    canonical dump, i.e. what ``repro scenario --json`` does).
    """

    def __init__(self, name: str, ops: list, checks: bool = True) -> None:
        self.name = name
        self.ops = ops
        self.checks = checks

    def run_once(self, trace: bool = False) -> Observation:
        obs = Observation()
        results = {}
        for label, spec, options in self.ops:
            obs.attempted += 1
            try:
                results[label] = self._run_op(obs, label, spec, options, trace)
            except Exception as exc:  # noqa: BLE001 - counted, not hidden
                obs.failures.append(f"{self.name}/{label}: "
                                    f"{type(exc).__name__}: {exc}")
        if self.checks and not obs.failures:
            self.verify(obs, results, trace)
        return obs

    def _run_op(self, obs: Observation, label: str, spec, options,
                trace: bool):
        cpu_before = os.times()
        tracer = layers.profile_main_thread() if trace else nullcontext([])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = perf_counter()
            with tracer as profiles:
                result = api.run(spec, options=options)
                text = api.dump_document(api.result_document(result))
            elapsed = perf_counter() - start
        cpu_after = os.times()
        if trace:
            obs.profiles[label] = profiles
        obs.elapsed += elapsed
        obs.documents.append(text)
        document = api.check_document(json.loads(text))
        _add_counters(obs.stats, document_counters(document))
        obs.stats.update(flow_statistics(result))
        obs.stats["parent_cpu_s"] = (
            cpu_after.user + cpu_after.system
            - cpu_before.user - cpu_before.system)
        obs.stats["children_cpu_s"] = (
            cpu_after.children_user + cpu_after.children_system
            - cpu_before.children_user - cpu_before.children_system)
        obs.warnings.extend(f"{warning.category.__name__}: {warning.message}"
                            for warning in caught)
        return result, document

    def verify(self, obs: Observation, results: dict, trace: bool) -> None:
        """Workload-specific output checks; append to ``obs.failures``."""


class CoupledShards(ScenarioWorkload):
    """``coupled-core`` over two real shard worker processes."""

    def __init__(self, name: str, ops: list, checks: bool = True) -> None:
        super().__init__(name, ops, checks)
        self._single_loop = None

    def time_single_loop(self) -> float:
        """Raw seconds of the same spec on one event loop (also caches its
        per-flow block, the reference the sharded flows must equal)."""
        _label, spec, _options = self.ops[0]
        start = perf_counter()
        document = api.run_document(spec)
        api.dump_document(document)
        elapsed = perf_counter() - start
        self._single_loop = document["flows"]
        return elapsed

    def run_once(self, trace: bool = False) -> Observation:
        if not trace:
            return super().run_once(trace)
        # The traced pass keeps the shards in this process so the barrier
        # code is attributable; end-to-end numbers never come from it.
        os.environ["REPRO_SHARD_INPROCESS"] = "1"
        try:
            return super().run_once(trace)
        finally:
            del os.environ["REPRO_SHARD_INPROCESS"]

    def verify(self, obs, results, trace) -> None:
        _result, document = results["sharded"]
        sharding = document["sharding"]
        # A platform that cannot host workers falls back to in-process
        # shards with a warning; that would not be the workload any more.
        obs.failures.extend(f"{self.name}: {text}" for text in obs.warnings)
        if sharding.get("shards") != 2 or "fallback" in sharding:
            obs.failures.append(f"{self.name}: sharding block does not "
                                f"report 2 shards: {sharding}")
        if self._single_loop is None:
            self.time_single_loop()
        if document["flows"] != self._single_loop:
            obs.failures.append(f"{self.name}: per-flow block differs from "
                                "the single-loop run of the same spec")


class MarkerContrast(ScenarioWorkload):
    """``mixed-cc`` without a marker, then with L4Span."""

    def verify(self, obs, results, trace) -> None:
        none, _ = results["none"]
        l4span, _ = results["l4span"]
        none_owd = percentile(none.all_owd_samples(), 50.0)
        l4span_owd = percentile(l4span.all_owd_samples(), 50.0)
        reduction = 100.0 * (1.0 - l4span_owd / none_owd)
        retained = (100.0 * l4span.total_goodput_mbps()
                    / none.total_goodput_mbps())
        obs.stats["owd_reduction_pct"] = reduction
        obs.stats["goodput_retained_pct"] = retained
        if not l4span_owd < none_owd:
            obs.failures.append(f"{self.name}: OWD p50 with L4Span "
                                f"({l4span_owd * 1e3:.2f} ms) is not below "
                                f"the unmarked run ({none_owd * 1e3:.2f} ms)")
        if retained < MIN_GOODPUT_RETAINED_PCT:
            obs.failures.append(f"{self.name}: goodput retained "
                                f"{retained:.1f} % < "
                                f"{MIN_GOODPUT_RETAINED_PCT} %")


# --------------------------------------------------------------------- #
class ServiceShortJobs:
    """An embedded scenario service fed short jobs one at a time.

    Each repeat boots a fresh service on a loopback port over a fresh
    archive directory, then submits ``jobs`` runs back to back: ``POST
    /runs``, follow ``/events`` to ``end``, ``GET /document``.  The service
    boot is outside the timed region (it is part of ``setup_s``).
    """

    name = "service_short_jobs"

    def __init__(self, spec, jobs: int, tmp_root: str,
                 progress_interval_s: float, checks: bool = True) -> None:
        self.checks = checks
        self.spec = spec
        self.jobs = jobs
        self.tmp_root = tmp_root
        self.progress_interval_s = progress_interval_s
        self.body = json.dumps({"spec": spec.to_dict()})
        self._local = None

    def time_local(self) -> float:
        """Raw seconds of the job's spec run locally, no service (also
        caches its canonical text, which ``/document`` must equal)."""
        start = perf_counter()
        text = api.dump_document(api.run_document(self.spec))
        elapsed = perf_counter() - start
        self._local = text
        return elapsed

    def run_once(self, trace: bool = False) -> Observation:
        obs = Observation()
        obs.samples = {"submit_to_document": [], "submit_to_first_snapshot": [],
                       "list_runs": [], "reject": []}
        runs_dir = tempfile.mkdtemp(prefix="runs-", dir=self.tmp_root)
        tracer = (layers.profile_threads("repro-run") if trace
                  else nullcontext([]))
        try:
            with tracer as profiles:
                service = ScenarioService(
                    port=0, runs_dir=runs_dir,
                    progress_interval_s=self.progress_interval_s)
                service.start_background()
                try:
                    host, port = service.address
                    start = perf_counter()
                    for _ in range(self.jobs):
                        obs.attempted += 1
                        self._one_job(obs, host, port)
                    obs.elapsed = perf_counter() - start
                    if self.checks:
                        self._side_requests(obs, host, port)
                finally:
                    # close() joins the job threads, completing their profiles
                    service.close()
            if trace:
                obs.profiles["jobs"] = profiles
        finally:
            shutil.rmtree(runs_dir, ignore_errors=True)
        if self.checks:
            self.verify(obs)
        return obs

    def _one_job(self, obs: Observation, host: str, port: int) -> None:
        try:
            start = perf_counter()
            conn = http.client.HTTPConnection(host, port, timeout=60)
            try:
                conn.request("POST", "/runs", body=self.body,
                             headers={"Content-Type": "application/json"})
                accepted = _read_json(conn, expect=202)
                run_id = accepted["run_id"]
                conn.request("GET", f"/runs/{run_id}/events")
                first_snapshot, final = _follow_events(conn)
                conn.request("GET", f"/runs/{run_id}/document")
                response = conn.getresponse()
                body = response.read()
                done = perf_counter()
            finally:
                conn.close()
            if response.status != 200:
                raise RuntimeError(f"GET /document answered {response.status}")
            if final.get("status") != "done":
                raise RuntimeError(f"job ended {final}")
            if first_snapshot is None:
                raise RuntimeError("no snapshot event before 'end'")
            obs.samples["submit_to_document"].append(done - start)
            obs.samples["submit_to_first_snapshot"].append(
                first_snapshot - start)
            text = body.decode("utf-8")
            if not obs.documents:
                obs.documents.append(text)
            elif text != obs.documents[0]:
                raise RuntimeError("job document differs from the first job's")
        except Exception as exc:  # noqa: BLE001 - counted, not hidden
            obs.failures.append(f"{self.name}: {type(exc).__name__}: {exc}")

    def _side_requests(self, obs: Observation, host: str, port: int) -> None:
        """Untimed extras on the now-populated service: list and reject.

        One connection per request, like the jobs: a kept-alive client
        stalls 40 ms per request on Nagle + delayed ACK, which would time
        the TCP stack instead of the service.
        """
        def request(method: str, body, expect: int) -> dict:
            conn = http.client.HTTPConnection(host, port, timeout=60)
            try:
                conn.request(method, "/runs", body=body,
                             headers={"Content-Type": "application/json"})
                return _read_json(conn, expect)
            finally:
                conn.close()

        try:
            for _ in range(10):
                start = perf_counter()
                listing = request("GET", None, 200)
                obs.samples["list_runs"].append(perf_counter() - start)
            if listing["count"] != self.jobs:
                obs.failures.append(f"{self.name}: GET /runs lists "
                                    f"{listing['count']} runs, not {self.jobs}")
            for _ in range(20):
                start = perf_counter()
                request("POST", '{"preset": 5}', 400)
                obs.samples["reject"].append(perf_counter() - start)
        except Exception as exc:  # noqa: BLE001 - counted, not hidden
            obs.failures.append(f"{self.name}: {type(exc).__name__}: {exc}")

    def verify(self, obs: Observation) -> None:
        if not obs.documents:
            return
        document = api.check_document(json.loads(obs.documents[0]))
        counters = document_counters(document)
        completed = len(obs.samples["submit_to_document"])
        obs.stats = {key: value * completed for key, value in counters.items()}
        if self._local is None:
            self.time_local()
        if obs.documents[0] != self._local:
            obs.failures.append(f"{self.name}: /document bytes differ from "
                                "the local dump_document(run_document(spec))")


def _read_json(conn, expect: int) -> dict:
    response = conn.getresponse()
    body = response.read()
    if response.status != expect:
        raise RuntimeError(f"expected HTTP {expect}, got {response.status}: "
                           f"{body[:200]!r}")
    return json.loads(body)


def _follow_events(conn):
    """Read an SSE stream to its ``end`` event.

    Returns ``(time of the first snapshot line or None, end payload)``.
    """
    response = conn.getresponse()
    if response.status != 200:
        raise RuntimeError(f"GET /events answered {response.status}")
    first_snapshot = None
    event = None
    final: dict = {}
    for raw in response:
        line = raw.decode("utf-8").rstrip("\n")
        if line.startswith("event: "):
            event = line[len("event: "):]
            if event != "end" and first_snapshot is None:
                first_snapshot = perf_counter()
        elif line.startswith("data: ") and event == "end":
            final = json.loads(line[len("data: "):])
    return first_snapshot, final


# --------------------------------------------------------------------- #
class SeedSweep:
    """A workload whose successive repeats use seeds drawn from ``--seed``.

    The benchmark driver varies ``--seed`` between runs and asks the runs to
    agree, but a seed changes the *amount and mix* of work -- 4-8 % in
    events, and for ``coupled_shards`` one seed in four hands its weak UE
    over early and routes 40 % more packets across the shard boundary.  A
    run that repeats one seed inherits that draw whole; a run whose repeats
    each take the next seed reports the median over a sample of seeds, which
    a minority of heavy draws cannot move.  The warm-up and the first timed
    repeat share a seed, so every run still proves that one seed gives one
    document.
    """

    def __init__(self, name: str, seed: int, tmp_root: str) -> None:
        self.name = name
        self.seed = seed
        self.tmp_root = tmp_root
        self.repeats = 0

    def run_once(self) -> Observation:
        index = max(self.repeats - 1, 0)
        self.repeats += 1
        obs = make_workload(self.name, sub_seed(self.seed, index),
                            self.tmp_root).run_once()
        obs.seed_index = index
        return obs


def sub_seed(seed: int, index: int) -> int:
    """The ``index``-th seed drawn from ``seed`` (the 0th is ``seed``)."""
    if index == 0:
        return seed
    return (seed * 7919 + index * 104729) % (2 ** 31 - 1)


def scrub_environment() -> None:
    """Drop the knobs that would change what a default spec resolves to."""
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)


def make_workload(name: str, seed: int, tmp_root: str, setup: bool = False):
    """Build one workload for ``seed``.

    ``setup=True`` is the set-up measurement's variant: the same specs cut
    to :data:`SETUP_DURATION_S` (and a single service job), so what remains
    is import, ``load_spec``, build, worker spawn / service boot, collect
    and the document.
    """
    checks = not setup  # a 0.05 s run has no post-warm-up samples to check

    def duration(full_s: float) -> float:
        return SETUP_DURATION_S if setup else full_s * DURATION_SCALE

    if name == "prague_fading":
        spec = api.load_spec(api.ScenarioSpec(
            num_ues=2, cc_name="prague", channel_profile="pedestrian",
            marker="l4span", duration_s=duration(20.0), seed=seed))
        return ScenarioWorkload(name, [("run", spec, None)], checks)
    if name == "dense_cell":
        spec = dataclasses.replace(api.load_spec("dense-cell"),
                                   duration_s=duration(180.0), seed=seed)
        return ScenarioWorkload(name, [("run", spec, None)], checks)
    if name == "coupled_shards":
        spec = dataclasses.replace(api.load_spec("coupled-core"),
                                   duration_s=duration(4.0), seed=seed)
        return CoupledShards(
            name, [("sharded", spec, api.RuntimeOptions(shards=2))], checks)
    if name == "marker_contrast":
        spec = dataclasses.replace(api.load_spec("mixed-cc"),
                                   duration_s=duration(10.0), seed=seed)
        return MarkerContrast(
            name, [("none", dataclasses.replace(spec, marker="none"), None),
                   ("l4span", spec, None)], checks)
    if name == "service_short_jobs":
        job_s = duration(0.5)
        spec = dataclasses.replace(api.load_spec("coupled-core"),
                                   duration_s=job_s, seed=seed)
        return ServiceShortJobs(spec, jobs=1 if setup else 100,
                                tmp_root=tmp_root,
                                progress_interval_s=job_s / 2.0,
                                checks=checks)
    raise ValueError(f"unknown workload {name!r}")
