#!/usr/bin/env python3
"""The performance ledger's one command.

Three ways in, one measurement underneath:

``run.py --seed 7 [--repeats 5] [--workloads a,b] [--out FILE] [--check]``
    the full ledger: for every workload its end-to-end metrics (timed
    repeats after one discarded warm-up) and then its per-layer metrics,
    printed by name with units and written to ``--out``.  ``--check`` runs
    two full sets of the same code and compares them.

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    the benchmark driver's contract (``BENCHMARK.json``): one workload, one
    JSON object on the last line of stdout.  ``--trace 0`` reports the
    bounded end-to-end metrics, ``--trace 1`` everything else.

``run.py compare A.json B.json``
    one row per workload x end-to-end metric of two ``--out`` files.

Everything is written under ``.ledger_tmp/`` in the checkout and removed
again; exit status is non-zero when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from contextlib import contextmanager
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".ledger_tmp")

import compare  # noqa: E402 - siblings of this script, stdlib only
import speed  # noqa: E402
from definition import (ALL, DURATION_SCALE, END_TO_END,  # noqa: E402
                        MIN_REPEATS, PER_LAYER, RUN_SECONDS,
                        driver_end_to_end, driver_per_layer)
from layers import LAYERS, rollup  # noqa: E402
from stats import iqr_share, percentile  # noqa: E402

#: Fresh-interpreter set-ups behind one ``setup_s`` median.
SETUP_RUNS = 7

UNITS = {metric["name"]: metric["unit"] for metric in END_TO_END + PER_LAYER}
LAYER_METRIC_NAMES = {metric["name"] for metric in PER_LAYER}


class Session:
    """Failure tally, calibration log and phase clock of one invocation."""

    def __init__(self) -> None:
        self.started = perf_counter()
        self.attempted = 0
        self.failures: list = []
        self.calibrations: list = []
        self.phases: list = []

    def calibrate(self) -> float:
        value = speed.calibrate()
        self.calibrations.append(value)
        return value

    def count(self, obs) -> None:
        self.attempted += obs.attempted
        self.failures.extend(obs.failures)

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failures.append(message)

    @contextmanager
    def phase(self, name: str):
        """Record how late a phase started and how long it ran."""
        start = perf_counter()
        try:
            yield
        finally:
            self.phases.append({"phase": name,
                                "started_at_s": start - self.started,
                                "ran_s": perf_counter() - start})

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


# --------------------------------------------------------------------- #
# end-to-end: timed repeats, set-up and memory
def timed_repeats(session: Session, workload, seconds: float,
                  min_repeats: int) -> list:
    """Back-to-back repeats of one workload, each bracketed by calibrations.

    After one discarded warm-up repeat (caches fill, lazy imports finish),
    repeats continue until both ``min_repeats`` of them and ``seconds`` have
    passed; adjacent repeats share a calibration.  Returns ``[(observation,
    calib_before, calib_after)]``, the warm-up first with no calibrations.

    Repeats of one workload stay together on purpose.  Interleaving the
    workloads round-robin was tried: a calibration taken right after a
    multi-process or multi-thread workload reads the CPU's post-idle state
    (40 % slow for 0.1-0.3 s), which then mis-corrects the single-threaded
    workload that follows, and the repeats' spread doubled.
    """
    warm_up = workload.run_once()
    session.count(warm_up)
    repeats = [(warm_up, None, None)]
    calib = session.calibrate()
    start = perf_counter()
    while len(repeats) <= min_repeats or perf_counter() - start < seconds:
        obs = workload.run_once()
        after = session.calibrate()
        session.count(obs)
        repeats.append((obs, calib, after))
        calib = after
    return repeats


def check_repeats(session: Session, name: str, observations: list) -> str:
    """All repeats of one seed must hash to the same document bytes.

    Returns the digest of the first seed (``--seed`` itself).
    """
    first: dict = {}
    for obs in observations:
        if not obs.documents:
            continue
        digest = obs.doc_sha256
        expected = first.setdefault(obs.seed_index, digest)
        if digest != expected:
            session.fail(f"{name}: document differs between repeats of one "
                         f"seed ({digest[:12]} != {expected[:12]})")
    return first.get(0, "")


def _reduce(values: list) -> dict:
    """A metric from per-repeat values: their median, and the values."""
    return {"value": median(values), "repeats": values}


def host_metrics(timed: list) -> tuple:
    """Speed-corrected host-time metrics from one workload's timed repeats.

    Every value is the median over repeats of the per-repeat corrected
    value.  Returns ``(metrics, info)``; ``info`` carries the raw seconds.
    """
    wall, per_event, latencies = [], [], {}
    for obs, before, after in timed:
        if obs.failures:
            continue
        seconds = speed.corrected(obs.elapsed, before, after)
        wall.append(seconds)
        per_event.append(seconds / obs.stats["sim.events"] * 1e6)
        for key, pct in (("submit_to_document", 50.0),
                         ("submit_to_document", 90.0),
                         ("submit_to_first_snapshot", 50.0)):
            samples = obs.samples.get(key)
            if samples:
                latencies.setdefault(f"{key}_ms_p{pct:.0f}", []).append(
                    speed.corrected(percentile(samples, pct), before, after)
                    * 1e3)
    if not wall:
        return {}, {}
    metrics = {"wall_s": _reduce(wall),
               "wall_us_per_event": _reduce(per_event)}
    for key, values in latencies.items():
        metrics[key] = _reduce(values)
    info = {"wall_s_raw": median(obs.elapsed for obs, _, _ in timed),
            "timed_repeats": len(wall)}
    return metrics, info


def _child(session: Session, mode: str, name: str, seed: int):
    """Run ``run.py --child mode`` in a fresh interpreter; (seconds, stdout)."""
    environment = dict(os.environ, PYTHONPATH=SRC, TMPDIR=TMP)
    start = perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", mode,
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, env=environment, capture_output=True, text=True,
            timeout=120)
    except subprocess.TimeoutExpired:
        session.fail(f"{name}: {mode} subprocess did not end within 120 s")
        return None, ""
    elapsed = perf_counter() - start
    if done.returncode != 0:
        session.fail(f"{name}: {mode} subprocess exited {done.returncode}: "
                     f"{done.stderr.strip()[-400:]}")
        return None, ""
    session.attempted += 1
    return elapsed, done.stdout


def measure_setup(session: Session, name: str, seed: int) -> tuple:
    """``setup_s``: process start -> end of the spec cut to 0.05 sim-s."""
    corrected, raw = [], []
    calib = session.calibrate()
    for _ in range(SETUP_RUNS):
        elapsed, _out = _child(session, "setup", name, seed)
        after = session.calibrate()
        if elapsed is not None:
            raw.append(elapsed)
            corrected.append(speed.corrected(elapsed, calib, after))
        calib = after
    if not corrected:
        return {}, {}
    return {"setup_s": _reduce(corrected)}, {"setup_s_raw": median(raw)}


def measure_rss(session: Session, name: str, seed: int) -> dict:
    """``peak_rss_mb``: a fresh subprocess running the workload once (its
    own ``VmHWM``, or its children's ``ru_maxrss`` if larger)."""
    _elapsed, out = _child(session, "rss", name, seed)
    if not out:
        return {}
    usage = json.loads(out.strip().splitlines()[-1])
    peak_kb = max(usage["self_kb"], usage["children_kb"])
    return {"peak_rss_mb": _reduce([peak_kb / 1024.0])}


def simulated_metrics(name: str, stats: dict) -> dict:
    """The exact, simulated end-to-end metrics of one seed."""
    metrics = {}
    for metric in END_TO_END:
        key = metric["name"]
        if key in stats and name in metric["workloads"]:
            metrics[key] = _reduce([stats[key]])
    return metrics


def measure_end_to_end(session: Session, name: str, seed: int,
                       seconds: float, min_repeats: int,
                       sweep: bool = False) -> dict:
    """One workload's end-to-end metrics and info, tracing off.

    ``sweep`` gives every repeat its own seed drawn from ``seed`` (see
    :class:`workloads.SeedSweep`); without it all repeats run ``seed``.
    """
    import workloads

    with session.phase(f"setup:{name}"):
        end_to_end, info = measure_setup(session, name, seed)
    make = workloads.SeedSweep if sweep else workloads.make_workload
    with session.phase(f"timed:{name}"):
        repeats = timed_repeats(session, make(name, seed, TMP), seconds,
                                min_repeats)
    observations = [obs for obs, _, _ in repeats]
    info["doc_sha256"] = check_repeats(session, name, observations)
    metrics, raw = host_metrics(repeats[1:])
    end_to_end.update(metrics)
    info.update(raw)
    stats = observations[0].stats  # the run of ``seed`` itself
    end_to_end.update(simulated_metrics(name, stats))
    info["owd_samples"] = stats.get("owd_samples", 0)
    info["owd_highest_percentile"] = stats.get("owd_highest_percentile", 0)
    info["sim_events"] = stats.get("sim.events", 0)
    with session.phase(f"rss:{name}"):
        end_to_end.update(measure_rss(session, name, seed))
    return {"end_to_end": end_to_end, "info": info}


# --------------------------------------------------------------------- #
# per layer: traced pass, counters, drivers
def _bracket(session: Session, fn, times: int = 1) -> float:
    """Median speed-corrected seconds of ``fn()`` (which returns raw s)."""
    before = session.calibrate()
    raw = median(fn() for _ in range(times))
    return speed.corrected(raw, before, session.calibrate())


def measure_layers(session: Session, name: str, seed: int) -> dict:
    """Per-layer metrics of one workload: ``{metric name: value}``.

    One untraced repeat (after a warm-up) gives the exact counters and the
    reference wall time; one traced repeat gives the cProfile roll-up.
    """
    import drivers
    import workloads

    workload = workloads.make_workload(name, seed, TMP)
    values: dict = {}
    with session.phase(f"untraced:{name}"):
        warm = workload.run_once()
        session.count(warm)
        before = session.calibrate()
        plain = workload.run_once()
        after = session.calibrate()
        session.count(plain)
    if plain.failures:
        return values
    wall = speed.corrected(plain.elapsed, before, after)
    stats = plain.stats
    host, _info = host_metrics([(plain, before, after)])
    for key, entry in {**simulated_metrics(name, stats), **host}.items():
        values[key] = entry["value"]
    # the exact counters and statistics that are layer metrics by name
    values.update({key: value for key, value in stats.items()
                   if key in LAYER_METRIC_NAMES})
    values["sim.events_per_wall_s"] = stats["sim.events"] / wall
    values["ran.background.ue_seconds_per_wall_s"] = (
        stats["ran.background.ue_seconds"] / wall)
    if name == "coupled_shards":
        single = _bracket(session, workload.time_single_loop, times=3)
        values["experiments.sharded.ms_per_window"] = (
            wall / stats["experiments.sharded.windows"] * 1e3)
        values["experiments.sharded.slowdown_vs_single"] = wall / single
        values["experiments.sharded.worker_cpu_share"] = (
            stats["children_cpu_s"] / (2.0 * plain.elapsed))
        values["experiments.sharded.parent_cpu_share"] = (
            stats["parent_cpu_s"] / plain.elapsed)
    if name == "service_short_jobs":
        local_ms = _bracket(session, workload.time_local, times=5) * 1e3
        for key in ("list_runs", "reject"):
            values[f"service.{key}_ms"] = speed.corrected(
                median(plain.samples[key]), before, after) * 1e3
        values["service.overhead_ms"] = (
            values["submit_to_document_ms_p50"] - local_ms)

    with session.phase(f"traced:{name}"):
        before = session.calibrate()
        traced = workload.run_once(trace=True)
        after = session.calibrate()
        session.count(traced)
    if not traced.failures:
        if traced.doc_sha256 != plain.doc_sha256:
            session.fail(f"{name}: the traced run's document differs from "
                         "the untraced run's")
        profiles = [p for group in traced.profiles.values() for p in group]
        rolled = rollup(profiles)
        total = sum(rolled["self_s"].values())
        for layer in LAYERS:
            values[f"{layer}.self_s"] = speed.corrected(
                rolled["self_s"][layer], before, after)
            values[f"{layer}.share"] = rolled["self_s"][layer] / total
            values[f"{layer}.calls"] = rolled["calls"][layer]
        values["trace.total_self_s"] = speed.corrected(total, before, after)
        values["trace.wait_s"] = speed.corrected(rolled["wait_s"], before,
                                                 after)
        values["trace.overhead_ratio"] = (
            speed.corrected(traced.elapsed, before, after) / wall)
        if "none" in traced.profiles:
            half = rollup(traced.profiles["none"])["self_s"]
            values["core.none_half_share"] = half["core"] / sum(half.values())
    with session.phase("drivers"):
        values.update(drivers.run_drivers())
    return values


# --------------------------------------------------------------------- #
# output
def environment(session: Session) -> dict:
    """Enough about this run to tell a surprising number from a slow box."""
    import numpy

    from repro.sim.backends import default_engine_name

    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    calibrations = session.calibrations
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "default_engine_backend": default_engine_name(),
        "K0_s": speed.K0,
        "calib_median_s": median(calibrations) if calibrations else None,
        "calib_iqr_share": iqr_share(calibrations),
        "calibrations": len(calibrations),
        "duration_scale": DURATION_SCALE,
        "phases": session.phases,
    }


def print_metric(name: str, value, note: str = "") -> None:
    unit = UNITS.get(name, "")
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<44} {text:>14} {unit:<7}{note}")


def print_environment(env: dict) -> None:
    print("environment")
    for key, value in env.items():
        if key == "phases":
            for phase in value:
                print(f"  phase {phase['phase']:<34} started at "
                      f"{phase['started_at_s']:7.2f} s, ran "
                      f"{phase['ran_s']:6.2f} s")
        else:
            print(f"  {key:<26} {value}")


def print_failures(session: Session) -> None:
    for message in session.failures:
        print(f"FAILED: {message}")
    print(f"operations attempted {session.attempted}, failed {session.failed}")


def driver_run(args) -> int:
    """One workload under the benchmark driver's contract."""
    session = Session()
    name = args.workload
    print(f"workload {name} seed {args.seed} trace {args.trace}")
    if args.trace:
        values = measure_layers(session, name, args.seed)
        names = [metric["name"] for metric in driver_per_layer()]
        for key in names:
            if key in values:
                print_metric(key, values[key])
    else:
        seconds = RUN_SECONDS if args.seconds is None else args.seconds
        result = measure_end_to_end(session, name, args.seed, seconds,
                                    MIN_REPEATS, sweep=True)
        values = {key: entry["value"]
                  for key, entry in result["end_to_end"].items()}
        names = [metric["name"] for metric in driver_end_to_end()]
        for key, value in values.items():
            print_metric(key, value)
        for key, value in result["info"].items():
            print_metric(key, value, " (info)")
        missing = [key for key in names if key not in values]
        if missing:
            session.fail(f"{name}: no value for {missing}")
    print_environment(environment(session))
    print_failures(session)
    # a per-layer metric that is not defined on this workload reads 0
    metrics = {key: {"value": values.get(key, 0), "unit": UNITS[key]}
               for key in names}
    print(json.dumps({"correct": session.failed == 0,
                      "attempted": max(session.attempted, 1),
                      "failed": session.failed, "metrics": metrics}))
    return 1 if session.failed else 0


def ledger_set(args, names: list) -> tuple:
    """One full set: each workload end to end, then its layers."""
    session = Session()
    results = {}
    for name in names:
        results[name] = measure_end_to_end(session, name, args.seed, 0.0,
                                           args.repeats)
        results[name]["per_layer"] = measure_layers(session, name, args.seed)
    failed_share = session.failed / max(session.attempted, 1)
    for result in results.values():
        result["end_to_end"]["failed_share"] = _reduce([failed_share])
    document = {"ledger": 1, "seed": args.seed, "repeats": args.repeats,
                "environment": environment(session),
                "attempted": session.attempted, "failed": session.failed,
                "failures": session.failures, "workloads": results}
    return document, session


def print_ledger(document: dict) -> None:
    for name, result in document["workloads"].items():
        print(f"workload {name}")
        print(" end to end")
        for key, entry in result["end_to_end"].items():
            spread = iqr_share(entry["repeats"])
            note = f" spread {spread:.3f}" if len(entry["repeats"]) > 1 else ""
            print_metric(key, entry["value"], note)
        for key, value in result["info"].items():
            print_metric(key, value, " (info)")
        print(" per layer")
        for key, value in result["per_layer"].items():
            print_metric(key, value)
    print_environment(document["environment"])


def ledger_run(args) -> int:
    names = args.workloads.split(",") if args.workloads else list(ALL)
    unknown = [name for name in names if name not in ALL]
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {list(ALL)}",
              file=sys.stderr)
        return 2
    documents = []
    status = 0
    for _ in range(2 if args.check else 1):
        document, session = ledger_set(args, names)
        print_ledger(document)
        print_failures(session)
        documents.append(document)
        if session.failed:
            status = 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(documents[-1], handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.check:
        rows = compare.compare_documents(documents[0], documents[1])
        print(compare.format_rows(rows))
        if any(row["verdict"] == "worse" for row in rows):
            status = 1
    return status


def child_run(args) -> int:
    """``--child setup|rss``: the body of a fresh-interpreter measurement."""
    import workloads

    workload = workloads.make_workload(args.workload, args.seed, TMP,
                                       setup=args.child == "setup")
    workload.checks = False
    obs = workload.run_once()
    for message in obs.failures:
        print(message, file=sys.stderr)
    # Not RUSAGE_SELF: Linux carries the parent's high-water mark across
    # fork+exec into the child's ru_maxrss, so it reads the measuring
    # process, not this one.  VmHWM belongs to this process's own memory.
    with open("/proc/self/status", encoding="ascii") as handle:
        own = next(int(line.split()[1]) for line in handle
                   if line.startswith("VmHWM:"))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"self_kb": own, "children_kb": children}))
    return 1 if obs.failures else 0


def pin_to_one_cpu() -> None:
    """Run everything -- threads, shard workers, child interpreters -- on one CPU.

    This box's two CPUs are noisy in different ways at different times, and
    work bouncing between them (or waking a process on the other one) was
    the largest source of run-to-run spread for the multi-process and
    multi-thread workloads: unpinned, ten runs of ``coupled_shards`` spread
    9-17 % around their median.  On one CPU host time becomes the CPU cost
    of the work plus its context switches, which is what a code change
    moves; what it cannot show is a change in how well shard workers
    overlap, which two hyperthreads of a shared box could not show steadily
    either.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", choices=ALL,
                        help="run one workload under the driver contract")
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver contract: how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver contract: 1 reports the per-layer set")
    parser.add_argument("--repeats", type=int, default=MIN_REPEATS,
                        help="ledger: timed repeats (at least %(default)s)")
    parser.add_argument("--workloads", default="",
                        help="ledger: comma-separated subset")
    parser.add_argument("--out", default="",
                        help="ledger: write the numbers as JSON here")
    parser.add_argument("--check", action="store_true",
                        help="ledger: run two sets and compare them")
    parser.add_argument("--child", choices=("setup", "rss"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator to measure: {SRC}/repro is missing (run from a "
              "full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    workloads.scrub_environment()
    pin_to_one_cpu()
    if args.child:
        return child_run(args)
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    try:
        if args.workload:
            return driver_run(args)
        return ledger_run(args)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
