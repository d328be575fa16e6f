"""What the ledger measures: workloads, metrics, bounds and interactions.

This module is the single definition.  ``BENCHMARK.json`` at the repo root
is its projection onto the benchmark driver's fixed shape
(:func:`benchmark_json`; ``test_ledger.py`` asserts the two agree), and
``run.py`` prints and writes exactly the names listed here.

Two kinds of numbers, never mixed:

* **host time** -- what the simulator costs to run; speed-corrected
  (:mod:`speed`), noisy, compared with a bound;
* **simulated** -- what the modelled network did; exact for a given seed, so
  two commits compare with ``==`` (``doc_sha256``), and any bound on them is
  only a tripwire for behaviour changes.
"""

from __future__ import annotations

from layers import LAYERS

#: Every simulated duration in the issue's workload table is multiplied by
#: this, so that one repeat takes 1-2 s and a driver run of ``RUN_SECONDS``
#: fits at least five timed repeats inside the driver's total-time cap
#: (114 runs in 3420 s).  The issue sized the workloads for ~6 s repeats.
DURATION_SCALE = 0.25

#: Seconds one driver run measures for (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 12

#: Fewest timed repeats behind any host-time median.
MIN_REPEATS = 5

#: ``marker_contrast`` fails below this.  The issue's 80 % holds at its 10 s
#: duration; at 2.5 s, slow start and the 0.5 s warm-up weigh more and the
#: lowest of 10 seeds measured 82.8 %, so the tripwire sits lower.
MIN_GOODPUT_RETAINED_PCT = 65.0

COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]

WORKLOADS = (
    {"name": "prague_fading",
     "why": "2 Prague UEs on a fading pedestrian channel with L4Span: "
            "packet-bound, self time spread over cc, core, sim, net, rlc, "
            "channel; a per-packet optimisation shows here"},
    {"name": "dense_cell",
     "why": "2 exact + 1000 aggregated UEs: slot-bound, ran.mac + "
            "ran.background dominate and cc/core are ~2 %; a per-packet "
            "change must show nothing here"},
    {"name": "coupled_shards",
     "why": "coupled-core over 2 real shard worker processes: barrier-bound "
            "(windows, pipe round-trips, merge); a single-loop gain that "
            "fattens boundary items costs here"},
    {"name": "marker_contrast",
     "why": "mixed-cc run with marker none then l4span: same rlc/cc layers "
            "under bufferbloat+loss and under shallow queues+ECN; carries "
            "the paper's OWD-reduction headline"},
    {"name": "service_short_jobs",
     "why": "100 very short jobs through the embedded HTTP service one at a "
            "time: set-up-bound (validate, build, collect, document, "
            "archive, HTTP), the opposite regime to the long runs"},
)

ALL = tuple(workload["name"] for workload in WORKLOADS)
SCENARIOS = ALL[:4]
PACKET_BOUND = ("prague_fading", "marker_contrast")
SERVICE = ("service_short_jobs",)


def _metric(name, unit, better, bound, workloads, driver=False) -> dict:
    return {"name": name, "unit": unit, "better": better, "bound": bound,
            "workloads": workloads, "driver": driver}


#: End-to-end metrics: what a user of the simulator sees.  ``workloads`` is
#: where the metric is defined; ``driver`` marks the ones defined on every
#: workload, never zero and steady across seeds, which is what the benchmark
#: driver can bound (it varies ``--seed`` between runs).  The rest are exact
#: or steady *for one seed* and are compared by ``run.py compare``.
END_TO_END = (
    # Host seconds per simulated event.  The event count is part of the
    # result document, so a speed-up cannot move it without changing the
    # document; dividing by it removes the 4-8 % by which the seed changes
    # the amount of work, which wall_s carries in full.  The bound is what
    # this box allows: ten driver runs of one commit spread 4-8 % around
    # their median (IQR), and a bound must sit well clear of that.
    _metric("wall_us_per_event", "us", "lower", 0.20, ALL, driver=True),
    # Fresh interpreter -> end of the workload's spec cut to 0.05 sim-s.
    _metric("setup_s", "s", "lower", 0.25, ALL, driver=True),
    _metric("peak_rss_mb", "MB", "lower", 0.10, ALL, driver=True),
    _metric("wall_s", "s", "lower", 0.10, ALL),
    _metric("owd_p50_ms", "ms", "lower", 0.02, SCENARIOS),
    _metric("owd_p99_ms", "ms", "lower", 0.02, SCENARIOS),
    _metric("goodput_mbps", "Mbit/s", "higher", 0.02, SCENARIOS),
    _metric("owd_reduction_pct", "%", "higher", 0.02, ("marker_contrast",)),
    _metric("goodput_retained_pct", "%", "higher", 0.02, ("marker_contrast",)),
    _metric("submit_to_document_ms_p50", "ms", "lower", 0.10, SERVICE),
    _metric("submit_to_document_ms_p90", "ms", "lower", 0.10, SERVICE),
    _metric("submit_to_first_snapshot_ms_p50", "ms", "lower", 0.10, SERVICE),
    # failed / attempted operations; any failure is a regression.
    _metric("failed_share", "ratio", "lower", 0.0, ALL),
)

# --------------------------------------------------------------------- #
# Per-layer metrics and which end-to-end metric each should move, where.
# ``wall_s`` stands for both host-time metrics (wall_us_per_event is wall_s
# per event).  A workload that is *not* listed is a prediction of no change.
_WALL_EVERYWHERE = {"wall_s": ALL}
_SETUP_AND_SERVICE = {"setup_s": ALL,
                      "submit_to_document_ms_p50": SERVICE,
                      "submit_to_document_ms_p90": SERVICE}
_LAYER_MOVES = {
    "sim": _WALL_EVERYWHERE,
    "cc": {"wall_s": PACKET_BOUND},
    "net": {"wall_s": PACKET_BOUND},
    "core": {"wall_s": PACKET_BOUND},
    "ran.rlc": {"wall_s": PACKET_BOUND},
    "ran.phy": {"wall_s": PACKET_BOUND},
    "ran.other": {"wall_s": PACKET_BOUND},
    "metrics": {"wall_s": PACKET_BOUND},
    "ran.mac": {"wall_s": ("dense_cell",)},
    "ran.background": {"wall_s": ("dense_cell",)},
    # the other four workloads are static-channel
    "channel": {"wall_s": ("prague_fading",)},
    # no workload reaches an AQM (coupled-core's shared middlebox is
    # net/router's drop-tail BottleneckRouter): flat everywhere, and only
    # the isolated driver speaks for this layer
    "aqm": {},
    # a faster packet path saves at most its share of worker compute on
    # coupled_shards: barrier waits are not shortened by it
    "experiments.sharded": {"wall_s": ("coupled_shards",)},
    "ran.mobility": {"wall_s": ("coupled_shards",)},
    "experiments.other": _SETUP_AND_SERVICE,
    "service": _SETUP_AND_SERVICE,
    "other": _WALL_EVERYWHERE,
    "trace": _WALL_EVERYWHERE,
}
_MARKING_MOVES = {"owd_p50_ms": SCENARIOS,
                  "owd_reduction_pct": ("marker_contrast",),
                  "goodput_retained_pct": ("marker_contrast",)}
_SPECIFIC_MOVES = {
    "sim.event_ns": {"wall_s": PACKET_BOUND},
    "sim.slot_tick_ns": {"wall_s": ("dense_cell",)},
    # more marking lowers delay until it costs goodput
    "core.marked_packets": _MARKING_MOVES,
    "core.shortcircuited_acks": _MARKING_MOVES,
    "core.none_half_share": {"wall_s": ("marker_contrast",)},
    "experiments.spec_roundtrip_us": _SETUP_AND_SERVICE,
    "experiments.document_us": _SETUP_AND_SERVICE,
}


def _layer_of_metric(name: str) -> str:
    for layer in sorted(LAYERS + ("trace",), key=len, reverse=True):
        if name.startswith(layer + "."):
            return layer
    raise ValueError(f"metric {name!r} belongs to no layer")


def _layer_metric(name, unit, better) -> dict:
    moves = _SPECIFIC_MOVES.get(name) or _LAYER_MOVES[_layer_of_metric(name)]
    return {"name": name, "unit": unit, "better": better,
            "moves": {metric: list(where) for metric, where in moves.items()}}


def _layer_metrics() -> tuple:
    metrics = []
    # traced run: self time rolled up by source path
    for layer in LAYERS:
        metrics.append(_layer_metric(f"{layer}.self_s", "s", "lower"))
        metrics.append(_layer_metric(f"{layer}.share", "ratio", "lower"))
        # calls repeat exactly and may back a later count-based claim
        metrics.append(_layer_metric(f"{layer}.calls", "count", "lower"))
    for name, unit in (("trace.total_self_s", "s"),
                       ("trace.wait_s", "s"),
                       ("trace.overhead_ratio", "ratio"),
                       # core's share in the marker="none" half: ~0
                       ("core.none_half_share", "ratio")):
        metrics.append(_layer_metric(name, unit, "lower"))
    # counters the result document already carries (exact); the direction
    # of a simulated counter is nominal -- any change means behaviour moved
    for name, unit, better in (
            ("sim.events", "count", "lower"),
            ("sim.events_per_wall_s", "1/s", "higher"),
            ("core.downlink_packets", "count", "higher"),
            ("core.marked_packets", "count", "lower"),
            ("core.shortcircuited_acks", "count", "higher"),
            ("core.feedback_messages", "count", "lower"),
            ("ran.rlc.queue_p50_sdus", "count", "lower"),
            ("metrics.delay_queuing_ms", "ms", "lower"),
            ("metrics.delay_scheduling_ms", "ms", "lower"),
            ("ran.mobility.handovers", "count", "lower"),
            ("ran.background.ue_seconds_per_wall_s", "1/s", "higher"),
            ("experiments.sharded.windows", "count", "lower"),
            ("experiments.sharded.routed_packets", "count", "lower"),
            # process accounting of the sharded run
            ("experiments.sharded.ms_per_window", "ms", "lower"),
            ("experiments.sharded.slowdown_vs_single", "ratio", "lower"),
            ("experiments.sharded.worker_cpu_share", "ratio", "higher"),
            ("experiments.sharded.parent_cpu_share", "ratio", "lower"),
            # drivers timing public functions in isolation
            ("sim.event_ns", "ns", "lower"),
            ("sim.slot_tick_ns", "ns", "lower"),
            ("channel.efficiency_ns", "ns", "lower"),
            ("ran.rlc.sdu_ns", "ns", "lower"),
            ("core.mark_probability_ns", "ns", "lower"),
            ("core.egress_report_ns", "ns", "lower"),
            ("net.checksum_mark_ns", "ns", "lower"),
            ("aqm.dualpi2_update_ns", "ns", "lower"),
            ("metrics.record_ns", "ns", "lower"),
            ("experiments.spec_roundtrip_us", "us", "lower"),
            ("experiments.document_us", "us", "lower"),
            ("service.reject_ms", "ms", "lower"),
            ("service.list_runs_ms", "ms", "lower"),
            ("service.overhead_ms", "ms", "lower")):
        metrics.append(_layer_metric(name, unit, better))
    return tuple(metrics)


PER_LAYER = _layer_metrics()


def driver_end_to_end() -> list:
    """The end-to-end metrics the benchmark driver bounds."""
    return [metric for metric in END_TO_END if metric["driver"]]


def driver_per_layer() -> list:
    """What ``--trace 1`` reports: the remaining end-to-end metrics (all
    but ``failed_share``, which the driver reads from ``attempted`` and
    ``failed``) followed by every layer metric.  A metric that is not
    defined on the workload being run reads 0."""
    rest = [metric for metric in END_TO_END
            if not metric["driver"] and metric["name"] != "failed_share"]
    return rest + list(PER_LAYER)


def benchmark_json() -> dict:
    """``BENCHMARK.json``: this definition in the driver's fixed shape."""
    def shape(metric: dict, keys) -> dict:
        return {key: metric[key] for key in keys}

    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [dict(workload) for workload in WORKLOADS],
        "end_to_end": [shape(metric, ("name", "unit", "better", "bound"))
                       for metric in driver_end_to_end()],
        "per_layer": [shape(metric, ("name", "unit", "better"))
                      for metric in driver_per_layer()],
    }
