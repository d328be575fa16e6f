"""Command-line entry point: ``python -m repro <command> [options]``.

``scenario`` runs a single scenario — ad-hoc (``--cc/--marker/--channel``
flags), from a named preset (``--preset two-cell-imbalance``) or from a JSON
spec file (``--spec scenario.json``) — and prints its summary.  ``experiment``
regenerates one of the paper's figures/tables.  ``serve`` boots the
long-lived scenario service (``docs/service.md``).  ``scenario --json``
prints the canonical schema-versioned result document — byte-identical to
what the service archives and serves for the same spec and seed;
``scenario --dump-spec`` prints the resolved spec as JSON (the natural way
to bootstrap a ``--spec`` file) without running it.

All component choices (``--cc``, ``--marker``, ``--channel``,
``--scheduler``, ``--preset``) are derived from the registries in
:mod:`repro.registry`, so a newly registered component is immediately
selectable here with no CLI edits.  The runtime flags shared by
``scenario`` and ``serve`` (``--shards/--workers``) come
from one argparse parent in :mod:`repro.experiments.options`, so the
two commands cannot drift apart.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from repro.experiments.report import format_table


def _build_spec(args: argparse.Namespace):
    """Assemble the scenario spec from --spec / --preset plus flag overrides."""
    from repro.experiments.options import (apply_runtime_options,
                                           runtime_options_from_args)
    from repro.experiments.presets import make_preset
    from repro.experiments.spec import ScenarioSpec

    if args.spec is not None and args.preset is not None:
        raise SystemExit("--spec and --preset are mutually exclusive")
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = ScenarioSpec.from_json(handle.read())
    elif args.preset is not None:
        spec = make_preset(args.preset)
    else:
        spec = ScenarioSpec(num_ues=4)
    overrides = {"num_ues": args.ues, "duration_s": args.duration,
                 "cc_name": args.cc, "marker": args.marker,
                 "channel_profile": args.channel, "scheduler": args.scheduler,
                 "seed": args.seed}
    overrides = {key: value for key, value in overrides.items()
                 if value is not None}
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    # The shared runtime flags (--shards/--workers) go
    # through the same application path as serve-submitted overrides.
    spec = apply_runtime_options(spec, runtime_options_from_args(args))
    if spec.flows is not None:
        # Explicit flow lists don't consult the scalar defaults; apply the
        # flag to them directly rather than silently doing nothing.
        if args.cc is not None:
            spec = dataclasses.replace(
                spec, flows=[dataclasses.replace(flow, cc_name=args.cc)
                             for flow in spec.flows])
        if args.ues is not None:
            print("note: this spec defines explicit flows; --ues only adds "
                  "idle UEs", file=sys.stderr)
    return spec.validate()


def _run_scenario_command(args: argparse.Namespace) -> int:
    from repro.experiments.results import dump_document, result_document
    from repro.experiments.scenario import run_scenario

    spec = _build_spec(args)
    if args.dump_spec:
        print(spec.to_json())
        return 0
    result = run_scenario(spec)
    if result.sharding_stats.get("fallback"):
        blockers = "; ".join(result.sharding_stats.get("blockers", []))
        print("note: spec cannot be sharded, ran on the single event loop "
              f"instead ({blockers})", file=sys.stderr)
    if args.json:
        # The canonical document, exact bytes — identical to the archive
        # file and to GET /runs/{id}/document for the same spec and seed.
        sys.stdout.write(dump_document(result_document(result)))
    else:
        print(format_table([result.summary()]))
    return 0


def _run_serve_command(args: argparse.Namespace) -> int:
    from repro.api import serve
    from repro.experiments.options import runtime_options_from_args

    def announce(service) -> None:
        print(f"repro scenario service listening on {service.url} "
              f"(archive: {service.archive.root})", flush=True)

    serve(host=args.host, port=args.port, runs_dir=args.runs_dir,
          defaults=runtime_options_from_args(args), max_runs=args.max_runs,
          verbose=args.verbose, announce=announce)
    return 0


#: Distribution columns a table cannot show; ``--json`` keeps them.
_SERIES_COLUMNS = {"rtt_cdf", "queue_cdf", "error_cdf", "period_cdf", "cdf",
                   "summary", "error_summary", "queue_summary"}


def _run_experiment_command(args: argparse.Namespace) -> int:
    from repro.experiments.figures import run_figure

    def progress(done: int, total: int) -> None:
        print(f"[{args.experiment}] {done}/{total} cells", file=sys.stderr)

    rows = run_figure(args.experiment, workers=args.workers,
                      progress=progress if args.workers > 1 else None)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True, default=str))
    else:
        print(format_table([{k: v for k, v in row.items()
                             if k not in _SERIES_COLUMNS} for row in rows]))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to the requested command."""
    # Importing the spec module pulls in every component family's defining
    # modules, so all registries are populated before choices are derived.
    import repro.experiments.spec  # noqa: F401
    from repro.experiments.figures import FIGURES
    from repro.experiments.options import add_runtime_arguments
    from repro.experiments.presets import preset_names
    from repro.registry import (CC_SENDERS, CHANNEL_PROFILES, MARKERS,
                                SCHEDULERS)

    parser = argparse.ArgumentParser(
        prog="repro", description="L4Span reproduction experiment runner")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # The one parent contributing --shards/--workers to
    # every command that runs (or will run) scenarios.
    runtime = argparse.ArgumentParser(add_help=False)
    add_runtime_arguments(runtime)

    scenario = subparsers.add_parser(
        "scenario", parents=[runtime],
        help="run a single scenario (ad-hoc flags, --preset, or --spec) and "
             "print its summary")
    scenario.add_argument("--spec", metavar="FILE",
                          help="JSON scenario spec file to run")
    scenario.add_argument("--preset", choices=preset_names(),
                          help="named preset scenario to run")
    scenario.add_argument("--ues", type=int, default=None)
    scenario.add_argument("--duration", type=float, default=None)
    scenario.add_argument("--cc", default=None,
                          choices=CC_SENDERS.names())
    scenario.add_argument("--marker", default=None,
                          choices=MARKERS.names())
    scenario.add_argument("--channel", default=None,
                          choices=CHANNEL_PROFILES.names())
    scenario.add_argument("--scheduler", default=None,
                          choices=SCHEDULERS.names())
    scenario.add_argument("--seed", type=int, default=None)
    scenario.add_argument("--json", action="store_true",
                          help="print the canonical result document as JSON "
                               "instead of a summary table")
    scenario.add_argument("--dump-spec", action="store_true",
                          help="print the resolved spec as JSON and exit "
                               "without running")
    scenario.set_defaults(handler=_run_scenario_command)

    serve = subparsers.add_parser(
        "serve", parents=[runtime],
        help="boot the long-lived scenario service (POST /runs, "
             "GET /runs/{id}, SSE /runs/{id}/events; see docs/service.md); "
             "the runtime flags become defaults for submitted specs")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8757,
                       help="bind port (default: 8757; 0 picks a free port)")
    serve.add_argument("--runs-dir", default=None, metavar="DIR",
                       help="run archive directory (default: $REPRO_RUNS_DIR "
                            "or .repro_runs)")
    serve.add_argument("--max-runs", type=int, default=1, metavar="N",
                       help="concurrently executing runs (clamped to the "
                            "core budget; default: 1)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    serve.set_defaults(handler=_run_serve_command)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's figures/tables")
    experiment.add_argument("experiment", choices=sorted(FIGURES))
    experiment.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the figure's cells (default: 1; this "
             f"host has {os.cpu_count()} CPUs)")
    experiment.add_argument("--json", action="store_true",
                            help="print rows as JSON instead of a table")
    experiment.set_defaults(handler=_run_experiment_command)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
