"""Runtime execution options shared by every scenario-running surface.

``--shards`` and ``--workers`` mean the same on every surface -- the CLI
subcommands and a served spec -- because this module is their single
source of truth:

* :func:`add_runtime_arguments` contributes the two flags to an argparse
  parser — ``python -m repro scenario`` (ad-hoc and ``--preset`` runs alike)
  and ``python -m repro serve`` both build their parsers from the same
  parent.
* :class:`RuntimeOptions` is the parsed form; :meth:`RuntimeOptions.
  from_mapping` builds it from a service request's ``overrides`` object, so
  a spec submitted over HTTP accepts exactly the flags the CLI does.
* :func:`apply_runtime_options` applies them to a
  :class:`~repro.experiments.spec.ScenarioSpec` — one implementation, used
  verbatim by every path, regression-tested in ``tests/test_service.py``.

Semantics: ``--shards`` selects the shard process count (1 disables
sharding) and ``--workers``
caps the worker-process count a single scenario may use (i.e. it bounds
``--shards``; the ``experiment`` command separately uses its sweep-grid
``--workers``, and the core-budget arbiter in
:mod:`repro.experiments.runner` still bounds the product globally).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.experiments.spec import ScenarioSpec, ShardingSpec


@dataclass(frozen=True)
class RuntimeOptions:
    """The runtime knobs every scenario-running surface accepts.

    ``None`` fields leave the spec untouched, so an empty instance is the
    identity under :func:`apply_runtime_options`.
    """

    shards: Optional[int] = None
    workers: Optional[int] = None

    def merged_over(self, defaults: "RuntimeOptions") -> "RuntimeOptions":
        """These options, falling back to ``defaults`` for unset fields.

        The service applies request-level overrides *over* its CLI-level
        defaults through this.
        """
        return RuntimeOptions(
            shards=self.shards if self.shards is not None else defaults.shards,
            workers=(self.workers if self.workers is not None
                     else defaults.workers))

    def validate(self) -> "RuntimeOptions":
        """Check names and counts; return self."""
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        return self

    @classmethod
    def from_mapping(cls, data: dict) -> "RuntimeOptions":
        """Build (and validate) options from a request's ``overrides`` object.

        Unknown keys and malformed values raise :class:`ValueError` — the
        service maps that to a 400 with the message, so a typo in a POST
        body fails as loudly as a typo on the command line.
        """
        if not isinstance(data, dict):
            raise ValueError("'overrides' must be a JSON object, got "
                             f"{type(data).__name__}")
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError(f"unknown override(s) {unknown}; "
                             f"valid overrides: {sorted(names)}")
        for key in ("shards", "workers"):
            value = data.get(key)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int)):
                raise ValueError(f"override {key!r} must be an integer")
        return cls(**data).validate()


def add_runtime_arguments(parser) -> None:
    """Contribute the shared runtime flags to an argparse parser.

    Used as the one argparse parent for ``scenario`` and ``serve`` (and, by
    the regression tests, as proof the two cannot drift apart again).
    """
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="shard a multi-cell scenario over N processes "
             "(1 disables; see the README's Parallelism section)")
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="cap the worker processes one scenario may use (bounds "
             "--shards; the core-budget arbiter still applies)")


def runtime_options_from_args(args) -> RuntimeOptions:
    """Collect the shared flags out of a parsed argparse namespace."""
    return RuntimeOptions(shards=args.shards, workers=args.workers)


def apply_runtime_options(spec: ScenarioSpec,
                          options: Optional[RuntimeOptions]) -> ScenarioSpec:
    """Apply runtime options to a spec; the one authoritative implementation.

    CLI flag handling, preset runs and serve-submitted ``overrides`` all
    resolve through this function, so identical options produce identical
    specs on every path.
    """
    if options is None:
        return spec
    options.validate()
    sharding = spec.sharding
    sharding_changed = False
    if options.shards is not None:
        sharding = (ShardingSpec(mode="auto", shards=options.shards)
                    if options.shards > 1 else ShardingSpec(mode="off"))
        sharding_changed = True
    if options.workers is not None and sharding.mode == "auto":
        # A single scenario's only process layer is its shards; the workers
        # cap bounds it (explicit maps keep their placement untouched).
        if sharding.shards is None or sharding.shards > options.workers:
            sharding = dataclasses.replace(sharding, shards=options.workers)
            sharding_changed = True
    if sharding_changed:
        spec = dataclasses.replace(spec, sharding=sharding)
    return spec
