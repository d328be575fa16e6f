"""The stable public API of the reproduction: ``import repro.api``.

Everything a script, notebook, benchmark or external harness needs lives
behind this one module, so internal layout (``repro.experiments.*``,
``repro.service.*``) can keep moving without breaking callers:

* :func:`load_spec` — a :class:`ScenarioSpec` from a dict, JSON text, a
  file path or a preset name (or pass one through unchanged).
* :func:`run` — execute one scenario (sharded automatically when its spec
  asks for it), with optional live progress snapshots.
* :func:`run_document` — execute and return the canonical
  schema-versioned result document instead of the raw result object.
* :func:`sweep` — fan independent cells over worker processes under the
  ``REPRO_CORE_BUDGET`` arbiter (:class:`~repro.experiments.runner.
  SweepRunner` semantics: deterministic, spawn-safe, ordered results).
* :func:`serve` — boot the long-lived scenario service (`docs/service.md`).

plus the document helpers (:func:`result_document`, :func:`dump_document`,
:func:`check_document`, :func:`result_schema`, :data:`SCHEMA_VERSION`) that
define the machine-readable result contract shared by ``repro scenario
--json``, the run archive and the service.

Example::

    import repro.api as api

    spec = api.load_spec("coupled-core")
    result = api.run(spec, progress=print)
    print(api.dump_document(api.result_document(result)))
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Union

from repro.experiments.options import (RuntimeOptions, apply_runtime_options)
from repro.experiments.presets import make_preset, preset_names
from repro.experiments.results import (SCHEMA_VERSION, check_document,
                                       dump_document, result_document,
                                       result_schema)
from repro.experiments.runner import SweepRunner, core_budget
from repro.experiments.scenario import ScenarioResult, run_scenario
from repro.experiments.spec import ScenarioSpec

__all__ = [
    "SCHEMA_VERSION",
    "RuntimeOptions",
    "ScenarioResult",
    "ScenarioSpec",
    "apply_runtime_options",
    "check_document",
    "core_budget",
    "dump_document",
    "load_spec",
    "make_preset",
    "preset_names",
    "result_document",
    "result_schema",
    "run",
    "run_document",
    "serve",
    "sweep",
]

SpecLike = Union[ScenarioSpec, dict, str, "os.PathLike[str]"]


def load_spec(source: SpecLike) -> ScenarioSpec:
    """Resolve anything spec-shaped into a validated :class:`ScenarioSpec`.

    Accepts, in order of recognition: a ScenarioSpec (returned as-is
    after validation), a dict (``ScenarioSpec.from_dict``), a preset name
    (``repro.api.preset_names()`` lists them), a path to a JSON spec file,
    or JSON text itself.
    """
    if isinstance(source, ScenarioSpec):
        return source.validate()
    if isinstance(source, dict):
        return ScenarioSpec.from_dict(source).validate()
    if isinstance(source, os.PathLike):
        source = os.fspath(source)
    if not isinstance(source, str):
        raise TypeError("load_spec takes a ScenarioSpec, dict, preset name, "
                        f"path or JSON text; got {type(source).__name__}")
    if source in preset_names():
        return make_preset(source)
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as handle:
            return ScenarioSpec.from_json(handle.read()).validate()
    stripped = source.lstrip()
    if stripped.startswith("{"):
        return ScenarioSpec.from_json(source).validate()
    raise ValueError(
        f"cannot resolve spec source {source!r}: not a preset "
        f"(available: {preset_names()}), not an existing file, and not "
        "JSON text")


def run(spec: SpecLike, *, options: Optional[RuntimeOptions] = None,
        progress: Optional[Callable[[dict], None]] = None,
        progress_interval_s: float = 0.25) -> ScenarioResult:
    """Run one scenario and return its :class:`ScenarioResult`.

    ``options`` applies the shared runtime overrides (shards, workers,
    shard windows) through the same code path as the CLI flags and the
    service's request overrides.  ``progress`` receives live snapshot
    dicts (per-flow rates on the single event loop, per-window barrier
    progress for sharded runs).
    """
    resolved = apply_runtime_options(load_spec(spec), options)
    return run_scenario(resolved, progress=progress,
                        progress_interval_s=progress_interval_s)


def run_document(spec: SpecLike, *,
                 options: Optional[RuntimeOptions] = None) -> dict:
    """Run one scenario and return the canonical result document."""
    return result_document(run(spec, options=options))


def sweep(cell_fn: Callable, cells, *, workers: Optional[int] = 1,
          master_seed: Optional[int] = None,
          progress: Optional[Callable[[int, int], None]] = None) -> list:
    """Run independent sweep cells, optionally across worker processes.

    A thin facade over :class:`~repro.experiments.runner.SweepRunner`:
    ``cell_fn`` must be a module-level (picklable) callable, results come
    back in input order, and the worker count is clamped by the host's
    core budget.
    """
    return SweepRunner(workers=workers, master_seed=master_seed,
                       progress=progress).map(cell_fn, cells)


def serve(host: str = "127.0.0.1", port: int = 8757, *,
          runs_dir: Optional[str] = None,
          defaults: Optional[RuntimeOptions] = None, max_runs: int = 1,
          verbose: bool = False, announce=None) -> None:
    """Boot the scenario service and block until interrupted.

    Imported lazily so ``repro.api`` stays importable in environments that
    never serve (the service itself is stdlib-only either way).
    """
    from repro.service.server import serve as _serve

    _serve(host=host, port=port, runs_dir=runs_dir, defaults=defaults,
           max_runs=max_runs, verbose=verbose, announce=announce)
