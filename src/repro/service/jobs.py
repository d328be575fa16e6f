"""Run submission, queueing and live progress for the scenario service.

:func:`spec_from_request` turns a ``POST /runs`` body into a validated
:class:`~repro.experiments.spec.ScenarioSpec` — the same
:func:`~repro.experiments.options.apply_runtime_options` path the CLI
flags take, so a served spec accepts exactly the runtime overrides
``repro scenario`` does.  :class:`JobManager` owns the worker pool that
executes accepted runs: its slot count is clamped by the same
``REPRO_CORE_BUDGET`` arbiter that bounds sweep workers and scenario
shards, and while the pool is open it exports the active-worker count the
shard planner divides the budget by, so concurrently served sharded runs
cannot oversubscribe the host any more than a sweep can.

Every state transition is mirrored into the :class:`~repro.service.
archive.RunArchive`, so ``GET /runs`` queries see queued and running
runs, not just finished ones, and the archive remains authoritative
across service restarts.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.experiments.options import RuntimeOptions, apply_runtime_options
from repro.experiments.presets import make_preset, preset_names
from repro.experiments.results import dump_document, result_document
from repro.experiments.runner import ACTIVE_WORKERS_ENV, core_budget
from repro.experiments.spec import ScenarioSpec

#: Run lifecycle states, in order.
RUN_STATUSES = ("queued", "running", "done", "failed")

#: Request body keys :func:`spec_from_request` understands.
REQUEST_KEYS = ("preset", "spec", "overrides")


def spec_from_request(payload, defaults: Optional[RuntimeOptions] = None):
    """Parse a ``POST /runs`` body into ``(spec, meta)``.

    The body is a JSON object holding either ``{"preset": name}`` or
    ``{"spec": {...}}`` (a full ScenarioSpec dict), plus an optional
    ``{"overrides": {...}}`` object carrying the shared runtime options
    (``shards`` / ``workers``).  Request overrides win
    over the service's own defaults; both are applied by the one
    :func:`~repro.experiments.options.apply_runtime_options`
    implementation the CLI uses.

    Raises :class:`ValueError` (or a registry
    :class:`~repro.registry.UnknownComponentError`, which is one) with an
    actionable message for every malformed body — the HTTP layer maps
    these to 400 responses.
    """
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object, got "
                         f"{type(payload).__name__}")
    unknown = sorted(set(payload) - set(REQUEST_KEYS))
    if unknown:
        raise ValueError(f"unknown request key(s) {unknown}; a run request "
                         f"holds {list(REQUEST_KEYS)}")
    preset = payload.get("preset")
    spec_data = payload.get("spec")
    if (preset is None) == (spec_data is None):
        raise ValueError(
            "a run request needs exactly one of 'preset' or 'spec'")
    if preset is not None:
        if not isinstance(preset, str):
            raise ValueError("'preset' must be a string")
        if preset not in preset_names():
            raise ValueError(f"unknown preset {preset!r}; available: "
                             f"{preset_names()}")
        spec = make_preset(preset)
    elif not isinstance(spec_data, dict):
        raise ValueError("'spec' must be a JSON object (a ScenarioSpec "
                         "document, e.g. from 'repro scenario --dump-spec')")
    options = RuntimeOptions.from_mapping(payload.get("overrides") or {})
    if defaults is not None:
        options = options.merged_over(defaults)
    try:
        if preset is None:
            spec = ScenarioSpec.from_dict(spec_data)
        spec = apply_runtime_options(spec, options).validate()
    except ValueError:
        raise
    except Exception as exc:  # noqa: BLE001 - the request boundary: a
        # wrong-typed value the field checks cannot see (inside an opaque
        # list, say) must still answer 400, not kill the handler thread.
        raise ValueError("malformed scenario spec: "
                         f"{type(exc).__name__}: {exc}") from exc
    meta = {"preset": preset, "label": spec.label(), "seed": spec.seed,
            "duration_s": spec.duration_s}
    return spec, meta


class RunState:
    """One submitted run: status, live snapshots and the final document.

    The condition variable lets SSE streams block for the next snapshot
    instead of polling; every mutation happens under the lock and
    notifies.
    """

    def __init__(self, run_id: str, spec: ScenarioSpec, meta: dict) -> None:
        self.run_id = run_id
        self.spec = spec
        self.meta = meta
        self.status = "queued"
        self.error: Optional[str] = None
        self.document: Optional[str] = None
        self.snapshots: list[dict] = []
        self.condition = threading.Condition()

    def to_entry(self) -> dict:
        """The run's archive/status view (no document payload)."""
        entry = {"run_id": self.run_id, "status": self.status,
                 "snapshots": len(self.snapshots)}
        entry.update(self.meta)
        if self.error is not None:
            entry["error"] = self.error
        return entry

    # ------------------------------------------------------------------ #
    def push_snapshot(self, snapshot: dict) -> None:
        with self.condition:
            self.snapshots.append(dict(snapshot))
            self.condition.notify_all()

    def finish(self, status: str, document: Optional[str] = None,
               error: Optional[str] = None) -> None:
        with self.condition:
            self.status = status
            self.document = document
            self.error = error
            self.condition.notify_all()

    def wait_snapshot(self, index: int, timeout: float = 1.0) -> bool:
        """Block until snapshot ``index`` exists or the run settles."""
        with self.condition:
            if len(self.snapshots) > index or self.status in ("done",
                                                              "failed"):
                return len(self.snapshots) > index
            self.condition.wait(timeout)
            return len(self.snapshots) > index


class JobManager:
    """The service's run queue: bounded workers under the core budget.

    Args:
        archive: the persistent :class:`~repro.service.archive.RunArchive`
            every transition is mirrored into.
        defaults: service-level runtime options (from the ``serve`` CLI
            flags) applied under any request-level overrides.
        max_runs: cap on concurrently executing runs; clamped to the
            host's core budget.  Defaults to 1 — scenario runs are
            CPU-bound, so serial is the safe default and ``--max-runs``
            is the explicit opt-in to concurrency.
        progress_interval_s: simulated-time spacing of live snapshots.
    """

    def __init__(self, archive, defaults: Optional[RuntimeOptions] = None,
                 max_runs: int = 1,
                 progress_interval_s: float = 0.25) -> None:
        self.archive = archive
        self.defaults = defaults or RuntimeOptions()
        self.slots = max(1, min(int(max_runs), core_budget()))
        self.progress_interval_s = progress_interval_s
        self._runs: dict[str, RunState] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._saved_active: Optional[str] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    def start(self) -> None:
        if self._pool is not None:
            return
        self._pool = ThreadPoolExecutor(
            max_workers=self.slots, thread_name_prefix="repro-run")
        # Sharded runs divide the core budget by the active worker count,
        # exactly as nested shards under a parallel sweep do.
        self._saved_active = os.environ.get(ACTIVE_WORKERS_ENV)
        if self.slots > 1:
            os.environ[ACTIVE_WORKERS_ENV] = str(self.slots)

    def close(self, wait: bool = True) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
            if self.slots > 1:
                if self._saved_active is None:
                    os.environ.pop(ACTIVE_WORKERS_ENV, None)
                else:
                    os.environ[ACTIVE_WORKERS_ENV] = self._saved_active

    # ------------------------------------------------------------------ #
    # submission and lookup
    def submit(self, payload: dict) -> RunState:
        """Validate a request body, enqueue the run, return its state."""
        if self._pool is None:
            self.start()
        spec, meta = spec_from_request(payload, self.defaults)
        with self._lock:
            run_id = f"run-{next(self._counter):04d}-{uuid.uuid4().hex[:8]}"
            state = RunState(run_id, spec, meta)
            self._runs[run_id] = state
        self._record(state, submitted_at=time.time())
        self._pool.submit(self._execute, state)
        return state

    def get(self, run_id: str) -> Optional[RunState]:
        with self._lock:
            return self._runs.get(run_id)

    def states(self) -> list[RunState]:
        with self._lock:
            return list(self._runs.values())

    # ------------------------------------------------------------------ #
    def _record(self, state: RunState, **extra) -> None:
        entry = state.to_entry()
        entry.update(extra)
        self.archive.record(entry)

    def _execute(self, state: RunState) -> None:
        # Imported here so worker threads never race the module import of
        # the full scenario stack during service start-up.
        from repro.experiments.scenario import run_scenario

        with state.condition:
            state.status = "running"
            state.condition.notify_all()
        # Archive writes sit inside the try: nobody reads this thread's
        # future, so an escaping OSError would leave the run "running" and
        # its event streams polling forever.  The final status is archived
        # before the run settles, so whoever sees it settled finds it there.
        try:
            self._record(state, started_at=time.time())
            result = run_scenario(
                state.spec, progress=state.push_snapshot,
                progress_interval_s=self.progress_interval_s)
            document = dump_document(result_document(result))
            self.archive.write_document(state.run_id, document)
            self._record(state, status="done", finished_at=time.time())
        except Exception as exc:  # noqa: BLE001 - surfaced via the API
            error = f"{type(exc).__name__}: {exc}"
            try:
                self._record(state, status="failed", error=error,
                             finished_at=time.time())
            except OSError:
                pass  # the archive itself failed; the run state says why
            state.finish("failed", error=error)
            return
        state.finish("done", document=document)
