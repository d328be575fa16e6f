"""Parallel execution of experiment sweep grids.

Every figure and table of the paper (:data:`repro.experiments.figures.FIGURES`)
is a list of *independent* simulation cells: a pure function of the cell
description and a seed.  :class:`SweepRunner` fans those cells out over a
pool of worker processes -- the same move a real testbed harness makes when
it distributes scenario files across machines -- and collects the results in
grid order, so a parallel sweep is bit-identical to a sequential one.

Design constraints:

* **Spawn-safe.**  Cell functions must be module-level (picklable by
  reference); the runner never relies on fork-inherited state, so it works
  under the ``spawn`` start method (macOS / Windows) as well as ``fork``.
* **Deterministic.**  Results are returned in the order the cells were given,
  regardless of completion order, and per-cell seeds (when the runner derives
  them) depend only on the master seed and the cell index -- never on worker
  scheduling.
* **Graceful fallback.**  ``workers=1`` runs in-process with zero
  multiprocessing overhead; platforms where no process pool can be created
  (no ``/dev/shm`` semaphores, restricted sandboxes) silently degrade to the
  sequential path instead of crashing the experiment.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Optional

from repro.sim.randomness import derive_seed

#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV = "REPRO_SWEEP_START_METHOD"

#: Environment variable overriding the host's core budget (defaults to
#: ``os.cpu_count()``): the cap on effective ``sweep workers x shards``
#: when both parallel layers are active on one host.
CORE_BUDGET_ENV = "REPRO_CORE_BUDGET"

#: Exported to worker processes while a parallel sweep runs, so nested
#: sharded scenarios (see :func:`repro.experiments.sharded.build_shard_plan`)
#: can divide the core budget by the number of sweep workers already active.
ACTIVE_WORKERS_ENV = "REPRO_SWEEP_ACTIVE_WORKERS"


def core_budget() -> int:
    """The host's core budget: :data:`CORE_BUDGET_ENV` or ``os.cpu_count()``.

    Both parallel layers (sweep workers, scenario shards) consult this so
    their product never oversubscribes one host; setting the environment
    variable raises (or lowers) the cap explicitly.
    """
    try:
        value = int(os.environ.get(CORE_BUDGET_ENV, "0"))
    except ValueError:
        value = 0
    if value > 0:
        return value
    return os.cpu_count() or 1


def active_sweep_workers() -> int:
    """Sweep workers currently active on this host (1 outside a sweep)."""
    try:
        return max(1, int(os.environ.get(ACTIVE_WORKERS_ENV, "1")))
    except ValueError:
        return 1


def derive_cell_seed(master_seed: int, index: int) -> int:
    """A per-cell seed that depends only on the master seed and cell index.

    Shares :func:`repro.sim.randomness.derive_seed` (under a ``cell<i>``
    label) so cells are decorrelated from each other and from the named
    streams inside any one cell.
    """
    return derive_seed(master_seed, f"cell{int(index)}")


class _PoolUnavailable(RuntimeError):
    """Internal marker: the process pool could not be created at all."""


def _call_cell(cell_fn: Callable, cell, seed) -> object:
    """Top-level trampoline so submitted work pickles under ``spawn``."""
    if seed is None:
        return cell_fn(cell)
    return cell_fn(cell, seed)


class SweepRunner:
    """Executes an iterable of independent sweep cells, optionally in parallel.

    Args:
        workers: number of worker processes.  ``1`` (the default) runs
            in-process; ``None`` uses all CPUs.
        master_seed: when given, each cell function is called as
            ``cell_fn(cell, seed)`` with a per-cell seed derived via
            :func:`derive_cell_seed`; otherwise as ``cell_fn(cell)``.
        start_method: multiprocessing start method (``"fork"``, ``"spawn"``,
            ``"forkserver"``); defaults to :data:`START_METHOD_ENV` or the
            platform default.
        progress: optional callback invoked as ``progress(done, total)``
            after every completed cell (from the coordinating process).

    Example::

        runner = SweepRunner(workers=4)
        rows = runner.map(run_one_cell, grid_cells)
    """

    def __init__(self, workers: Optional[int] = 1,
                 master_seed: Optional[int] = None,
                 start_method: Optional[str] = None,
                 progress: Optional[Callable[[int, int], None]] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))
        self.master_seed = master_seed
        self.start_method = (start_method
                             or os.environ.get(START_METHOD_ENV) or None)
        self.progress = progress

    # ------------------------------------------------------------------ #
    def map(self, cell_fn: Callable, cells: Iterable) -> list:
        """Run ``cell_fn`` over every cell; results in input order.

        ``cell_fn`` must be a module-level callable (so worker processes can
        import it) and must be pure: identical results for identical
        arguments, no reliance on shared mutable state.
        """
        cells = list(cells)
        if not cells:
            return []
        seeds: list = ([derive_cell_seed(self.master_seed, i)
                        for i in range(len(cells))]
                       if self.master_seed is not None
                       else [None] * len(cells))
        if self.workers == 1 or len(cells) == 1:
            return self._map_sequential(cell_fn, cells, seeds)
        try:
            return self._map_parallel(cell_fn, cells, seeds)
        except (_PoolUnavailable, BrokenProcessPool) as exc:
            # Platform cannot host a process pool (no semaphores, sandboxed
            # fork) or the workers died mid-sweep (OOM-killed, ...): degrade
            # to the sequential path.  Cells are pure, so re-running any
            # that already completed is safe and yields identical results.
            # Exceptions raised by the cell function itself are NOT caught
            # here -- they propagate from future.result() untouched.
            warnings.warn(
                f"sweep process pool unavailable ({exc!r}); re-running all "
                f"{len(cells)} cells sequentially in this process. If a "
                "worker was killed for memory, the same cell may exhaust "
                "this process too.", RuntimeWarning, stacklevel=2)
            return self._map_sequential(cell_fn, cells, seeds)

    # ------------------------------------------------------------------ #
    def _map_sequential(self, cell_fn: Callable, cells: list,
                        seeds: list) -> list:
        results = []
        total = len(cells)
        for i, (cell, seed) in enumerate(zip(cells, seeds)):
            results.append(_call_cell(cell_fn, cell, seed))
            if self.progress is not None:
                self.progress(i + 1, total)
        return results

    def _map_parallel(self, cell_fn: Callable, cells: list,
                      seeds: list) -> list:
        total = len(cells)
        workers = min(self.workers, total)
        budget = core_budget()
        if workers > budget:
            warnings.warn(
                f"sweep workers={workers} exceeds the host's core budget "
                f"{budget}; clamping to {budget} worker(s) (override with "
                f"{CORE_BUDGET_ENV})", RuntimeWarning, stacklevel=3)
            workers = budget
        # Workers inherit the environment, so nested sharded scenarios see
        # how many sweep processes already share the core budget.
        previous = os.environ.get(ACTIVE_WORKERS_ENV)
        os.environ[ACTIVE_WORKERS_ENV] = str(workers)
        try:
            try:
                # Pool creation is the only step allowed to trigger the
                # sequential fallback; errors from cell functions must
                # surface.
                context = (multiprocessing.get_context(self.start_method)
                           if self.start_method
                           else multiprocessing.get_context())
                pool = ProcessPoolExecutor(max_workers=workers,
                                           mp_context=context)
            except (ImportError, NotImplementedError, OSError,
                    PermissionError) as exc:
                raise _PoolUnavailable(str(exc)) from exc
            with pool:
                futures = [pool.submit(_call_cell, cell_fn, cell, seed)
                           for cell, seed in zip(cells, seeds)]
                if self.progress is not None:
                    pending = set(futures)
                    done_count = 0
                    while pending:
                        done, pending = wait(pending,
                                             return_when=FIRST_COMPLETED)
                        done_count += len(done)
                        self.progress(done_count, total)
                # Ordered collection: grid order, not completion order.  Any
                # worker exception re-raises here, on the coordinating
                # process.
                return [future.result() for future in futures]
        finally:
            if previous is None:
                os.environ.pop(ACTIVE_WORKERS_ENV, None)
            else:
                os.environ[ACTIVE_WORKERS_ENV] = previous
