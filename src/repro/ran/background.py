"""Background-UE population: the other UEs of a dense cell as a claimant count.

The ``n_background`` UEs of a cell next to its packet-exact foreground UEs
are one :class:`BackgroundPopulation`, stepped in batches on the slot clock.

The population claims one thing, scheduler contention.  Every slot the MAC
reads ``demand_count``, the active-UE count that only churn flips change, as
that many extra round-robin claimants, so the foreground's RLC queues drain
slower: all a marker sees of the population.  The PRBs left to it are
reported with the bytes they carry at the active set's mean bytes-per-PRB;
there is no per-UE window, backlog or marking response.

Everything random comes from the per-cell stream ``background-cell{cell_id}``
-- the SNRs, the initial activity, then per step the churn flips -- so a
population is bit-identical across repeats and ``--shards`` splits.
"""

from __future__ import annotations

import numpy as np

from repro.channel.mcs import efficiency_from_snr_array
from repro.ran.cell import CellConfig

#: Batched step cadence, seconds (rounded to whole MAC slots, at least one).
BACKGROUND_STEP_S = 0.005


class BackgroundPopulation:
    """All background UEs of one cell: a claimant count and its counters."""

    def __init__(self, sim, cell_id: int, cell: CellConfig, spec) -> None:
        self._sim = sim
        self._churn_rate = spec.churn_rate_per_s
        self.n = int(spec.n_background)
        self._rng = rng = sim.random.stream(f"background-cell{cell_id}")
        if spec.snr_stddev_db > 0:
            self.snr_db = rng.normal(spec.snr_mean_db, spec.snr_stddev_db,
                                     size=self.n)
        else:
            self.snr_db = np.full(self.n, float(spec.snr_mean_db))
        self.bytes_per_prb = (cell.bytes_per_prb(1.0)
                              * efficiency_from_snr_array(self.snr_db))
        self.active = rng.random(self.n) < spec.activity
        self._recount()
        self._slots_per_step = max(
            1, round(BACKGROUND_STEP_S / cell.slot_duration))
        self._slot_count = self._pending_prb_slots = 0
        self._last_step_time = float(sim.now)
        # Additive counters, summed across cells and shards.
        self.granted_prb_slots = self.kernel_steps = 0
        self.served_bytes_total = self.active_ue_seconds = 0.0

    def _recount(self) -> None:
        #: The count the MAC reads every slot: the active UEs.
        self.demand_count = int(np.count_nonzero(self.active))
        # Zero off active UEs: a compact sum would move the low bits.
        self._active_bpp = np.where(self.active, self.bytes_per_prb, 0.0)
        # Served bytes by PRB budget: the sum's only other input.
        self._served_by_budget: dict = {}

    def on_slots(self, prbs: int, count: int, now: float) -> None:
        """Account ``count`` slots that each left ``prbs`` PRBs to the
        population, the last of them at ``now``; ``count`` never exceeds
        :meth:`slots_to_step`."""
        self._pending_prb_slots += prbs * count
        self._slot_count += count
        if self._slot_count % self._slots_per_step == 0:
            self._step(now)

    def slots_to_step(self) -> int:
        """MAC slots up to and including the next step's."""
        return self._slots_per_step - self._slot_count % self._slots_per_step

    def _step(self, now: float) -> None:
        """Churn flips, then the interval's PRB budget as served bytes."""
        dt = now - self._last_step_time
        self._last_step_time = now
        if dt <= 0:
            return
        if self._churn_rate > 0:
            # Poisson flips, uniform over the population (drawn twice: once).
            flips = int(self._rng.poisson(self._churn_rate * dt))
            if flips:
                idx = self._rng.integers(0, self.n, size=flips)
                self.active[idx] = ~self.active[idx]
                self._recount()
        count = self.demand_count
        pending = self._pending_prb_slots
        self.granted_prb_slots += pending
        if count and pending:
            # Equal PRB shares across the active UEs, each at its own rate.
            served = self._served_by_budget.get(pending)
            if served is None:
                served = self._served_by_budget[pending] = float(
                    np.add.reduce(self._active_bpp * (pending / count)))
            self.served_bytes_total += served
        self._pending_prb_slots = 0
        self.active_ue_seconds += count * dt
        self.kernel_steps += 1

    def finish(self) -> None:
        """Run a final partial step so trailing grants are accounted."""
        if self._pending_prb_slots:
            self._step(self._sim.now)

    def summary(self) -> dict:
        """Additive aggregate counters for this cell's population."""
        self.finish()
        return {"n_background": self.n,
                "granted_prb_slots": self.granted_prb_slots,
                "served_bytes": self.served_bytes_total,
                "active_ue_seconds": self.active_ue_seconds,
                "kernel_steps": self.kernel_steps}


def merge_background_summaries(summaries: list) -> dict:
    """Sum per-cell population summaries into one scenario-level dict."""
    merged: dict = {}
    for summary in summaries:
        if not summary:
            continue
        for key, value in summary.items():
            merged[key] = merged.get(key, 0) + value
    return merged
