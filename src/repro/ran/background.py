"""Vectorized background-UE population: dense cells without per-UE events.

A few *foreground* UEs are simulated exactly, packet by packet, while the
other ``n_background`` UEs of the cell live in one
:class:`BackgroundPopulation` -- contiguous numpy arrays of per-UE
cwnd/backlog/SNR advanced in batched steps synchronized with the MAC slot
loop.  Every background UE is an always-backlogged bulk sender.

The population claims one thing, scheduler contention, and couples into the
exact simulation only through it: every slot the MAC reads the population's
aggregate demand (``demand_count``, the active-UE count, O(1)) and treats it
as that many extra round-robin claimants, so foreground UEs receive
proportionally fewer PRBs; the background's share is accumulated (O(1)) for
the next batched step.  Reduced foreground MAC service slows the RLC drain,
which is all a marker sees of the population.

It does not claim a marking response or a per-flow RTT: background windows
back off on their own backlog ("more than half a window left queued"), never
on a mark, and grow against one fixed nominal RTT of 50 ms.  Nothing in the
window dynamics reaches ``demand_count``, so the foreground results do not
depend on them.

Everything random is drawn from the single per-cell named stream
``background-cell{cell_id}``, so a population is bit-identical across repeat
runs and across ``--shards 1/2`` splits (shard simulations reuse the master
seed, and the population is cell-local state).
"""

from __future__ import annotations

import numpy as np

from repro.channel.mcs import efficiency_from_snr_array
from repro.ran.cell import CellConfig

#: Sender MSS used by the window dynamics, bytes.
BACKGROUND_MSS = 1500
#: Initial congestion window (RFC 6928's 10 segments), bytes.
BACKGROUND_INITIAL_CWND = 10 * BACKGROUND_MSS
#: Window growth/backoff happens against this nominal end-to-end RTT.
BACKGROUND_NOMINAL_RTT = 0.05
#: Upper bound on a background sender's window, bytes.
BACKGROUND_CWND_CAP = 4 * 1024 * 1024
#: Multiplicative-decrease factor of a backed-off window.
BACKGROUND_BETA = 0.7
#: Batched kernel cadence, seconds (rounded to whole MAC slots, at least one).
BACKGROUND_STEP_S = 0.005


class BackgroundPopulation:
    """All background UEs of one cell, as contiguous numpy state arrays.

    Once per slot the MAC hands over the PRBs granted to the background
    aggregate (:meth:`on_slots`); every ``BACKGROUND_STEP_S`` worth of slots
    the kernel advances the whole population in one vectorized step: churn
    flips, window refills of the per-UE backlogs, service of the accumulated
    PRB budget, and an AIMD window update (``BACKGROUND_BETA``).  The step
    touches only the active UEs' compact working set; the full-length
    ``backlog`` and ``cwnd`` are brought up to date when read.
    """

    def __init__(self, sim, cell_id: int, cell: CellConfig, spec) -> None:
        spec.validate()
        self.sim = sim
        self.cell_id = cell_id
        self.cell = cell
        self.spec = spec
        self.n = int(spec.n_background)
        self._rng = sim.random.stream(f"background-cell{cell_id}")

        rng = self._rng
        if spec.snr_stddev_db > 0:
            self.snr_db = rng.normal(spec.snr_mean_db, spec.snr_stddev_db,
                                     size=self.n)
        else:
            self.snr_db = np.full(self.n, float(spec.snr_mean_db))
        self.efficiency = efficiency_from_snr_array(self.snr_db)
        self.bytes_per_prb = cell.bytes_per_prb(1.0) * self.efficiency

        self.active = rng.random(self.n) < spec.activity
        self._cwnd = np.full(self.n, float(BACKGROUND_INITIAL_CWND))
        self._backlog = np.zeros(self.n)
        # Bulk senders start with a full window queued in the RAN.
        self._backlog[self.active] = self._cwnd[self.active]

        # Batched-step bookkeeping.
        self._slots_per_step = max(
            1, round(BACKGROUND_STEP_S / cell.slot_duration))
        self._slot_count = 0
        self._pending_prb_slots = 0.0
        self._last_step_time = float(sim.now)
        self._finished = False

        # Aggregate telemetry (all additive across cells/shards).
        self.arrival_bytes_total = 0.0
        self.served_bytes_total = 0.0
        self.active_ue_seconds = 0.0
        self.kernel_steps = 0

        # Kernel working set: the per-UE state of the active UEs only, as
        # compact arrays over ``_index = flatnonzero(active)``, plus the
        # scratch the step writes through ``out=``; regathered only when a
        # churn flip writes ``active``.  ``_sum_scratch`` is full-length and
        # zero off the index, so every sum sees each value at its own
        # position (see :meth:`_step`).  ``_synced`` says whether the
        # full-length ``backlog`` / ``cwnd`` mirror the compact arrays.
        self._sum_scratch = np.zeros(self.n)
        self._synced = True
        self._gather_active()

        #: O(1) view the MAC reads every slot: number of background UEs
        #: demanding air time -- every active one (refreshed at each step).
        self.demand_count = self._active_count

    # ------------------------------------------------------------------ #
    # MAC-facing hot path (called once per slot or quiet run; O(1))
    # ------------------------------------------------------------------ #
    def on_slots(self, prbs: int, count: int, now: float) -> None:
        """Account ``count`` MAC slots that each left ``prbs`` PRBs to the
        population; the slot ending a batch interval runs the kernel step
        at ``now``, so ``count`` never exceeds :meth:`slots_to_step`."""
        if prbs:
            self._pending_prb_slots += prbs * count
        self._slot_count += count
        if self._slot_count % self._slots_per_step == 0:
            self._step(now)

    def slots_to_step(self) -> int:
        """MAC slots up to and including the next kernel step's."""
        return self._slots_per_step - self._slot_count % self._slots_per_step

    # ------------------------------------------------------------------ #
    # Batched vectorized step
    # ------------------------------------------------------------------ #
    def _step(self, now: float) -> None:
        """Advance the whole population by one batched interval.

        One fused pass over the active UEs only: every elementwise expression
        runs on the compact working set and writes through ``out=`` into
        preallocated scratch, so the steady path allocates nothing.  Each
        masked form of the textbook kernel is replaced by an unmasked one
        that is elementwise identical under the two standing invariants --
        *inactive => backlog == 0.0* and *MSS <= cwnd <= cap* -- and an
        inactive UE's state is never written outside a churn flip.  Every
        sum, though, is taken over the full-length ``_sum_scratch`` written
        at the index: numpy's pairwise summation depends on element
        position, so summing the compact array would move the low bits.  The
        textbook form lives on as the oracle in
        ``tests/reference_population_kernel.py``.
        """
        dt = now - self._last_step_time
        self._last_step_time = now
        if dt <= 0:
            return
        rng = self._rng

        # Arrival/departure churn: Poisson flips, uniformly across the
        # population.  A flip resets the UE's transport state.  Flips index
        # the full arrays (a UE drawn twice flips once), so the compact state
        # is written back first and regathered after.
        churn = self.spec.churn_rate_per_s
        if churn > 0:
            flips = int(rng.poisson(churn * dt))
            if flips:
                idx = rng.integers(0, self.n, size=flips)
                self._sync()
                self.active[idx] = ~self.active[idx]
                self._backlog[idx] = 0.0
                self._cwnd[idx] = float(BACKGROUND_INITIAL_CWND)
                self._gather_active()

        index = self._index
        backlog = self._active_backlog
        cwnd = self._active_cwnd
        f0, f1 = self._float_scratch
        flags = self._bool_scratch
        total = self._sum_scratch

        # Refill every backlog to a full window outstanding.
        arrivals = np.subtract(cwnd, backlog, out=f0)
        np.maximum(arrivals, 0.0, out=arrivals)
        backlog += arrivals
        total[index] = arrivals
        self.arrival_bytes_total += float(np.add.reduce(total))

        # Serve the PRB budget the MAC granted over this interval: equal
        # PRB shares across the active UEs (round-robin in expectation; each
        # now holds at least one MSS), each converted through its own
        # SNR-derived bytes-per-PRB; one redistribution pass hands leftovers
        # of drained UEs to the rest.
        count = self._active_count
        if count and self._pending_prb_slots > 0:
            share = self._pending_prb_slots / count
            capacity = np.multiply(self._active_bpp, share, out=f1)
            served = np.minimum(backlog, capacity, out=f0)
            unused = np.subtract(capacity, served, out=f1)
            total[index] = unused
            leftover = float(np.add.reduce(total))
            if leftover > 0:
                # A drained UE has backlog == served exactly, so its
                # remainder is 0.0 and the scalar top-up needs no mask.
                still_count = int(np.count_nonzero(
                    np.greater(backlog, served, out=flags)))
                if still_count:
                    extra = np.subtract(backlog, served, out=f1)
                    np.minimum(extra, leftover / still_count, out=extra)
                    served += extra
            backlog -= served
            total[index] = served
            self.served_bytes_total += float(np.add.reduce(total))
            # More than half a window (>= MSS/2 > 0) left queued.
            half_window = np.multiply(cwnd, 0.5, out=f1)
            congested = np.greater(backlog, half_window, out=flags)
        else:
            congested = self._all_active
        self._pending_prb_slots = 0.0

        # AIMD window update: senders that kept more than half a window
        # queued back off; the others grow additively.  Both candidates come
        # unmasked from the old windows and are selected per UE
        # (``np.putmask`` costs a fraction of a ``where=`` ufunc).
        backed_off = np.multiply(cwnd, BACKGROUND_BETA, out=f1)
        grown = np.add(cwnd, BACKGROUND_MSS * (dt / BACKGROUND_NOMINAL_RTT),
                       out=f0)
        np.putmask(grown, congested, backed_off)
        np.maximum(grown, BACKGROUND_MSS, out=cwnd)
        np.minimum(cwnd, BACKGROUND_CWND_CAP, out=cwnd)
        self._synced = False

        self.active_ue_seconds += count * dt
        self.kernel_steps += 1
        # Every active UE refills next step, so every one demands.
        self.demand_count = count

    def _gather_active(self) -> None:
        """Rebuild the compact working set from ``active`` (build, flips)."""
        index = np.flatnonzero(self.active)
        count = index.size
        self._index = index
        self._active_count = count
        self._active_backlog = self._backlog[index]
        self._active_cwnd = self._cwnd[index]
        self._active_bpp = self.bytes_per_prb[index]
        self._all_active = np.ones(count, dtype=bool)
        self._float_scratch = (np.empty(count), np.empty(count))
        self._bool_scratch = np.empty(count, dtype=bool)
        self._sum_scratch.fill(0.0)

    def _sync(self) -> None:
        """Write the compact backlogs and windows back to the full arrays."""
        if not self._synced:
            self._backlog[self._index] = self._active_backlog
            self._cwnd[self._index] = self._active_cwnd
            self._synced = True

    @property
    def backlog(self) -> "np.ndarray":
        """Per-UE RAN backlog, bytes (full length; zero for inactive UEs)."""
        self._sync()
        return self._backlog

    @property
    def cwnd(self) -> "np.ndarray":
        """Per-UE congestion window, bytes (full length)."""
        self._sync()
        return self._cwnd

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def finish(self) -> None:
        """Run a final partial step so trailing service is accounted."""
        if self._finished:
            return
        self._finished = True
        if self._pending_prb_slots > 0:
            self._step(self.sim.now)

    def summary(self) -> dict:
        """Additive aggregate counters for this cell's population."""
        self.finish()
        return {
            "n_background": self.n,
            "arrival_bytes": self.arrival_bytes_total,
            "served_bytes": self.served_bytes_total,
            "backlog_bytes": float(self.backlog.sum()) if self.n else 0.0,
            "active_ue_seconds": self.active_ue_seconds,
            "kernel_steps": self.kernel_steps,
        }


def merge_background_summaries(summaries: list) -> dict:
    """Sum per-cell population summaries into one scenario-level dict."""
    merged: dict = {}
    for summary in summaries:
        if not summary:
            continue
        for key, value in summary.items():
            merged[key] = merged.get(key, 0) + value
    return merged
