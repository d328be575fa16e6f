"""Vectorized background-UE population: dense cells without per-UE events.

The north star is heavy traffic from very large user populations, but one
Python object graph per UE (channel, RLC, F1-U, CC state machine) tops out at
a handful of UEs per cell.  This module implements the hybrid approach: a few
*foreground* UEs are simulated exactly, packet by packet, while the other
``n_background`` UEs of the cell live in one :class:`BackgroundPopulation` --
contiguous numpy arrays of per-UE cwnd/backlog/SNR/rate advanced in batched
steps synchronized with the MAC slot loop.

Coupling into the exact simulation is deliberately narrow:

* **Scheduler contention.**  Every slot the MAC asks the population for its
  aggregate demand (an O(1) cached count) and treats it as that many extra
  round-robin claimants: foreground UEs receive proportionally fewer PRBs and
  the background's share is accumulated (O(1)) for the next batched step.
* **Marking/egress.**  Reduced foreground MAC service slows the RLC drain,
  which the F1-U delivery reports carry into the per-bearer egress-rate
  estimates and sojourn predictions that DualPI2/L4Span mark from -- so
  foreground flows see realistic congestion signals without the population
  injecting per-packet traffic.  Markers that implement
  ``on_background_aggregate(arrival_bytes, served_bytes, now)`` additionally
  receive each batched step's arrival/served byte counts for cell-level
  telemetry.

Everything random is drawn from the single per-cell named stream
``background-cell{cell_id}``, so a population is bit-identical across repeat
runs and across ``--shards 1/2`` splits (shard simulations reuse the master
seed, and the population is cell-local state).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cc.factory import is_l4s_algorithm
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
#: Multiplicative-decrease factors per response class.
BETA_CLASSIC = 0.7
BETA_L4S = 0.85


class BackgroundPopulation:
    """All background UEs of one cell, as contiguous numpy state arrays.

    Once per slot the MAC hands over the PRBs granted to the background
    aggregate (:meth:`on_slots`); every ``update_interval_s`` worth of slots
    the kernel advances the whole population in one vectorized step: churn
    flips, new arrivals into the per-UE backlogs, service of the accumulated
    PRB budget, and an AIMD window update (classic beta 0.7, L4S beta 0.85,
    mixed per ``cc_mix``).  The step touches only the active UEs' compact
    working set; the full-length ``backlog`` and ``cwnd`` are brought up to
    date when read.
    """

    def __init__(self, sim, cell_id: int, cell: CellConfig, spec,
                 marker: Optional[object] = None) -> None:
        spec.validate()
        self.sim = sim
        self.cell_id = cell_id
        self.cell = cell
        self.spec = spec
        self.n = int(spec.n_background)
        self._rng = sim.random.stream(f"background-cell{cell_id}")
        self._marker_hook = getattr(marker, "on_background_aggregate", None)

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
        self.beta = self._beta_array(spec.cc_mix)
        if spec.workload == "rate":
            # Exponentially distributed offered rates around the mean keep a
            # heavy-ish tail without extra spec knobs.
            mean_bytes = spec.mean_rate_mbps * 1e6 / 8.0
            self.offered_rate = rng.exponential(mean_bytes, size=self.n)
        else:
            self.offered_rate = None
            # Bulk senders start with a full window queued in the RAN.
            self._backlog[self.active] = self._cwnd[self.active]

        # Batched-step bookkeeping.
        slot = cell.slot_duration
        self._slots_per_step = max(1, round(spec.update_interval_s / slot))
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
        #: currently demanding air time (refreshed at each batched step).
        self.demand_count = int(np.count_nonzero(self._backlog > 0))

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
        bulk = self.offered_rate is None

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

        # New arrivals into the RAN backlogs.  Bulk senders keep a full
        # window outstanding; rate senders offer rate*dt, still window-capped.
        room = np.subtract(cwnd, backlog, out=f0)
        np.maximum(room, 0.0, out=room)
        if not bulk:
            offered = np.take(self.offered_rate, index, out=f1)
            offered *= dt
            np.minimum(offered, room, out=room)
        arrivals = room
        backlog += arrivals
        total[index] = arrivals
        arrival_bytes = float(np.add.reduce(total))
        self.arrival_bytes_total += arrival_bytes

        # Who demands air time.  An active bulk sender now holds at least
        # one MSS, so for bulk every active UE demands.
        if bulk:
            demand, demanding = self._all_active, self._active_count
        else:
            demand = np.greater(backlog, 0.0, out=flags)
            demanding = int(np.count_nonzero(demand))

        # Serve the PRB budget the MAC granted over this interval: equal
        # PRB shares across demanding UEs (round-robin in expectation), each
        # converted through its own SNR-derived bytes-per-PRB; one
        # redistribution pass hands leftovers of drained UEs to the rest.
        step_served = 0.0
        if demanding and self._pending_prb_slots > 0:
            share = self._pending_prb_slots / demanding
            capacity = np.multiply(self._active_bpp, share, out=f1)
            if not bulk:
                capacity *= demand
            served = np.minimum(backlog, capacity, out=f0)
            unused = np.subtract(capacity, served, out=f1)
            total[index] = unused
            leftover = float(np.add.reduce(total))
            if leftover > 0:
                # Whoever still holds bytes was demanding.  A drained UE has
                # backlog == served exactly, so its remainder is 0.0 and the
                # scalar top-up needs no mask.
                still_count = int(np.count_nonzero(
                    np.greater(backlog, served, out=flags)))
                if still_count:
                    extra = np.subtract(backlog, served, out=f1)
                    np.minimum(extra, leftover / still_count, out=extra)
                    served += extra
            backlog -= served
            total[index] = served
            step_served = float(np.add.reduce(total))
            self.served_bytes_total += step_served
            # More than half a window (>= MSS/2 > 0) left: it was demanding.
            half_window = np.multiply(cwnd, 0.5, out=f1)
            congested = np.greater(backlog, half_window, out=flags)
        else:
            congested = demand
        self._pending_prb_slots = 0.0

        # AIMD window update: senders that kept more than half a window
        # queued back off (their class beta); the others grow additively.
        # Both candidates come unmasked from the old windows and are
        # selected per UE (``np.putmask`` costs a fraction of a ``where=``
        # ufunc).
        backed_off = np.multiply(cwnd, self._active_beta, out=f1)
        grown = np.add(cwnd, BACKGROUND_MSS * (dt / BACKGROUND_NOMINAL_RTT),
                       out=f0)
        np.putmask(grown, congested, backed_off)
        np.maximum(grown, BACKGROUND_MSS, out=cwnd)
        np.minimum(cwnd, BACKGROUND_CWND_CAP, out=cwnd)
        self._synced = False

        self.active_ue_seconds += self._active_count * dt
        self.kernel_steps += 1
        if bulk:
            # Bulk UEs refill next step; an active bulk sender always demands.
            self.demand_count = self._active_count
        else:
            self.demand_count = int(np.count_nonzero(
                np.greater(backlog, 0.0, out=flags)))
        if self._marker_hook is not None:
            self._marker_hook(arrival_bytes=arrival_bytes,
                              served_bytes=step_served, now=now)

    def _gather_active(self) -> None:
        """Rebuild the compact working set from ``active`` (build, flips)."""
        index = np.flatnonzero(self.active)
        count = index.size
        self._index = index
        self._active_count = count
        self._active_backlog = self._backlog[index]
        self._active_cwnd = self._cwnd[index]
        self._active_bpp = self.bytes_per_prb[index]
        self._active_beta = self.beta[index]
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

    # ------------------------------------------------------------------ #
    def _beta_array(self, cc_mix: dict) -> "np.ndarray":
        """Per-UE multiplicative-decrease factor from the CC mix.

        The population is partitioned deterministically (by index, largest
        remainder) across the mix entries in sorted-name order, so the class
        assignment never consumes random variates.
        """
        beta = np.full(self.n, BETA_CLASSIC)
        if not cc_mix or not self.n:
            return beta
        total = sum(cc_mix.values())
        start = 0
        names = sorted(cc_mix)
        counts = [int(self.n * cc_mix[name] / total) for name in names]
        for i in range(self.n - sum(counts)):
            counts[i % len(counts)] += 1
        for name, count in zip(names, counts):
            if is_l4s_algorithm(name):
                beta[start:start + count] = BETA_L4S
            start += count
        return beta


def merge_background_summaries(summaries: list) -> dict:
    """Sum per-cell population summaries into one scenario-level dict."""
    merged: dict = {}
    for summary in summaries:
        if not summary:
            continue
        for key, value in summary.items():
            merged[key] = merged.get(key, 0) + value
    return merged
