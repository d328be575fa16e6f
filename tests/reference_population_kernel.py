"""Test-only oracle: the population kernel's textbook ``_step``.

:class:`ReferencePopulation` is :class:`repro.ran.background.BackgroundPopulation`
with ``_step`` frozen verbatim as it stood before the fused rewrite (PR 17):
one fresh temporary per expression, every mask spelled out (``active &
(backlog > 0)``, ``demand & ...``, ``active & ~congested``), ``np.where`` /
``.sum()`` / ``np.clip``.  The only edits remove what the population lost
since: the marker hook call, the ``rate`` workload's branches and the
per-UE ``beta`` array (one ``BACKGROUND_BETA`` for every UE).  The
production kernel must stay bit-identical to this one -- state arrays, byte
counters and the random stream position -- which
``tests/test_background.py`` checks step by step.  Do not optimise this
file.
"""

from __future__ import annotations

import numpy as np

from repro.ran.background import (BACKGROUND_BETA, BACKGROUND_CWND_CAP,
                                  BACKGROUND_INITIAL_CWND, BACKGROUND_MSS,
                                  BACKGROUND_NOMINAL_RTT,
                                  BackgroundPopulation)


class ReferencePopulation(BackgroundPopulation):
    """The population with the pre-fusion batched step."""

    def _step(self, now: float) -> None:
        dt = now - self._last_step_time
        self._last_step_time = now
        if dt <= 0:
            return
        spec = self.spec
        rng = self._rng
        active = self.active
        backlog = self.backlog
        cwnd = self.cwnd

        # Arrival/departure churn: Poisson flips, uniformly across the
        # population.  A flip resets the UE's transport state.
        if spec.churn_rate_per_s > 0:
            flips = int(rng.poisson(spec.churn_rate_per_s * dt))
            if flips:
                idx = rng.integers(0, self.n, size=flips)
                active[idx] = ~active[idx]
                backlog[idx] = 0.0
                cwnd[idx] = float(BACKGROUND_INITIAL_CWND)

        # New arrivals into the RAN backlogs.  Bulk senders keep a full
        # window outstanding.
        window_room = np.maximum(cwnd - backlog, 0.0)
        arrivals = np.where(active, window_room, 0.0)
        backlog += arrivals
        arrival_bytes = float(arrivals.sum())
        self.arrival_bytes_total += arrival_bytes

        # Serve the PRB budget the MAC granted over this interval: equal
        # PRB shares across demanding UEs (round-robin in expectation), each
        # converted through its own SNR-derived bytes-per-PRB; one
        # redistribution pass hands leftovers of drained UEs to the rest.
        demand = active & (backlog > 0)
        demanding = int(np.count_nonzero(demand))
        step_served = 0.0
        if demanding and self._pending_prb_slots > 0:
            capacity = np.where(
                demand,
                (self._pending_prb_slots / demanding) * self.bytes_per_prb,
                0.0)
            served = np.minimum(backlog, capacity)
            leftover = float((capacity - served).sum())
            still = demand & (backlog > served)
            still_count = int(np.count_nonzero(still))
            if leftover > 0 and still_count:
                extra = np.where(still, leftover / still_count, 0.0)
                served += np.minimum(backlog - served, extra)
            backlog -= served
            step_served = float(served.sum())
            self.served_bytes_total += step_served
            congested = demand & (backlog > 0.5 * cwnd)
        else:
            congested = demand
        self._pending_prb_slots = 0.0

        # AIMD window update: senders that kept more than half a window
        # queued back off; the rest grow additively.
        # Masked in-place ufuncs compute the same elementwise values as
        # boolean fancy indexing without the gather/scatter copies.
        relieved = active & ~congested
        np.multiply(cwnd, BACKGROUND_BETA, out=cwnd, where=congested)
        np.add(cwnd, BACKGROUND_MSS * (dt / BACKGROUND_NOMINAL_RTT),
               out=cwnd, where=relieved)
        np.clip(cwnd, BACKGROUND_MSS, BACKGROUND_CWND_CAP, out=cwnd)

        active_count = int(np.count_nonzero(active))
        self.active_ue_seconds += float(active_count) * dt
        self.kernel_steps += 1
        # Bulk UEs refill next step; an active bulk sender always demands.
        self.demand_count = active_count
