"""Time-correlated fading channels for moving UEs.

The SNR follows a first-order Gauss-Markov (AR(1)) process whose correlation
decays over the channel *coherence time*:

    snr(t + dt) = mean + rho * (snr(t) - mean) + sqrt(1 - rho^2) * sigma * w,
    rho = exp(-dt / T_c)

where ``T_c`` is derived from the UE speed and carrier frequency with the
usual ``T_c ~ 0.423 / f_D`` rule (Doppler spread ``f_D = v * f_c / c``), a few
milliseconds for a vehicular UE at 3.5 GHz and hundreds of milliseconds at
pedestrian speeds.  (The paper adopts the larger *measured* coherence time of
24.9 ms from Wang et al. as its pre-set value; that constant lives in
:class:`repro.core.config.L4SpanConfig`, not here.)

Occasional deep fades -- the "channel sharply turns bad" moments in the
paper's running example (Fig. 4) -- are modelled by an optional shadowing
process that knocks the SNR down for a random holding time.  Fade arrivals
over an advance of ``dt`` use the exact Poisson arrival probability
``1 - exp(-rate * dt)``, not the first-order ``rate * dt`` truncation, which
under-triggers fades for UEs whose channel is sampled sparsely (large ``dt``).

Hot-path note: the MAC scheduler samples every backlogged UE's channel once
per slot (2 kHz), so the innovations and fade decisions are read through two
:func:`~repro.sim.randomness.block_draws` readers (standard normal, uniform)
of the UE's one stream -- one vectorized call per 256-value block, covering
many coherence windows -- instead of one scalar numpy call per ``sample()``.
The 256-value blocks of the two readers, interleaved on one generator with
the scalar deep-fade duration draw, define this channel's variate sequence:
changing the block size or reading the stream any other way moves every
fading document.
"""

from __future__ import annotations

import math

import numpy as np

from repro.channel.base import ChannelModel, ChannelSample
from repro.channel.mcs import efficiency_from_snr, mcs_from_snr_array
from repro.sim.randomness import block_draws

SPEED_OF_LIGHT_M_S = 299_792_458.0

#: Variates pre-generated per vectorized draw.  At one channel update per
#: 0.5 ms MAC slot a block covers ~128 ms of simulated time -- several
#: coherence windows even for a pedestrian UE.
_DRAW_BLOCK = 256


def doppler_spread(speed_kmh: float, carrier_ghz: float) -> float:
    """Maximum Doppler shift (Hz) for a UE speed and carrier frequency."""
    speed_m_s = speed_kmh / 3.6
    return speed_m_s * carrier_ghz * 1e9 / SPEED_OF_LIGHT_M_S


def coherence_time_for_speed(speed_kmh: float, carrier_ghz: float = 3.5) -> float:
    """Clarke-model coherence time ``0.423 / f_D`` in seconds."""
    f_d = doppler_spread(speed_kmh, carrier_ghz)
    if f_d <= 0:
        return float("inf")
    return 0.423 / f_d


class FadingChannel(ChannelModel):
    """Gauss-Markov SNR process with optional deep-fade shadowing.

    Args:
        mean_snr_db: long-run average SNR.
        std_snr_db: standard deviation of the fast-fading component.
        speed_kmh: UE speed, used to derive the coherence time.
        carrier_ghz: carrier frequency in GHz (paper cell: 3.75 GHz).
        rng: numpy generator driving the process.
        deep_fade_rate: expected deep fades per second (0 disables them).
        deep_fade_depth_db: SNR penalty while a deep fade is active.
        deep_fade_duration: mean duration of a deep fade, seconds.
    """

    def __init__(self, mean_snr_db: float = 20.0, std_snr_db: float = 4.0,
                 speed_kmh: float = 3.0, carrier_ghz: float = 3.5,
                 rng: np.random.Generator | None = None,
                 deep_fade_rate: float = 0.0,
                 deep_fade_depth_db: float = 12.0,
                 deep_fade_duration: float = 0.5) -> None:
        self.mean_snr_db = mean_snr_db
        self.std_snr_db = std_snr_db
        self.speed_kmh = speed_kmh
        self.carrier_ghz = carrier_ghz
        self.coherence_time = coherence_time_for_speed(speed_kmh, carrier_ghz)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.deep_fade_rate = deep_fade_rate
        self.deep_fade_depth_db = deep_fade_depth_db
        self.deep_fade_duration = deep_fade_duration
        self._last_time = 0.0
        self._state_db = mean_snr_db
        self._fade_until = -1.0
        self._next_normal = block_draws(self._rng, "normal", _DRAW_BLOCK)
        self._next_uniform = block_draws(self._rng, "uniform", _DRAW_BLOCK)

    # ------------------------------------------------------------------ #
    def _advance(self, now: float) -> None:
        dt = now - self._last_time
        if dt <= 0:
            return
        coherence = self.coherence_time
        if coherence > 0 and math.isfinite(coherence):
            rho = math.exp(-dt / coherence)
        else:
            rho = 1.0
        innovation = math.sqrt(max(0.0, 1.0 - rho * rho)) * self.std_snr_db
        if innovation > 0:
            self._state_db = (self.mean_snr_db
                              + rho * (self._state_db - self.mean_snr_db)
                              + innovation * self._next_normal())
        else:
            self._state_db = (self.mean_snr_db
                              + rho * (self._state_db - self.mean_snr_db))
        if self.deep_fade_rate > 0:
            self._maybe_trigger_deep_fade(now, dt)
        self._last_time = now

    def _maybe_trigger_deep_fade(self, now: float, dt: float) -> None:
        if now < self._fade_until:
            return
        # Exact Poisson arrival probability over the advance interval; the
        # first-order ``rate * dt`` truncation under-triggers fades when the
        # channel is sampled sparsely (large dt).
        probability = 1.0 - math.exp(-self.deep_fade_rate * dt)
        if self._next_uniform() < probability:
            duration = float(self._rng.exponential(self.deep_fade_duration))
            self._fade_until = now + duration

    # ------------------------------------------------------------------ #
    def sample(self, now: float) -> ChannelSample:
        self._advance(now)
        snr = self._state_db
        if now < self._fade_until:
            snr -= self.deep_fade_depth_db
        return ChannelSample.from_snr(now, snr)

    def efficiency(self, now: float) -> float:
        """Spectral efficiency only -- the per-slot MAC fast path.

        Advances the process exactly like :meth:`sample` (same variate
        consumption) but skips building the frozen :class:`ChannelSample`
        and its CQI/MCS fields, which the scheduler never reads.
        """
        self._advance(now)
        snr = self._state_db
        if now < self._fade_until:
            snr -= self.deep_fade_depth_db
        return efficiency_from_snr(snr)

    def mcs_trace(self, duration: float, step: float) -> list[tuple[float, int]]:
        """Regular-grid MCS trace (Fig. 18), vectorized.

        Advances the AR(1)/fade process step by step exactly like
        :meth:`sample` (same variate consumption, so the trace is identical
        to the generic implementation), but collects the raw SNRs and maps
        them to MCS indices in one :func:`mcs_from_snr_array` table gather
        instead of building a :class:`ChannelSample` per grid point.
        """
        steps = int(duration / step)
        times = [i * step for i in range(steps)]
        snrs = np.empty(steps)
        depth = self.deep_fade_depth_db
        for i, t in enumerate(times):
            self._advance(t)
            snr = self._state_db
            if t < self._fade_until:
                snr -= depth
            snrs[i] = snr
        return list(zip(times, mcs_from_snr_array(snrs).tolist()))
