"""Static channel: constant SNR with optional slow, small noise.

Models the paper's "Static" condition -- a stationary UE whose channel is
essentially flat over the lifetime of a flow.
"""

from __future__ import annotations

import numpy as np

from repro.channel.base import ChannelModel, ChannelSample
from repro.channel.mcs import efficiency_from_snr
from repro.sim.randomness import block_draws


class StaticChannel(ChannelModel):
    """A channel whose SNR never departs far from its mean.

    Args:
        snr_db: mean SNR.
        noise_std_db: standard deviation of an optional white perturbation
            (kept small; 0 disables it entirely and makes the channel exactly
            constant).
        rng: numpy generator for the perturbation.
    """

    coherence_time = float("inf")

    def __init__(self, snr_db: float = 22.0, noise_std_db: float = 0.0,
                 rng: np.random.Generator | None = None) -> None:
        self.snr_db = snr_db
        self.noise_std_db = noise_std_db
        self._normal = block_draws(
            rng if rng is not None else np.random.default_rng(0), "normal")

    def sample(self, now: float) -> ChannelSample:
        snr = self.snr_db
        if self.noise_std_db > 0:
            snr += self.noise_std_db * self._normal()
        return ChannelSample.from_snr(now, snr)

    def efficiency(self, now: float) -> float:
        """Per-slot MAC fast path: same draw, no ChannelSample construction."""
        snr = self.snr_db
        if self.noise_std_db > 0:
            snr += self.noise_std_db * self._normal()
        return efficiency_from_snr(snr)
