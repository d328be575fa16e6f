"""Named channel profiles matching the paper's evaluation conditions.

The evaluation uses four emulated channel conditions: *static*, *pedestrian*,
*vehicular* and *mobile* (the latter combining pedestrian and vehicular UEs).
Each profile is registered in :data:`repro.registry.CHANNEL_PROFILES` at
definition time; ``make_channel`` builds a per-UE channel model for a named
condition, seeded from the scenario's random streams so every UE gets an
independent process.
"""

from __future__ import annotations

import numpy as np

from repro.channel.base import ChannelModel
from repro.channel.fading import FadingChannel
from repro.channel.static import StaticChannel
from repro.registry import CHANNEL_PROFILES


@CHANNEL_PROFILES.register("static")
def _static_profile(rng: np.random.Generator, mean_snr_db: float = 22.0,
                    carrier_ghz: float = 3.75, ue_index: int = 0
                    ) -> ChannelModel:
    """A stationary UE: constant SNR with mild measurement noise."""
    return StaticChannel(snr_db=mean_snr_db, noise_std_db=0.4, rng=rng)


@CHANNEL_PROFILES.register("pedestrian")
def _pedestrian_profile(rng: np.random.Generator, mean_snr_db: float = 22.0,
                        carrier_ghz: float = 3.75, ue_index: int = 0
                        ) -> ChannelModel:
    """Walking-speed fading with occasional shallow fades."""
    return FadingChannel(mean_snr_db=mean_snr_db - 1.0, std_snr_db=3.0,
                         speed_kmh=3.0, carrier_ghz=carrier_ghz, rng=rng,
                         deep_fade_rate=0.05, deep_fade_depth_db=8.0,
                         deep_fade_duration=0.4)


@CHANNEL_PROFILES.register("vehicular")
def _vehicular_profile(rng: np.random.Generator, mean_snr_db: float = 22.0,
                       carrier_ghz: float = 3.75, ue_index: int = 0
                       ) -> ChannelModel:
    """Driving-speed fading with frequent deep fades."""
    return FadingChannel(mean_snr_db=mean_snr_db - 2.0, std_snr_db=5.0,
                         speed_kmh=70.0, carrier_ghz=carrier_ghz, rng=rng,
                         deep_fade_rate=0.15, deep_fade_depth_db=12.0,
                         deep_fade_duration=0.3)


@CHANNEL_PROFILES.register("mobile")
def _mobile_profile(rng: np.random.Generator, mean_snr_db: float = 22.0,
                    carrier_ghz: float = 3.75, ue_index: int = 0
                    ) -> ChannelModel:
    """The paper's mixed population: even UEs pedestrian, odd vehicular."""
    if ue_index % 2 == 0:
        return _pedestrian_profile(rng, mean_snr_db, carrier_ghz)
    return _vehicular_profile(rng, mean_snr_db, carrier_ghz)


def make_channel(profile: str, rng: np.random.Generator,
                 mean_snr_db: float = 22.0,
                 carrier_ghz: float = 3.75,
                 ue_index: int = 0) -> ChannelModel:
    """Create the channel model for one UE under a named condition.

    Args:
        profile: a name registered in :data:`CHANNEL_PROFILES`.
        rng: generator private to this UE.
        mean_snr_db: long-run SNR; the default keeps a lone UE near the
            40 Mbit/s cell capacity of the paper's 20 MHz n78 cell.
        carrier_ghz: cell centre frequency (paper: 3.75 GHz).
        ue_index: for the "mobile" profile, even-indexed UEs become
            pedestrian and odd-indexed vehicular, mirroring the paper's mix.
    """
    builder = CHANNEL_PROFILES.get(profile)
    return builder(rng, mean_snr_db=mean_snr_db, carrier_ghz=carrier_ghz,
                   ue_index=ue_index)
