"""Cell-level radio configuration and capacity accounting.

The paper's testbed cell is TDD band n78, 3750 MHz centre frequency, 20 MHz
bandwidth with 30 kHz subcarrier spacing, yielding roughly a 40 Mbit/s
downlink capacity.  :class:`CellConfig` captures those numbers and converts a
spectral efficiency (bits per resource element, from the channel model) into
transport-block bytes per slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import at_least, positive, to_mbps, unit_interval


@dataclass
class CellConfig:
    """Static configuration of the simulated cell.

    Attributes:
        bandwidth_mhz: carrier bandwidth, a :meth:`describe` label only.
        subcarrier_spacing_khz: numerology (30 kHz -> 0.5 ms slots).
        num_prb: physical resource blocks available per slot (51 for
            20 MHz / 30 kHz).
        tdd_dl_fraction: fraction of slots (equivalently, of resources)
            usable for downlink data in the TDD pattern.
        overhead: fraction of resource elements consumed by control channels,
            reference signals and other overhead.
        efficiency_backoff: implementation-loss factor accounting for SISO
            operation, link-adaptation margin and scheduler quantisation;
            calibrated so a single good-channel UE sees roughly the paper's
            40 Mbit/s.
        slot_duration: derived slot length in seconds.
    """

    bandwidth_mhz: float = positive(20.0)
    subcarrier_spacing_khz: int = at_least(1, 30)
    num_prb: int = at_least(1, 51)
    tdd_dl_fraction: float = unit_interval(0.6, low_open=True)
    overhead: float = unit_interval(0.14, high_open=True)
    efficiency_backoff: float = positive(0.65)
    carrier_ghz: float = positive(3.75)

    #: Resource elements per PRB per slot: 12 subcarriers x 14 OFDM symbols.
    RE_PER_PRB_PER_SLOT = 12 * 14

    @property
    def slot_duration(self) -> float:
        """Slot length in seconds (1 ms / 2^mu for numerology mu)."""
        return 0.001 * 15.0 / self.subcarrier_spacing_khz

    def bytes_per_prb(self, efficiency: float) -> float:
        """Usable transport-block bytes one PRB carries in one slot."""
        usable_re = self.RE_PER_PRB_PER_SLOT * (1.0 - self.overhead)
        bits = usable_re * efficiency * self.efficiency_backoff
        return bits * self.tdd_dl_fraction / 8.0

    def slot_capacity_bytes(self, efficiency: float,
                            num_prb: int | None = None) -> int:
        """Transport-block bytes available in one slot at ``efficiency``."""
        prbs = self.num_prb if num_prb is None else num_prb
        return int(prbs * self.bytes_per_prb(efficiency))

    def peak_rate_bytes_per_s(self, efficiency: float = 6.8) -> float:
        """Sustained downlink rate at a given efficiency, bytes per second."""
        return self.slot_capacity_bytes(efficiency) / self.slot_duration

    def peak_rate_mbps(self, efficiency: float = 6.8) -> float:
        """Sustained downlink rate in Mbit/s (defaults to CQI-14 efficiency)."""
        return to_mbps(self.peak_rate_bytes_per_s(efficiency))

    def describe(self) -> str:
        """One-line human-readable summary used in experiment reports."""
        return (f"{self.bandwidth_mhz:.0f} MHz @ {self.subcarrier_spacing_khz} kHz SCS, "
                f"{self.num_prb} PRB, peak ~{self.peak_rate_mbps():.1f} Mbit/s DL")
