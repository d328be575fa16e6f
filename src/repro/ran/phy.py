"""MAC/PHY transmission and HARQ delay model.

Once the RLC hands a transport block to the lower layers, the block incurs:

* a fixed processing-plus-air-interface latency (slot alignment, encoding,
  over-the-air transmission, UE decode), and
* zero or more HARQ retransmissions, each adding one HARQ round-trip
  (~8 ms in the paper's footnote 1), drawn from a geometric process with the
  configured block error rate.

A block that exhausts its HARQ attempts is reported *failed*; the RLC then
either retransmits it (AM) or loses it (UM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim.engine import Simulator
from repro.sim.randomness import block_draws, chance
from repro.units import ms


@dataclass
class AirInterfaceConfig:
    """Tunable constants of the transmission-delay model."""

    base_delay: float = ms(2.0)
    harq_rtt: float = ms(8.0)
    max_harq_attempts: int = 4
    target_bler: float = 0.10
    delivery_jitter: float = ms(0.5)


class AirInterface:
    """Computes per-transport-block delivery outcomes and delays."""

    __slots__ = ("_sim", "config", "_stream_name", "_ue_streams",
                 "transmitted_blocks", "harq_retransmissions", "failed_blocks")

    def __init__(self, sim: Simulator, config: AirInterfaceConfig | None = None,
                 stream_name: str = "air") -> None:
        self._sim = sim
        self.config = config if config is not None else AirInterfaceConfig()
        self._stream_name = stream_name
        # Per-UE (harq, jitter) uniform block draws: transmit() runs once
        # per transport block, so it must neither rebuild stream-name
        # strings nor pay a scalar numpy call per draw.
        self._ue_streams: dict[int, tuple] = {}
        self.transmitted_blocks = 0
        self.harq_retransmissions = 0
        self.failed_blocks = 0

    def _streams_for(self, ue_id: int) -> tuple:
        """Create a UE's draws on its first transport block."""
        streams = self._ue_streams[ue_id] = self._draws(
            f"{self._stream_name}-ue{ue_id}")
        return streams

    def _draws(self, label: str) -> tuple:
        streams = self._sim.random
        return (block_draws(streams.stream(label)),
                block_draws(streams.stream(f"{label}-jitter")))

    def rebind_ue(self, ue_id: int, label: str) -> None:
        """Point a UE's HARQ/jitter draws at a fresh named stream.

        Called on handover re-attachment: the target cell's air interface
        must draw from an attach-qualified stream (``"air-ue3#a1"``) so the
        sequence is identical whether that cell runs in the shared loop or
        on its own shard (where the old stream's draws never happened).
        """
        self._ue_streams[ue_id] = self._draws(label)

    def transmit(self, ue_id: int,
                 on_delivered: Callable[..., None],
                 on_failed: Callable[..., None],
                 payload=None) -> None:
        """Simulate the air-interface fate of one transport block.

        Either ``on_delivered(delivery_time)`` or ``on_failed(failure_time)``
        is scheduled, never both.  When ``payload`` is given it is passed as
        the first callback argument (``on_delivered(payload, time)``), which
        lets per-block callers (the RLC) hand over bound methods instead of
        allocating two closures per transport block.
        """
        cfg = self.config
        self.transmitted_blocks += 1
        harq_draw, jitter_draw = (self._ue_streams.get(ue_id)
                                  or self._streams_for(ue_id))
        bler = cfg.target_bler
        attempts = 1
        while attempts < cfg.max_harq_attempts and chance(harq_draw, bler):
            attempts += 1
            self.harq_retransmissions += 1
        delay = cfg.base_delay + (attempts - 1) * cfg.harq_rtt
        if cfg.delivery_jitter > 0:
            delay += jitter_draw() * cfg.delivery_jitter
        # Only blocks that used up every HARQ attempt can still fail; do not
        # consume a draw from the stream on the common success path.
        final_attempt_failed = (attempts >= cfg.max_harq_attempts
                                and chance(harq_draw, bler))
        if final_attempt_failed:
            self.failed_blocks += 1
            callback = on_failed
        else:
            callback = on_delivered
        if payload is None:
            self._sim.schedule(delay, callback, self._sim.now + delay)
        else:
            self._sim.schedule(delay, callback, payload, self._sim.now + delay)
