"""Identifiers and per-bearer configuration used across the RAN.

A *Data Radio Bearer* (DRB) is the logical channel spanning 5GC -> SDAP ->
PDCP -> RLC -> UE.  Each UE owns one or more DRBs; L4Span indexes its packet
profile table by (UE, DRB).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

#: Type aliases -- plain ints keep dictionary keys cheap, the aliases keep
#: signatures readable.
UeId = int
DrbId = int
QosFlowId = int

#: Default srsRAN RLC transmission-queue capacity, in SDUs (paper §6.2.1).
DEFAULT_RLC_QUEUE_SDUS = 16_384

#: The alternative shallow configuration evaluated in Fig. 9 (c, d, g, h).
SHORT_RLC_QUEUE_SDUS = 256


class RlcMode(enum.Enum):
    """RLC operating mode for a DRB.

    ``AM`` (acknowledged) retransmits lost SDUs and reports both transmitted
    and delivered sequence numbers over F1-U; ``UM`` (unacknowledged) omits
    retransmission and delivery feedback.  L4Span only relies on the transmit
    timestamps, which both modes provide (paper §4.3.1-§4.3.2).
    """

    AM = "am"
    UM = "um"


class DrbServiceClass(enum.Enum):
    """Which traffic class a DRB carries when the UE supports multiple DRBs."""

    L4S = "l4s"
    CLASSIC = "classic"
    MIXED = "mixed"


@dataclass
class DrbConfig:
    """Configuration of one data radio bearer.

    Attributes:
        drb_id: bearer identifier, unique within a UE.
        rlc_mode: acknowledged or unacknowledged RLC.
        max_queue_sdus: RLC transmission-queue capacity in SDUs.
        service_class: the traffic class this DRB is provisioned for; used by
            SDAP when a UE keeps L4S and classic flows on separate bearers.
    """

    drb_id: DrbId
    rlc_mode: RlcMode = RlcMode.AM
    max_queue_sdus: int = DEFAULT_RLC_QUEUE_SDUS
    service_class: DrbServiceClass = DrbServiceClass.MIXED


class DrbKey(NamedTuple):
    """Dictionary key addressing one DRB of one UE.

    A named tuple, so it hashes in C and equals the bare ``(ue_id, drb_id)``
    pair: per-packet lookups pass that pair instead of building a key.
    """

    ue_id: UeId
    drb_id: DrbId

    def __str__(self) -> str:
        return f"ue{self.ue_id}/drb{self.drb_id}"
