"""PDCP entity: sequence numbering per DRB.

The PDCP layer assigns each downlink SDU a sequence number (the COUNT) that
the RLC's F1-U delivery reports refer back to.  Header compression, ciphering
and integrity protection are irrelevant to queueing behaviour and are not
modelled.
"""

from __future__ import annotations

from typing import Callable

from repro.net.packet import Packet
from repro.ran.identifiers import DrbConfig, DrbId, UeId


class PdcpEntity:
    """Per-DRB sequence numbering and hand-off to the F1-U interface, for
    one attachment (``attach_tag``) of the bearer."""

    def __init__(self, ue_id: UeId, config: DrbConfig,
                 send_downlink: Callable[[UeId, DrbId, int, Packet, str],
                                         None],
                 attach_tag: str = "") -> None:
        self.ue_id = ue_id
        self.config = config
        self.drb_id: DrbId = config.drb_id
        self.attach_tag = attach_tag
        self._send_downlink = send_downlink
        self.next_sn = 0

    def submit(self, packet: Packet) -> None:
        """Assign the next sequence number to ``packet`` and forward it to the DU."""
        sn = self.next_sn
        self.next_sn = sn + 1
        self._send_downlink(self.ue_id, self.drb_id, sn, packet,
                            self.attach_tag)
