"""Flow identification: the classic five-tuple.

L4Span keeps a mapping from the downlink five-tuple to the (UE, DRB) pair so
that an uplink ACK can be reverse-mapped to the DRB whose marking state it
should carry (paper §4.1, Fig. 22/23 pseudocode).
"""

from __future__ import annotations

from typing import NamedTuple


class FiveTuple(NamedTuple):
    """Source/destination addresses and ports plus the transport protocol.

    A named tuple: instances key the five-tuple -> flow maps on every packet,
    so they hash and compare in C rather than through generated Python.
    """

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: str = "tcp"

    def reversed(self) -> "FiveTuple":
        """The five-tuple of traffic flowing in the opposite direction."""
        return FiveTuple(self.dst_ip, self.dst_port, self.src_ip,
                         self.src_port, self.protocol)

    def __str__(self) -> str:
        return (f"{self.protocol}:{self.src_ip}:{self.src_port}->"
                f"{self.dst_ip}:{self.dst_port}")


#: UE ids the client address space holds: 250 hosts (``.2`` - ``.251``) in
#: each of the 256 ``10.45.x.0/24`` subnets.
UE_ADDRESS_SPACE = 250 * 256


def ue_ip_address(ue_id: int) -> str:
    """The client IP a UE's flows terminate at: ``10.45.0.{ue_id + 2}`` for
    ids below 250, the next /24 for the next 250, and so on.

    Injective on ``[0, UE_ADDRESS_SPACE)`` — like a 5G core handing every
    PDU session its own address — and a pure function of the UE id, so the
    sharded runtime can rebuild the address map without building scenarios.
    """
    return f"10.45.{ue_id // 250}.{ue_id % 250 + 2}"


def make_flow_tuple(flow_id: int, protocol: str = "tcp") -> FiveTuple:
    """Build a deterministic downlink five-tuple for a synthetic flow.

    The server always uses port 443; each flow gets its own UE address and
    client port derived from ``flow_id`` so tuples never collide.
    """
    return FiveTuple(src_ip="10.0.0.1", src_port=443,
                     dst_ip=ue_ip_address(flow_id),
                     dst_port=50_000 + flow_id, protocol=protocol)
