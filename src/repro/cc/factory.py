"""Factory for congestion-control senders and their matching receivers.

Experiment code selects algorithms by name ("prague", "cubic", ...), exactly
as the paper's evaluation tables do.  The algorithms themselves live in the
:data:`repro.registry.CC_SENDERS` registry — each sender class registers
itself (with its capability flags) at definition time, and this module merely
imports them all so registration has happened, then answers lookups.

``make_sender`` instantiates the sender and ``make_receiver`` builds the
appropriate client-side receiver (TCP with classic or AccECN feedback,
per-packet UDP feedback, or SCReAM's periodic RTCP-style feedback), selected
by the ``receiver`` metadata flag of the registered sender.
"""

from __future__ import annotations

from typing import Callable, Optional

# Importing the sender modules triggers their registration.
import repro.cc.bbr      # noqa: F401
import repro.cc.bbrv2    # noqa: F401
import repro.cc.cubic    # noqa: F401
import repro.cc.prague   # noqa: F401
import repro.cc.reno     # noqa: F401
import repro.cc.scream   # noqa: F401
import repro.cc.udp_prague  # noqa: F401
from repro.cc.base import Sender
from repro.cc.receiver import ScreamReceiver, TcpReceiver, UdpFeedbackReceiver
from repro.net.addresses import FiveTuple
from repro.net.base import PacketSink
from repro.net.packet import Packet
from repro.registry import CC_SENDERS
from repro.sim.engine import Simulator

#: Receiver kinds selectable through the ``receiver`` registry flag.
_RECEIVERS = {
    "scream": ScreamReceiver,
    "udp": UdpFeedbackReceiver,
}


def is_udp_algorithm(name: str) -> bool:
    """True when the named algorithm runs over UDP."""
    return bool(CC_SENDERS.flag(name, "is_udp"))


def make_sender(name: str, sim: Simulator, flow_id: int,
                five_tuple: FiveTuple, path: PacketSink,
                flow_bytes: Optional[int] = None, **kwargs) -> Sender:
    """Instantiate the sender for algorithm ``name``."""
    cls = CC_SENDERS.get(name)
    return cls(sim, flow_id, five_tuple, path, flow_bytes=flow_bytes, **kwargs)


def make_receiver(name: str, sim: Simulator, flow_id: int,
                  send_feedback: Callable[[Packet], None],
                  owd_callback: Optional[Callable[[float, Packet], None]] = None):
    """Instantiate the matching receiver for algorithm ``name``."""
    kind = CC_SENDERS.flag(name, "receiver", default="tcp")
    receiver_cls = _RECEIVERS.get(kind)
    if receiver_cls is not None:
        return receiver_cls(sim, flow_id, send_feedback,
                            owd_callback=owd_callback)
    accecn = CC_SENDERS.get(name).uses_accecn
    return TcpReceiver(sim, flow_id, send_feedback, accecn=accecn,
                       owd_callback=owd_callback)
