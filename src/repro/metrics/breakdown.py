"""One-way-delay breakdown (paper Fig. 10).

Each downlink packet carries the timestamps stamped by the components it
traversed.  The breakdown splits its one-way delay into:

* **propagation** -- content server to the CU (the wide-area path and core);
* **queuing** -- time from RLC enqueue until the packet reached the head of
  the RLC queue;
* **scheduling** -- time the packet spent at the head of the queue waiting
  for a MAC transmission opportunity;
* **other** -- everything else (F1-U, HARQ/air interface, UE processing).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.net.packet import Packet

#: Builds a breakdown without the named tuple's Python-level ``__new__``.
_tuple_new = tuple.__new__


class DelayBreakdown(NamedTuple):
    """Component delays of one packet (seconds)."""

    propagation: float
    queuing: float
    scheduling: float
    other: float


def breakdown_from_packet(packet: Packet,
                          delivery_time: float) -> DelayBreakdown | None:
    """Compute the delay breakdown of a delivered packet.

    Returns None when the packet is missing the stamps needed (e.g. it never
    went through a RAN).
    """
    stamps = packet.timestamps
    if "rlc_enqueue" not in stamps:
        return None
    sent = packet.sent_time
    cu_ingress = stamps.get("cu_ingress", stamps["rlc_enqueue"])
    rlc_enqueue = stamps["rlc_enqueue"]
    rlc_head = stamps.get("rlc_head", rlc_enqueue)
    rlc_dequeue = stamps.get("rlc_dequeue", rlc_head)
    delivered = stamps.get("ue_delivered", delivery_time)
    propagation = max(0.0, cu_ingress - sent)
    queuing = max(0.0, rlc_head - rlc_enqueue)
    scheduling = max(0.0, rlc_dequeue - rlc_head)
    other = max(0.0, (delivered - rlc_dequeue) + (rlc_enqueue - cu_ingress))
    return _tuple_new(DelayBreakdown,
                      (propagation, queuing, scheduling, other))
