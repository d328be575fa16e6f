"""Congestion-control senders and receivers.

Packet-level models of the congestion controllers the paper evaluates:

* window-based TCP senders -- :class:`~repro.cc.prague.PragueSender` (L4S),
  :class:`~repro.cc.cubic.CubicSender`, :class:`~repro.cc.reno.RenoSender`
  (classic), :class:`~repro.cc.bbr.BbrSender` and
  :class:`~repro.cc.bbrv2.Bbr2Sender` (rate-probing, the latter L4S-aware);
* application-level, rate-based senders for interactive video --
  :class:`~repro.cc.scream.ScreamSender` and
  :class:`~repro.cc.udp_prague.UdpPragueSender`;
* the matching client-side receivers that generate ACKs with classic-ECN or
  AccECN feedback (:mod:`repro.cc.receiver`).

``make_sender`` / ``make_receiver`` (:mod:`repro.cc.factory`) build a sender
by name, which is how the experiment harnesses select algorithms.
"""

from repro.cc.base import FlowStats, RateSender, Sender, WindowSender
from repro.cc.receiver import ScreamReceiver, TcpReceiver, UdpFeedbackReceiver
from repro.cc.prague import PragueSender
from repro.cc.cubic import CubicSender
from repro.cc.reno import RenoSender
from repro.cc.bbr import BbrSender
from repro.cc.bbrv2 import Bbr2Sender
from repro.cc.scream import ScreamSender
from repro.cc.udp_prague import UdpPragueSender
from repro.cc.factory import is_l4s_algorithm, make_receiver, make_sender

__all__ = [
    "FlowStats",
    "Sender",
    "WindowSender",
    "RateSender",
    "TcpReceiver",
    "UdpFeedbackReceiver",
    "ScreamReceiver",
    "PragueSender",
    "CubicSender",
    "RenoSender",
    "BbrSender",
    "Bbr2Sender",
    "ScreamSender",
    "UdpPragueSender",
    "make_sender",
    "make_receiver",
    "is_l4s_algorithm",
]
