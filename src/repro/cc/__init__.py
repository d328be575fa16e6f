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
