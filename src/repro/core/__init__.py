"""L4Span: the paper's primary contribution, plus its in-RAN baselines.

* :class:`~repro.core.l4span.L4SpanLayer` -- the marking layer attached to
  the CU-UP: packet profile table, egress-rate / sojourn-time prediction,
  class-aware ECN marking and uplink feedback short-circuiting.
* :class:`~repro.core.tcran.TcRanMarker` -- the TC-RAN baseline (CoDel /
  ECN-CoDel with fixed thresholds inside the RAN).
* :class:`~repro.core.ran_dualpi2.RanDualPi2Marker` -- the "DualPi2 dropped
  into the RAN" baseline of §6.3.1 (hard sojourn threshold, PI² for classic).
* :func:`~repro.core.factory.make_marker` -- build any of the above by name.
"""
