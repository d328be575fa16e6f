"""Active queue management algorithms.

``repro.aqm`` contains the wired-network AQMs the paper uses as context and
baselines:

* :class:`~repro.aqm.codel.CoDel` and :class:`~repro.aqm.codel.EcnCoDel` --
  the qdiscs TC-RAN deploys between SDAP and PDCP.
* :class:`~repro.aqm.dualpi2.DualPi2Router` -- the dual-queue coupled AQM
  (RFC 9332) deployed by wired L4S routers, used in the motivation experiment.
* :class:`~repro.aqm.step.StepMarker` -- mark-all-above-threshold, the
  "DualPi2 with a sojourn threshold" strategy that §6.3.1 shows is unsuitable
  for the RAN.
"""
