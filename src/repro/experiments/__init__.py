"""Scenario building, running and sweeping, and the paper's figure table.

:mod:`repro.experiments.scenario` provides the generic scenario builder
(server <-> WAN <-> 5G core <-> gNB(+marker) <-> UEs <-> flows) that every
experiment configures; :mod:`repro.experiments.figures` holds the paper's
figures and tables as one table of sweep grids, each run through
:class:`~repro.experiments.runner.SweepRunner` by ``run_figure``.
"""
