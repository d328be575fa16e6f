"""L4Span reproduction library.

This package reproduces the system described in "L4Span: Spanning Congestion
Signaling over NextG Networks for Interactive Applications" (CoNEXT 2025) as a
pure-Python, discrete-event simulation:

* :mod:`repro.sim` -- the discrete-event engine.
* :mod:`repro.net` -- packets, headers, ECN codepoints, links and queues.
* :mod:`repro.aqm` -- wired AQM algorithms (CoDel, DualPi2, ...).
* :mod:`repro.channel` -- radio channel models with coherence-time structure.
* :mod:`repro.ran` -- the 5G RAN substrate (SDAP/PDCP/RLC/MAC, F1-U feedback).
* :mod:`repro.cc` -- congestion-control senders (Prague, CUBIC, BBRv2, ...).
* :mod:`repro.core` -- the L4Span layer itself and its in-RAN baselines.
* :mod:`repro.workloads`, :mod:`repro.metrics`, :mod:`repro.experiments` --
  traffic generators, measurement collectors and the paper's figure table.

Quickstart (the stable public surface is :mod:`repro.api`)::

    import repro.api as api

    result = api.run(api.ScenarioSpec(num_ues=4, duration_s=5.0,
                                      cc_name="prague", marker="l4span"))
    print(result.summary())
"""

from repro.version import __version__  # noqa: F401
