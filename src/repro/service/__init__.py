"""The scenario service: a long-lived HTTP front end over the runtime.

``python -m repro serve`` boots
:class:`~repro.service.server.ScenarioService`; clients submit
:class:`~repro.experiments.spec.ScenarioSpec` documents (or preset names)
over ``POST /runs``, poll ``GET /runs/{id}``, stream live progress from
``GET /runs/{id}/events`` and query past runs from the persistent archive
behind ``GET /runs``.  See ``docs/service.md`` for the API reference.

The package splits along responsibility lines:

* :mod:`repro.service.archive` — the on-disk run archive (JSON-lines
  index plus one canonical result document per run).
* :mod:`repro.service.jobs` — request parsing, the run queue and its
  worker pool under the core-budget arbiter, live progress fan-out.
* :mod:`repro.service.server` — the stdlib HTTP layer mapping routes
  onto the two modules above.
"""
