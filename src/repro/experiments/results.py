"""The canonical, schema-versioned scenario result document.

Every machine-readable surface of the repo — the CLI's ``--json`` output,
the run archive under ``.repro_runs/`` and the scenario service's
``GET /runs/{id}`` endpoint — emits the *same* document, produced by
:func:`result_document` and serialized by :func:`dump_document`.  For a
given spec and seed the three surfaces are **byte-identical**: the document
contains no wall-clock timestamps, hostnames or other run-environment
state, keys are emitted sorted, and non-finite floats are canonicalized to
``null``.  Anything environment-specific (submission time, who ran it)
lives in the archive's *index*, never in the document.

The document carries ``schema_version`` so consumers can reject documents
they do not understand instead of mis-parsing them; :func:`check_document`
is the shared gatekeeper and :func:`result_schema` describes the current
layout field by field (``docs/service.md`` documents the version policy).

Version history:

* **1** — initial layout: ``spec`` (the full scenario spec dict),
  ``summary``, per-flow metric summaries, delay breakdown, marker summary,
  per-UE throughput, queue statistics, handover records, sharding stats and
  background-population counters.
"""

from __future__ import annotations

import json
import math

from repro.metrics.stats import summarize
from repro.units import to_mbps

#: Version stamped into (and required from) every result document.
SCHEMA_VERSION = 1

#: Versions this checkout knows how to read.
SUPPORTED_SCHEMA_VERSIONS = (1,)

#: The ``kind`` discriminator stamped into scenario result documents.
DOCUMENT_KIND = "scenario-result"


def _clean(value):
    """Canonicalize a plain-data tree for deterministic JSON.

    Non-finite floats become ``None`` (strict JSON has no ``NaN``), tuples
    become lists and dict keys become strings — exactly the normalisation
    ``json.dumps``/``json.loads`` would apply, performed eagerly so the
    in-memory document equals its own round trip.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(key): _clean(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(item) for item in value]
    return value


def _delay_summary_ms(samples) -> dict:
    """A compact millisecond summary of a delay-sample stream."""
    stats = summarize(samples)
    return {key: (value * 1e3 if key != "count" else value)
            for key, value in stats.items()}


def flow_document(flow) -> dict:
    """The per-flow section of the result document."""
    return {
        "flow_id": flow.flow_id,
        "ue_id": flow.ue_id,
        "cc_name": flow.cc_name,
        "label": flow.label,
        "goodput_mbps": flow.goodput_mbps,
        "completion_time_s": flow.completion_time,
        "congestion_events": flow.congestion_events,
        "marked_fraction": flow.marked_fraction,
        "owd_ms": _delay_summary_ms(flow.owd_samples),
        "rtt_ms": _delay_summary_ms(flow.rtt_samples),
    }


def result_document(result) -> dict:
    """Build the canonical document for a ScenarioResult.

    Pure in the result: two identical runs (same spec, same seed) yield
    equal documents, and :func:`dump_document` serializes equal documents
    to identical bytes.
    """
    queue_samples = result.queue_length_samples
    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": DOCUMENT_KIND,
        "label": result.config.label(),
        "spec": result.config.to_dict(),
        "summary": result.summary(),
        "flows": [flow_document(flow) for flow in result.flows],
        "delay_breakdown": dict(result.delay_breakdown),
        "marker_summary": dict(result.marker_summary),
        "per_ue_throughput_mbps": {
            str(ue_id): to_mbps(rate)
            for ue_id, rate in sorted(result.per_ue_throughput.items())},
        "queue": {
            "samples": len(queue_samples),
            "mean_sdus": (sum(queue_samples) / len(queue_samples)
                          if queue_samples else 0.0),
            "max_sdus": max(queue_samples, default=0),
        },
        "rate_estimation": summarize(result.rate_estimation_errors),
        "handovers": list(result.handovers),
        "sharding": dict(result.sharding_stats),
        "background": dict(result.background),
        "duration_s": result.duration_s,
        "events_processed": result.events_processed,
    }
    return _clean(document)


def dump_document(document: dict) -> str:
    """The one true serialization: sorted keys, 2-space indent, newline.

    The CLI prints exactly this text, the archive stores exactly this text
    and the service responds with exactly this text, which is what makes
    the byte-identity contract testable with a plain string comparison.
    """
    return json.dumps(document, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def check_document(document: dict) -> dict:
    """Validate a document's envelope; return it unchanged.

    Raises :class:`ValueError` with an actionable message when the
    document is not a result document or was written by a schema version
    this checkout does not understand.
    """
    if not isinstance(document, dict):
        raise ValueError("a result document must be a JSON object, got "
                         f"{type(document).__name__}")
    version = document.get("schema_version")
    if version is None:
        raise ValueError(
            "document has no 'schema_version' field; it predates the "
            "versioned result schema (or is not a result document) — "
            "re-run the scenario to regenerate it")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)
        raise ValueError(
            f"document schema_version {version!r} is not supported by this "
            f"checkout (understands: {supported}); upgrade the repo to read "
            "newer documents, or re-run the scenario with this version to "
            "regenerate older ones")
    return document


def result_schema() -> dict:
    """A JSON-Schema description of the current result document layout.

    Served by the scenario service at ``GET /schema`` and cross-checked
    against :func:`result_document`'s actual output by the test suite, so
    the description cannot drift from the implementation.
    """
    delay_summary = {
        "type": "object",
        "description": "millisecond summary of a delay-sample stream "
                       "(count, mean, median, p10, p90, min, max; "
                       "only 'count' when no samples were collected)",
    }
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "repro scenario result document",
        "type": "object",
        "required": ["schema_version", "kind", "label", "spec", "summary",
                     "flows", "delay_breakdown", "marker_summary",
                     "per_ue_throughput_mbps", "queue", "rate_estimation",
                     "handovers", "sharding", "background", "duration_s",
                     "events_processed"],
        "properties": {
            "schema_version": {"const": SCHEMA_VERSION},
            "kind": {"const": DOCUMENT_KIND},
            "label": {"type": "string",
                      "description": "the spec's human-readable label"},
            "spec": {"type": "object",
                     "description": "the full ScenarioSpec (to_dict form) "
                                    "that produced this result"},
            "summary": {"type": "object",
                        "description": "the scenario-level summary row "
                                       "(ScenarioResult.summary())"},
            "flows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["flow_id", "ue_id", "cc_name", "label",
                                 "goodput_mbps", "completion_time_s",
                                 "congestion_events", "marked_fraction",
                                 "owd_ms", "rtt_ms"],
                    "properties": {
                        "flow_id": {"type": "integer"},
                        "ue_id": {"type": "integer"},
                        "cc_name": {"type": "string"},
                        "label": {"type": "string"},
                        "goodput_mbps": {"type": "number"},
                        "completion_time_s": {"type": ["number", "null"]},
                        "congestion_events": {"type": "integer"},
                        "marked_fraction": {"type": "number"},
                        "owd_ms": delay_summary,
                        "rtt_ms": delay_summary,
                    },
                },
            },
            "delay_breakdown": {
                "type": "object",
                "description": "mean per-packet delay share by pipeline "
                               "stage, seconds"},
            "marker_summary": {
                "type": "object",
                "description": "marker counters merged across cells"},
            "per_ue_throughput_mbps": {
                "type": "object",
                "description": "mean received rate per UE id (keys are "
                               "stringified UE ids)"},
            "queue": {
                "type": "object",
                "required": ["samples", "mean_sdus", "max_sdus"],
                "description": "RLC queue-occupancy statistics across "
                               "bearers"},
            "rate_estimation": {
                "type": "object",
                "description": "summary of the rate-probe's percentage "
                               "errors (only 'count' unless the spec set "
                               "rate_probe)"},
            "handovers": {
                "type": "array",
                "description": "one record per executed handover; empty "
                               "without mobility"},
            "sharding": {
                "type": "object",
                "description": "shard-synchronizer statistics; empty for "
                               "single-loop runs"},
            "background": {
                "type": "object",
                "description": "background-population counters summed "
                               "over cells (n_background, granted_prb_slots, "
                               "served_bytes, active_ue_seconds, "
                               "kernel_steps); empty without a population "
                               "block"},
            "duration_s": {"type": "number"},
            "events_processed": {"type": "integer"},
        },
    }
