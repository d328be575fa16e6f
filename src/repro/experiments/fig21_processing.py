"""Fig. 21 -- L4Span per-event processing time.

Enables wall-clock instrumentation of the three L4Span handlers (downlink
packet, uplink packet, RAN feedback) during a busy multi-UE run and reports
their processing-time distributions.  Absolute numbers are Python-level --
roughly 6-12 microseconds per call depending on the host, a quarter to a half
less than before the marker fast path (docs/architecture.md) -- where the
paper's C++ prototype finishes in 1-4; the relevant comparison is the
relative cost of the three event types and the per-packet constancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import L4SpanConfig
from repro.api import ScenarioSpec
from repro.experiments.scenario import build_scenario
from repro.metrics.stats import cdf_points, percentile, summarize


@dataclass
class ProcessingConfig:
    """Scaled-down processing-time experiment."""

    num_ues: int = 4
    cc_name: str = "prague"
    duration_s: float = 4.0
    seed: int = 53


def run_fig21(config: Optional[ProcessingConfig] = None) -> list[dict]:
    """Measure handler processing times; one row per event type."""
    config = config if config is not None else ProcessingConfig()
    scenario = ScenarioSpec(
        num_ues=config.num_ues, duration_s=config.duration_s,
        cc_name=config.cc_name, marker="l4span",
        l4span_config=L4SpanConfig(measure_processing=True),
        seed=config.seed)
    built = build_scenario(scenario)
    built.run()
    rows = []
    for event_type, samples in built.marker.processing_times.items():
        micros = [s * 1e6 for s in samples]
        rows.append({
            "event": event_type,
            "count": len(micros),
            "median_us": percentile(micros, 50) if micros else float("nan"),
            "p97_us": percentile(micros, 97) if micros else float("nan"),
            "summary": summarize(micros),
            "cdf": cdf_points(micros, max_points=50),
        })
    return rows
