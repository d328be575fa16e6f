"""Build in-RAN markers by name, the way experiment configs select them.

The marker builders themselves are registered in
:data:`repro.registry.MARKERS`, each next to its implementation
(``repro.ran.marker`` for the no-op baseline, ``repro.core.l4span`` /
``tcran`` / ``ran_dualpi2`` for the real strategies).  This module imports
them all so registration has happened, and provides ``make_marker``,
the one call that builds a marker by name.
"""

from __future__ import annotations

from typing import Optional

# Importing the marker modules triggers their registration.
import repro.core.l4span       # noqa: F401
import repro.core.ran_dualpi2  # noqa: F401
import repro.core.tcran        # noqa: F401
import repro.ran.marker        # noqa: F401
from repro.core.config import L4SpanConfig
from repro.ran.marker import RanMarker
from repro.registry import MARKERS
from repro.sim.engine import Simulator


def marker_names() -> list[str]:
    """Registered marker names (CLI ``choices=``, spec validation)."""
    return MARKERS.names()


def make_marker(name: str, sim: Simulator,
                l4span_config: Optional[L4SpanConfig] = None) -> RanMarker:
    """Instantiate the marker registered under ``name``."""
    builder = MARKERS.get(name)
    return builder(sim, l4span_config=l4span_config)
