"""Discrete-event simulation engine used by every substrate in the library."""

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.randomness import RandomStreams

__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "RandomStreams",
]
