"""Unit conversion helpers.

All simulation times are plain ``float`` seconds and all data sizes are
``int`` bytes.  These helpers exist so that experiment code can speak the
paper's units (milliseconds, megabits per second) without sprinkling magic
constants.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Optional

BYTES_PER_KILOBYTE = 1_000
BYTES_PER_MEGABYTE = 1_000_000
BITS_PER_BYTE = 8


def ms(milliseconds: float) -> float:
    """Convert milliseconds to seconds."""
    return milliseconds / 1e3


def us(microseconds: float) -> float:
    """Convert microseconds to seconds."""
    return microseconds / 1e6


def seconds_to_ms(seconds: float) -> float:
    """Convert seconds to milliseconds."""
    return seconds * 1e3


def seconds_to_us(seconds: float) -> float:
    """Convert seconds to microseconds."""
    return seconds * 1e6


def mbps(megabits_per_second: float) -> float:
    """Convert Mbit/s to bytes per second."""
    return megabits_per_second * 1e6 / BITS_PER_BYTE


def kbps(kilobits_per_second: float) -> float:
    """Convert kbit/s to bytes per second."""
    return kilobits_per_second * 1e3 / BITS_PER_BYTE


def to_mbps(bytes_per_second: float) -> float:
    """Convert bytes per second to Mbit/s."""
    return bytes_per_second * BITS_PER_BYTE / 1e6


def to_kbps(bytes_per_second: float) -> float:
    """Convert bytes per second to kbit/s."""
    return bytes_per_second * BITS_PER_BYTE / 1e3


def kib(kibibytes: float) -> int:
    """Convert KiB to bytes."""
    return int(kibibytes * 1024)


def transmission_time(size_bytes: int, rate_bytes_per_s: float) -> float:
    """Serialisation delay of ``size_bytes`` at ``rate_bytes_per_s``.

    Returns ``float('inf')`` when the rate is zero, which callers treat as
    "cannot transmit right now".
    """
    if rate_bytes_per_s <= 0:
        return float("inf")
    return size_bytes / rate_bytes_per_s


#: What a float field without a declared domain must be.
FINITE = "a finite number"


class Domain:
    """The legal values of one numeric spec field: ``low`` to ``high``,
    each edge open or closed (an infinite one is open: NaN and ±inf fall
    outside), and None if ``nullable`` (a field whose default is None).
    Calling it declares a field; ``text`` is its error and doc text."""

    __slots__ = ("low", "high", "low_open", "high_open", "integer", "nullable")

    def __init__(self, low: float, high: float = math.inf,
                 low_open: bool = False, high_open: bool = True,
                 integer: bool = False, nullable: bool = False) -> None:
        self.low, self.high, self.low_open = low, high, low_open
        self.high_open, self.integer, self.nullable = (
            high_open, integer, nullable)

    def __contains__(self, value: Optional[float]) -> bool:
        if value is None:
            return self.nullable
        return ((self.low < value if self.low_open else self.low <= value)
                and (value < self.high if self.high_open
                     else value <= self.high))

    def __call__(self, default: Any = dataclasses.MISSING) -> Any:
        domain = Domain(self.low, self.high, self.low_open, self.high_open,
                        self.integer, nullable=default is None)
        return dataclasses.field(default=default, metadata={"domain": domain})

    @property
    def text(self) -> str:
        if self.integer:
            return f"an integer >= {self.low}"
        if self.high == math.inf:
            return f"{FINITE} {'>' if self.low_open else '>='} {self.low:g}"
        return (f"{FINITE} in {'(' if self.low_open else '['}{self.low:g}, "
                f"{self.high:g}{')' if self.high_open else ']'}")


#: Declare a field as ``duration_s: float = positive(5.0)``.
positive = Domain(0.0, low_open=True)
non_negative = Domain(0.0)


def unit_interval(default: float, low_open: bool = False,
                  high_open: bool = False) -> Any:
    """A dataclass field that takes a fraction in [0, 1], edges as given."""
    return Domain(0.0, 1.0, low_open, high_open)(default)


def at_least(minimum: int, default: Any = dataclasses.MISSING) -> Any:
    """A dataclass field that takes an integer >= ``minimum``."""
    return Domain(minimum, integer=True)(default)
