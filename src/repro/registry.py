"""Named component registries: the extension points of the simulator.

Every pluggable component family — congestion-control algorithms, in-RAN
markers, channel profiles, MAC schedulers and scenario presets — is
published in a :class:`Registry`.  Components register themselves at
definition time with the :meth:`Registry.register` decorator::

    @CC_SENDERS.register("prague", is_l4s=True)
    class PragueSender(Sender):
        ...

and are looked up by name wherever experiment configs, CLI flags or JSON
scenario specs select them::

    sender_cls = CC_SENDERS.get("prague")
    CC_SENDERS.flag("prague", "is_l4s")     # -> True
    CC_SENDERS.names()                      # CLI ``choices=``

Capability flags (``is_l4s``, ``is_udp``, ...) live in the registry metadata
instead of parallel frozensets, so adding an algorithm is a single decorated
class definition — the factories, the CLI and the spec validator all pick it
up automatically.

Registries are deliberately import-light: this module depends on nothing
inside :mod:`repro`, and a registry only knows names, objects and metadata.
Modules that *define* components import the registry; modules that *consume*
components import the defining modules (usually via the façade factories in
``repro.cc.factory``, ``repro.core.factory`` and ``repro.channel.profiles``)
so registration has happened by lookup time.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, TypeVar

T = TypeVar("T")


class UnknownComponentError(KeyError, ValueError):
    """Lookup of a name no component registered under.

    Subclasses both :class:`KeyError` and :class:`ValueError`, so a caller
    may catch either: a failed lookup is a missing key and a bad value.
    """

    def __init__(self, kind: str, name: str, choices: list[str]) -> None:
        self.kind = kind
        self.name = name
        self.choices = choices
        super().__init__(
            f"unknown {kind} {name!r}; choose from {sorted(choices)}")

    def __str__(self) -> str:  # KeyError.__str__ repr()s the message
        return self.args[0]

    def __reduce__(self):
        # BaseException pickles via ``args``, which holds the formatted
        # message, not the constructor signature; rebuild from the parts so
        # the error survives the worker -> coordinator hop of a sweep.
        return (UnknownComponentError, (self.kind, self.name, self.choices))


class Registry:
    """A name -> component mapping with metadata.

    Args:
        kind: human-readable component family name ("congestion control",
            "marker", ...), used in error messages.

    Components are any Python object — classes, factory callables, plain
    functions — each under exactly one name, matched exactly, with
    arbitrary keyword metadata.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}
        self._metadata: dict[str, dict[str, Any]] = {}

    def register(self, name: str, **metadata: Any) -> Callable[[T], T]:
        """Decorator: register the decorated object under ``name``.

        Example::

            @MARKERS.register("none")
            def _build_noop(sim, **_):
                return NoopMarker()
        """
        def decorator(obj: T) -> T:
            self.add(name, obj, **metadata)
            return obj
        return decorator

    def add(self, name: str, obj: Any, **metadata: Any) -> None:
        """Imperatively register ``obj`` under ``name``."""
        if name in self._entries:
            raise ValueError(f"duplicate {self.kind} registration {name!r}")
        self._entries[name] = obj
        self._metadata[name] = dict(metadata)

    def _check(self, name: str) -> str:
        if name not in self:
            raise UnknownComponentError(self.kind, name, self.names())
        return name

    def get(self, name: str) -> Any:
        """The component registered under ``name``.

        Raises :class:`UnknownComponentError` for unregistered names.
        """
        return self._entries[self._check(name)]

    def flag(self, name: str, flag: str, default: Any = False) -> Any:
        """One metadata value, defaulting when the key was never set."""
        return self._metadata[self._check(name)].get(flag, default)

    def names(self) -> list[str]:
        """Sorted registered names — ready for ``argparse`` ``choices=``."""
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return isinstance(name, str) and name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {self.names()})"


# --------------------------------------------------------------------------- #
# The simulator's component families.
# --------------------------------------------------------------------------- #

#: Congestion-control sender classes.  Metadata: ``is_l4s`` (traffic is
#: classified into the L4S service and sets ECT(1)), ``is_udp`` (no TCP ACK
#: stream to short-circuit).  Registered in ``repro.cc.*`` at class
#: definition; the matching receiver is built by ``repro.cc.factory``.
CC_SENDERS = Registry("congestion control")

#: In-RAN marker builders ``(sim, *, l4span_config=None) -> RanMarker``.
#: Registered next to each marker implementation in ``repro.core.*`` /
#: ``repro.ran.marker``.
MARKERS = Registry("marker")

#: Channel-profile builders
#: ``(rng, *, mean_snr_db, carrier_ghz, ue_index) -> ChannelModel``.
#: Registered in ``repro.channel.profiles``.
CHANNEL_PROFILES = Registry("channel profile")

#: MAC scheduler policies (``repro.ran.scheduling.SchedulerPolicy`` members).
SCHEDULERS = Registry("scheduler")

#: Named scenario presets ``() -> ScenarioSpec`` (``repro.experiments.presets``).
SCENARIO_PRESETS = Registry("scenario preset")
