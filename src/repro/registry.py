"""Named component registries: the extension points of the simulator.

Every pluggable component family — congestion-control algorithms, in-RAN
markers, channel profiles, MAC schedulers, workload generators and scenario
presets — is published in a :class:`Registry`.  Components register
themselves at definition time with the :meth:`Registry.register` decorator::

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

    Subclasses both :class:`KeyError` and :class:`ValueError` so call sites
    written against the historical factories (dict-backed ``KeyError`` for
    algorithms/markers, ``ValueError`` for channel profiles) keep working
    unchanged.
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
    """A case-insensitive name -> component mapping with metadata.

    Args:
        kind: human-readable component family name ("congestion control",
            "marker", ...), used in error messages.

    Components are any Python object — classes, factory callables, plain
    functions.  Each primary name may carry aliases (which resolve to the
    same entry) and arbitrary keyword metadata.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}
        self._metadata: dict[str, dict[str, Any]] = {}
        self._aliases: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, *aliases: str,
                 **metadata: Any) -> Callable[[T], T]:
        """Decorator: register the decorated object under ``name``.

        Example::

            @MARKERS.register("none", "off", "baseline")
            def _build_noop(sim, **_):
                return NoopMarker()
        """
        def decorator(obj: T) -> T:
            self.add(name, obj, *aliases, **metadata)
            return obj
        return decorator

    def add(self, name: str, obj: Any, *aliases: str,
            **metadata: Any) -> None:
        """Imperatively register ``obj`` under ``name`` (plus aliases)."""
        key = self._canonical(name)
        if key in self._entries or key in self._aliases:
            raise ValueError(f"duplicate {self.kind} registration {name!r}")
        self._entries[key] = obj
        self._metadata[key] = dict(metadata)
        for alias in aliases:
            alias_key = self._canonical(alias)
            if alias_key in self._entries or alias_key in self._aliases:
                raise ValueError(
                    f"duplicate {self.kind} registration {alias!r}")
            self._aliases[alias_key] = key

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    @staticmethod
    def _canonical(name: str) -> str:
        return str(name).strip().lower()

    def resolve(self, name: str) -> str:
        """The primary name ``name`` maps to (aliases resolved).

        Raises :class:`UnknownComponentError` for unregistered names.
        """
        key = self._canonical(name)
        key = self._aliases.get(key, key)
        if key not in self._entries:
            raise UnknownComponentError(self.kind, name, self.names())
        return key

    def get(self, name: str) -> Any:
        """The component registered under ``name`` (or one of its aliases)."""
        return self._entries[self.resolve(name)]

    def flag(self, name: str, flag: str, default: Any = False) -> Any:
        """One metadata value, defaulting when the key was never set."""
        return self._metadata[self.resolve(name)].get(flag, default)

    def names(self, include_aliases: bool = False) -> list[str]:
        """Sorted registered names — ready for ``argparse`` ``choices=``."""
        names = set(self._entries)
        if include_aliases:
            names |= set(self._aliases)
        return sorted(names)

    def names_where(self, flag: str, value: Any = True) -> list[str]:
        """Primary names whose metadata ``flag`` equals ``value``."""
        return sorted(name for name, meta in self._metadata.items()
                      if meta.get(flag) == value)

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
        except UnknownComponentError:
            return False
        return True

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

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

#: MAC scheduler policies (``repro.ran.mac.SchedulerPolicy`` members).
SCHEDULERS = Registry("scheduler")

#: Workload generators returning ``list[FlowSpec]``.  Registered in
#: ``repro.workloads.*``.
WORKLOADS = Registry("workload")

#: Named scenario presets ``() -> ScenarioSpec`` (``repro.experiments.presets``).
SCENARIO_PRESETS = Registry("scenario preset")
