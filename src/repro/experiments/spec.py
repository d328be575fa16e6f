"""The declarative, serializable description of one scenario.

:class:`ScenarioSpec` is the single source of truth for what a simulation
run looks like: the radio cells sharing the 5G core, the UE population (with
per-UE channel, SNR, RLC and cell-attachment overrides), the transport flows
(with per-flow congestion control, schedule, transfer size and WAN RTT), the
in-RAN marker, the :class:`MobilitySpec` handover plan, the
:class:`ShardingSpec` process-split policy and every tunable the experiment
harnesses sweep.  The full field-by-field schema is documented (and
regression-checked against this module) in ``docs/scenarios.md``.

Three properties make it the currency of the whole experiment layer:

* **Declarative.**  Heterogeneous topologies — a congested cell next to a
  quiet one, pedestrian and vehicular UEs side by side, flows with distinct
  WAN RTTs — are plain data, not bespoke builder code.
* **Serializable.**  ``to_dict``/``from_dict`` (and the JSON wrappers) round
  trip exactly, so a sweep cell is a picklable dict, a scenario is a JSON
  file (``python -m repro scenario --spec file.json``) and presets are
  one-liners.
* **Validated.**  Component names are checked against the registries in
  :mod:`repro.registry`, so a typo fails fast with the list of choices
  instead of deep inside the build.

Every field the pre-spec configuration class had keeps its exact default,
which is why pre-spec experiment outputs are bit-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass, field
from typing import Any, Optional

# Importing the factories registers every component a spec can name.
import repro.cc.factory  # noqa: F401
import repro.channel.profiles  # noqa: F401
import repro.core.factory  # noqa: F401
import repro.ran.scheduling  # noqa: F401
from repro.core.config import L4SpanConfig
from repro.net.addresses import UE_ADDRESS_SPACE
from repro.ran.cell import CellConfig
from repro.ran.identifiers import DEFAULT_RLC_QUEUE_SDUS
from repro.ran.phy import AirInterfaceConfig
from repro.registry import CC_SENDERS, CHANNEL_PROFILES, MARKERS, SCHEDULERS
from repro.units import ms
from repro.workloads.flows import FlowSpec

#: RLC modes understood by the RAN layer.
RLC_MODES = ("am", "um")


def _require_positive(name: str, value: float) -> None:
    """Reject a time or period that is not a finite number > 0: a NaN key
    corrupts the event order and a NaN horizon never ends the run."""
    if not 0.0 < value < math.inf:  # NaN fails both comparisons
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def _require_non_negative(name: str, value: float) -> None:
    """Reject a delay or start time that is not a finite number >= 0."""
    if not 0.0 <= value < math.inf:  # NaN fails both comparisons
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


#: Value types that hold no float: skipped without a call.
_LEAVES = frozenset((int, str, bool, type(None)))


def _non_finite(value: Any) -> Optional[tuple[str, float]]:
    """The first NaN or infinite float inside ``value`` and where it sits
    (``".population.x"``, ``"[2]"``), or None when there is none.  Searches
    dataclass fields, list and tuple items and dict values."""
    if hasattr(value, "__dataclass_fields__"):
        keys = list(value.__dataclass_fields__)
        items = [getattr(value, key) for key in keys]
        label = ".{}".format
    elif isinstance(value, (list, tuple)):
        keys, items, label = range(len(value)), value, "[{}]".format
    elif isinstance(value, dict):
        keys, items, label = list(value), list(value.values()), "[{!r}]".format
    else:
        return None
    for key, item in zip(keys, items):
        if isinstance(item, float):
            if not -math.inf < item < math.inf:  # NaN fails both comparisons
                return label(key), item
        elif item.__class__ not in _LEAVES:
            found = _non_finite(item)
            if found is not None:
                return label(key) + found[0], found[1]
    return None


@dataclass
class CellSpec:
    """One gNB/cell of the scenario, sharing the single 5G core.

    Attributes:
        cell_id: identifier unique within the scenario; UEs attach by it.
        scheduler: MAC policy name overriding the scenario default, or None.
        radio: full radio configuration overriding the scenario default
            (bandwidth, PRBs, TDD pattern, carrier), or None.
        air: air-interface delay/HARQ configuration override, or None.
    """

    cell_id: int = 0
    scheduler: Optional[str] = None
    radio: Optional[CellConfig] = None
    air: Optional[AirInterfaceConfig] = None


#: Sharding modes understood by the sharded runtime.
SHARDING_MODES = ("off", "auto", "explicit")


@dataclass
class ShardingSpec:
    """How (and whether) to split a multi-cell scenario across processes.

    Attributes:
        mode: ``"off"`` runs the classic single event loop; ``"auto"``
            distributes cells round-robin over ``shards`` shard processes
            (defaulting to one shard per cell, capped at the CPU count);
            ``"explicit"`` places each cell on the shard named by ``map``.
        shards: worker count for ``"auto"`` mode, or None for the default.
        map: explicit ``cell_id -> shard index`` placement (``"explicit"``).
    """

    mode: str = "off"
    shards: Optional[int] = None
    map: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # JSON object keys are strings; normalise back to int cell ids so a
        # spec deserialized from JSON compares equal to the original.
        self.map = {int(cell): int(shard) for cell, shard in self.map.items()}

    @property
    def enabled(self) -> bool:
        """True when this block asks for a sharded run."""
        if self.mode == "off":
            return False
        if self.mode == "auto":
            return self.shards is None or self.shards > 1
        return True

    def validate(self) -> "ShardingSpec":
        """Check mode/worker-count/map consistency."""
        if self.mode not in SHARDING_MODES:
            raise ValueError(f"unknown sharding mode {self.mode!r}; "
                             f"choose from {SHARDING_MODES}")
        if self.shards is not None and self.shards < 1:
            raise ValueError("sharding.shards must be >= 1")
        if self.mode == "explicit" and not self.map:
            raise ValueError("explicit sharding requires a cell->shard map")
        for cell, shard in self.map.items():
            if shard < 0:
                raise ValueError(f"cell {cell} mapped to negative shard {shard}")
        return self


#: Mobility modes understood by the handover subsystem.
MOBILITY_MODES = ("off", "schedule", "snr")

#: How a handover treats the RLC data still queued at the source cell.
HO_MODES = ("forward", "flush")


@dataclass
class HandoverSpec:
    """One scheduled inter-cell handover.

    Attributes:
        time: simulation time (seconds) at which the UE detaches from its
            current serving cell and begins attaching to ``target_cell``.
        ue_id: the UE that moves.
        target_cell: the cell it moves to.
    """

    time: float
    ue_id: int
    target_cell: int


@dataclass
class MobilitySpec:
    """Inter-cell mobility of the UE population (see :mod:`repro.ran.mobility`).

    Attributes:
        mode: ``"off"`` (no mobility), ``"schedule"`` (handovers listed in
            ``handovers`` execute at fixed times) or ``"snr"`` (a periodic
            monitor hands a degraded UE over to the next cell in declaration
            order; decided mid-run and committed ``commit_lag_s`` later, the
            two-phase protocol that keeps SNR mobility shardable).
        handovers: the schedule for ``"schedule"`` mode.
        interruption_s: detach-to-service gap: the target cell buffers
            arriving downlink data but grants the UE no air time until
            ``interruption_s`` after the handover fires (RACH + path switch).
        ho_mode: ``"forward"`` re-submits the source cell's queued RLC SDUs
            at the target cell (arriving ``interruption_s`` later, the Xn
            data-forwarding path); ``"flush"`` drops them (loss the transport
            must recover from).
        check_interval_s / snr_threshold_db / min_stay_s: the ``"snr"``
            monitor's sampling period, trigger level, and the minimum time a
            UE stays attached before it may move again (ping-pong damping;
            clamped to at least ``interruption_s``).
        ues: UEs the ``"snr"`` monitor watches (empty = every UE).
        commit_lag_s: decide-to-commit delay of an SNR-triggered handover
            (the two-phase protocol publishes the decision at the monitor
            tick and every event loop commits it ``commit_lag_s`` later), or
            None for the computed safe default — one conservative lookahead
            plus the longest WAN one-way leg plus the core processing delay.
            Values below that minimum cannot be reproduced exactly by a
            shard split and block sharding.
    """

    mode: str = "off"
    handovers: list[HandoverSpec] = field(default_factory=list)
    interruption_s: float = 0.020
    ho_mode: str = "forward"
    check_interval_s: float = 0.05
    snr_threshold_db: float = 10.0
    min_stay_s: float = 0.5
    ues: list[int] = field(default_factory=list)
    commit_lag_s: Optional[float] = None

    @property
    def enabled(self) -> bool:
        """True when this block asks for any mobility at all."""
        if self.mode == "schedule":
            return bool(self.handovers)
        return self.mode == "snr"

    def validate(self) -> "MobilitySpec":
        """Check mode/knob consistency (itinerary checks need the spec)."""
        if self.mode not in MOBILITY_MODES:
            raise ValueError(f"unknown mobility mode {self.mode!r}; "
                             f"choose from {MOBILITY_MODES}")
        if self.ho_mode not in HO_MODES:
            raise ValueError(f"unknown ho_mode {self.ho_mode!r}; "
                             f"choose from {HO_MODES}")
        if self.interruption_s <= 0:
            raise ValueError("mobility.interruption_s must be positive")
        if self.mode == "snr":
            _require_positive("mobility.check_interval_s",
                              self.check_interval_s)
            if self.handovers:
                raise ValueError("mobility.handovers requires mode "
                                 "'schedule'; the 'snr' monitor decides its "
                                 "own handovers")
        if self.commit_lag_s is not None and self.commit_lag_s <= 0:
            raise ValueError("mobility.commit_lag_s must be positive")
        for ho in self.handovers:
            if ho.time <= 0:
                raise ValueError(
                    f"handover of ue {ho.ue_id} at t={ho.time} must be "
                    "scheduled after time zero")
        return self


@dataclass
class PopulationSpec:
    """Aggregated background-UE population attached to *every* cell.

    Instead of one Python object graph per UE, ``n_background`` UEs per cell
    are modelled by one vectorized numpy state array (cwnd/backlog/SNR)
    advanced in batched steps synchronized with the MAC slot loop -- see
    :mod:`repro.ran.background`.  Every background UE is an always-backlogged
    bulk sender, so dense cells (1000+ UEs) run without per-UE events.

    What the population claims is scheduler contention: foreground flows
    see it only through the MAC, which counts every active background UE as
    one more round-robin claimant.  It claims no marking response (windows
    back off on their own backlog, never on a mark) and no per-flow RTT
    (every window grows against a fixed 50 ms nominal RTT).

    Attributes:
        n_background: background UEs attached to each cell (0 disables the
            population entirely; the kernel is never built).
        snr_mean_db / snr_stddev_db: Gaussian SNR distribution the per-UE
            link qualities are drawn from (stddev 0 = homogeneous).
        activity: fraction of the population initially active (0..1).
        churn_rate_per_s: Poisson rate of arrival/departure flips per cell
            (0 = static population).
    """

    n_background: int = 0
    snr_mean_db: float = 22.0
    snr_stddev_db: float = 0.0
    activity: float = 1.0
    churn_rate_per_s: float = 0.0

    @property
    def enabled(self) -> bool:
        """True when this block asks for a background population."""
        return self.n_background > 0

    def validate(self) -> "PopulationSpec":
        """Check the count and the distribution parameters."""
        if self.n_background < 0:
            raise ValueError("population.n_background must be >= 0")
        if self.snr_stddev_db < 0:
            raise ValueError("population.snr_stddev_db must be >= 0")
        if not 0.0 <= self.activity <= 1.0:
            raise ValueError("population.activity must be within [0, 1]")
        if self.churn_rate_per_s < 0:
            raise ValueError("population.churn_rate_per_s must be >= 0")
        return self


@dataclass
class UeSpec:
    """Per-UE overrides; any field left None inherits the scenario default.

    Attributes:
        ue_id: identifier unique within the scenario.
        cell_id: the cell this UE attaches to.
        channel_profile / mean_snr_db: radio condition of this UE.
        rlc_mode / rlc_queue_sdus / separate_drbs: bearer configuration.
    """

    ue_id: int
    cell_id: int = 0
    channel_profile: Optional[str] = None
    mean_snr_db: Optional[float] = None
    rlc_mode: Optional[str] = None
    rlc_queue_sdus: Optional[int] = None
    separate_drbs: Optional[bool] = None


@dataclass
class ScenarioSpec:
    """Everything needed to describe one experiment run.

    The defaults reproduce the paper's common setting: one ~40 Mbit/s n78
    cell, 38 ms WAN RTT, RLC AM with the default 16384-SDU queue, round-robin
    MAC scheduling and separate L4S/classic DRBs per UE.

    Homogeneous scenarios only need the scalar fields (``num_ues``,
    ``cc_name``, ``channel_profile``, ...).  Heterogeneous scenarios add
    entries to ``cells`` / ``ues`` / ``flows``; anything not overridden there
    inherits the scalar defaults.
    """

    num_ues: int = 1
    duration_s: float = 5.0
    cc_name: str = "prague"
    marker: str = "l4span"          # "none", "l4span", "tcran", "ran_dualpi2"
    channel_profile: str = "static"
    wan_rtt: float = ms(38)
    scheduler: str = "rr"
    rlc_queue_sdus: int = DEFAULT_RLC_QUEUE_SDUS
    rlc_mode: str = "am"
    separate_drbs: bool = True
    seed: int = 1
    flows: Optional[list[FlowSpec]] = None
    mean_snr_db: float = 22.0
    cell: CellConfig = field(default_factory=CellConfig)
    air: AirInterfaceConfig = field(default_factory=AirInterfaceConfig)
    l4span_config: L4SpanConfig = field(default_factory=L4SpanConfig)
    queue_sample_interval: float = 0.05
    throughput_window: float = 0.25
    rate_probe: bool = False
    # Optional wired middlebox between the WAN and the 5G core whose rate can
    # be throttled during the run (Fig. 2's bottleneck shift).
    wired_bottleneck_mbps: Optional[float] = None
    wired_bottleneck_schedule: list = field(default_factory=list)
    warmup_s: float = 0.5
    # Heterogeneous-topology extensions (empty = single default cell,
    # homogeneous UE population).
    name: str = ""
    cells: list[CellSpec] = field(default_factory=list)
    ues: list[UeSpec] = field(default_factory=list)
    # Process-per-cell sharding of multi-cell scenarios (off by default; see
    # repro.experiments.sharded for the runtime and its determinism contract).
    sharding: ShardingSpec = field(default_factory=ShardingSpec)
    # Inter-cell handover of UEs between the scenario's cells (off by
    # default; see repro.ran.mobility for the execution semantics).
    mobility: MobilitySpec = field(default_factory=MobilitySpec)
    # Aggregated background-UE population per cell (off by default; see
    # repro.ran.background for the vectorized kernel).
    population: PopulationSpec = field(default_factory=PopulationSpec)

    def __post_init__(self) -> None:
        # Normalise the throttle schedule to tuples so a spec deserialized
        # from JSON (where pairs become lists) compares equal to the original.
        self.wired_bottleneck_schedule = [
            tuple(entry) for entry in self.wired_bottleneck_schedule]

    # ------------------------------------------------------------------ #
    # Convenience views
    # ------------------------------------------------------------------ #
    def label(self) -> str:
        """Short human-readable description used in reports."""
        if self.name:
            return self.name
        return (f"{self.cc_name}/{self.channel_profile}/{self.num_ues}ue/"
                f"{self.marker}")

    # ------------------------------------------------------------------ #
    # Resolution: fill every override with its scenario-level default
    # ------------------------------------------------------------------ #
    def resolved_cells(self) -> list[CellSpec]:
        """The cell list with radio/air/scheduler defaults filled in."""
        specs = self.cells if self.cells else [CellSpec(cell_id=0)]
        resolved = []
        seen: set[int] = set()
        for spec in specs:
            if spec.cell_id in seen:
                raise ValueError(f"duplicate cell_id {spec.cell_id}")
            seen.add(spec.cell_id)
            resolved.append(CellSpec(
                cell_id=spec.cell_id,
                scheduler=spec.scheduler if spec.scheduler is not None
                else self.scheduler,
                radio=spec.radio if spec.radio is not None else self.cell,
                air=spec.air if spec.air is not None else self.air))
        return resolved

    def _declared_ue_ids(self) -> list[int]:
        ids = set(range(self.num_ues)) | {ue.ue_id for ue in self.ues}
        return sorted(ids)

    def resolved_flows(self) -> list[FlowSpec]:
        """The flow list; defaults to one bulk download per declared UE."""
        if self.flows is not None:
            return list(self.flows)
        return [FlowSpec(flow_id=index, ue_id=ue_id, cc_name=self.cc_name,
                         label="bulk")
                for index, ue_id in enumerate(self._declared_ue_ids())]

    def resolved_ues(self) -> list[UeSpec]:
        """Every UE of the scenario, overrides merged onto the defaults.

        The population is the union of ``range(num_ues)``, the explicitly
        declared UEs and every flow's terminating UE, sorted by id (the order
        channels and random streams are created in).
        """
        overrides = {}
        for ue in self.ues:
            if ue.ue_id in overrides:
                raise ValueError(f"duplicate ue_id {ue.ue_id}")
            overrides[ue.ue_id] = ue
        ids = set(self._declared_ue_ids())
        ids.update(flow.ue_id for flow in self.resolved_flows())
        resolved = []
        for ue_id in sorted(ids):
            ue = overrides.get(ue_id, UeSpec(ue_id=ue_id))
            resolved.append(UeSpec(
                ue_id=ue_id,
                cell_id=ue.cell_id,
                channel_profile=ue.channel_profile
                if ue.channel_profile is not None else self.channel_profile,
                mean_snr_db=ue.mean_snr_db
                if ue.mean_snr_db is not None else self.mean_snr_db,
                rlc_mode=ue.rlc_mode
                if ue.rlc_mode is not None else self.rlc_mode,
                rlc_queue_sdus=ue.rlc_queue_sdus
                if ue.rlc_queue_sdus is not None else self.rlc_queue_sdus,
                separate_drbs=ue.separate_drbs
                if ue.separate_drbs is not None else self.separate_drbs))
        return resolved

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> "ScenarioSpec":
        """Check every component name against its registry; return self.

        Raises :class:`repro.registry.UnknownComponentError` for unknown
        names and :class:`ValueError` for structural mistakes (duplicate
        ids, dangling cell references) and for a NaN or an infinity anywhere
        in the spec.
        """
        for name in ("duration_s", "queue_sample_interval",
                     "throughput_window"):
            _require_positive(name, getattr(self, name))
        _require_non_negative("warmup_s", self.warmup_s)
        _require_non_negative("wan_rtt", self.wan_rtt)
        MARKERS.get(self.marker)
        self.sharding.validate()
        self.population.validate()
        cells = self.resolved_cells()
        cell_ids = {cell.cell_id for cell in cells}
        if self.sharding.mode == "explicit":
            missing = sorted(cell_ids - set(self.sharding.map))
            if missing:
                raise ValueError(
                    f"explicit sharding map misses cell(s) {missing}")
            unknown = sorted(set(self.sharding.map) - cell_ids)
            if unknown:
                raise ValueError(
                    f"explicit sharding map names unknown cell(s) {unknown}; "
                    f"declared cells: {sorted(cell_ids)}")
        for cell in cells:
            SCHEDULERS.get(cell.scheduler)
        ues = self.resolved_ues()
        for ue in ues:
            if not 0 <= ue.ue_id < UE_ADDRESS_SPACE:
                raise ValueError(
                    f"ue_id must be in [0, {UE_ADDRESS_SPACE}) to get its "
                    f"own client address, got {ue.ue_id}")
            CHANNEL_PROFILES.get(ue.channel_profile)
            if ue.rlc_mode not in RLC_MODES:
                raise ValueError(f"unknown rlc_mode {ue.rlc_mode!r} for "
                                 f"ue {ue.ue_id}; choose from {RLC_MODES}")
            if ue.cell_id not in cell_ids:
                raise ValueError(
                    f"ue {ue.ue_id} attaches to unknown cell "
                    f"{ue.cell_id}; declared cells: {sorted(cell_ids)}")
        flow_ids: set[int] = set()
        for index, flow in enumerate(self.resolved_flows()):
            CC_SENDERS.get(flow.cc_name)
            if flow.wan_rtt is not None:
                _require_non_negative(f"flows[{index}].wan_rtt", flow.wan_rtt)
            _require_non_negative(f"flows[{index}].start_time",
                                  flow.start_time)
            if flow.stop_time is not None:
                _require_non_negative(f"flows[{index}].stop_time",
                                      flow.stop_time)
            if flow.flow_id in flow_ids:
                raise ValueError(f"duplicate flow_id {flow.flow_id}")
            flow_ids.add(flow.flow_id)
        # A zero rate is legal (the link stalls until the schedule resumes
        # it); a negative one is meaningless on both execution paths.
        if (self.wired_bottleneck_mbps is not None
                and self.wired_bottleneck_mbps < 0):
            raise ValueError("wired_bottleneck_mbps must be >= 0")
        for index, (start_time, rate) in enumerate(
                self.wired_bottleneck_schedule):
            _require_non_negative(f"wired_bottleneck_schedule[{index}][0]",
                                  start_time)
            if rate < 0:
                raise ValueError(
                    f"wired_bottleneck_schedule sets a negative rate "
                    f"({rate}) at t={start_time}")
        self._validate_mobility(cell_ids, {ue.ue_id: ue.cell_id for ue in ues})
        found = _non_finite(self)
        if found is not None:
            path, value = found
            kind = "a number" if value != value else "finite"
            raise ValueError(f"{path[1:]} must be {kind}, got {value}")
        return self

    def _validate_mobility(self, cell_ids: set[int],
                           ue_cells: dict[int, int]) -> None:
        mobility = self.mobility.validate()
        if not mobility.enabled:
            return
        if len(cell_ids) < 2:
            raise ValueError("mobility needs at least two cells to move "
                             "a UE between")
        for ue_id in mobility.ues:
            if ue_id not in ue_cells:
                raise ValueError(f"mobility.ues names unknown ue {ue_id}")
        serving = dict(ue_cells)
        last_time: dict[int, float] = {}
        for ho in mobility.handovers:
            if ho.ue_id not in ue_cells:
                raise ValueError(
                    f"handover at t={ho.time} names unknown ue {ho.ue_id}")
            if ho.target_cell not in cell_ids:
                raise ValueError(
                    f"handover of ue {ho.ue_id} at t={ho.time} targets "
                    f"unknown cell {ho.target_cell}; declared cells: "
                    f"{sorted(cell_ids)}")
            if ho.target_cell == serving[ho.ue_id]:
                raise ValueError(
                    f"handover of ue {ho.ue_id} at t={ho.time} targets its "
                    f"current serving cell {ho.target_cell}")
            previous = last_time.get(ho.ue_id)
            if previous is not None:
                if ho.time <= previous:
                    raise ValueError(
                        f"handovers of ue {ho.ue_id} must be in strictly "
                        f"increasing time order (t={ho.time} after "
                        f"t={previous})")
                if ho.time - previous < mobility.interruption_s:
                    raise ValueError(
                        f"ue {ho.ue_id} hands over at t={ho.time} before "
                        f"its t={previous} handover completes "
                        f"(interruption {mobility.interruption_s}s)")
            serving[ho.ue_id] = ho.target_cell
            last_time[ho.ue_id] = ho.time

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """A plain-data (JSON-compatible) representation of this spec."""
        return dataclasses.asdict(self)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written data).

        Unknown keys raise ``ValueError`` — a typo in a JSON spec fails
        loudly instead of silently running the default scenario.
        """
        return _dataclass_from_dict(cls, data, "scenario", prefix="")

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec from a JSON document."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a scenario spec must be a JSON object")
        return cls.from_dict(data)


#: JSON types accepted for a field annotated with the key.
_JSON_TYPES = {int: (int,), float: (float, int), str: (str,), bool: (bool,),
               list: (list, tuple), dict: (dict,)}


@functools.lru_cache(maxsize=None)
def _field_types(cls) -> dict:
    """``field -> (accepted types, accepted element types or None, nested)``
    for every field of ``cls``, or ``None`` for a field annotated with
    neither a plain JSON type nor a dataclass.  ``nested`` is the dataclass
    a dataclass (``accepted`` is ``dict``) or ``list[dataclass]``
    (``list``) field decodes into, else None; ``NoneType`` is accepted
    where the annotation is ``Optional``."""
    types = {}
    hints = typing.get_type_hints(cls)
    for field_ in dataclasses.fields(cls):
        hint = hints[field_.name]
        args = typing.get_args(hint)
        optional = (type(None),) if type(None) in args else ()
        hint = args[0] if optional else hint
        origin = typing.get_origin(hint) or hint
        inner = typing.get_args(hint)
        element = inner[-1] if inner else None
        if dataclasses.is_dataclass(hint):
            types[field_.name] = ((dict,) + optional, None, hint)
        elif origin is list and dataclasses.is_dataclass(element):
            types[field_.name] = ((list,) + optional, None, element)
        else:
            accepted = _JSON_TYPES.get(origin)
            types[field_.name] = accepted and (
                accepted + optional, _JSON_TYPES.get(element), None)
    return types


def _is_a(value: Any, accepted: tuple) -> bool:
    # bool is an int to Python, not to a spec: ``true`` is no seed.
    return isinstance(value, accepted) and (
        type(value) is not bool or bool in accepted)


def _dataclass_from_dict(cls, data: Any, where: str,
                         prefix: Optional[str] = None):
    """Strictly construct dataclass ``cls`` from a plain dict.

    ``where`` names the object in errors.  Dataclass and ``list[dataclass]``
    fields decode by recursion, named ``prefix + field`` (``prefix``
    defaults to ``where + "."``; list entries add ``[]``).
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object, got {type(data).__name__}")
    if prefix is None:
        prefix = f"{where}."
    types = _field_types(cls)
    unknown = sorted(set(data) - types.keys())
    if unknown:
        raise ValueError(f"{where}: unknown field(s) {unknown}; "
                         f"valid fields: {sorted(types)}")
    kwargs = dict(data)
    for name, value in data.items():
        if types[name] is None:
            continue
        accepted, inner, nested = types[name]
        if nested is None or value is None:
            valid = _is_a(value, accepted)
            if valid and inner and value is not None:
                valid = all(_is_a(item, inner) for item in (
                    value.values() if isinstance(value, dict) else value))
            if not valid:
                raise ValueError(
                    f"{where}.{name}: expected {accepted[0].__name__}"
                    f"{' of ' + inner[0].__name__ if inner else ''}, "
                    f"got {value!r}")
        elif accepted[0] is list:
            kwargs[name] = [_dataclass_from_dict(nested, item,
                                                 f"{prefix}{name}[]")
                            for item in value]
        else:
            kwargs[name] = _dataclass_from_dict(nested, value, prefix + name)
    return cls(**kwargs)
