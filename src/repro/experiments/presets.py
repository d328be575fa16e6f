"""Named scenario presets: one-liner heterogeneous topologies.

Each preset is a function returning a ready-to-run
:class:`~repro.experiments.spec.ScenarioSpec`, registered in
:data:`repro.registry.SCENARIO_PRESETS` so the CLI can offer
``python -m repro scenario --preset NAME`` (and ``--dump-spec`` turns any
preset into a JSON file you can edit and replay with ``--spec``).

The presets exercise exactly the scenario diversity the spec layer added:
multiple cells sharing one core, mixed channel populations, mixed congestion
controllers, per-flow WAN RTTs and mixed workloads.
"""

from __future__ import annotations

from repro.experiments.spec import (CellSpec, HandoverSpec, MobilitySpec,
                                    PopulationSpec, ScenarioSpec, UeSpec)
from repro.ran.cell import CellConfig
from repro.registry import SCENARIO_PRESETS
from repro.units import ms
from repro.workloads.flows import FlowSpec


def preset_names() -> list[str]:
    """Registered preset names (CLI ``choices=``)."""
    return SCENARIO_PRESETS.names()


def make_preset(name: str) -> ScenarioSpec:
    """Build (and validate) the named preset's spec."""
    return SCENARIO_PRESETS.get(name)().validate()


@SCENARIO_PRESETS.register("congested-cell")
def congested_cell() -> ScenarioSpec:
    """Six mixed-mobility Prague UEs saturating a single cell."""
    return ScenarioSpec(
        name="congested-cell", num_ues=6, duration_s=6.0,
        channel_profile="mobile", cc_name="prague", marker="l4span", seed=7)


@SCENARIO_PRESETS.register("mixed-cc")
def mixed_cc() -> ScenarioSpec:
    """Prague, CUBIC and BBRv2 sharing the cell, one UE each."""
    return ScenarioSpec(
        name="mixed-cc", num_ues=3, duration_s=6.0, marker="l4span", seed=7,
        flows=[FlowSpec(flow_id=0, ue_id=0, cc_name="prague", label="prague"),
               FlowSpec(flow_id=1, ue_id=1, cc_name="cubic", label="cubic"),
               FlowSpec(flow_id=2, ue_id=2, cc_name="bbr2", label="bbr2")])


@SCENARIO_PRESETS.register("distinct-rtt")
def distinct_rtt() -> ScenarioSpec:
    """Three Prague flows with 18/38/78 ms WAN RTTs (Fig. 14b's setting)."""
    return ScenarioSpec(
        name="distinct-rtt", num_ues=3, duration_s=6.0, marker="l4span",
        seed=7,
        flows=[FlowSpec(flow_id=i, ue_id=i, cc_name="prague",
                        label=f"rtt-{int(rtt * 1e3)}ms", wan_rtt=rtt)
               for i, rtt in enumerate((ms(18), ms(38), ms(78)))])


@SCENARIO_PRESETS.register("two-cell-imbalance")
def two_cell_imbalance() -> ScenarioSpec:
    """A congested wide cell and a quiet narrow cell sharing one 5G core.

    Cell 0 carries three vehicular UEs; cell 1 a single static UE.  The
    quiet cell's UE should keep its low delay regardless of its neighbours.
    """
    return ScenarioSpec(
        name="two-cell-imbalance", num_ues=0, duration_s=6.0,
        marker="l4span", seed=7,
        cells=[CellSpec(cell_id=0),
               CellSpec(cell_id=1,
                        radio=CellConfig(bandwidth_mhz=10.0, num_prb=24))],
        ues=[UeSpec(ue_id=0, cell_id=0, channel_profile="vehicular"),
             UeSpec(ue_id=1, cell_id=0, channel_profile="vehicular"),
             UeSpec(ue_id=2, cell_id=0, channel_profile="vehicular"),
             UeSpec(ue_id=3, cell_id=1, channel_profile="static")])


@SCENARIO_PRESETS.register("eight-cell")
def eight_cell() -> ScenarioSpec:
    """Eight static-channel cells sharing one core, one Prague UE each.

    The sharding showcase: cells only meet at the 5G core, so the scenario
    splits perfectly across worker processes (``--shards``), and the static
    channel makes the sharded run metric-identical to the single loop.
    """
    return ScenarioSpec(
        name="eight-cell", num_ues=0, duration_s=6.0, marker="l4span",
        channel_profile="static", seed=7,
        cells=[CellSpec(cell_id=cell) for cell in range(8)],
        ues=[UeSpec(ue_id=ue, cell_id=ue) for ue in range(8)])


@SCENARIO_PRESETS.register("handover")
def handover() -> ScenarioSpec:
    """A UE handing over mid-transfer between two cells, and back again.

    UE 0 starts in cell 0, moves to cell 1 at t=2 s and returns at t=4 s
    (the ping-pong pattern); UEs 1 and 2 provide background load in each
    cell.  Queued RLC data is Xn-forwarded across each handover and the
    20 ms interruption shows up as a per-flow delivery gap in the result's
    ``handovers`` records.  On a static channel this scenario is the
    mobility showcase for ``--shards``: the UE's serving cell and its
    content server land on different shards, so every packet of its flow
    crosses the conservative shard boundary while it is away — the windowed
    barrier protocol running for real.
    """
    return ScenarioSpec(
        name="handover", num_ues=0, duration_s=6.0, marker="l4span",
        channel_profile="static", seed=7,
        cells=[CellSpec(cell_id=0), CellSpec(cell_id=1)],
        ues=[UeSpec(ue_id=0, cell_id=0),
             UeSpec(ue_id=1, cell_id=0),
             UeSpec(ue_id=2, cell_id=1)],
        mobility=MobilitySpec(
            mode="schedule", ho_mode="forward", interruption_s=0.020,
            handovers=[HandoverSpec(time=2.0, ue_id=0, target_cell=1),
                       HandoverSpec(time=4.0, ue_id=0, target_cell=0)]))


@SCENARIO_PRESETS.register("coupled-core")
def coupled_core() -> ScenarioSpec:
    """Four cells behind one shared wired bottleneck, with SNR mobility.

    The coupled-topology showcase for ``--shards``: every flow funnels
    through one drop-tail middlebox (so all shards share mid-run queue
    state) while UE 0's poor radio (5 dB against a 10 dB threshold)
    triggers an SNR handover that is decided on one shard and committed on
    all of them two-phase.  Flow starts are staggered so the shared queue
    never sees a same-instant tie.  On the static channel the sharded run
    is bit-identical to the single loop — ``--shards 1``, ``2`` and ``4``
    all report the same per-flow metrics.
    """
    return ScenarioSpec(
        name="coupled-core", num_ues=0, duration_s=2.0, marker="l4span",
        channel_profile="static", seed=7,
        wired_bottleneck_mbps=60.0,
        cells=[CellSpec(cell_id=cell) for cell in range(4)],
        ues=[UeSpec(ue_id=0, cell_id=0, mean_snr_db=5.0),
             UeSpec(ue_id=1, cell_id=1),
             UeSpec(ue_id=2, cell_id=2),
             UeSpec(ue_id=3, cell_id=3)],
        flows=[FlowSpec(flow_id=i, ue_id=i, cc_name="prague",
                        label=f"coupled-{i}", start_time=0.05 * i,
                        wan_rtt=ms(18 + 10 * i))
               for i in range(4)],
        mobility=MobilitySpec(mode="snr", snr_threshold_db=10.0,
                              min_stay_s=0.5))


@SCENARIO_PRESETS.register("dense-cell")
def dense_cell() -> ScenarioSpec:
    """Two exact foreground Prague UEs sharing the cell with 1000 aggregated
    background UEs.

    The population kernel (:mod:`repro.ran.background`) advances all 1000
    background UEs as one vectorized numpy state array synchronized with the
    MAC slot loop, so the scenario simulates over a thousand UE-seconds per
    second of wall clock while the two foreground flows keep packet-exact
    L4Span marking.  The background reaches them only as scheduler
    contention for PRBs (see :class:`~repro.experiments.spec.PopulationSpec`
    for what the population does not model).
    """
    return ScenarioSpec(
        name="dense-cell", num_ues=2, duration_s=6.0, marker="l4span",
        channel_profile="static", seed=7,
        population=PopulationSpec(
            n_background=1000, snr_mean_db=18.0, snr_stddev_db=6.0,
            activity=0.25, churn_rate_per_s=2.0))


@SCENARIO_PRESETS.register("video-plus-bulk")
def video_plus_bulk() -> ScenarioSpec:
    """A SCReAM interactive-video flow next to two Prague bulk downloads."""
    return ScenarioSpec(
        name="video-plus-bulk", num_ues=3, duration_s=6.0, marker="l4span",
        seed=7,
        flows=[FlowSpec(flow_id=0, ue_id=0, cc_name="scream", label="video"),
               FlowSpec(flow_id=1, ue_id=1, cc_name="prague", label="bulk"),
               FlowSpec(flow_id=2, ue_id=2, cc_name="prague", label="bulk")])
