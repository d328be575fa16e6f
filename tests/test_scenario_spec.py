"""Tests for the declarative spec layer: registries, serialization, presets,
heterogeneous (multi-cell / per-UE / per-flow) scenarios and the CLI."""

from __future__ import annotations

import json
import re

import pytest

from repro.experiments.presets import make_preset, preset_names
from repro.experiments.scenario import build_scenario, run_scenario
from repro.experiments.spec import (CellSpec, PopulationSpec, ScenarioSpec,
                                    UeSpec)
from repro.ran.cell import CellConfig
from repro.registry import (CC_SENDERS, CHANNEL_PROFILES, MARKERS, Registry,
                            SCENARIO_PRESETS, SCHEDULERS,
                            UnknownComponentError)
from repro.units import ms
from repro.workloads.flows import FlowSpec

pytestmark = pytest.mark.filterwarnings("ignore")


# --------------------------------------------------------------------------- #
# Registry mechanics
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("widget")

        @reg.register("foo", shiny=True)
        class Foo:
            pass

        assert reg.get("foo") is Foo
        assert reg.flag("foo", "shiny") is True
        assert reg.flag("foo", "missing") is False
        assert reg.names() == ["foo"]
        assert "foo" in reg and "bar" not in reg

    @pytest.mark.parametrize("spelling", ["FOO", " foo", "foo "])
    def test_names_match_exactly(self, spelling):
        reg = Registry("widget")
        reg.add("foo", object(), shiny=True)
        assert spelling not in reg
        with pytest.raises(UnknownComponentError, match=r"\['foo'\]"):
            reg.get(spelling)
        with pytest.raises(UnknownComponentError):
            reg.flag(spelling, "shiny")

    def test_unknown_name_raises_with_choices(self):
        reg = Registry("widget")
        reg.add("foo", object())
        with pytest.raises(UnknownComponentError) as exc_info:
            reg.get("bar")
        assert "widget" in str(exc_info.value)
        assert "foo" in str(exc_info.value)
        # Compatible with both historical factory error types.
        with pytest.raises(KeyError):
            reg.get("bar")
        with pytest.raises(ValueError):
            reg.get("bar")

    def test_unknown_name_error_survives_pickling(self):
        """A sweep worker's lookup error reaches the coordinator intact."""
        import pickle
        error = UnknownComponentError("widget", "bar", ["foo", "baz"])
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is UnknownComponentError
        assert (copy.kind, copy.name, copy.choices) == (
            "widget", "bar", ["foo", "baz"])
        assert str(copy) == str(error)

    def test_duplicate_registration_rejected(self):
        reg = Registry("widget")
        reg.add("foo", object())
        with pytest.raises(ValueError, match="duplicate"):
            reg.add("foo", object())


class TestComponentRegistries:
    def test_all_paper_components_registered(self):
        for name in ("prague", "cubic", "reno", "bbr", "bbr2", "scream",
                     "udp_prague"):
            assert name in CC_SENDERS
        for name in ("none", "l4span", "tcran", "ran_dualpi2",
                     "ran_dualpi2_10ms"):
            assert name in MARKERS
        for name in ("static", "pedestrian", "vehicular", "mobile"):
            assert name in CHANNEL_PROFILES
        assert SCHEDULERS.names() == ["pf", "rr"]

    def test_l4s_flags_match_paper(self):
        assert {name for name in CC_SENDERS
                if CC_SENDERS.flag(name, "is_l4s")} == \
            {"prague", "bbr2", "scream", "udp_prague"}
        assert {name for name in CC_SENDERS
                if CC_SENDERS.flag(name, "is_udp")} == \
            {"scream", "udp_prague"}

    def test_buildable_markers_are_selectable(self):
        # The CLI drift bug: ran_dualpi2_10ms was buildable but not offered.
        from repro.core.factory import marker_names
        assert "ran_dualpi2_10ms" in marker_names()


#: Second spellings that no longer name anything: ``(spec field or None for
#: a preset, CLI flag, spelling, the one name it used to stand for)``.
FORMER_SPELLINGS = [
    ("marker", "--marker", "off", "none"),
    ("marker", "--marker", "baseline", "none"),
    ("scheduler", "--scheduler", "round_robin", "rr"),
    ("scheduler", "--scheduler", "proportional_fair", "pf"),
    ("cc_name", "--cc", "bbrv2", "bbr2"),
    ("cc_name", "--cc", "Prague", "prague"),
    ("channel_profile", "--channel", "Static", "static"),
    (None, "--preset", "8cell", "eight-cell"),
    (None, "--preset", "ho", "handover"),
    (None, "--preset", "coupled", "coupled-core"),
]


class TestOneSpelling:
    """Every component has exactly one name, matched exactly: a former
    alias or a case variant fails by name and lists the real choices."""

    @pytest.mark.parametrize("field, flag, spelling, name", FORMER_SPELLINGS,
                             ids=[row[2] for row in FORMER_SPELLINGS])
    def test_spec_and_preset_lookup_reject(self, field, flag, spelling,
                                           name):
        with pytest.raises(UnknownComponentError) as exc_info:
            if field is None:
                make_preset(spelling)
            else:
                ScenarioSpec(**{field: spelling}).validate()
        assert exc_info.value.name == spelling
        assert name in exc_info.value.choices
        assert spelling not in exc_info.value.choices
        assert repr(name) in str(exc_info.value)

    @pytest.mark.parametrize("field, flag, spelling, name", FORMER_SPELLINGS,
                             ids=[row[2] for row in FORMER_SPELLINGS])
    def test_cli_rejects(self, field, flag, spelling, name, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["scenario", flag, spelling, "--dump-spec"])
        error = capsys.readouterr().err
        assert f"invalid choice: '{spelling}'" in error
        assert f"'{name}'" in error

    def test_l4span_is_not_a_spec_field(self):
        """``marker`` is the only marker switch."""
        with pytest.raises(ValueError, match=r"unknown field.*'l4span'"):
            ScenarioSpec.from_dict({"l4span": True})

    def test_rlc_mode_matches_exactly(self):
        with pytest.raises(ValueError, match="unknown rlc_mode 'AM'"):
            ScenarioSpec(rlc_mode="AM").validate()


# --------------------------------------------------------------------------- #
# Spec serialization
# --------------------------------------------------------------------------- #
def heterogeneous_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="hetero", num_ues=0, duration_s=2.0, marker="l4span", seed=5,
        wired_bottleneck_schedule=[(1.0, 30.0)],
        cells=[CellSpec(cell_id=0),
               CellSpec(cell_id=1, scheduler="pf",
                        radio=CellConfig(bandwidth_mhz=10.0, num_prb=24))],
        ues=[UeSpec(ue_id=0, cell_id=0, channel_profile="pedestrian"),
             UeSpec(ue_id=1, cell_id=1, mean_snr_db=18.0,
                    rlc_queue_sdus=256)],
        flows=[FlowSpec(flow_id=0, ue_id=0, cc_name="prague",
                        wan_rtt=ms(18), label="near"),
               FlowSpec(flow_id=1, ue_id=1, cc_name="cubic",
                        wan_rtt=ms(78), label="far")])


class TestSpecSerialization:
    def test_dict_round_trip_default(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_dict_round_trip_heterogeneous(self):
        spec = heterogeneous_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = heterogeneous_spec()
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        # And the JSON is plain data (no repr()-ed objects).
        json.loads(spec.to_json())

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            ScenarioSpec.from_dict({"num_uess": 3})
        with pytest.raises(ValueError, match="flows"):
            ScenarioSpec.from_dict({"flows": [{"flow_id": 0, "ue_id": 0,
                                               "cc_name": "prague",
                                               "bogus": 1}]})
        # The removed window-policy field is unknown like any other.
        with pytest.raises(ValueError, match="sharding.*adaptive_windows"):
            ScenarioSpec.from_dict(
                {"sharding": {"mode": "auto", "adaptive_windows": True}})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_json("[1, 2, 3]")

    @pytest.mark.parametrize("fields, name", [
        ({"sharding": None}, "scenario.sharding"),
        ({"population": None}, "scenario.population"),
        ({"cell": None}, "scenario.cell"),
        ({"air": None}, "scenario.air"),
        ({"l4span_config": None}, "scenario.l4span_config"),
        ({"cells": None}, "scenario.cells"),
        ({"mobility": {"handovers": None}}, "mobility.handovers"),
    ])
    def test_null_block_rejected_by_name(self, fields, name):
        """A ``null`` block that has no ``None`` meaning fails at decode
        time by name, as a ``null`` scalar does."""
        with pytest.raises(ValueError, match=f"^{name}: expected"):
            ScenarioSpec.from_dict(fields)

    def test_optional_blocks_accept_null(self):
        spec = ScenarioSpec.from_dict(
            {"flows": None, "cells": [{"cell_id": 0, "radio": None,
                                       "air": None}]})
        assert spec.flows is None and spec.cells == [CellSpec(cell_id=0)]

    @pytest.mark.parametrize("fields, where", [
        ({"ues": [{"ue_id": 0, "bogus": 1}]}, "ues[]"),
        ({"cells": [{"cell_id": 0, "radio": {"bogus": 1}}]}, "cells[].radio"),
        ({"cells": [{"cell_id": 0, "air": 3}]}, "cells[].air"),
        ({"mobility": {"handovers": [{"time": 1.0, "bogus": 1}]}},
         "mobility.handovers[]"),
        ({"mobility": {"handovers": [{"time": "x", "ue_id": 0,
                                      "target_cell": 1}]}},
         "mobility.handovers[].time"),
    ])
    def test_nested_errors_name_their_path(self, fields, where):
        with pytest.raises(ValueError, match=f"^{re.escape(where)}: "):
            ScenarioSpec.from_dict(fields)

    @pytest.mark.parametrize("block", [
        {"backend": "fortran"}, "numpy", ["numpy"],
        {"backend": None, "channel_block": 256, "threads": 4},
        {"backend": None, "channel_block": 256}])
    def test_malformed_engine_block_rejected(self, block):
        """The retired ``engine`` block, in any shape, is an unknown field."""
        with pytest.raises(ValueError, match=r"unknown field.*'engine'"):
            ScenarioSpec.from_dict({"engine": block})


NAN, INF = float("nan"), float("inf")

#: Timing fields outside their domain: each must fail ``validate()`` by
#: name instead of hanging the run (a NaN horizon), silently dropping
#: events (a NaN key) or failing at build time (a zero period).
BAD_TIMING = [
    ({"duration_s": NAN}, "duration_s"),
    ({"duration_s": 0.0}, "duration_s"),
    ({"duration_s": INF}, "duration_s"),
    ({"queue_sample_interval": NAN}, "queue_sample_interval"),
    ({"queue_sample_interval": 0.0}, "queue_sample_interval"),
    ({"throughput_window": NAN}, "throughput_window"),
    ({"throughput_window": 0.0}, "throughput_window"),
    ({"warmup_s": NAN}, "warmup_s"),
    ({"warmup_s": -0.1}, "warmup_s"),
    ({"mobility": {"mode": "snr", "check_interval_s": NAN}},
     "mobility.check_interval_s"),
]


#: Values that once passed ``validate()`` and then ran with a NaN in the
#: results or failed mid-run with an engine error naming no field.
BAD_VALUES = [
    ({"mean_snr_db": NAN}, "mean_snr_db"),
    ({"population": {"churn_rate_per_s": NAN}},
     "population.churn_rate_per_s"),
    ({"mobility": {"interruption_s": NAN}}, "mobility.interruption_s"),
    ({"mobility": {"commit_lag_s": NAN}}, "mobility.commit_lag_s"),
    ({"ues": [{"ue_id": 0, "mean_snr_db": NAN}]}, "ues[0].mean_snr_db"),
    ({"l4span_config": {"classic_beta": NAN}}, "l4span_config.classic_beta"),
    ({"wired_bottleneck_mbps": NAN}, "wired_bottleneck_mbps"),
    ({"wan_rtt": -0.01}, "wan_rtt"),
    ({"wan_rtt": NAN}, "wan_rtt"),
    ({"flows": [{"flow_id": 0, "ue_id": 0, "cc_name": "prague",
                 "wan_rtt": -0.01}]}, "flows[0].wan_rtt"),
    ({"wired_bottleneck_mbps": 50.0,
      "wired_bottleneck_schedule": [[0.1, 10.0], [NAN, 30.0]]},
     "wired_bottleneck_schedule[1][0]"),
    ({"wired_bottleneck_mbps": 50.0,
      "wired_bottleneck_schedule": [[-1.0, 30.0]]},
     "wired_bottleneck_schedule[0][0]"),
    ({"cell": {"overhead": INF}}, "cell.overhead"),
    ({"cell": {"tdd_dl_fraction": INF}}, "cell.tdd_dl_fraction"),
    ({"air": {"harq_rtt": INF}}, "air.harq_rtt"),
    ({"flows": [{"flow_id": 0, "ue_id": 0, "cc_name": "prague",
                 "start_time": -1.0}]}, "flows[0].start_time"),
    ({"flows": [{"flow_id": 0, "ue_id": 0, "cc_name": "prague",
                 "stop_time": -1.0}]}, "flows[0].stop_time"),
    ({"population": {"n_background": 10, "churn_rate_per_s": INF}},
     "population.churn_rate_per_s"),
    ({"mean_snr_db": INF}, "mean_snr_db"),
    ({"mean_snr_db": -INF}, "mean_snr_db"),
    ({"l4span_config": {"sojourn_threshold": INF}},
     "l4span_config.sojourn_threshold"),
]


class TestSpecValidation:
    @pytest.mark.parametrize("fields, name", BAD_TIMING)
    def test_bad_timing_rejected(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name} must be a finite"):
            ScenarioSpec.from_dict(dict(num_ues=1, **fields)).validate()

    @pytest.mark.parametrize("fields, name", BAD_VALUES)
    def test_bad_value_rejected_by_name(self, fields, name):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
            ScenarioSpec.from_dict(dict(num_ues=1, **fields)).validate()

    def test_zero_wan_rtt_is_legal(self):
        ScenarioSpec(wan_rtt=0.0).validate()

    @pytest.mark.parametrize("ue_id", [-1, 64_000])
    def test_ue_id_outside_the_address_space_rejected(self, ue_id):
        """A UE the client address space cannot hold would share another
        UE's address (the core then routes one UE's packets to the other)."""
        with pytest.raises(ValueError, match=r"^ue_id must be in \[0, 64000\)"):
            ScenarioSpec.from_dict(dict(num_ues=1,
                                        ues=[{"ue_id": ue_id}])).validate()

    def test_zero_warmup_is_legal(self):
        ScenarioSpec(warmup_s=0.0).validate()

    def test_unknown_cc_rejected(self):
        with pytest.raises(UnknownComponentError, match="congestion"):
            ScenarioSpec(cc_name="vegas").validate()

    def test_unknown_marker_rejected(self):
        with pytest.raises(UnknownComponentError, match="marker"):
            ScenarioSpec(marker="magic").validate()

    def test_unknown_channel_rejected(self):
        with pytest.raises(UnknownComponentError, match="channel"):
            ScenarioSpec(channel_profile="underwater").validate()

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(UnknownComponentError, match="scheduler"):
            ScenarioSpec(scheduler="wfq").validate()

    def test_dangling_cell_reference_rejected(self):
        with pytest.raises(ValueError, match="unknown cell"):
            ScenarioSpec(ues=[UeSpec(ue_id=0, cell_id=7)]).validate()

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate cell_id"):
            ScenarioSpec(cells=[CellSpec(0), CellSpec(0)]).validate()
        with pytest.raises(ValueError, match="duplicate ue_id"):
            ScenarioSpec(ues=[UeSpec(ue_id=1), UeSpec(ue_id=1)]).validate()
        flows = [FlowSpec(flow_id=0, ue_id=0, cc_name="prague"),
                 FlowSpec(flow_id=0, ue_id=1, cc_name="prague")]
        with pytest.raises(ValueError, match="duplicate flow_id"):
            ScenarioSpec(flows=flows).validate()

    def test_resolution_fills_defaults(self):
        spec = ScenarioSpec(num_ues=2, channel_profile="pedestrian",
                            ues=[UeSpec(ue_id=1, channel_profile="static")])
        resolved = {ue.ue_id: ue for ue in spec.resolved_ues()}
        assert resolved[0].channel_profile == "pedestrian"
        assert resolved[1].channel_profile == "static"
        flows = spec.resolved_flows()
        assert [f.ue_id for f in flows] == [0, 1]


# --------------------------------------------------------------------------- #
# The population block
# --------------------------------------------------------------------------- #
class TestPopulationSpec:
    def test_round_trip_through_dict_and_json(self):
        spec = ScenarioSpec(
            num_ues=1, population=PopulationSpec(
                n_background=250, snr_mean_db=19.0, snr_stddev_db=4.0,
                activity=0.5, churn_rate_per_s=1.0))
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_default_population_disabled(self):
        spec = ScenarioSpec()
        assert not spec.population.enabled
        assert spec.population.n_background == 0
        spec.validate()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="n_background"):
            ScenarioSpec(
                population=PopulationSpec(n_background=-1)).validate()

    def test_activity_bounds(self):
        with pytest.raises(ValueError, match="activity"):
            ScenarioSpec(population=PopulationSpec(
                n_background=10, activity=1.5)).validate()

    @pytest.mark.parametrize("key", [
        "workload", "mean_rate_mbps", "update_interval_s"])
    def test_removed_field_is_unknown(self, key):
        """Every background UE is a bulk sender with one back-off factor
        on a fixed cadence: no field selects another model."""
        value = {"workload": "rate", "mean_rate_mbps": 2.0,
                 "update_interval_s": 0.005}[key]
        with pytest.raises(ValueError,
                           match=rf"^population: unknown field.*'{key}'"):
            ScenarioSpec.from_dict({"population": {"n_background": 10,
                                                   key: value}})

    def test_unknown_cc_in_mix_rejected(self):
        """The population has no cc mix; a spec naming one is refused
        before its congestion controls are looked at."""
        with pytest.raises(ValueError,
                           match=r"^population: unknown field.*'cc_mix'"):
            ScenarioSpec.from_dict({"population": {
                "n_background": 10, "cc_mix": {"vegas": 1.0}}})

    def test_non_positive_mix_share_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^population: unknown field.*'cc_mix'"):
            ScenarioSpec.from_dict({"population": {
                "n_background": 10, "cc_mix": {"prague": 0.0}}})


# --------------------------------------------------------------------------- #
# Presets
# --------------------------------------------------------------------------- #
class TestPresets:
    def test_all_presets_validate(self):
        assert len(preset_names()) >= 4
        for name in preset_names():
            spec = make_preset(name)
            assert isinstance(spec, ScenarioSpec)
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_preset_rejected(self):
        with pytest.raises(UnknownComponentError, match="preset"):
            SCENARIO_PRESETS.get("no-such-preset")


# --------------------------------------------------------------------------- #
# Heterogeneous scenarios end to end
# --------------------------------------------------------------------------- #
class TestHeterogeneousScenarios:
    def test_two_cell_scenario_runs_and_isolates(self):
        spec = ScenarioSpec(
            num_ues=0, duration_s=2.5, marker="l4span", seed=9,
            cells=[CellSpec(cell_id=0), CellSpec(cell_id=1)],
            ues=[UeSpec(ue_id=0, cell_id=0),
                 UeSpec(ue_id=1, cell_id=0),
                 UeSpec(ue_id=2, cell_id=1)])
        built = build_scenario(spec)
        assert set(built.gnbs) == {0, 1}
        assert built.gnbs[0].ue_ids == [0, 1]
        assert built.gnbs[1].ue_ids == [2]
        assert built.gnbs[0] is not built.gnbs[1]
        assert built.markers[0] is not built.markers[1]
        result = built.run()
        # Every UE (on both cells) carried traffic.
        assert set(result.per_ue_throughput) == {0, 1, 2}
        assert all(v > 0 for v in result.per_ue_throughput.values())
        # The queue sampler saw bearers of both cells.
        ues_sampled = {key.split("/")[0]
                       for key in result.queue_length_by_drb}
        assert {"ue0", "ue1", "ue2"} <= ues_sampled
        # A lone UE on its own cell outruns the two UEs sharing cell 0.
        assert result.per_ue_throughput[2] > result.per_ue_throughput[0]

    def test_quiet_cell_unaffected_by_congested_neighbour(self):
        lone = run_scenario(ScenarioSpec(num_ues=1, duration_s=2.0, seed=4))
        shared_core = run_scenario(ScenarioSpec(
            num_ues=0, duration_s=2.0, seed=4,
            cells=[CellSpec(cell_id=0), CellSpec(cell_id=1)],
            ues=[UeSpec(ue_id=0, cell_id=0),
                 UeSpec(ue_id=1, cell_id=1),
                 UeSpec(ue_id=2, cell_id=1),
                 UeSpec(ue_id=3, cell_id=1)]))
        # UE 0 has cell 0 to itself: its goodput should be near the lone run
        # despite three busy neighbours behind the same 5G core.
        lone_mbps = lone.flow(0).goodput_mbps
        assert shared_core.flow(0).goodput_mbps > 0.8 * lone_mbps

    def test_per_flow_wan_rtt(self):
        spec = ScenarioSpec(
            num_ues=2, duration_s=2.0, seed=6,
            flows=[FlowSpec(flow_id=0, ue_id=0, cc_name="prague",
                            wan_rtt=ms(18)),
                   FlowSpec(flow_id=1, ue_id=1, cc_name="prague",
                            wan_rtt=ms(98))])
        result = run_scenario(spec)
        near = min(result.flow(0).rtt_samples)
        far = min(result.flow(1).rtt_samples)
        # The far flow's floor includes the extra 80 ms of WAN RTT.
        assert far - near > ms(60)

    def test_mixed_channel_population(self):
        spec = ScenarioSpec(
            num_ues=2, duration_s=1.5, seed=8,
            ues=[UeSpec(ue_id=0, channel_profile="static"),
                 UeSpec(ue_id=1, channel_profile="vehicular",
                        mean_snr_db=12.0)])
        built = build_scenario(spec)
        assert built.ues[0].config.channel_profile == "static"
        assert built.ues[1].config.channel_profile == "vehicular"
        result = built.run()
        assert result.per_ue_throughput[0] > result.per_ue_throughput[1]


# --------------------------------------------------------------------------- #
# Fig. 14 panel (b): per-flow RTTs actually reach the flows
# --------------------------------------------------------------------------- #
class TestFig14DistinctRtt:
    def test_panel_flows_carry_rtts(self):
        from repro.experiments.figures import FIGURES
        fig14 = FIGURES["fig14"]
        panels = dict(fig14.cells(fig14.grid))
        distinct = ScenarioSpec.from_dict(panels["3x prague (distinct RTT)"])
        assert [f.wan_rtt for f in distinct.flows] == [ms(18), ms(38), ms(78)]
        equal = ScenarioSpec.from_dict(panels["3x prague (equal RTT)"])
        assert all(f.wan_rtt is None for f in equal.flows)


# --------------------------------------------------------------------------- #
# Parallel sweeps over spec dicts stay identical to sequential
# --------------------------------------------------------------------------- #
class TestSpecSweepDeterminism:
    def test_threshold_sweep_identical_across_worker_counts(self):
        from repro.experiments.figures import run_figure
        grid = {"thresholds_ms": (1.0, 10.0), "duration_s": 1.0}
        sequential = run_figure("fig19", workers=1, **grid)
        parallel = run_figure("fig19", workers=2, **grid)
        assert json.dumps(sequential, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCli:
    def test_scenario_json_output_is_versioned_document(self, capsys):
        from repro.__main__ import main
        from repro.experiments.results import SCHEMA_VERSION, check_document
        assert main(["scenario", "--ues", "1", "--duration", "1.0",
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        check_document(document)
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["kind"] == "scenario-result"
        assert document["summary"]["total_goodput_mbps"] > 0
        assert document["spec"]["num_ues"] == 1

    def test_dump_spec_round_trips_through_spec_file(self, capsys, tmp_path):
        from repro.__main__ import main
        assert main(["scenario", "--preset", "two-cell-imbalance",
                     "--duration", "1.0", "--dump-spec"]) == 0
        dumped = capsys.readouterr().out
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(dumped)
        assert main(["scenario", "--spec", str(spec_file), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["label"] == "two-cell-imbalance"
        assert document["summary"]["total_goodput_mbps"] > 0

    def test_spec_and_preset_mutually_exclusive(self, tmp_path):
        from repro.__main__ import main
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(ScenarioSpec().to_json())
        with pytest.raises(SystemExit):
            main(["scenario", "--spec", str(spec_file),
                  "--preset", "mixed-cc"])

    def test_cli_choices_come_from_registries(self):
        # ran_dualpi2_10ms used to be buildable but not selectable.
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["scenario", "--marker", "not-a-marker"])
        assert main(["scenario", "--marker", "ran_dualpi2_10ms", "--ues", "1",
                     "--duration", "0.5", "--json"]) == 0

    def test_cc_override_applies_to_explicit_preset_flows(self, capsys):
        from repro.__main__ import main
        assert main(["scenario", "--preset", "mixed-cc", "--cc", "reno",
                     "--dump-spec"]) == 0
        spec = ScenarioSpec.from_json(capsys.readouterr().out)
        assert {flow.cc_name for flow in spec.flows} == {"reno"}

    def test_experiment_choices_are_the_figure_table(self, capsys):
        import re

        from repro.__main__ import main
        from repro.experiments.figures import FIGURES
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        usage = capsys.readouterr().out
        choices = re.search(r"\{([^}]*)\}", usage).group(1).split(",")
        assert choices == sorted(FIGURES)
        assert {"ablation-marking", "ablation-window"} <= set(choices)

    def test_experiment_json_keeps_distribution_columns(self, capsys):
        # Only the table drops the CDF columns; --json emits whole rows.
        from repro.__main__ import main
        assert main(["experiment", "fig18", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["cell"] for row in rows] == ["fdd_600mhz", "tdd_2.5ghz"]
        assert all(row["period_cdf"] for row in rows)

    def test_parallel_experiment_reports_progress(self, capsys):
        from repro.__main__ import main
        assert main(["experiment", "fig18", "--workers", "2"]) == 0
        assert "[fig18] 2/2 cells" in capsys.readouterr().err
