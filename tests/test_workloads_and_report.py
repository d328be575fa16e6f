"""Tests for workload builders and the text report renderer."""

from __future__ import annotations

import pytest

from repro.experiments.report import format_table
from repro.workloads.flows import bulk_download_flows, mixed_share_flows
from repro.workloads.short_flows import DEFAULT_SLF_BYTES, short_flow, short_long_mix
from repro.workloads.video import interactive_video_flows


class TestWorkloads:
    def test_bulk_downloads_one_flow_per_ue(self):
        flows = bulk_download_flows(8, "prague")
        assert len(flows) == 8
        assert {f.ue_id for f in flows} == set(range(8))
        assert all(f.flow_bytes is None for f in flows)

    def test_mixed_share_staggering(self):
        flows = mixed_share_flows(["prague", "cubic", "bbr2"],
                                  staggered_start=10.0, stop_after=60.0)
        assert [f.start_time for f in flows] == [0.0, 10.0, 20.0]
        assert [f.stop_time for f in flows] == [60.0, 50.0, 40.0]
        assert [f.ue_id for f in flows] == [0, 1, 2]

    def test_mixed_share_single_ue(self):
        flows = mixed_share_flows(["prague", "cubic"], one_ue=True)
        assert {f.ue_id for f in flows} == {0}

    def test_short_flow_defaults_to_14kb(self):
        flow = short_flow(1, 0, "prague", start_time=2.0)
        assert flow.flow_bytes == DEFAULT_SLF_BYTES == 14_000
        assert flow.label == "slf"

    def test_short_long_mix_structure(self):
        flows = short_long_mix("cubic", slf_start=3.0, repeat=2)
        labels = [f.label for f in flows]
        assert labels == ["llf", "slf", "slf"]
        assert flows[1].start_time == 3.0
        assert flows[2].start_time == 5.0

    def test_video_flows_require_udp_algorithms(self):
        flows = interactive_video_flows(4, "scream")
        assert len(flows) == 4
        with pytest.raises(ValueError):
            interactive_video_flows(4, "cubic")


class TestReport:
    def test_format_table_alignment_and_values(self):
        rows = [{"name": "a", "value": 1.234, "flag": True},
                {"name": "bb", "value": 5.0, "flag": False}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.23" in text and "yes" in text and "no" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_missing_keys_render_as_dash(self):
        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert "-" in text
