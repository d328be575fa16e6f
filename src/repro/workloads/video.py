"""Interactive-video workloads (paper §6.2.3, Fig. 13)."""

from __future__ import annotations

from repro.workloads.flows import FlowSpec


def interactive_video_flows(num_ues: int, cc_name: str = "scream",
                            start_time: float = 0.0) -> list[FlowSpec]:
    """One interactive video flow per UE (SCReAM or UDP Prague)."""
    if cc_name not in ("scream", "udp_prague"):
        raise ValueError("interactive video uses 'scream' or 'udp_prague'")
    return [FlowSpec(flow_id=i, ue_id=i, cc_name=cc_name,
                     start_time=start_time, label="video")
            for i in range(num_ues)]
