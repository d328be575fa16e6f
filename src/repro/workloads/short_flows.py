"""Short-lived-flow workloads (paper Fig. 11).

Web-style interactions are modelled as a 14 kB transfer competing with a
long-lived download inside the same UE, exactly the configuration the paper
evaluates: the short flow's completion time is the latency-sensitive metric,
the long flow's rate the throughput-sensitive one.
"""

from __future__ import annotations

from repro.workloads.flows import FlowSpec

#: The paper's short-flow size.
DEFAULT_SLF_BYTES = 14_000


def short_flow(flow_id: int, ue_id: int, cc_name: str, start_time: float,
               size_bytes: int = DEFAULT_SLF_BYTES) -> FlowSpec:
    """A single short-lived flow."""
    return FlowSpec(flow_id=flow_id, ue_id=ue_id, cc_name=cc_name,
                    start_time=start_time, flow_bytes=size_bytes, label="slf")


def short_long_mix(cc_name: str, ue_id: int = 0,
                   slf_start: float = 2.0,
                   slf_bytes: int = DEFAULT_SLF_BYTES,
                   repeat: int = 1,
                   repeat_interval: float = 2.0) -> list[FlowSpec]:
    """One long-lived flow plus one (or several back-to-back) short flows."""
    flows = [FlowSpec(flow_id=0, ue_id=ue_id, cc_name=cc_name,
                      start_time=0.0, label="llf")]
    for i in range(repeat):
        flows.append(short_flow(flow_id=i + 1, ue_id=ue_id, cc_name=cc_name,
                                start_time=slf_start + i * repeat_interval,
                                size_bytes=slf_bytes))
    return flows
