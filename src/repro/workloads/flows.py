"""Flow specifications and the bulk-download workloads of the evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class FlowSpec:
    """One transport flow in a scenario.

    Attributes:
        flow_id: unique id (also used for five-tuple construction).
        ue_id: the UE terminating the flow.
        cc_name: congestion-control algorithm ("prague", "cubic", ...).
        start_time / stop_time: when the sender starts and (optionally) stops.
        flow_bytes: finite transfer size, or None for a long-lived flow.
        label: free-form tag used by experiment reports ("llf", "slf", ...).
        wan_rtt: per-flow wide-area RTT (seconds) overriding the scenario
            default, or None to inherit it — distinct-RTT fairness scenarios
            (Fig. 14b) give each flow its own value.
    """

    flow_id: int
    ue_id: int
    cc_name: str
    start_time: float = 0.0
    stop_time: Optional[float] = None
    flow_bytes: Optional[int] = None
    label: str = ""
    wan_rtt: Optional[float] = None


def bulk_download_flows(num_ues: int, cc_name: str,
                        start_time: float = 0.0) -> list[FlowSpec]:
    """One long-lived download per UE -- the Fig. 9 / Fig. 24 workload."""
    return [FlowSpec(flow_id=i, ue_id=i, cc_name=cc_name,
                     start_time=start_time, label="bulk")
            for i in range(num_ues)]


def mixed_share_flows(cc_names: list[str],
                      staggered_start: float = 0.0,
                      stop_after: Optional[float] = None,
                      one_ue: bool = False) -> list[FlowSpec]:
    """One flow per algorithm, optionally staggered in time (Fig. 14 / Fig. 16).

    Args:
        cc_names: algorithm of each flow, in start order.
        staggered_start: seconds between consecutive flow starts.
        stop_after: if given, flow i stops ``stop_after - i * staggered_start``
            seconds after the scenario start (mirroring Fig. 14's 60/50/40 s
            end times).
        one_ue: place all flows on UE 0 (shared-DRB experiments) instead of
            one UE per flow.
    """
    flows = []
    for index, cc_name in enumerate(cc_names):
        stop = None
        if stop_after is not None:
            stop = stop_after - index * staggered_start
        flows.append(FlowSpec(flow_id=index,
                              ue_id=0 if one_ue else index,
                              cc_name=cc_name,
                              start_time=index * staggered_start,
                              stop_time=stop,
                              label=cc_name))
    return flows
