#!/usr/bin/env python3
"""Interactive video over 5G: SCReAM and UDP Prague with and without L4Span.

Reproduces a scaled-down slice of the paper's Fig. 13: several UEs each run
one interactive video flow (SCReAM or UDP Prague) under different channel
conditions, and the RTT / per-UE rate trade-off is reported.  Because these
applications run over UDP, L4Span marks the downlink IP ECN field instead of
short-circuiting TCP ACKs.

Run with::

    python examples/videoconference.py [num_ues]
"""

from __future__ import annotations

import sys

from repro.experiments.figures import run_figure
from repro.experiments.report import format_table


def main() -> None:
    num_ues = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    rows = run_figure("fig13", num_ues=num_ues,
                      channels=("static", "vehicular"), duration_s=5.0)
    print(f"Interactive video, {num_ues} UEs per run\n")
    print(format_table(rows, columns=["cc", "channel", "l4span",
                                      "rtt_median_ms", "rtt_p90_ms",
                                      "per_ue_tput_mbps"]))


if __name__ == "__main__":
    main()
