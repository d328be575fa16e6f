"""The per-packet call budget of the packet path.

Every hop of a downlink packet's round trip (WAN pipe, 5GC, CU, F1-U,
DU/RLC, air, UE, receiver, uplink, core, WAN pipe, sender) and every F1-U
delivery-status report costs one Python call per hop
(``docs/architecture.md``, "The per-packet path").  This test profiles a
short L4Span run and divides the Python calls made inside ``src/repro`` by
the downlink packets the marker saw, so a forwarding wrapper that creeps
back onto the path fails here, with the costliest call sites named.

Only code objects under ``src/repro`` count, and comprehensions are left
out (Python 3.12 inlines them), so the count is the same on Python 3.11
and 3.12: builtins, the standard library and the ``<string>`` code that
dataclasses and named tuples generate differ between versions.

On this spec the event loop cost 136.9 such calls per downlink packet
before the packet path was flattened to one call per hop, and 106.9 after.
Making the heap entry the event (no queue ``push`` and no ``Event``
constructor per scheduled callback) took it from 106.9 to 88.2.
"""

from __future__ import annotations

import cProfile
import os
from collections import Counter

import repro
from repro.experiments.scenario import build_scenario
from repro.experiments.spec import ScenarioSpec

#: Calls per downlink packet allowed (the measured count, rounded up).
CALLS_PER_PACKET_BUDGET = 89

_SRC = os.path.dirname(os.path.realpath(repro.__file__)) + os.sep
_COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>")


def _repro_calls(profile: cProfile.Profile) -> Counter:
    """Calls per ``file:line:function`` for code under ``src/repro``."""
    calls: Counter = Counter()
    real = {}
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str) or code.co_name in _COMPREHENSIONS:
            continue
        path = real.get(code.co_filename)
        if path is None:
            path = real[code.co_filename] = os.path.realpath(code.co_filename)
        if path.startswith(_SRC):
            label = (f"{path[len(_SRC):]}:{code.co_firstlineno}:"
                     f"{code.co_name}")
            calls[label] += entry.callcount
    return calls


def test_packet_path_stays_within_its_call_budget():
    spec = ScenarioSpec(num_ues=2, cc_name="prague",
                        channel_profile="pedestrian", marker="l4span",
                        duration_s=0.5, seed=7)
    built = build_scenario(spec)
    profile = cProfile.Profile()
    profile.enable()
    built.sim.run(until=spec.duration_s)
    profile.disable()
    packets = built.marker.downlink_packets
    assert packets > 1000
    calls = _repro_calls(profile)
    per_packet = sum(calls.values()) / packets
    costliest = "\n".join(f"  {count / packets:6.2f}  {label}"
                          for label, count in calls.most_common(12))
    assert per_packet <= CALLS_PER_PACKET_BUDGET, (
        f"{per_packet:.1f} calls per downlink packet (budget "
        f"{CALLS_PER_PACKET_BUDGET}); the costliest call sites per packet:\n"
        f"{costliest}")
