"""Per-layer attribution of a traced run, from outside the program.

The traced pass runs a workload under :mod:`cProfile` (started by the
ledger, nothing inside ``src/`` knows about it) and rolls every function's
*self* time and call count up by source path into the repo's layers.  Self
time is exclusive by construction, so the layers partition the traced run;
cProfile taxes every Python call but not native code, which inflates
call-heavy layers -- hence the ledger reports shares from this pass and
end-to-end numbers only ever from untraced runs.
"""

from __future__ import annotations

import cProfile
import sys
import threading
from contextlib import contextmanager

#: The layers, in report order.  ``ran.other`` is cu/du/f1u/ue/gnb/sdap/...,
#: ``experiments.other`` is spec/scenario/results/options plus the package's
#: front-door glue (api, registry, units, workload flow specs), ``other`` is
#: everything outside ``src/repro`` (stdlib, numpy, builtins, the ledger).
LAYERS = ("sim", "cc", "net", "aqm", "core", "ran.rlc", "ran.mac", "ran.phy",
          "ran.background", "ran.mobility", "ran.other", "channel", "metrics",
          "experiments.sharded", "experiments.other", "service", "other")

#: First matching prefix of the path below ``repro/`` wins.
_RULES = (
    ("sim/", "sim"),
    ("cc/", "cc"),
    ("net/", "net"),
    ("aqm/", "aqm"),
    ("core/", "core"),
    ("ran/rlc.py", "ran.rlc"),
    ("ran/mac.py", "ran.mac"),
    ("ran/phy.py", "ran.phy"),
    ("ran/background.py", "ran.background"),
    ("ran/mobility.py", "ran.mobility"),
    ("ran/", "ran.other"),
    ("channel/", "channel"),
    ("metrics/", "metrics"),
    ("experiments/sharded.py", "experiments.sharded"),
    ("experiments/", "experiments.other"),
    ("service/", "service"),
    ("workloads/", "experiments.other"),
)

#: Builtins a thread blocks in; their time is waiting, not a layer's work.
_WAIT_MARKERS = ("_queue.SimpleQueue", "_thread.lock", "_thread.RLock",
                 "time.sleep", "select.")


def layer_of(path: str) -> str:
    """The layer a source file belongs to (``other`` outside ``src/repro``)."""
    root = "/src/repro/"
    normalized = path.replace("\\", "/")
    at = normalized.rfind(root)
    if at < 0:
        return "other"
    relative = normalized[at + len(root):]
    for prefix, layer in _RULES:
        if relative.startswith(prefix):
            return layer
    if "/" not in relative:
        return "experiments.other"  # api.py, registry.py, units.py, ...
    return "other"


def rollup(profiles) -> dict:
    """Sum self time and calls per layer over cProfile objects.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n}, "wait_s": s}``
    with every layer present (zeros where a layer never ran).
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    wait_s = 0.0
    for profile in profiles:
        for entry in profile.getstats():
            code = entry.code
            if isinstance(code, str):
                if any(marker in code for marker in _WAIT_MARKERS):
                    wait_s += entry.inlinetime
                    continue
                layer = "other"
            else:
                layer = layer_of(code.co_filename)
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
    return {"self_s": self_s, "calls": calls, "wait_s": wait_s}


@contextmanager
def profile_main_thread():
    """Profile the calling thread for the duration of the block."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        yield [profile]
    finally:
        profile.disable()


@contextmanager
def profile_threads(name_prefix: str):
    """Profile every thread started in the block whose name has the prefix.

    cProfile only sees the thread that enabled it, so the service's job
    threads are reached through :func:`threading.setprofile`: the hook runs
    on a new thread's first call event and swaps itself for a real profiler
    there.  The profiles are complete once those threads have been joined.
    """
    profiles: list = []

    def hook(frame, event, arg):
        sys.setprofile(None)
        if threading.current_thread().name.startswith(name_prefix):
            profile = cProfile.Profile()
            profiles.append(profile)
            profile.enable()

    threading.setprofile(hook)
    try:
        yield profiles
    finally:
        threading.setprofile(None)
