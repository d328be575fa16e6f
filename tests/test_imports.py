"""Import hygiene: every import names the module that defines the thing.

The package ``__init__`` files re-export nothing, so a run loads only the
modules it uses, and no module relies on a package ``__init__`` to have
imported something first.  Each test runs in a fresh interpreter so the
test session's own imports cannot hide a missing one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a default scenario run has no use for.
UNUSED_BY_A_DEFAULT_RUN = (
    "repro.aqm.base", "repro.aqm.codel", "repro.aqm.step",
    "repro.channel.trace", "repro.experiments.sharded",
    "repro.experiments.wired",
)

_RUN_DEFAULT_SPEC = """
import json, sys
import repro.api as api
api.run(api.ScenarioSpec(duration_s=0.05))
print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith("repro"))))
"""

_IMPORT_EACH_ALONE = """
import importlib, json, pkgutil, sys, traceback
import repro
names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
failures = {}
for name in names:
    for loaded in [key for key in sys.modules
                   if key == "repro" or key.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures[name] = traceback.format_exc()
print(json.dumps({"count": len(names), "failures": failures}))
"""


def _run(code: str):
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_default_run_loads_only_what_it_uses():
    loaded = set(_run(_RUN_DEFAULT_SPEC))
    assert "repro.experiments.scenario" in loaded
    assert loaded.isdisjoint(UNUSED_BY_A_DEFAULT_RUN), sorted(
        loaded.intersection(UNUSED_BY_A_DEFAULT_RUN))


def test_every_module_imports_on_its_own():
    """No hidden import cycle: each module imports into a clean
    ``repro`` namespace."""
    result = _run(_IMPORT_EACH_ALONE)
    assert result["count"] > 90
    assert not result["failures"], "\n".join(result["failures"].values())
