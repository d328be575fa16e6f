"""Engine backend registry: how the per-slot channel and PHY work is executed.

The simulator has one canonical implementation of every mechanism -- the
pure-python event core with its timer-wheel slot clock, the MAC slot loop,
the scalar channel processes.  Backends do not change *what* is simulated;
they change *how* part of the per-slot work is executed.  The slot clock is
not part of the choice: every MAC ticks on the engine's off-heap timer
wheel (:class:`repro.sim.engine.SlotTimer`), batches consecutive slots and
collapses predictable quiet runs under both backends.

* ``python`` (the default): every channel read is a scalar process step and
  every air-interface uniform a scalar draw.
* ``numpy``: every UE channel is served from a per-cell block cache
  (:mod:`repro.channel.blockcache`) of pre-drawn variates, the air
  interface's HARQ/jitter uniforms are pre-drawn in blocks, and the MAC's
  PRB allocation takes numpy paths above a UE-count crossover.

Equivalence contract (asserted by ``tests/test_backends.py``): on static
channels the ``numpy`` backend produces **bit-identical per-flow metrics**
to ``python``, across repeats and ``--shards 1/2/4`` -- batched draws of a
single variate type consume a numpy ``Generator`` stream exactly like the
equivalent scalar draws.  On fading channels the drift is confined to the
channel stream (the block cache advances the AR(1)/deep-fade process on the
slot grid instead of lazily), the same contract PR 3's draw batching
established; each backend remains individually deterministic.

Selection: the ``ScenarioSpec.engine`` block (``engine.backend``), the CLI
``--engine`` flag, or the ``REPRO_ENGINE`` environment variable for
anything that does not thread a spec through (CI matrix legs).  An explicit
``numpy`` selection without numpy installed fails with an actionable error;
the environment default falls back to ``python`` with a warning so a bare
interpreter still runs.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

from repro._numpy import numpy_available, require_numpy
from repro.registry import Registry

#: Engine backends, keyed by the names ``--engine`` / ``engine.backend``
#: accept.  Components are :class:`EngineBackend` subclasses.
ENGINE_BACKENDS = Registry("engine backend")

#: Environment variable naming the default backend when the spec leaves
#: ``engine.backend`` unset (e.g. the CI matrix leg running the whole test
#: suite under the numpy backend).
ENGINE_ENV = "REPRO_ENGINE"


class EngineBackend:
    """Base class (and behaviour) of an engine backend.

    Args:
        channel_block: variates/slots pre-computed per channel-cache block
            (``numpy`` backend only; carried by every backend so specs can
            set it independently of the backend choice).
    """

    #: Primary registry name; subclasses override.
    name = "python"
    #: True when the RAN should install the batched kernels (channel block
    #: cache, blocked air-interface draws, numpy PRB-allocation paths).
    vectorized = False

    def __init__(self, channel_block: int = 256) -> None:
        self.channel_block = int(channel_block)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(channel_block={self.channel_block})"


@ENGINE_BACKENDS.register("python", "py")
class PythonBackend(EngineBackend):
    """The canonical pure-python execution path."""

    name = "python"
    vectorized = False


@ENGINE_BACKENDS.register("numpy", "np")
class NumpyBackend(EngineBackend):
    """Batched channel/PHY kernels on the pure-python event core."""

    name = "numpy"
    vectorized = True

    def __init__(self, channel_block: int = 256) -> None:
        require_numpy(
            "the numpy engine backend",
            hint="select the default backend instead (--engine python, "
                 "spec engine.backend = \"python\", or unset REPRO_ENGINE)")
        super().__init__(channel_block)


def default_engine_name() -> str:
    """The backend name used when a spec leaves ``engine.backend`` unset.

    ``$REPRO_ENGINE`` when set (falling back to ``python`` with a warning
    if it names a vectorized backend and numpy is missing, so environment-
    driven runs skip cleanly instead of erroring), else ``python``.
    """
    name = os.environ.get(ENGINE_ENV, "").strip()
    if not name:
        return "python"
    resolved = ENGINE_BACKENDS.resolve(name)
    if ENGINE_BACKENDS.get(resolved).vectorized and not numpy_available():
        warnings.warn(
            f"{ENGINE_ENV}={name} selects a vectorized backend but numpy "
            "is not installed; falling back to the python backend",
            RuntimeWarning, stacklevel=2)
        return "python"
    return resolved


def available_backends() -> list[str]:
    """Primary backend names runnable in this interpreter, sorted.

    Vectorized backends are listed only when numpy is importable, so
    differential harnesses (the fuzzer's cross-backend suite, parametrized
    tests) can enumerate what to compare without try/except probing.
    """
    return [name for name in ENGINE_BACKENDS.names()
            if not ENGINE_BACKENDS.get(name).vectorized or numpy_available()]


def make_engine_backend(name: Optional[str] = None,
                        channel_block: int = 256) -> EngineBackend:
    """Instantiate a backend by name (None = the environment default)."""
    resolved = (ENGINE_BACKENDS.resolve(name) if name
                else default_engine_name())
    return ENGINE_BACKENDS.get(resolved)(channel_block=channel_block)
