"""Named, independently-seeded random streams.

Each subsystem (channel model for UE 3, loss process on the air interface,
marking coin flips, ...) draws from its own stream so that changing one part
of a scenario does not perturb the random sequence seen by the others.  This
is the standard trick for variance reduction and reproducibility in
discrete-event network simulators.
"""

from __future__ import annotations

import hashlib
from functools import partial
from itertools import chain
from typing import Callable

import numpy as np


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a child seed from ``master_seed`` and a label, deterministically.

    The single home of the SHA-256 construction used both for named streams
    inside one simulation and for per-cell sweep seeds -- keeping them on the
    same function is what guarantees they stay decorrelated from each other.
    """
    digest = hashlib.sha256(
        f"{int(master_seed)}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


#: Values one block draw takes from its generator per refill.  Small enough
#: that a stream read only a few times in a short run does not pay for a
#: long block up front.
DRAW_BLOCK = 64

#: The ``Generator`` method that fills a block of each kind of draw.
_FILLS = {"uniform": "random", "normal": "standard_normal",
          "exponential": "standard_exponential"}


def block_draws(rng: np.random.Generator, kind: str = "uniform",
                block: int = DRAW_BLOCK) -> Callable[[], float]:
    """A zero-argument callable reading one kind of variate from ``rng``.

    ``kind`` is ``"uniform"`` (``rng.random()``), ``"normal"`` (standard
    normal) or ``"exponential"`` (standard exponential).  Values are drawn
    ``block`` at a time with one vectorized call and handed out as Python
    floats, in order; the next block is drawn only when a value past the
    current one is asked for.  numpy fills an array by calling the same
    per-value routine the scalar call uses, ``rng.normal(loc, s)`` computes
    ``loc + s * z`` and ``rng.exponential(s)`` computes ``s * e``, so the
    values equal the scalar draws bit for bit -- as long as nothing else
    reads ``rng`` in between, which is why each hot stream has exactly one
    reader.  A per-packet or per-slot draw through this costs a fraction of
    a scalar numpy call.
    """
    fill = getattr(rng, _FILLS[kind])
    blocks = iter(lambda: fill(block).tolist(), None)
    return partial(next, chain.from_iterable(blocks))


def chance(draw: Callable[[], float], probability: float) -> bool:
    """Bernoulli trial against a uniform draw (a :func:`block_draws` reader
    or a generator's ``random``).

    No variate is consumed when the probability is degenerate (``<= 0`` or
    ``>= 1``) -- seeded runs depend on that draw count, and this helper is
    the single home of the rule.
    """
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return draw() < probability


class RandomStreams:
    """Factory of :class:`numpy.random.Generator` objects keyed by name."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(
                derive_seed(self._seed, name))
        return self._streams[name]
