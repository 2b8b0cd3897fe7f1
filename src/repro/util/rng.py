"""Deterministic random-number management.

Every stochastic component in this repository (workload generators, the
discrete-event simulator, synthetic data sets, work-stealing victim
selection) draws from a :class:`numpy.random.Generator` derived from a
single root seed.  Runs are therefore exactly reproducible: the same
(seed, configuration) pair always yields the same simulated trace and
the same measured statistics.

The paper's own experiments are wall-clock measurements on DAS-5 and
Cartesius; reproducing them on simulated time makes determinism *more*
important, since any nondeterminism would make the regenerated tables
unstable between runs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["seeded_rng", "RngFactory"]

#: Default root seed used across examples and benchmarks.
DEFAULT_SEED = 0x524F434B  # "ROCK"


def seeded_rng(seed: int | None = None) -> np.random.Generator:
    """Return a fresh :class:`numpy.random.Generator` for ``seed``.

    ``None`` maps to :data:`DEFAULT_SEED` rather than OS entropy so that
    forgetting to pass a seed never silently produces irreproducible
    results.
    """
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


class RngFactory:
    """Hand out named, independent random generators from one root seed.

    Components ask for a stream by name (``factory.get("steal:node3")``);
    the same name always yields a generator seeded identically, so adding
    a new consumer never perturbs the streams of existing consumers.
    This mirrors how per-entity RNGs are handled in serious DES codebases
    and keeps simulation results stable under refactoring.
    """

    def __init__(self, seed: int | None = None) -> None:
        self._seed = DEFAULT_SEED if seed is None else int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """Root seed of this factory."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for stream ``name`` (created on first use)."""
        gen = self._cache.get(name)
        if gen is None:
            # Stable 64-bit hash of the stream name; Python's hash() is
            # salted per-process so it cannot be used here.
            h = 1469598103934665603  # FNV-1a offset basis
            for byte in name.encode("utf-8"):
                h = ((h ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
            gen = np.random.default_rng(np.random.SeedSequence([self._seed, h]))
            self._cache[name] = gen
        return gen

    def child(self, name: str) -> "RngFactory":
        """Return a sub-factory whose streams are independent of ours."""
        sub_seed = int(self.get(f"__child__:{name}").integers(0, 2**63 - 1))
        return RngFactory(sub_seed)

    def choice(self, items: Sequence, name: str):
        """Pick one element of ``items`` using stream ``name``."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        idx = int(self.get(name).integers(0, len(items)))
        return items[idx]
