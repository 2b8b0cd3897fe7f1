"""Rocket application wrapper for particle-fusion registration.

Pipeline mapping (paper Section 5.3):

- *parse* (CPU): JSON decode of the particle's localisation list —
  "there is no pre-processing required other than reading and parsing
  the particle files";
- *preprocess*: identity (the application has no GPU pre-process stage,
  matching Table 1's "N/A");
- *compare* (GPU): multi-start registration of the two clouds; returns
  the similarity score and the found transform;
- *postprocess* (CPU): extract the scalar score.

Registration seeds are derived deterministically from the key pair so
results are reproducible yet per-pair independent.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.apps.microscopy.registration import register_pair
from repro.core.api import Application
from repro.data.formats import decode_particle

__all__ = ["MicroscopyApplication"]


class MicroscopyApplication(Application[str, float]):
    """Pair-wise all-to-all particle registration."""

    def __init__(self, sigma: float = 0.05, restarts: int = 4) -> None:
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        self.sigma = sigma
        self.restarts = restarts

    def file_name(self, key: str) -> str:
        """Particles are stored as ``<key>.json``."""
        return f"{key}.json"

    def parse(self, key: str, file_contents: bytes) -> np.ndarray:
        """Decode the particle JSON into an ``(n, 2)`` float array."""
        points, _meta = decode_particle(file_contents)
        return points

    # preprocess: inherited identity (Table 1: no pre-process stage)

    def compare(self, key_a: str, item_a: np.ndarray, key_b: str, item_b: np.ndarray) -> np.ndarray:
        """Register particle ``b`` onto ``a``; returns (score, theta, tx, ty)."""
        seed = zlib.crc32(f"{key_a}|{key_b}".encode()) & 0x7FFFFFFF
        result = register_pair(
            item_a, item_b, sigma=self.sigma, restarts=self.restarts, seed=seed
        )
        return np.array([result.score, result.theta, result.tx, result.ty])

    def postprocess(self, key_a: str, key_b: str, raw_result: np.ndarray) -> float:
        """Return the registration score as a plain float."""
        return float(raw_result[0])
