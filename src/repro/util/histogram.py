"""Histogram support for kernel-runtime distributions (paper Fig. 7).

The paper characterises the three applications by the distribution of
their comparison-kernel run times: forensics is sharply peaked
(regular), bioinformatics and microscopy are long-tailed (irregular).
:class:`Histogram` builds fixed-bin histograms from samples and
:func:`ascii_histogram` renders them for the benchmark harness output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

import numpy as np

__all__ = ["Histogram", "ascii_histogram"]


@dataclass
class Histogram:
    """Fixed-bin histogram over ``[lo, hi)``.

    Values outside the range are clamped into the first/last bin so that
    long-tailed kernel-time distributions never lose samples silently;
    the clamp counts are tracked separately for inspection.
    """

    lo: float
    hi: float
    bins: int
    counts: np.ndarray = field(init=False)
    n_clamped_low: int = field(init=False, default=0)
    n_clamped_high: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not (self.hi > self.lo):
            raise ValueError(f"need hi > lo, got [{self.lo}, {self.hi})")
        if self.bins <= 0:
            raise ValueError(f"bins must be positive, got {self.bins}")
        self.counts = np.zeros(self.bins, dtype=np.int64)

    @classmethod
    def from_samples(
        cls, samples: Sequence[float], bins: int = 40, lo: float | None = None, hi: float | None = None
    ) -> "Histogram":
        """Build a histogram sized to ``samples`` (range defaults to data range)."""
        arr = np.asarray(list(samples), dtype=np.float64)
        if arr.size == 0:
            raise ValueError("cannot build a histogram from zero samples")
        if lo is None:
            lo = float(arr.min())
        if hi is None:
            hi = float(arr.max())
        if hi <= lo:  # all samples identical: widen artificially
            hi = lo + max(abs(lo), 1.0) * 1e-6
        h = cls(lo=lo, hi=hi, bins=bins)
        h.add_many(arr)
        return h

    @property
    def total(self) -> int:
        """Total number of recorded samples (including clamped ones)."""
        return int(self.counts.sum())

    @property
    def edges(self) -> np.ndarray:
        """Bin edges, length ``bins + 1``."""
        return np.linspace(self.lo, self.hi, self.bins + 1)

    @property
    def centers(self) -> np.ndarray:
        """Bin centres, length ``bins``."""
        e = self.edges
        return (e[:-1] + e[1:]) / 2.0

    def add(self, value: float) -> None:
        """Record one sample."""
        idx = int((value - self.lo) / (self.hi - self.lo) * self.bins)
        if idx < 0:
            idx = 0
            self.n_clamped_low += 1
        elif idx >= self.bins:
            if value > self.hi:
                self.n_clamped_high += 1
            idx = self.bins - 1
        self.counts[idx] += 1

    def add_many(self, values: Iterable[float]) -> None:
        """Record many samples (vectorised)."""
        arr = np.asarray(list(values), dtype=np.float64)
        if arr.size == 0:
            return
        idx = ((arr - self.lo) / (self.hi - self.lo) * self.bins).astype(np.int64)
        self.n_clamped_low += int((idx < 0).sum())
        self.n_clamped_high += int((arr > self.hi).sum())
        np.clip(idx, 0, self.bins - 1, out=idx)
        np.add.at(self.counts, idx, 1)

    def quantile(self, q: float) -> float:
        """Approximate quantile from binned counts (bin-centre resolution)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            raise ValueError("empty histogram has no quantiles")
        cum = np.cumsum(self.counts)
        target = q * cum[-1]
        idx = int(np.searchsorted(cum, target, side="left"))
        idx = min(idx, self.bins - 1)
        return float(self.centers[idx])

    def coefficient_of_variation(self) -> float:
        """CV (std/mean) estimated from binned counts.

        The paper's notion of a *regular* application (forensics) maps to
        a small CV; the irregular applications have CV near or above 1.
        """
        if self.total == 0:
            raise ValueError("empty histogram")
        c = self.centers
        w = self.counts / self.total
        mean = float((c * w).sum())
        var = float(((c - mean) ** 2 * w).sum())
        if mean == 0:
            return float("inf")
        return float(np.sqrt(var) / mean)


def ascii_histogram(hist: Histogram, width: int = 50, max_rows: int | None = None) -> str:
    """Render ``hist`` as an ASCII bar chart (one row per bin)."""
    lines: List[str] = []
    peak = int(hist.counts.max()) if hist.total else 1
    peak = max(peak, 1)
    edges = hist.edges
    rows = range(hist.bins) if max_rows is None else range(min(hist.bins, max_rows))
    for i in rows:
        bar = "#" * int(round(width * hist.counts[i] / peak))
        lines.append(f"[{edges[i]:10.4g}, {edges[i + 1]:10.4g}) {hist.counts[i]:>8d} {bar}")
    return "\n".join(lines)
