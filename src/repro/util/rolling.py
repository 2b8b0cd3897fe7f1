"""Rolling-window throughput measurement (paper Fig. 14).

The heterogeneous experiment plots, per GPU, the number of pairs
processed per second as a rolling one-minute average over the run.
:class:`ThroughputSeries` records event completion timestamps and
produces exactly that series.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

__all__ = ["ThroughputSeries"]


@dataclass
class ThroughputSeries:
    """Completion-event recorder producing rolling pairs/second series.

    Each call to :meth:`record` marks one completed unit of work (one
    pair comparison).  :meth:`series` then evaluates the rolling rate
    ``events_in_window / window`` on a regular grid, matching the
    one-minute rolling average of the paper's Fig. 14.
    """

    window: float = 60.0
    times: List[float] = field(default_factory=list)

    def record(self, time: float) -> None:
        """Mark one completion at ``time`` (must be non-decreasing)."""
        if self.times and time < self.times[-1]:
            raise ValueError("completion times must be non-decreasing")
        self.times.append(float(time))

    @property
    def count(self) -> int:
        """Total completions recorded."""
        return len(self.times)

    def rate_at(self, t: float) -> float:
        """Rolling rate (events/sec) in ``(t - window, t]``."""
        hi = bisect.bisect_right(self.times, t)
        lo = bisect.bisect_right(self.times, t - self.window)
        return (hi - lo) / self.window

    def series(self, step: float | None = None, end: float | None = None) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate the rolling rate on a grid; returns ``(t, rate)`` arrays."""
        if not self.times:
            return np.zeros(0), np.zeros(0)
        if end is None:
            end = self.times[-1]
        if step is None:
            step = max(self.window / 6.0, 1e-9)
        grid = np.arange(0.0, end + step, step)
        rates = np.array([self.rate_at(t) for t in grid])
        return grid, rates

    def overall_rate(self) -> float:
        """Average rate over the full recorded span (count / makespan)."""
        if len(self.times) < 1 or self.times[-1] <= 0:
            return 0.0
        return len(self.times) / self.times[-1]
