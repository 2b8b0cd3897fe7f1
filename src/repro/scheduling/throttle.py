"""Concurrent-job-limit back-pressure (paper Section 4.2, last paragraph).

Rocket's runtime is asynchronous: submitting a job does not block.
Without back-pressure one fast worker could claim the entire workload
while others idle, and unbounded in-flight jobs would exhaust cache
slots.  The *concurrent job limit* bounds how many submitted jobs may be
simultaneously in flight per worker; once reached, the worker stops
submitting until an older job completes.

Two implementations:

- :class:`SimAdmission` for the discrete-event simulator (one ticket
  per pair job; waiters are simulation events, FIFO);
- :class:`ThreadAdmission` for the real threaded runtime, where a job
  is one kernel launch and claims one unit per device-cache pin it will
  hold, so a batch is bounded by the capacity of the resource the limit
  exists to protect (see :mod:`repro.runtime.pernode`).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Sequence

if TYPE_CHECKING:  # imported lazily to avoid a package-import cycle
    from repro.sim.engine import Environment, Event

__all__ = ["SimAdmission", "ThreadAdmission"]


class SimAdmission:
    """FIFO admission tickets on simulated time.

    ``acquire()`` returns an event that fires when a ticket is free;
    ``release()`` returns a ticket and wakes the oldest waiter.  The
    simulator's worker loops yield on ``acquire()`` before spawning each
    pair job, which is exactly the paper's "stop submitting new jobs
    until an older job completes".
    """

    def __init__(self, env: "Environment", limit: int) -> None:
        if limit < 1:
            raise ValueError(f"job limit must be >= 1, got {limit}")
        self.env = env
        self.limit = limit
        self._in_flight = 0
        self._waiting: Deque["Event"] = deque()
        self.peak_in_flight = 0
        self.total_admitted = 0

    @property
    def in_flight(self) -> int:
        """Jobs currently admitted and not yet released."""
        return self._in_flight

    def acquire(self) -> "Event":
        """Event that fires when one in-flight ticket is granted."""
        evt = self.env.event()
        if self._in_flight < self.limit:
            self._grant(evt)
        else:
            self._waiting.append(evt)
        return evt

    def _grant(self, evt: "Event") -> None:
        self._in_flight += 1
        self.total_admitted += 1
        if self._in_flight > self.peak_in_flight:
            self.peak_in_flight = self._in_flight
        evt.succeed()

    def release(self) -> None:
        """Return one ticket (called on job completion)."""
        if self._in_flight <= 0:
            raise RuntimeError("release() without matching acquire()")
        self._in_flight -= 1
        if self._waiting and self._in_flight < self.limit:
            self._grant(self._waiting.popleft())


class ThreadAdmission:
    """Unit-counting admission for the threaded runtime.

    A *job* is one kernel launch.  It claims as many units as it needs
    of the resource the limit protects — device-cache pins, or pairs
    for a ``max_inflight`` window — out of ``limit`` units, with at most
    ``max_jobs`` jobs admitted at a time.  :meth:`acquire` takes the
    cumulative demands of a job that could be cut short (``needs[k]``
    units for its first ``k + 1`` pieces).  The cut is made by
    *capacity*, never by occupancy: the job gets every piece it could
    hold with nothing else in flight — ``bisect_right(needs, limit)``
    of them, the whole request whenever it fits ``limit`` — and waits
    until that many units are free.  What other jobs hold right now
    decides *when* a job starts, not how small it is: a grant sized by
    the units free at the moment turns every busy stretch into a run of
    crumb-sized launches that keep the limit busy in turn.  The default
    ``needs=(1,)`` is the classic one-ticket-per-job counter.

    A job whose smallest demand exceeds ``limit`` is admitted only while
    nothing else is in flight, so an oversized request runs alone
    instead of waiting forever.
    """

    def __init__(self, limit: int, max_jobs: Optional[int] = None) -> None:
        if limit < 1:
            raise ValueError(f"job limit must be >= 1, got {limit}")
        if max_jobs is not None and max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {max_jobs}")
        self.limit = limit
        self.max_jobs = max_jobs
        self._cond = threading.Condition()
        self._waiters: Deque[object] = deque()
        self._in_flight = 0
        self._jobs = 0
        self.peak_in_flight = 0
        self.total_admitted = 0

    @property
    def in_flight(self) -> int:
        """Units currently claimed and not yet released."""
        with self._cond:
            return self._in_flight

    @property
    def jobs_in_flight(self) -> int:
        """Jobs currently admitted and not yet released."""
        with self._cond:
            return self._jobs

    def cut(self, needs: Sequence[int]) -> int:
        """The capacity cut: every piece of ``needs`` that fits ``limit``, at least one."""
        return bisect_right(needs, self.limit) or 1

    def _grantable(self, needs: Sequence[int]) -> int:
        """``cut(needs)`` if it fits now (an oversized job: alone), else 0."""
        if self.max_jobs is not None and self._jobs >= self.max_jobs:
            return 0
        count = self.cut(needs)
        if self._in_flight and needs[count - 1] > self.limit - self._in_flight:
            return 0
        return count

    def acquire(self, needs: Sequence[int] = (1,), timeout: Optional[float] = None) -> int:
        """Admit one job; returns how many pieces were granted.

        ``needs`` is non-decreasing: ``needs[k]`` units cover the job's
        first ``k + 1`` pieces.  ``count`` is fixed by ``limit`` alone
        (class docstring); the call blocks until ``needs[count - 1]``
        units and a job slot are free, then claims them — the amount to
        hand back through :meth:`release`.  Waiters are served first
        come, first served, so pipelines that share a device take
        turns.  Returns 0 on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        ticket = object()
        with self._cond:
            self._waiters.append(ticket)
            try:
                while True:
                    if self._waiters[0] is ticket:
                        count = self._grantable(needs)
                        if count:
                            break
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        return 0
                    self._cond.wait(remaining)
            finally:
                self._waiters.remove(ticket)
                if self._waiters:
                    self._cond.notify_all()  # the next in line re-checks
            self._in_flight += needs[count - 1]
            self._jobs += 1
            self.total_admitted += 1
            if self._in_flight > self.peak_in_flight:
                self.peak_in_flight = self._in_flight
            return count

    def release(self, units: int = 1) -> None:
        """Return one job's ``units`` (called on job completion)."""
        with self._cond:
            if self._jobs <= 0 or units > self._in_flight:
                raise RuntimeError("release() without matching acquire()")
            self._in_flight -= units
            self._jobs -= 1
            self._cond.notify_all()
