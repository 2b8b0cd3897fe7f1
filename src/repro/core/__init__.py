"""Rocket's public programming interface (paper Section 3).

Users implement an :class:`~repro.core.api.Application` — four
application-specific callbacks (parse on CPU, pre-process on GPU,
compare on GPU, post-process on CPU) — and hand it to
:class:`~repro.core.rocket.Rocket` together with the list of item keys.
Rocket takes care of "network communication, data transfers, memory
management, scheduling, exploiting data reuse, load balancing, and
overlapping computation with I/O".

Beyond the paper's one-shot call, the package provides the
session/job execution API: :class:`~repro.core.workload.Workload`
objects describe *which* pairs to compare (:class:`AllPairs`,
:class:`FilteredPairs`, :class:`Bipartite`, :class:`DeltaPairs`),
``Rocket(...).session()`` executes many of them against one warm
backend, and each submission's
:class:`~repro.core.session.RunHandle` offers blocking results,
incremental streaming, progress and cancellation.  ``RocketSession``
is another name for the session class,
:class:`~repro.runtime.backend.BackendSession`.
"""

from repro.core.api import Application
from repro.core.buffers import HostBuffer, DeviceBuffer
from repro.core.result import ResultMatrix
from repro.core.rocket import Rocket, RocketConfig
from repro.core.scheduler import JobAccounting, JobScheduler, SchedulingPolicy
from repro.core.session import RunHandle, RunState, SessionClosed
from repro.core.workload import (
    AllPairs,
    Bipartite,
    DeltaPairs,
    FilteredPairs,
    Workload,
)
from repro.runtime.backend import BackendSession as RocketSession

__all__ = [
    "Application",
    "HostBuffer",
    "DeviceBuffer",
    "ResultMatrix",
    "Rocket",
    "RocketConfig",
    "RocketSession",
    "RunHandle",
    "RunState",
    "SessionClosed",
    "SchedulingPolicy",
    "JobScheduler",
    "JobAccounting",
    "Workload",
    "AllPairs",
    "FilteredPairs",
    "Bipartite",
    "DeltaPairs",
]
