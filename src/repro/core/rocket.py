"""Rocket's main entry point (the paper's "main class").

"Launching an all-pairs application on the cluster can then be achieved
by simply calling Rocket's main class with an input array of Key
elements" — :class:`Rocket` is that class.  It executes an
:class:`~repro.core.api.Application` over a key list on a selectable
execution backend and returns the
:class:`~repro.core.result.ResultMatrix`:

- ``backend="local"`` (default) — the threaded single-process runtime;
- ``backend="cluster"`` — one worker process per simulated node with a
  live distributed cache level and global work stealing
  (:class:`~repro.runtime.cluster.ClusterSession`); select the node
  count with ``n_nodes=`` or pass a full
  :class:`~repro.runtime.cluster.ClusterConfig` as ``cluster=``.
  Every other cluster knob is a ``ClusterConfig`` field: the data plane
  (``transport="queue"``, the default, pickles cache payloads inline
  through ``multiprocessing`` queues; ``transport="shm"`` ships
  zero-copy shared-memory descriptors, :mod:`repro.runtime.transport`)
  and how many pair results ride in one coordinator message —
  ``Rocket(app, store, backend="cluster",
  cluster=ClusterConfig(n_nodes=4, transport="shm", result_batch=128))``.

**Execution model.**  :meth:`Rocket.run` is the paper's one-shot call:
it opens a session on the backend, submits a single workload, blocks
for the result and tears the session down.  The session itself is the
primary API: :meth:`Rocket.session` opens the backend's
:class:`~repro.runtime.backend.BackendSession` (``repro.RocketSession``
names that class), a long-lived runtime that accepts many
:class:`~repro.core.workload.Workload` submissions — :class:`AllPairs`,
:class:`FilteredPairs`, :class:`Bipartite` (query set vs. reference
corpus), :class:`DeltaPairs` (incremental corpus growth) — streams
results as they complete (``handle.stream()``), reports progress and
supports cancellation, while keeping worker processes, the transport
fabric and every cache level warm between jobs::

    with rocket.session() as session:
        handle = session.submit(Bipartite(queries, corpus))
        for key_a, key_b, value in handle.stream():
            ...

Sessions also schedule *concurrent* jobs: ``rocket.session(policy="fair")``
multiplexes many in-flight submissions over the live backend with
weighted fair sharing (``submit(workload, priority=8.0)``), so a small
urgent query does not wait behind a large batch job
(:mod:`repro.core.scheduler`).

Heterogeneous platforms (paper Section 6.5): both backends run
``RocketConfig(device_speed_factors=(1.0, 0.25))`` (per-device kernel
speed factors) and ``RocketConfig(steal_policy=StealPolicy.SPEED)`` —
the heterogeneity-aware scheduler that partitions initial work
proportionally to speed, ranks steal victims by estimated remaining
work and sizes steals by the thief/victim speed ratio.  The cluster
backend additionally takes per-node device mixes, one inner tuple of
``n_devices`` factors per node —
``ClusterConfig(node_speed_factors=((1.0, 1.0), (0.25, 0.25)))`` for
two two-GPU nodes.  Run statistics then report the online-calibrated
model's predicted vs. measured time (``last_stats.summary()``).

For cluster-scale *timing* studies (the paper's evaluation), use
:func:`repro.sim.rocketsim.run_simulation` instead, which runs the same
cache/scheduling logic on a simulated platform.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
from typing import Callable, Hashable, Optional, Sequence, Union

from repro.core.api import Application
from repro.core.result import ResultMatrix
from repro.core.workload import Workload, as_workload
from repro.data.filestore import FileStore
from repro.runtime.backend import BackendSession
from repro.runtime.cluster import ClusterConfig, ClusterSession
from repro.runtime.localrocket import LocalSession, RocketConfig
from repro.runtime.stats import RunStats

__all__ = ["Rocket", "RocketConfig"]


@functools.lru_cache(maxsize=None)
def _malloc_trim() -> Optional[Callable[[int], int]]:
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


class Rocket:
    """Run all-pairs applications with caching, stealing and overlap.

    ``config`` (``None`` — the defaults) tunes every backend;
    ``backend`` is ``"local"`` or ``"cluster"``.  The cluster backend
    alone takes ``cluster=`` (a full
    :class:`~repro.runtime.cluster.ClusterConfig`) or ``n_nodes=`` (a
    default one with that many nodes; 2 when neither is given).
    """

    def __init__(
        self,
        app: Application,
        store: FileStore,
        config: Optional[RocketConfig] = RocketConfig(),
        backend: str = "local",
        *,
        n_nodes: Optional[int] = None,
        cluster: Optional[ClusterConfig] = None,
    ) -> None:
        config = config if config is not None else RocketConfig()
        if backend == "local":
            if n_nodes is not None or cluster is not None:
                raise ValueError("n_nodes and cluster apply to the cluster backend only")
        elif backend == "cluster":
            if cluster is None:
                cluster = ClusterConfig(n_nodes=n_nodes if n_nodes is not None else 2)
            elif n_nodes is not None and n_nodes != cluster.n_nodes:
                raise ValueError(
                    f"conflicting node counts: n_nodes={n_nodes} vs "
                    f"cluster.n_nodes={cluster.n_nodes}"
                )
            for node, speeds in enumerate(cluster.node_speed_factors or ()):
                if len(speeds) != config.n_devices:
                    raise ValueError(
                        f"node {node}: {len(speeds)} speed factors for "
                        f"{config.n_devices} devices"
                    )
        else:
            raise ValueError(f"unknown backend {backend!r}; available: local, cluster")
        self.app = app
        self.store = store
        self.config = config
        #: Name of the execution backend: ``"local"`` or ``"cluster"``.
        self.backend = backend
        #: The cluster backend's configuration (None on the local backend).
        self.cluster = cluster
        #: Statistics of the most recently completed job of any session
        #: this Rocket opened (None before one completes): a
        #: :class:`~repro.runtime.stats.RunStats` on every backend —
        #: per-node counters, their sum and ``summary()``.
        self.last_stats: Optional[RunStats] = None

    def run(
        self,
        keys: Union[Sequence[Hashable], Workload],
        profile: Optional[str] = None,
    ) -> ResultMatrix:
        """Execute one workload to completion (a one-shot session).

        ``keys`` is a plain key sequence (the paper's interface: all
        pairs ``i < j``) or any :class:`~repro.core.workload.Workload`
        (restrict the pairs with
        :class:`~repro.core.workload.FilteredPairs`).

        ``profile=`` writes the run's merged multi-process
        Chrome/Perfetto trace to that path (loadable in
        ``chrome://tracing`` / `ui.perfetto.dev`_); profiling is turned
        on for the run even when ``config.profiling`` is off.

        .. _ui.perfetto.dev: https://ui.perfetto.dev
        """
        workload = as_workload(keys)
        config = self.config
        if profile is not None:
            config = dataclasses.replace(config, profiling=True)
        # One known workload: the local engine bounds its cache slots by
        # the workload's item count instead of the configured slots.
        session = self._open(config, capacity_hint=workload.n_items)
        try:
            result = session.run(workload)
            if profile is not None:
                session.profile().save(profile)
        finally:
            session.close()
            # The run's items die with its engine.  Its job threads'
            # malloc arenas would keep them as slack that the next run's
            # fresh threads may never reuse (a memo residual's strip
            # leaves load more items on each of fewer threads); hand the
            # free pages back (0.2-0.6 ms on a 2-core box).
            del session
            trim = _malloc_trim()
            if trim is not None:
                trim(0)
        return result

    def session(self, policy="fifo", max_active=None) -> BackendSession:
        """Open a long-lived session on this Rocket's backend.

        Returns the backend's session driver (a
        :class:`~repro.runtime.localrocket.LocalSession` or
        :class:`~repro.runtime.cluster.ClusterSession`, both
        :class:`~repro.runtime.backend.BackendSession`, which
        ``repro.RocketSession`` also names).  It accepts many workload
        submissions (``session.submit(workload, priority=...) ->
        RunHandle``) and
        keeps the backend's worker processes and cache levels warm
        between them; close it (context manager or ``close()``) to tear
        them down.  ``policy`` selects the job scheduling policy:
        ``"fifo"`` (default) runs jobs serially in submission order,
        ``"fair"`` runs up to ``max_active`` jobs concurrently with
        weighted fair sharing over their pair blocks — a small
        high-priority job co-scheduled with a large one finishes in
        roughly its own time instead of queueing behind it.
        """
        return self._open(self.config, policy=policy, max_active=max_active)

    def _open(
        self, config: RocketConfig, *, policy="fifo", max_active=None, capacity_hint=None
    ) -> BackendSession:
        """This backend's session running ``config``; ``capacity_hint``
        sizes the local engine (cluster nodes size their own)."""
        if self.backend == "cluster":
            return ClusterSession(self, config, policy=policy, max_active=max_active)
        return LocalSession(
            self, config, policy=policy, max_active=max_active, capacity_hint=capacity_hint
        )
