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
  (:class:`~repro.runtime.cluster.ClusterRocketRuntime`); select the
  node count with ``n_nodes=`` or pass a full
  :class:`~repro.runtime.cluster.ClusterConfig` as ``cluster=``.
  The cluster data plane is pluggable: ``transport="queue"`` (default)
  pickles cache payloads inline through ``multiprocessing`` queues,
  ``transport="shm"`` ships zero-copy shared-memory descriptors
  (:mod:`repro.runtime.transport`); ``result_batch=N`` sets how many
  pair results ride in one coordinator message —
  ``Rocket(app, store, backend="cluster", transport="shm",
  result_batch=128)``.

**Execution model.**  :meth:`Rocket.run` is the paper's one-shot call:
it opens a session on the backend, submits a single workload, blocks
for the result and tears the session down.  The session itself is the
primary API: :meth:`Rocket.session` returns the backend's
:class:`~repro.runtime.backend.BackendSession` (``repro.RocketSession``
names the same class), a long-lived runtime that accepts many
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

Heterogeneous platforms (paper Section 6.5): both backends accept
``device_speeds=(1.0, 0.25)`` (per-device kernel speed factors) and
``steal_policy="speed"`` — the heterogeneity-aware scheduler that
partitions initial work proportionally to speed, ranks steal victims
by estimated remaining work and sizes steals by the thief/victim
speed ratio.  The cluster backend additionally takes per-node device
mixes, one inner tuple of ``n_devices`` factors per node —
``node_speeds=((1.0, 1.0), (0.25, 0.25))`` for two two-GPU nodes.  Run
statistics then report the online-calibrated model's predicted vs.
measured time (``last_stats.summary()``).

For cluster-scale *timing* studies (the paper's evaluation), use
:func:`repro.sim.rocketsim.run_simulation` instead, which runs the same
cache/scheduling logic on a simulated platform.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Optional, Sequence, Union

from repro.core.api import Application
from repro.core.result import ResultMatrix
from repro.core.workload import Workload
from repro.data.filestore import FileStore
from repro.runtime.backend import BackendSession, available_backends, create_backend
from repro.runtime.localrocket import RocketConfig

__all__ = ["Rocket", "RocketConfig"]


class Rocket:
    """Run all-pairs applications with caching, stealing and overlap."""

    def __init__(
        self,
        app: Application,
        store: FileStore,
        config: RocketConfig = RocketConfig(),
        backend: str = "local",
        **backend_options,
    ) -> None:
        self.app = app
        self.store = store
        self.config = config
        # Kept so run(profile=...) can rebuild the backend with the
        # profiling flag flipped on without the caller re-plumbing
        # every backend option.
        self._backend_name = backend
        self._backend_options = dict(backend_options)
        self._runtime = create_backend(backend, app, store, config, **backend_options)

    @property
    def backend(self) -> str:
        """Name of the selected execution backend."""
        return self._runtime.name

    @staticmethod
    def backends() -> tuple:
        """Names of all registered execution backends."""
        return available_backends()

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
        if profile is None:
            return self._runtime.run(keys)
        runtime = self._runtime
        if not self.config.profiling:
            runtime = create_backend(
                self._backend_name, self.app, self.store,
                dataclasses.replace(self.config, profiling=True),
                **self._backend_options,
            )
        result = runtime.run(keys, profile=profile)
        if runtime is not self._runtime:
            self._runtime.last_stats = runtime.last_stats
        return result

    def session(self, policy="fifo", max_active=None) -> BackendSession:
        """Open a long-lived session on this Rocket's backend.

        Returns the backend's session driver itself (a
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
        return self._runtime.open_session(policy=policy, max_active=max_active)

    @property
    def last_stats(self):
        """Statistics of the most recent :meth:`run` (None before any run).

        A :class:`~repro.runtime.stats.RunStats` on every backend:
        per-node counters, their sum and ``summary()``.
        """
        return self._runtime.last_stats
