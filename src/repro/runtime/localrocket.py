"""The threaded single-node Rocket runtime executing real pipelines.

Architecture (paper Section 4.3, scaled to one machine): the actual
per-node machinery — worker threads, two :class:`~repro.cache.slots.SlotCache`
levels, the load pipeline and job admission — lives in
:class:`~repro.runtime.pernode.NodePipeline`, which this runtime and
the multi-process :mod:`repro.runtime.cluster` runtime share.
:class:`LocalSession` is the single-node configuration: no third cache
level, no global stealing, results written straight into an in-process
:class:`~repro.core.result.ResultMatrix`.  :class:`RocketConfig` holds
the tunables both backends share.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.scheduler import DEFAULT_GRAIN, JobScheduler, SchedulingPolicy, coerce_policy
from repro.core.session import RunHandle
from repro.runtime.backend import BackendSession, SessionJob
from repro.runtime.pernode import NodeEngine, NodePipeline
from repro.runtime.stats import NodeStats, RunStats
from repro.scheduling.workstealing import StealPolicy
from repro.util.rng import RngFactory
from repro.util.trace import TraceRecorder

if TYPE_CHECKING:
    from repro.core.rocket import Rocket

__all__ = ["RocketConfig", "RunStats", "LocalSession"]


@dataclass(frozen=True)
class RocketConfig:
    """Tunables of the threaded runtime (mirrors the simulator's config)."""

    n_devices: int = 2
    device_cache_slots: int = 64
    host_cache_slots: int = 256
    #: Jobs in flight per device.  A *job* is one kernel launch: a batch
    #: of pairs for apps with ``compare_block``, one pair otherwise.
    #: Admission is additionally bounded by device-cache pins — a job
    #: claims one unit per distinct item, out of
    #: ``device_cache_slots - 1`` per device — which is what keeps the
    #: cache deadlock-free (see :mod:`repro.runtime.pernode`).
    concurrent_jobs: int = 8
    leaf_size: int = 4
    #: Target pairs per batched kernel launch for apps with
    #: ``compare_block``.  A launch is a whole grain-sized leaf whenever
    #: the leaf's distinct items fit ``device_cache_slots - 1``; a leaf
    #: with more items than that is cut into capacity-sized launches.
    #: What is in flight never shrinks a launch — under cache pressure a
    #: device runs one whole leaf at a time.  Apps without
    #: ``compare_block`` ignore it (one pair per job).  It is also the FAIR quantum.
    grain: int = DEFAULT_GRAIN
    #: Per-device kernel speed factors (< 1 emulates a slower GPU);
    #: length must equal ``n_devices`` when given.
    device_speed_factors: Optional[Tuple[float, ...]] = None
    #: ``UNIFORM`` — the paper's randomized stealing; ``SPEED`` — the
    #: heterogeneity-aware policy: speed-proportional initial
    #: partitioning, victims ranked by estimated remaining time, steal
    #: sizes and job admission scaled by device speed.
    steal_policy: StealPolicy = StealPolicy.UNIFORM
    profiling: bool = False
    seed: int = 0
    #: Hard wall-clock limit: a wedged run raises instead of hanging.
    watchdog_seconds: float = 600.0
    #: Directory of the persistent cross-session store (``repro.store``):
    #: preprocessed payloads persist behind the host cache and computed
    #: pair results are memoized across sessions.  ``None`` disables
    #: both planes.  Shared by every process of a run (the frozen config
    #: ships to cluster node processes) and safe to share between a
    #: daemon and concurrent one-shot CLIs.
    store_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {self.n_devices}")
        if self.leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {self.leaf_size}")
        if not isinstance(self.grain, int) or self.grain < 1:
            raise ValueError(f"grain must be an int >= 1, got {self.grain!r}")
        if self.device_speed_factors is not None:
            if len(self.device_speed_factors) != self.n_devices:
                raise ValueError(
                    f"{len(self.device_speed_factors)} speed factors for "
                    f"{self.n_devices} devices"
                )
            if any(not 0 < s <= 1.0 for s in self.device_speed_factors):
                # A VirtualDevice can only *stretch* kernel time, so the
                # reference device (1.0) must be the fastest; factors > 1
                # would skew partitioning and calibration with no speedup.
                raise ValueError(
                    f"speed factors must be in (0, 1], got {self.device_speed_factors}"
                )
        if self.watchdog_seconds <= 0:
            raise ValueError("watchdog_seconds must be positive")

    @property
    def device_speeds(self) -> Tuple[float, ...]:
        """Per-device speed factors (1.0 for unspecified devices)."""
        return self.device_speed_factors or (1.0,) * self.n_devices

    @property
    def aggregate_speed(self) -> float:
        """Sum of device speed factors — the model's generalised ``p``."""
        return float(sum(self.device_speeds))


class _LocalJob(SessionJob):
    """One active job in a LocalSession: its pipeline on the shared engine."""

    def __init__(self, handle: RunHandle, pipeline: NodePipeline, watchdog_seconds: float) -> None:
        super().__init__(handle, watchdog_seconds)
        self.pipeline = pipeline


class LocalSession(BackendSession):
    """A live local-backend execution context.

    Owns one persistent :class:`~repro.runtime.pernode.NodeEngine`
    (virtual devices, device + host slot caches, thread pools); the
    shared session driver multiplexes the submitted workloads over it.
    Under FIFO a job's decomposition goes to its pipeline wholesale;
    under FAIR each active job runs on its own
    :class:`~repro.runtime.pernode.NodePipeline` borrowing the shared
    engine, and the :class:`~repro.core.scheduler.JobScheduler` grants
    grain-sized pair blocks by weighted virtual time so device share
    tracks each job's ``priority``.  The caches are key-addressed and
    shared, so any job over overlapping keys hits the payloads earlier
    (or co-running) jobs loaded; cache pins are held by the owning
    job's pipeline, so cancelling one job releases exactly its pins and
    never disturbs a co-running job's pinned slots.

    ``capacity_hint`` bounds the engine's cache slots by the item count
    of the one workload a one-shot :meth:`Rocket.run
    <repro.core.rocket.Rocket.run>` submits, instead of allocating the
    full configured slots.
    """

    backend = "local"
    _process_name = "rocket-local"
    #: Driver wake-up backstop while jobs run; all interesting
    #: transitions set the wake event explicitly, the timeout only
    #: bounds lost wake-ups and drives the watchdogs.
    _TICK = 0.02

    def __init__(
        self,
        rocket: "Rocket",
        cfg: RocketConfig,
        *,
        policy="fifo",
        max_active: Optional[int] = None,
        capacity_hint: Optional[int] = None,
    ) -> None:
        policy = coerce_policy(policy)
        # A FAIR quantum is one leaf; one leaf per device in flight keeps
        # the devices busy and leaves each next leaf to the weights.
        scheduler = JobScheduler(
            policy,
            max_active=max_active,
            grain=cfg.grain,
            window=cfg.n_devices * cfg.grain,
            # FAIR grants block-level: decompose at submit time, on the
            # caller's thread, so a large filtered workload's predicate
            # sweep never stalls the shared admission loop.
            decompose=policy is SchedulingPolicy.FAIR,
        )
        super().__init__(rocket, cfg, scheduler, "session.local")
        #: What ``_pump`` parks on; set by :meth:`_notify`.
        self._wake = threading.Event()
        self._engine = NodeEngine(cfg, capacity_hint=capacity_hint)
        self._log.info("session open", policy=policy.value)
        self._thread.start()

    def _notify(self) -> None:
        self._wake.set()

    def _pump(self) -> None:
        # Fair hand-out: grant quanta while the session window is open.
        while (grant := self._scheduler.next_grant()) is not None:
            handle, block, _count = grant
            job = self._active.get(handle.accounting.job_id)
            if job is not None:
                job.pipeline.inject_block(block)
        # Idle sessions park on the event (submit/cancel/close set it);
        # the timed tick only runs while jobs are in flight.
        self._wake.wait(timeout=self._TICK if self._active else None)
        self._wake.clear()

    def _start_job(self, handle: RunHandle) -> _LocalJob:
        """Start one admitted job's pipeline on the shared engine."""
        cfg = self._config
        workload = handle.residual  # what the memo store left to compute
        fifo = self.policy is SchedulingPolicy.FIFO
        scheduler = self._scheduler

        if fifo:
            # Hot path kept as lean as a plain dispatcher: no window
            # bookkeeping, and the driver needs no wake-up before the
            # pipeline is done (``on_done`` below).
            emit_block = handle._record_block
        else:

            def emit_block(pairs, values, _h=handle):
                _h._record_block(pairs, values)
                scheduler.on_completed(_h, len(pairs))
                self._notify()  # the session window reopened: refill grants

        pipeline = NodePipeline(
            self._rocket.app,
            self._rocket.store,
            cfg,
            workload.keys,
            pair_filter=workload.pair_filter,
            emit_block=emit_block,
            rngs=RngFactory(cfg.seed),
            # Per-job recorder on the session clock: the job's stats
            # keep their own trace and profile() merges without rebasing.
            trace=TraceRecorder(enabled=cfg.profiling, origin=self._trace.origin),
            expected_pairs=workload.n_pairs,
            # FIFO hands the decomposition over wholesale (including
            # speed-proportional initial partitioning); FAIR feeds the
            # precomputed grain quanta through ``_pump`` instead.
            initial_blocks=workload.blocks() if fifo else (),
            engine=self._engine,
            max_inflight=handle.max_inflight,
            job_id=handle.accounting.job_id,
            # Retire the job as soon as its pipeline is done, not at the
            # next tick (an emit-time wake-up precedes the done event).
            on_done=self._notify,
        )
        pipeline.start()
        return _LocalJob(handle, pipeline, cfg.watchdog_seconds)

    def _job_ended(self, job: _LocalJob) -> bool:
        return job.pipeline.done.is_set()

    def _stop_job(self, job: _LocalJob) -> None:
        job.pipeline.request_stop(abort=True)

    def _collect(self, job: _LocalJob) -> List[NodeStats]:
        pipeline = job.pipeline
        try:
            pipeline.join(timeout=10.0)
        finally:
            pipeline.close()  # engine is session-owned: stays warm
        if job.error is None and pipeline.errors:
            job.error = pipeline.errors[0]  # a worker's failure is the job's
        return [pipeline.stats()]

    def _teardown(self) -> None:
        self._engine.close()
