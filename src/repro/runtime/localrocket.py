"""The threaded single-node Rocket runtime executing real pipelines.

Architecture (paper Section 4.3, scaled to one machine): the actual
per-node machinery — worker threads, two :class:`~repro.cache.slots.SlotCache`
levels, the load pipeline and job admission — lives in
:class:`~repro.runtime.pernode.NodePipeline`, which this runtime and
the multi-process :mod:`repro.runtime.cluster` runtime share.  This
class is the single-node configuration: no third cache level, no
global stealing, results written straight into an in-process
:class:`~repro.core.result.ResultMatrix`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.cache.policy import EvictionPolicy
from repro.cache.slots import CacheCounters
from repro.core.api import Application
from repro.core.scheduler import JobScheduler, SchedulingPolicy, coerce_policy
from repro.core.session import RunHandle, RunState, SessionClosed
from repro.core.workload import Workload
from repro.data.filestore import FileStore
from repro.model.perfmodel import StageCalibration
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.runtime.backend import BackendSession, RocketBackend
from repro.runtime.pernode import NodeEngine, NodePipeline
from repro.scheduling.workstealing import StealOrder, StealPolicy
from repro.util.rng import RngFactory
from repro.util.trace import ProfileTrace, TraceRecorder

__all__ = [
    "RocketConfig",
    "RunStats",
    "LocalRocketRuntime",
    "LocalSession",
    "count_pairs",
]


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
    #: ``compare_block``: an int fixes it, ``"auto"`` sizes it from the
    #: online-calibrated per-pair compare time (see
    #: ``StageCalibration.auto_grain``).  A launch gets the longest
    #: prefix of a grain-sized leaf whose distinct items fit the pins
    #: admission has free, so the effective batch shrinks under cache
    #: pressure.  Apps without ``compare_block`` ignore it (one pair
    #: per job).
    grain: "int | str" = "auto"
    cpu_workers: int = 4
    #: Per-device kernel speed factors (< 1 emulates a slower GPU);
    #: length must equal ``n_devices`` when given.
    device_speed_factors: Optional[Tuple[float, ...]] = None
    eviction: EvictionPolicy = EvictionPolicy.LRU
    steal_order: StealOrder = StealOrder.LARGEST
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
        if self.cpu_workers < 1:
            raise ValueError(f"cpu_workers must be >= 1, got {self.cpu_workers}")
        if self.leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {self.leaf_size}")
        if isinstance(self.grain, str):
            if self.grain != "auto":
                raise ValueError(f'grain must be an int or "auto", got {self.grain!r}')
        elif self.grain < 1:
            raise ValueError(f"grain must be >= 1, got {self.grain}")
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


def count_pairs(keys: Sequence[Hashable], pair_filter) -> int:
    """Number of accepted pairs for a key list under an optional filter."""
    n = len(keys)
    if pair_filter is None:
        return n * (n - 1) // 2
    total = sum(
        1 for i in range(n) for j in range(i + 1, n) if pair_filter(keys[i], keys[j])
    )
    if total == 0:
        raise ValueError("pair_filter rejected every pair")
    return total


@dataclass
class RunStats:
    """Measured behaviour of one threaded run."""

    runtime: float
    n_items: int
    n_pairs: int
    loads: int
    reuse_factor: float
    device_counters: CacheCounters
    host_counters: CacheCounters
    local_steals: int
    kernel_seconds: Dict[str, float]
    kernel_counts: Dict[str, int]
    pairs_per_device: Dict[str, int]
    h2d_bytes: int
    d2h_bytes: int
    io_bytes: int
    parse_seconds: float
    throughput: float
    #: Sum of device speed factors the run executed on.
    aggregate_speed: float = 1.0
    #: Online-calibrated stage costs measured while the run executed.
    calibration: Optional[StageCalibration] = None
    #: Calibrated-model runtime at the measured reuse factor R.
    predicted_runtime: float = 0.0
    #: Eq. 5 system efficiency against the calibrated lower bound.
    model_efficiency: float = 0.0
    trace: Optional[TraceRecorder] = None
    #: Persistent item-cache traffic (zero without a ``store_dir``).
    persist_hits: int = 0
    persist_misses: int = 0
    persist_stores: int = 0
    persist_bytes_read: int = 0
    persist_bytes_written: int = 0

    def summary(self) -> str:
        """Short human-readable digest."""
        return (
            f"{self.n_pairs} pairs / {self.n_items} items in {self.runtime:.2f}s "
            f"({self.throughput:.1f} pairs/s); loads={self.loads} (R={self.reuse_factor:.2f}); "
            f"device hit ratio {self.device_counters.hit_ratio():.1%}, "
            f"host hit ratio {self.host_counters.hit_ratio():.1%}; "
            f"steals={self.local_steals}; "
            f"model: predicted {self.predicted_runtime:.2f}s vs measured "
            f"{self.runtime:.2f}s, system efficiency {self.model_efficiency:.1%} "
            f"(aggregate speed {self.aggregate_speed:.2f})"
        )


class LocalRocketRuntime(RocketBackend):
    """Run an :class:`~repro.core.api.Application` all-pairs on one machine.

    ``run(keys, pair_filter=None)`` (inherited) executes one workload
    through a one-shot session; :meth:`open_session` returns a
    :class:`LocalSession` that keeps devices, caches and pools warm
    across many submitted workloads.
    """

    name = "local"

    def __init__(
        self,
        app: Application,
        store: FileStore,
        config: RocketConfig = RocketConfig(),
    ) -> None:
        self.app = app
        self.store = store
        self.config = config
        self.last_stats: Optional[RunStats] = None

    def open_session(
        self,
        capacity_hint: Optional[int] = None,
        *,
        policy="fifo",
        max_active: Optional[int] = None,
    ) -> "LocalSession":
        """Spin up a live single-node session (engine + scheduler loop)."""
        return LocalSession(
            self, capacity_hint=capacity_hint, policy=policy, max_active=max_active
        )

    def _one_shot_session(self, workload: Workload) -> "LocalSession":
        # One known workload: bound the engine's cache slots by its
        # item count instead of allocating the full configured slots.
        return self.open_session(capacity_hint=workload.n_items)


class _LocalJob:
    """One active job's backend-side state in a LocalSession."""

    __slots__ = ("handle", "pipeline", "started", "deadline", "error")

    def __init__(self, handle: RunHandle, pipeline: NodePipeline, deadline: float) -> None:
        self.handle = handle
        self.pipeline = pipeline
        self.started = time.perf_counter()
        self.deadline = deadline
        self.error: Optional[BaseException] = None


class LocalSession(BackendSession):
    """A live local-backend execution context.

    Owns one persistent :class:`~repro.runtime.pernode.NodeEngine`
    (virtual devices, device + host slot caches, thread pools) and a
    scheduler thread multiplexing the submitted workloads over it.
    Under the default FIFO policy jobs execute serially in submission
    order (the historical behaviour, workload blocks handed to the
    pipeline wholesale); under FAIR up to ``max_active`` jobs run
    concurrently, each on its own :class:`~repro.runtime.pernode.NodePipeline`
    borrowing the shared engine, and the
    :class:`~repro.core.scheduler.JobScheduler` grants grain-sized pair
    blocks by weighted virtual time so device share tracks each job's
    ``priority``.  The caches are key-addressed and shared, so any job
    over overlapping keys hits the payloads earlier (or co-running)
    jobs loaded; cache pins are held by the owning job's pipeline, so
    cancelling one job releases exactly its pins and never disturbs a
    co-running job's pinned slots.
    """

    #: Scheduler wake-up backstop; all interesting transitions set the
    #: wake event explicitly, the timeout only bounds lost wake-ups.
    _TICK = 0.02

    def __init__(
        self,
        runtime: LocalRocketRuntime,
        capacity_hint: Optional[int] = None,
        policy="fifo",
        max_active: Optional[int] = None,
    ) -> None:
        self._runtime = runtime
        cfg = runtime.config
        self._engine = NodeEngine(cfg, rngs=RngFactory(cfg.seed), capacity_hint=capacity_hint)
        self.policy = coerce_policy(policy)
        # Grain: a few leaves per grant keeps hand-out overhead low
        # while letting two jobs interleave within tens of pairs.
        self._scheduler = JobScheduler(
            self.policy,
            max_active=max_active,
            grain_pairs=max(8, 4 * cfg.leaf_size),
            window_pairs=max(24, 12 * cfg.leaf_size),
            # FAIR grants block-level: decompose at submit time, on the
            # caller's thread, so a large filtered workload's predicate
            # sweep never stalls the shared admission loop.
            decompose=self.policy is SchedulingPolicy.FAIR,
        )
        self._closed = False
        self._lock = threading.Lock()
        self._active: List[_LocalJob] = []
        #: Session-lifetime observability: the trace holds scheduler
        #: spans plus every finished job's pipeline events (all on this
        #: process's clock — per-job recorders share its origin), the
        #: registry accumulates counters across jobs.
        self._trace = TraceRecorder(enabled=cfg.profiling)
        self._metrics = MetricsRegistry()
        self._job_records: Deque[Dict[str, object]] = deque(maxlen=64)
        self._log = get_logger("session.local")
        self._log.info("session open", policy=self.policy.value)
        self._wake = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, name="rocket-local-session", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------

    def submit(
        self,
        workload: Workload,
        *,
        priority: float = 1.0,
        max_inflight: Optional[int] = None,
    ) -> RunHandle:
        """Queue a workload; returns its handle immediately (QUEUED)."""
        with self._lock:
            if self._closed:
                raise SessionClosed("session is closed")
        # All per-workload heavy lifting runs on the submitting thread,
        # outside the session lock: the serve loop (which takes the
        # same lock every iteration) keeps granting to co-running jobs
        # while a large submission prepares.  Warming grain_blocks
        # first also seeds the accepted-pair counts, so a filtered
        # workload's predicate sweeps each pair exactly once.
        self._runtime.app.validate_keys(workload.keys)
        if self.policy is SchedulingPolicy.FAIR:
            workload.grain_blocks(self._scheduler.grain_pairs)
        handle = RunHandle(workload, priority=priority, max_inflight=max_inflight)
        self._scheduler.submit(handle)
        with self._lock:
            if self._closed:
                # close() raced the preparation: its cancel sweep missed
                # this handle, so resolve it here (the queued hook makes
                # this synchronous) and report the closure.
                handle.cancel()
                raise SessionClosed("session is closed")
        self._wake.set()
        return handle

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Cancel outstanding jobs and tear the engine down.

        The first caller performs the teardown; any other ``close()``
        — a double close, or a second thread racing this one — raises
        :class:`~repro.core.session.SessionClosed` instead of running
        the shutdown sequence twice against the shared engine.
        """
        with self._lock:
            if self._closed:
                raise SessionClosed("session is already closed")
            self._closed = True
            handles = self._scheduler.queued_handles() + self._scheduler.active_handles()
        for handle in handles:
            # Queued handles resolve synchronously through their cancel
            # hook; active ones abort and are retired by the serve loop.
            handle.cancel()
        self._wake.set()
        self._thread.join(timeout=30.0)
        for handle in handles:
            # Belt and braces: if the serve thread wedged (join timed
            # out) a queued handle may still be unresolved — wait() on
            # a closed session must never hang.
            if not handle.done():
                handle._finish(RunState.CANCELLED)
        self._engine.close()
        self._log.info("session closed")

    # ------------------------------------------------------------------

    def _serve(self) -> None:
        """The session's shared admission loop (scheduler thread body)."""
        while True:
            # Idle sessions park on the event (submit/cancel/close set
            # it); the timed tick only runs while jobs are in flight,
            # where it drives watchdogs and grant refills.
            self._wake.wait(timeout=self._TICK if self._active else None)
            self._wake.clear()
            # 1. Retire finished jobs (frees active slots first).
            for job in [j for j in self._active if j.pipeline.done.is_set()]:
                self._active.remove(job)
                try:
                    self._finalize(job)
                except BaseException as exc:  # noqa: BLE001 - session must survive
                    if not job.handle.done():
                        job.handle._finish(RunState.FAILED, error=exc)
                finally:
                    self._scheduler.finish(job.handle)
            # 2. Watchdogs + cancelled jobs that lost their grants.
            now = time.perf_counter()
            for job in self._active:
                if job.handle.cancel_requested:
                    self._scheduler.drop_remaining(job.handle)
                    # A cancel that landed inside the activation window
                    # (queued hook already a no-op, running hook not yet
                    # installed) reaches the pipeline through this poll
                    # instead of idling until the watchdog.
                    job.pipeline.request_stop(abort=True)
                if now > job.deadline and not job.pipeline.done.is_set():
                    job.error = RuntimeError(
                        f"run did not finish within watchdog_seconds="
                        f"{self._runtime.config.watchdog_seconds}; completed "
                        f"{job.pipeline.counters['completed']}/"
                        f"{job.handle.workload.n_pairs} pairs"
                    )
                    self._scheduler.drop_remaining(job.handle)
                    job.pipeline.request_stop(abort=True)
            # 3. Admit queued jobs into free active slots.
            for handle in self._scheduler.admit():
                try:
                    self._activate(handle)
                except BaseException as exc:  # noqa: BLE001
                    self._scheduler.finish(handle)
                    if not handle.done():
                        handle._finish(RunState.FAILED, error=exc)
            # 4. Fair hand-out: grant blocks while windows are open.
            while True:
                grant = self._scheduler.next_grant()
                if grant is None:
                    break
                handle, block, _count = grant
                job = next((j for j in self._active if j.handle is handle), None)
                if job is not None:
                    job.pipeline.inject_block(block)
            with self._lock:
                if self._closed and not self._active and self._scheduler.idle:
                    return

    def _activate(self, handle: RunHandle) -> None:
        """Start one admitted job's pipeline on the shared engine."""
        cfg = self._runtime.config
        workload = handle.workload
        fifo = self.policy is SchedulingPolicy.FIFO
        scheduler = self._scheduler

        if fifo:
            # Hot path kept as lean as the pre-scheduler dispatcher: no
            # window bookkeeping, and the serve loop needs no wake-up
            # before the pipeline is done (``on_done`` below).
            emit_block = handle._record_block
        else:

            def emit_block(pairs, values, _h=handle):
                _h._record_block(pairs, values)
                scheduler.on_completed(_h, len(pairs))
                self._wake.set()  # the job's window reopened: refill grants

        acct = handle.accounting
        job_id = acct.job_id if acct is not None else None
        if self._trace.enabled and acct is not None:
            # The job's admission-queue wait, as a scheduler-lane span
            # ending now (adjacent to the spans its pipeline records).
            now = self._trace.now()
            self._trace.record(
                "scheduler", "queued", max(0.0, now - acct.queued_seconds), now, job_id
            )
        pipeline = NodePipeline(
            self._runtime.app,
            self._runtime.store,
            cfg,
            workload.keys,
            pair_filter=workload.pair_filter,
            emit_block=emit_block,
            rngs=RngFactory(cfg.seed),
            # Per-job recorder on the session clock: stats keep a
            # per-job trace while profile() merges without rebasing.
            trace=TraceRecorder(enabled=cfg.profiling, origin=self._trace.origin),
            expected_pairs=workload.n_pairs,
            # FIFO hands the decomposition over wholesale (identical to
            # the pre-scheduler behaviour, including speed-proportional
            # initial partitioning); FAIR feeds blocks through the
            # shared admission loop instead.
            initial_blocks=workload.blocks() if fifo else (),
            engine=self._engine,
            max_inflight=handle.max_inflight,
            job_id=job_id,
            # Retire the job as soon as its pipeline is done, not at the
            # next tick (an emit-time wake-up precedes the done event).
            on_done=self._wake.set,
        )
        self._log.debug("job admitted", job_id=job_id)
        job = _LocalJob(
            handle, pipeline, time.perf_counter() + cfg.watchdog_seconds
        )
        if fifo:
            scheduler.mark_fully_granted(handle)
        # FAIR: the grain quanta were precomputed at submit time
        # (decompose=True) — nothing heavy runs on this thread.
        self._active.append(job)
        pipeline.start()
        handle._mark_running(
            cancel_cb=lambda: (pipeline.request_stop(abort=True), self._wake.set())
        )

    def _finalize(self, job: _LocalJob) -> None:
        """Join a finished job's pipeline and resolve its handle."""
        cfg = self._runtime.config
        handle = job.handle
        pipeline = job.pipeline
        total_pairs = handle.workload.n_pairs
        n = handle.workload.n_items
        try:
            pipeline.join(timeout=10.0)
        finally:
            pipeline.close()  # engine is session-owned: stays warm
        runtime = time.perf_counter() - job.started

        if handle.accounting is not None:
            # FIFO's lean emit path does not credit completions as
            # they land; sync the count here so partial progress of
            # failed/cancelled jobs reports correctly on every backend.
            handle.accounting.pairs_completed = max(
                handle.accounting.pairs_completed, handle.progress()[0]
            )
        acct = handle.accounting
        job_id = acct.job_id if acct is not None else None
        if self._trace.enabled:
            # The job's running span on the scheduler lane, then the
            # pipeline's per-stage events (already on the session
            # clock — the per-job recorder shares this origin).
            self._trace.record(
                "scheduler", "run",
                max(0.0, job.started - self._trace.origin), self._trace.now(), job_id,
            )
            self._trace.extend(pipeline.trace.events)
        if acct is not None:
            self._job_records.append(acct.to_dict())
            self._metrics.observe("scheduler.grant_latency_seconds", acct.queued_seconds)
            self._metrics.inc("scheduler.blocks_granted", acct.blocks_granted)
        completed_all = (
            handle.progress()[0] == total_pairs
            and job.error is None
            and not pipeline.errors
        )
        if handle.cancel_requested and not completed_all:
            self._metrics.inc("jobs.cancelled")
            self._log.info("job cancelled", job_id=job_id)
            handle._finish(RunState.CANCELLED)
            return
        error = job.error
        if error is None and pipeline.errors:
            error = pipeline.errors[0]
        if error is None and handle.progress()[0] != total_pairs:
            error = RuntimeError(
                f"run ended with {handle.progress()[0]}/{total_pairs} results — "
                f"scheduler bug"
            )
        if error is not None:
            self._metrics.inc("jobs.failed")
            self._log.warning("job failed: %s", error, job_id=job_id)
            handle._finish(RunState.FAILED, error=error)
            return

        ns = pipeline.stats()
        if isinstance(cfg.grain, str) and self._runtime.app.supports_compare_block:
            # grain="auto": the finished job's calibrated per-pair
            # compare time re-sizes the scheduler's grant quanta, so the
            # next submission's grain_blocks() match the batched kernels.
            auto = ns.calibration.auto_grain(lo=cfg.leaf_size)
            if auto is not None:
                self._scheduler.grain_pairs = auto
                self._scheduler.window_pairs = max(3 * auto, self._scheduler.window_pairs)
        reuse = ns.loads / n
        model = ns.calibration.model(
            n_items=n, aggregate_speed=cfg.aggregate_speed, cpu_cores=cfg.cpu_workers
        )
        stats = RunStats(
            runtime=runtime,
            n_items=n,
            n_pairs=total_pairs,
            loads=ns.loads,
            reuse_factor=reuse,
            device_counters=ns.device_counters,
            host_counters=ns.host_counters,
            local_steals=ns.local_steals,
            kernel_seconds=ns.kernel_seconds,
            kernel_counts=ns.kernel_counts,
            pairs_per_device=ns.pairs_per_device,
            h2d_bytes=ns.h2d_bytes,
            d2h_bytes=ns.d2h_bytes,
            io_bytes=ns.io_bytes,
            parse_seconds=ns.parse_seconds,
            throughput=total_pairs / runtime if runtime > 0 else 0.0,
            aggregate_speed=cfg.aggregate_speed,
            calibration=ns.calibration,
            predicted_runtime=model.predicted_runtime(max(1.0, reuse)),
            model_efficiency=model.efficiency(runtime) if runtime > 0 else 0.0,
            trace=pipeline.trace if cfg.profiling else None,
            persist_hits=ns.persist_hits,
            persist_misses=ns.persist_misses,
            persist_stores=ns.persist_stores,
            persist_bytes_read=ns.persist_bytes_read,
            persist_bytes_written=ns.persist_bytes_written,
        )
        self._absorb_stats(stats)
        self._log.info("job done", job_id=job_id)
        self._runtime.last_stats = stats
        handle._finish(RunState.DONE, stats=stats)

    def _absorb_stats(self, stats: RunStats) -> None:
        """Fold one finished job's counters into the session registry."""
        m = self._metrics
        m.inc("jobs.completed")
        m.observe("jobs.runtime_seconds", stats.runtime)
        m.inc("pairs.completed", stats.n_pairs)
        m.inc("pipeline.loads", stats.loads)
        m.inc("pipeline.io_bytes", stats.io_bytes)
        m.inc("pipeline.h2d_bytes", stats.h2d_bytes)
        m.inc("pipeline.d2h_bytes", stats.d2h_bytes)
        for level, counters in (
            ("device", stats.device_counters),
            ("host", stats.host_counters),
        ):
            m.inc(f"cache.{level}.hits", counters.hits + counters.hits_while_writing)
            m.inc(f"cache.{level}.misses", counters.misses)
            m.inc(f"cache.{level}.evictions", counters.evictions)
        m.inc("cache.persistent.hits", stats.persist_hits)
        m.inc("cache.persistent.misses", stats.persist_misses)
        m.inc("cache.persistent.stores", stats.persist_stores)
        m.inc("cache.persistent.bytes_read", stats.persist_bytes_read)
        m.inc("cache.persistent.bytes_written", stats.persist_bytes_written)
        m.inc("steal.local", stats.local_steals)

    # -- observability ---------------------------------------------------

    def metrics(self) -> Dict[str, object]:
        """Session-lifetime metrics snapshot (see :mod:`repro.obs.metrics`)."""
        self._metrics.set_gauge("scheduler.queue_depth", self._scheduler.queued_count)
        self._metrics.set_gauge("scheduler.active_jobs", self._scheduler.active_count)
        snapshot = self._metrics.snapshot()
        snapshot.setdefault("jobs", {})["recent"] = list(self._job_records)
        return snapshot

    def profile(self) -> ProfileTrace:
        """This session's profile (single process: one pid in the merge)."""
        trace = ProfileTrace()
        trace.add_process("rocket-local", self._trace.events, pid=os.getpid())
        return trace
