"""The session driver every execution backend shares.

Rocket executes the same all-pairs application on different substrates
— the threaded single-process runtime, or the multi-process cluster
runtime — behind one job contract (the ``AbstractRunner`` /
concrete-runner split familiar from pipeline frameworks: the base owns
the run contract, a runner supplies only how work reaches its
executors):

- :class:`BackendSession` — one live execution context and the job
  lifecycle every backend shares: submit, admission, cancellation,
  watchdog, terminal resolution, metrics, close.  It is the one session
  type: :meth:`Rocket.session <repro.core.rocket.Rocket.session>`
  opens a :class:`~repro.runtime.localrocket.LocalSession` or a
  :class:`~repro.runtime.cluster.ClusterSession`, and
  ``repro.RocketSession`` names this base;
- :class:`SessionJob` — what the driver tracks for one active job.

A session reads the application, the store (and the cluster's
:class:`~repro.runtime.cluster.ClusterConfig`) from the
:class:`~repro.core.rocket.Rocket` that opened it, runs the
:class:`~repro.runtime.localrocket.RocketConfig` it was given, and
publishes each completed job's stats as that Rocket's ``last_stats``.
"""

from __future__ import annotations

import os
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.result import ResultMatrix
from repro.core.scheduler import JobScheduler
from repro.core.session import RunHandle, RunState, SessionClosed
from repro.core.workload import Workload, as_workload
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.runtime.stats import NodeStats, RunStats, fold_stats
from repro.store.integration import SessionMemo
from repro.util.trace import ProfileTrace, TraceRecorder

if TYPE_CHECKING:
    from repro.core.rocket import Rocket
    from repro.runtime.localrocket import RocketConfig

__all__ = ["BackendSession", "SessionJob"]


class SessionJob:
    """What the session driver tracks for one active job.

    Backends subclass it with their executor-side state (a pipeline,
    the coordinator's share and steal bookkeeping).
    """

    #: Blocks moved between nodes on this job's behalf.
    remote_steals = 0

    def __init__(self, handle: RunHandle, watchdog_seconds: float) -> None:
        self.handle = handle
        self.job_id: int = handle.accounting.job_id
        #: The memo journal's cursor into this job's results (the
        #: memoized block at their front is in the store already).
        self.journaled = handle.memo_hits
        self.started = time.perf_counter()
        self.deadline = self.started + watchdog_seconds
        #: What failed the job, if anything did.
        self.error: Optional[BaseException] = None
        #: The driver asked the backend to stop this job (cancel or
        #: watchdog); asked once.
        self.stopping = False


class BackendSession(ABC):
    """One live execution context of a backend, and its job lifecycle.

    Executors (threads, processes, transport, every cache level) stay up
    across ``submit()`` calls, so consecutive jobs over overlapping keys
    reuse warm state.  What a job's life looks like is decided here,
    once, for every backend; a backend supplies only how work reaches
    its executors.

    **The base guarantees**

    - ``submit()`` never blocks on running jobs.  It validates the keys,
      lets the backend vet the workload, queues a
      :class:`~repro.core.session.RunHandle` on the session's
      :class:`~repro.core.scheduler.JobScheduler` and returns it QUEUED.
      With a ``store_dir`` it first partitions the workload against the
      memo store (:class:`~repro.store.integration.SessionMemo`): the
      job's one handle starts with the memoized pairs recorded, the
      backend gets the residual, and a job with nothing residual
      returns DONE (no stats) without being queued.  The driver journals
      computed pairs every tick and once more before any terminal
      state.  On a closed session it raises
      :class:`~repro.core.session.SessionClosed`, on a dead one
      ``RuntimeError``; a submit that loses the race against a
      concurrent ``close()`` resolves its handle CANCELLED first, so
      ``wait()`` can never hang.
    - One driver thread admits jobs in policy order (FIFO: serially, in
      submission order; FAIR: up to ``max_active`` at once, priority
      first), starts them, and retires each as soon as the backend says
      it has ended.  A cancel or an expired ``watchdog_seconds`` stops
      the job through the backend, once.  The driver is woken, never
      polled, for what users do: ``submit``, ``close``, a running job's
      ``cancel`` and a membership change each call :meth:`_notify`.
    - Every job ends in exactly one state.  Completion beats cancel: a
      job whose every pair arrived ends DONE even if a cancel was
      accepted meanwhile.  Otherwise a cancelled job ends CANCELLED, a
      job with an error — or one that ended short of its pair count —
      ends FAILED and is logged, and a DONE job carries its
      :class:`~repro.runtime.stats.RunStats`, folded into
      :meth:`metrics` and published as the Rocket's ``last_stats``.
      Cancelling or failing one job never disturbs a co-running one.
    - ``close()`` tears the session down exactly once: it cancels every
      queued and running job, waits for the driver, resolves whatever a
      wedged driver left behind as CANCELLED, then tears the executors
      down.  Any further ``close()`` raises ``SessionClosed``
      (context-manager exit suppresses it).
    - A session the backend declares dead (:meth:`_mark_fatal`) fails
      its running *and* queued jobs instead of hanging them.

    **Backend hooks** (all but :meth:`_prepare` run on the driver
    thread)

    - :meth:`_prepare` — vet a workload on the submitting thread
      (cluster: can it be pickled to the workers?);
    - :meth:`_start_job` — hand an admitted job to the executors and
      return its :class:`SessionJob`;
    - :meth:`_pump` — wait for something to happen, once (local: refill
      block grants, then park on an event; cluster: drain coordinator
      messages and check the worker processes);
    - :meth:`_notify` — the wake contract: called from any thread, it
      makes a blocked (or the next) :meth:`_pump` return promptly, so a
      backend's own timeout is only a backstop (watchdog, death
      checks), never the latency of a user action;
    - :meth:`_job_ended` / :meth:`_stop_job` — has the job's execution
      finished, and stop it early;
    - :meth:`_collect` — release the ended job's executor state and
      return its per-node :class:`~repro.runtime.stats.NodeStats`;
    - :meth:`_teardown` — shut the executors down at ``close()``.

    Backends with live membership (the cluster) also override
    :meth:`add_node` / :meth:`retire_node`.
    """

    #: Name of the executing backend (set by subclasses).
    backend = "?"
    #: Display name of this process in :meth:`profile`.
    _process_name = "rocket"
    #: Data plane reported in the jobs' ``RunStats``.
    _transport: Optional[str] = None
    #: How long ``close()`` waits for the driver thread to drain.
    _JOIN_TIMEOUT = 30.0

    def __init__(
        self, rocket: "Rocket", config: "RocketConfig", scheduler: JobScheduler, log_name: str
    ) -> None:
        self._rocket = rocket
        self._config = config
        self._scheduler = scheduler
        self.policy = scheduler.policy
        self._lock = threading.Lock()
        self._closed = False
        self._fatal: Optional[str] = None
        self._active: Dict[int, SessionJob] = {}
        #: Session-lifetime observability: the driver's own trace holds
        #: the scheduler-lane spans, finished jobs' node buffers wait as
        #: ``(name, pid, origin, events)`` for :meth:`profile` to merge,
        #: and the registry accumulates counters across jobs.
        self._trace = TraceRecorder(enabled=config.profiling)
        self._node_traces: Deque[Tuple[str, int, float, List]] = deque(maxlen=256)
        self._metrics = MetricsRegistry()
        self._memo: Optional[SessionMemo] = (
            SessionMemo(rocket.app, rocket.store, config.store_dir) if config.store_dir else None
        )
        self._job_records: Deque[Dict[str, object]] = deque(maxlen=64)
        self._log = get_logger(log_name)
        #: Started by the subclass once its executors are up.
        self._thread = threading.Thread(
            target=self._serve, name=f"rocket-{self.backend}-session", daemon=True
        )

    # -- backend hooks ---------------------------------------------------

    def _prepare(self, workload: Workload) -> None:
        """Reject a workload this backend cannot run (submitting thread)."""

    @abstractmethod
    def _start_job(self, handle: RunHandle) -> SessionJob:
        """Hand one admitted job to the executors."""

    @abstractmethod
    def _pump(self) -> None:
        """Block until there may be something to do; process it."""

    @abstractmethod
    def _notify(self) -> None:
        """Wake the driver: the blocked (or next) :meth:`_pump` returns now."""

    @abstractmethod
    def _job_ended(self, job: SessionJob) -> bool:
        """True once the job's executors are finished with it."""

    @abstractmethod
    def _stop_job(self, job: SessionJob) -> None:
        """Abort the job on the executors (idempotent)."""

    @abstractmethod
    def _collect(self, job: SessionJob) -> List[NodeStats]:
        """Release an ended job's executor state; return its node stats."""

    @abstractmethod
    def _teardown(self) -> None:
        """Shut the executors down (the driver thread has exited)."""

    # -- public surface --------------------------------------------------

    @property
    def last_stats(self) -> Optional[RunStats]:
        """Statistics of the most recently completed job of the opening Rocket."""
        return self._rocket.last_stats

    def submit(
        self,
        workload: Union[Workload, Sequence[Hashable]],
        *,
        priority: float = 1.0,
        max_inflight: Optional[int] = None,
    ) -> RunHandle:
        """Queue ``workload``; returns the job's handle immediately.

        Accepts a :class:`~repro.core.workload.Workload` or a plain key
        sequence (run as :class:`~repro.core.workload.AllPairs`).
        ``priority`` is the job's fair-share weight (FAIR policy);
        ``max_inflight`` caps its concurrently in-flight pair
        comparisons (None — only the session's limits apply).
        """
        self._check_open()
        workload = as_workload(workload)
        # All per-workload heavy lifting runs on the submitting thread,
        # outside the session lock: the driver keeps serving co-running
        # jobs while a large submission prepares (a FilteredPairs
        # predicate runs here, once per pair, on first use).
        self._rocket.app.validate_keys(workload.keys)
        memo, trace = self._memo, self._trace
        residual: Optional[Workload] = workload
        if memo is not None:
            # The backend is left the pairs the store cannot serve.
            lookup_start = trace.now()
            memoized, residual = memo.partition(workload)
            lookup_end = trace.now()
        if residual is not None:
            self._prepare(residual)
        handle = RunHandle(workload, priority=priority, max_inflight=max_inflight)
        if memo is not None:
            handle.residual, handle.memo_hits = residual, len(memoized[2])
            handle._record_block(*memoized)  # ahead of any computed pair
        if residual is not None:
            accounting = self._scheduler.submit(handle)
        else:
            # Served whole from the store: never queued, never run.
            accounting = self._scheduler.account(handle)
            accounting.started_at = accounting.finished_at = accounting.submitted_at
            self._job_records.append(accounting.to_dict())
        if memo is not None:
            trace.record("store", "memo:lookup", lookup_start, lookup_end, accounting.job_id)
        if residual is None:
            handle._finish(RunState.DONE)
            return handle
        try:
            self._check_open()
        except RuntimeError:
            # close() (or the session's death) raced the preparation and
            # its sweep missed this handle: resolve it here — the queued
            # cancel hook is synchronous — then report the session state.
            handle.cancel()
            raise
        self._notify()
        return handle

    def run(self, workload: Union[Workload, Sequence[Hashable]]) -> ResultMatrix:
        """Submit and block for the result."""
        return self.submit(workload).result()

    def _check_open(self) -> None:
        with self._lock:
            if self._closed:
                raise SessionClosed("session is closed")
            if self._fatal is not None:
                raise self._dead_error()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    def close(self) -> None:
        """Cancel outstanding jobs and tear the executors down.

        Exactly one caller wins; any further ``close()`` — concurrent or
        sequential — raises :class:`~repro.core.session.SessionClosed`
        instead of racing the teardown.
        """
        with self._lock:
            if self._closed:
                raise SessionClosed("session is already closed")
            self._closed = True
            handles = self._scheduler.queued_handles() + self._scheduler.active_handles()
        for handle in handles:
            # Queued handles resolve synchronously through their cancel
            # hook; active ones are stopped and retired by the driver.
            handle.cancel()
        self._notify()
        self._thread.join(timeout=self._JOIN_TIMEOUT)
        for handle in handles:
            # Belt and braces: whatever a wedged or dead driver left
            # unresolved must still end — wait() on a closed session
            # may never hang.
            if not handle.done():
                handle._finish(RunState.CANCELLED)
        try:
            self._teardown()
        finally:
            if self._memo is not None:
                self._memo.close()
        self._log.info("session closed")

    def add_node(self) -> int:
        """Grow the session's worker set by one node.

        Only the cluster backend has a node set to change; everything
        else raises.
        """
        raise RuntimeError(
            f"{type(self).__name__} does not support membership changes"
        )

    def retire_node(self, node: Optional[int] = None, *, drain: bool = True) -> int:
        """Drain and remove one worker node (cluster backend only)."""
        raise RuntimeError(
            f"{type(self).__name__} does not support membership changes"
        )

    def metrics(self) -> Dict[str, Any]:
        """Session-lifetime metrics snapshot (nested, JSON-dumpable).

        Counters, gauges and histograms accumulated across every job
        this session ran — cache hits per level, steal grants,
        transport traffic, scheduler queue depth and grant latency,
        plus per-job accounting records.  See :mod:`repro.obs.metrics`.
        """
        self._metrics.set_gauge("scheduler.queue_depth", self._scheduler.queued_count)
        self._metrics.set_gauge("scheduler.active_jobs", self._scheduler.active_count)
        snapshot = self._metrics.snapshot()
        snapshot.setdefault("jobs", {})["recent"] = list(self._job_records)
        if self._memo is not None:
            snapshot["store"] = self._memo.snapshot()
        return snapshot

    def profile(self) -> ProfileTrace:
        """The session's merged profile: this process plus every node.

        Node event times are rebased onto the session recorder's clock
        via the shipped origins (``perf_counter`` is a shared monotonic
        clock across local processes), so one Perfetto timeline shows
        the scheduler lanes above every node's IO/CPU/device/NET lanes.
        Empty unless the session ran with ``RocketConfig(profiling=True)``.
        """
        trace = ProfileTrace()
        trace.add_process(self._process_name, self._trace.events, pid=os.getpid())
        for name, pid, origin, events in list(self._node_traces):
            trace.add_process(name, events, pid=pid, offset=origin - self._trace.origin)
        return trace

    def __enter__(self) -> "BackendSession":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.close()
        except SessionClosed:
            pass  # closed early inside the with block

    # -- the driver ------------------------------------------------------

    def _mark_fatal(self, text: str) -> None:
        """Declare the session dead: its jobs fail, submissions raise."""
        if self._fatal is None:
            self._fatal = text
            self._log.error("session fatal: %s", text)

    def _serve(self) -> None:
        """Driver thread body: pump, retire, stop, admit — until closed."""
        while True:
            self._pump()
            now = time.perf_counter()
            for job in list(self._active.values()):
                if self._job_ended(job):
                    self._retire(job)
                    continue
                self._journal(job)
                if job.stopping:
                    continue
                elif job.handle.cancel_requested:
                    self._stop(job)
                elif now > job.deadline:
                    done, total = job.handle.progress()
                    job.error = RuntimeError(
                        f"run did not finish within watchdog_seconds="
                        f"{self._config.watchdog_seconds}; completed "
                        f"{done}/{total} pairs"
                    )
                    self._stop(job)
            if self._fatal is None:
                for handle in self._scheduler.admit():
                    self._admit(handle)
            else:
                self._fail_active()
            with self._lock:
                if self._fatal is not None:
                    # Queued jobs fail too: nothing will ever admit them.
                    self._scheduler.fail_all(self._dead_error)
                    return
                if self._closed and not self._active and self._scheduler.idle:
                    return

    def _dead_error(self) -> RuntimeError:
        return RuntimeError(f"session is dead: {self._fatal}")

    def _admit(self, handle: RunHandle) -> None:
        """Start one admitted job; a failed start fails just that job."""
        try:
            job = self._start_job(handle)
        except BaseException as exc:  # noqa: BLE001 - session must survive
            self._fail(handle, exc)
            return
        self._active[job.job_id] = job
        if not self._scheduler.decompose:
            # The executors got the whole decomposition up front; a
            # decomposing scheduler grants its quanta block by block.
            self._scheduler.mark_fully_granted(handle)
        if self._trace.enabled:
            # The job's admission-queue wait, as a scheduler-lane span
            # ending now (adjacent to the spans its pipelines record).
            now = self._trace.now()
            queued = handle.accounting.queued_seconds
            self._trace.record("scheduler", "queued", max(0.0, now - queued), now, job.job_id)
        self._log.debug("job admitted", job_id=job.job_id)
        # A running job's cancel wakes the driver, which stops it.
        handle._mark_running(cancel_cb=self._notify)

    def _journal(self, job: SessionJob) -> None:
        """Append the job's newly computed pairs to the memo journal.

        One record per call: the result columns from the job's journal
        cursor on.  Never raises and never decides the job's outcome —
        the store is not load-bearing.  Pickling the block's key table
        runs the keys' own code, which may raise anything: whatever gets
        past ``ResultMemoStore.append_block``'s own guard forfeits the
        block (recomputed by the next session) and the cursor moves on.
        """
        memo, trace = self._memo, self._trace
        if memo is None:
            return
        i, j, values = job.handle._matrix.columns(job.journaled)
        if not len(values):
            return
        job.journaled += len(values)
        start = trace.now()
        try:
            memo.journal(job.handle.residual, i, j, values)
        except BaseException as exc:  # noqa: BLE001 - session must survive
            self._log.warning("memo journal append failed: %r", exc, job_id=job.job_id)
        trace.record("store", "memo:append", start, trace.now(), job.job_id)

    def _fail(self, handle: RunHandle, error: BaseException) -> None:
        self._scheduler.finish(handle)
        if not handle.done():
            handle._finish(RunState.FAILED, error=error)

    def _stop(self, job: SessionJob) -> None:
        job.stopping = True
        self._scheduler.drop_remaining(job.handle)
        self._stop_job(job)

    def _fail_active(self) -> None:
        """Resolve every active job after the session died."""
        for job in list(self._active.values()):
            if not job.stopping:
                # Best-effort abort, so surviving executors stop burning
                # CPU on a job whose consumer is gone.
                self._stop(job)
            del self._active[job.job_id]
            self._journal(job)
            self._fail(job.handle, self._dead_error())

    def _retire(self, job: SessionJob) -> None:
        """Take an ended job off the executors and resolve its handle."""
        del self._active[job.job_id]
        self._scheduler.finish(job.handle)
        try:
            node_stats = self._collect(job)
            self._journal(job)  # the job has ended: this reaches its last pair
            self._resolve(job, node_stats)
        except BaseException as exc:  # noqa: BLE001 - session must survive
            self._fail(job.handle, exc)

    def _resolve(self, job: SessionJob, node_stats: List[NodeStats]) -> None:
        """The one terminal resolution: CANCELLED, FAILED or DONE + stats."""
        handle, acct = job.handle, job.handle.accounting
        done, total = handle.progress()
        runtime = time.perf_counter() - job.started
        if self._trace.enabled:
            # The job's running span on the scheduler lane, then its
            # nodes' buffers (whatever arrived — failed jobs keep theirs).
            self._trace.record(
                "scheduler", "run",
                max(0.0, job.started - self._trace.origin), self._trace.now(), job.job_id,
            )
            for ns in node_stats:
                if ns.trace_events:
                    self._node_traces.append(
                        (f"node{ns.node_id}", ns.pid, ns.trace_origin, ns.trace_events)
                    )
        self._job_records.append(acct.to_dict())
        self._metrics.observe("scheduler.grant_latency_seconds", acct.queued_seconds)
        self._metrics.inc("scheduler.blocks_granted", acct.blocks_granted)

        error = job.error
        if handle.cancel_requested and not (done == total and error is None):
            self._metrics.inc("jobs.cancelled")
            self._log.info("job cancelled", job_id=job.job_id)
            handle._finish(RunState.CANCELLED)
            return
        if error is None and done != total:
            error = RuntimeError(f"run ended with {done}/{total} results — scheduler bug")
        if error is not None:
            self._metrics.inc("jobs.failed")
            self._log.warning("job failed: %s", error, job_id=job.job_id)
            handle._finish(RunState.FAILED, error=error)
            return

        stats = RunStats(
            runtime=runtime,
            n_items=handle.workload.n_items,
            n_pairs=total - handle.memo_hits,  # what the backend executed
            node_stats=node_stats,
            remote_steals=job.remote_steals,
            transport=self._transport,
        )
        fold_stats(self._metrics, stats)
        self._log.info("job done", job_id=job.job_id)
        self._rocket.last_stats = stats
        handle._finish(RunState.DONE, stats=stats)
