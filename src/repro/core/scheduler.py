"""Concurrent multi-job scheduling: admission, priorities, fair sharing.

One live backend session used to execute jobs strictly serially, in
submission order — a small bipartite query queued behind a large
all-pairs job waited for the *entire* run even while devices idled
during the big job's I/O and parse phases.  The :class:`JobScheduler`
turns the warm-backend substrate into a multi-tenant service: many
in-flight jobs are multiplexed over a single live backend, with a
policy deciding who runs and how much.

Two policies (:class:`SchedulingPolicy`):

- ``FIFO`` — the compatibility default: at most one job active at a
  time, strictly in submission order.  Existing serial ``submit()``
  callers keep identical behaviour.
- ``FAIR`` — weighted fair sharing: up to ``max_active`` jobs run
  concurrently; each job's :class:`~repro.core.workload.Workload`
  decomposition is split into ``grain``-sized
  :class:`~repro.scheduling.quadtree.PairBlock` quanta which a single
  shared admission loop hands out by *virtual time* (stride
  scheduling): handing ``c`` pairs of a job with weight ``w`` advances
  its virtual clock by ``c / w``, and the next quantum always goes to
  the runnable job with the smallest clock.  A quantum is one pipeline
  leaf (``RocketConfig.grain``); one ``window`` bounds the in-flight
  pairs of *all* active jobs, so each completion that reopens it goes
  to the smallest clock.  Over any busy interval every backlogged job
  therefore receives device time proportional to its ``priority=``,
  and a newly submitted job starts at the current minimum clock rather
  than at zero — it gets its fair share from now on, it cannot starve
  the incumbents to "catch up".

The scheduler is backend-agnostic bookkeeping: both
:class:`~repro.runtime.localrocket.LocalSession` (block-level grants
into per-job pipelines on one shared engine) and
:class:`~repro.runtime.cluster.ClusterSession` (priority-ordered job
admission; nodes interleave the active jobs' pair streams on their
shared engines) drive one instance from their serve loop.  Per-job
scheduling accounting — queue wait, running time, grant counts — is
split out of the backend ``RunStats`` into a :class:`JobAccounting`
attached to each handle, because a job's wall-clock costs under
sharing are a property of the *schedule*, not of the node pipelines.

Cancellation of a job that is still ``QUEUED`` resolves immediately
inside :meth:`RunHandle.cancel` — the scheduler just unlinks the entry;
the backend session is never involved.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.core.session import RunHandle, RunState
from repro.scheduling.quadtree import PairBlock

__all__ = [
    "SchedulingPolicy",
    "coerce_policy",
    "JobAccounting",
    "JobScheduler",
    "DEFAULT_FAIR_ACTIVE",
    "DEFAULT_GRAIN",
]

#: Concurrently active jobs under FAIR when ``max_active`` is not given.
DEFAULT_FAIR_ACTIVE = 4

#: Pairs per pipeline leaf (``RocketConfig.grain``) and per FAIR quantum.
DEFAULT_GRAIN = 64


class SchedulingPolicy(enum.Enum):
    """How a session orders and overlaps its submitted jobs."""

    #: Serial, submission order — the pre-scheduler behaviour.
    FIFO = "fifo"
    #: Weighted fair sharing over pair blocks; priorities are weights.
    FAIR = "fair"


def coerce_policy(value) -> SchedulingPolicy:
    """Accept a SchedulingPolicy or its string name ("fifo" / "fair")."""
    if isinstance(value, SchedulingPolicy):
        return value
    try:
        return SchedulingPolicy(value)
    except ValueError:
        raise ValueError(
            f"unknown scheduling policy {value!r}; "
            f"available: {', '.join(p.value for p in SchedulingPolicy)}"
        ) from None


@dataclass
class JobAccounting:
    """Per-job scheduling costs, split out of the backend run stats.

    Backend ``RunStats`` describe what the node pipelines did (loads,
    cache hits, kernel time); this object describes what the *schedule*
    did to the job: how long it queued, how long it ran, how many
    block grants it received.  Under concurrent execution the two are
    deliberately separate — cache counters on a shared engine overlap
    between co-running jobs, but queue/run wall-clock and grant counts
    are exact per job.
    """

    job_id: int
    priority: float
    policy: str
    pairs_total: int
    #: ``time.monotonic()`` stamps of the lifecycle transitions.
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Block grants the shared admission loop issued to this job.
    blocks_granted: int = 0
    #: Accepted pairs handed to the backend so far.
    pairs_granted: int = 0
    #: Accepted pairs the backend completed so far.
    pairs_completed: int = 0
    #: Largest granted-not-completed backlog observed.  Only tracked
    #: for block-granular hand-out (the local FAIR policy); wholesale
    #: dispatch (FIFO, the cluster backend) leaves it 0 — there the
    #: execution-level pressure cap is ``max_inflight``, enforced per
    #: node engine, not a grant-level statistic.
    peak_inflight: int = 0
    #: Fault-tolerance costs (cluster sessions only): nodes
    #: that died while this job ran, and accepted pairs re-enqueued
    #: from departed nodes (an upper bound on duplicated work — pairs
    #: whose first result landed are deduplicated, not re-counted).
    nodes_lost: int = 0
    pairs_recovered: int = 0

    @property
    def queued_seconds(self) -> float:
        """Time spent waiting in the admission queue.

        Ends at admission, or at the terminal state for jobs that never
        left the queue (cancelled / drained while QUEUED).
        """
        if self.started_at is not None:
            end = self.started_at
        elif self.finished_at is not None:
            end = self.finished_at
        else:
            end = time.monotonic()
        return max(0.0, end - self.submitted_at)

    @property
    def running_seconds(self) -> float:
        """Time between admission and the terminal state."""
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None else time.monotonic()
        return max(0.0, end - self.started_at)

    def to_dict(self) -> Dict[str, object]:
        """JSON-dumpable form (the per-job record in ``session.metrics()``)."""
        return {
            "job_id": self.job_id,
            "priority": self.priority,
            "policy": self.policy,
            "pairs_total": self.pairs_total,
            "pairs_granted": self.pairs_granted,
            "pairs_completed": self.pairs_completed,
            "blocks_granted": self.blocks_granted,
            "peak_inflight": self.peak_inflight,
            "queued_seconds": self.queued_seconds,
            "running_seconds": self.running_seconds,
            "nodes_lost": self.nodes_lost,
            "pairs_recovered": self.pairs_recovered,
        }

    def summary(self) -> str:
        """Short human-readable digest."""
        peak = str(self.peak_inflight) if self.peak_inflight else "n/a"
        return (
            f"job {self.job_id} [{self.policy}, w={self.priority:g}]: "
            f"queued {self.queued_seconds:.3f}s, ran {self.running_seconds:.3f}s; "
            f"{self.blocks_granted} grants, {self.pairs_completed}/{self.pairs_total} "
            f"pairs, peak inflight {peak}"
        )


def _fits(inflight: int, count: int, cap: Optional[int]) -> bool:
    """``count`` more pairs fit ``cap``; an oversized quantum fits an idle cap."""
    return cap is None or not inflight or inflight + count <= cap


class _Job:
    """Scheduler-internal state of one submitted job."""

    __slots__ = ("handle", "seq", "vtime", "blocks", "accounting")

    def __init__(self, handle: RunHandle, seq: int, accounting: JobAccounting) -> None:
        self.handle = handle
        self.seq = seq
        self.vtime = 0.0
        #: FAIR hand-out queue of ``(block, accepted_count)`` quanta.
        self.blocks: Deque[Tuple[PairBlock, int]] = deque()
        self.accounting = accounting

    @property
    def inflight(self) -> int:
        return self.accounting.pairs_granted - self.accounting.pairs_completed


class JobScheduler:
    """Admission queue + weighted fair block hand-out for one session.

    Thread-safe; backend serve loops call :meth:`admit` /
    :meth:`next_grant` / :meth:`finish`, while
    :meth:`submit` and the queued-cancel hook run on caller threads.
    """

    def __init__(
        self,
        policy: SchedulingPolicy = SchedulingPolicy.FIFO,
        *,
        max_active: Optional[int] = None,
        grain: int = DEFAULT_GRAIN,
        window: Optional[int] = None,
        decompose: bool = False,
    ) -> None:
        if max_active is None:
            max_active = 1 if policy is SchedulingPolicy.FIFO else DEFAULT_FAIR_ACTIVE
        if max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        if policy is SchedulingPolicy.FIFO and max_active != 1:
            # FIFO *is* the serial contract; silently running FIFO jobs
            # concurrently would be neither policy.
            raise ValueError(
                f"the FIFO policy is serial (max_active=1); got max_active="
                f"{max_active} — use policy=\"fair\" for concurrent jobs"
            )
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.policy = policy
        self.max_active = max_active
        self.grain = grain  # pairs per FAIR quantum (checked by grain_blocks)
        self.window = window  # in-flight pairs of all jobs together (None: no cap)
        #: When set, :meth:`submit` precomputes the workload's grain
        #: decomposition on the *submitting* thread.  Sessions that
        #: grant block-level (local FAIR) use this so a large
        #: workload's quadtree descent stalls only its own caller,
        #: never the shared admission loop — head-of-line
        #: latency is exactly what the FAIR policy exists to remove.
        self.decompose = decompose
        self._lock = threading.Lock()
        self._queued: List[_Job] = []
        self._active: Dict[RunHandle, _Job] = {}
        self._next_job_id = 0

    # -- interrogation ---------------------------------------------------

    @property
    def queued_count(self) -> int:
        with self._lock:
            return len(self._queued)

    @property
    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    @property
    def idle(self) -> bool:
        """True when no job is queued or active."""
        with self._lock:
            return not self._queued and not self._active

    def active_handles(self) -> List[RunHandle]:
        with self._lock:
            return list(self._active)

    def queued_handles(self) -> List[RunHandle]:
        with self._lock:
            return [j.handle for j in self._queued]

    # -- submission ------------------------------------------------------

    def account(self, handle: RunHandle) -> JobAccounting:
        """Attach a fresh :class:`JobAccounting` (the next job id) to ``handle``.

        The schedule owes a job its *residual* only.  Called by
        :meth:`submit`, and directly for a job the memo store served
        whole, which is never queued.
        """
        with self._lock:
            job_id = self._next_job_id
            self._next_job_id += 1
        handle.accounting = JobAccounting(
            job_id=job_id,
            priority=handle.priority,
            policy=self.policy.value,
            pairs_total=handle.residual.n_pairs if handle.residual is not None else 0,
            submitted_at=time.monotonic(),
        )
        return handle.accounting

    def submit(self, handle: RunHandle) -> JobAccounting:
        """Enqueue ``handle`` (QUEUED); wires the immediate-cancel hook.

        Reads the handle's ``priority`` / ``max_inflight``; attaches
        and returns the job's :class:`JobAccounting`.
        """
        accounting = self.account(handle)
        job = _Job(handle, accounting.job_id, accounting)  # ids order submissions
        if self.decompose:
            # Pay the decomposition here, on the submitter's thread,
            # not on the shared admission loop.
            job.blocks.extend(handle.residual.grain_blocks(self.grain))
        # A job that was never handed to the backend resolves its
        # cancellation right here, synchronously, without the backend
        # session ever seeing it.  The hook must be installed *before*
        # the job becomes admittable: enqueueing first would let the
        # serve loop admit it and install the running-cancel callback,
        # which this assignment would then clobber.
        handle._set_cancel_cb(lambda: self._cancel_queued(handle))
        with self._lock:
            self._queued.append(job)
        return accounting

    def _cancel_queued(self, handle: RunHandle) -> None:
        """Queued-cancel hook: unlink and resolve CANCELLED immediately."""
        with self._lock:
            job = next((j for j in self._queued if j.handle is handle), None)
            if job is None:
                return  # already admitted: the running-cancel path owns it
            self._queued.remove(job)
            job.accounting.finished_at = time.monotonic()
        handle._finish(RunState.CANCELLED)

    # -- admission -------------------------------------------------------

    def _admission_order(self) -> List[_Job]:
        if self.policy is SchedulingPolicy.FIFO:
            return sorted(self._queued, key=lambda j: j.seq)
        # FAIR: highest priority first, submission order within a tier.
        return sorted(self._queued, key=lambda j: (-j.handle.priority, j.seq))

    def admit(self) -> List[RunHandle]:
        """Move queued jobs into the active set, up to ``max_active``.

        Returns the newly admitted handles in admission order; the
        caller activates them on the backend (and must call
        :meth:`finish` or :meth:`discard` for each eventually).
        Already-cancelled queued entries are skipped here — their
        cancel hook resolved them.
        """
        admitted: List[RunHandle] = []
        cancelled: List[_Job] = []
        now = time.monotonic()
        with self._lock:
            if not self._queued:
                return admitted
            floor = min((j.vtime for j in self._active.values()), default=0.0)
            for job in self._admission_order():
                if job.handle.cancel_requested:
                    # A cancel that raced the hook installation: resolve
                    # it here instead of handing the job to the backend.
                    self._queued.remove(job)
                    job.accounting.finished_at = now
                    cancelled.append(job)
                    continue
                if len(self._active) >= self.max_active:
                    break
                self._queued.remove(job)
                job.vtime = floor  # fair share from now on, no catch-up
                job.accounting.started_at = now
                self._active[job.handle] = job
                admitted.append(job.handle)
        for job in cancelled:
            if not job.handle.done():
                job.handle._finish(RunState.CANCELLED)
        return admitted

    # -- fair block hand-out (local backend) -----------------------------

    def mark_fully_granted(self, handle: RunHandle) -> None:
        """Record that the backend received the whole workload up front.

        ``peak_inflight`` is deliberately left untracked here: under
        wholesale dispatch every pair is "granted" at once, so the
        grant-level backlog statistic would always read ``pairs_total``
        and convey nothing.
        """
        with self._lock:
            job = self._active[handle]
            job.blocks.clear()
            job.accounting.blocks_granted += 1
            job.accounting.pairs_granted = job.accounting.pairs_total

    def next_grant(self) -> Optional[Tuple[RunHandle, PairBlock, int]]:
        """The shared admission loop's next hand-out, or None.

        Picks the runnable active job (quanta left, under its own
        ``max_inflight``) with the smallest virtual time; its next quantum
        waits, and nothing jumps it, until it fits the session ``window``.
        Granting advances the job's clock by ``pairs / priority``.
        """
        with self._lock:
            best: Optional[_Job] = None
            inflight = 0
            for job in self._active.values():
                inflight += job.inflight
                if not job.blocks or not _fits(
                    job.inflight, job.blocks[0][1], job.handle.max_inflight
                ):
                    continue
                if best is None or (job.vtime, job.seq) < (best.vtime, best.seq):
                    best = job
            if best is None or not _fits(inflight, best.blocks[0][1], self.window):
                return None  # nothing runnable, or the session is full
            block, count = best.blocks.popleft()
            best.vtime += count / best.handle.priority
            best.accounting.blocks_granted += 1
            best.accounting.pairs_granted += count
            best.accounting.peak_inflight = max(
                best.accounting.peak_inflight, best.inflight
            )
            return best.handle, block, count

    def on_completed(self, handle: RunHandle, n_pairs: int = 1) -> None:
        """Credit ``n_pairs`` completions with no result behind them.

        For driving the scheduler on its own; a backend records results
        through the handle, which credits them (reopening the window).
        """
        with self._lock:
            job = self._active.get(handle)
            if job is not None:
                job.accounting.pairs_completed += n_pairs

    def drop_remaining(self, handle: RunHandle) -> None:
        """Discard a cancelled/failed job's not-yet-granted quanta."""
        with self._lock:
            job = self._active.get(handle)
            if job is not None:
                job.blocks.clear()

    # -- completion ------------------------------------------------------

    def finish(self, handle: RunHandle) -> None:
        """Retire an active job (any terminal state); stamps accounting."""
        with self._lock:
            job = self._active.pop(handle, None)
            if job is not None and job.accounting.finished_at is None:
                job.accounting.finished_at = time.monotonic()

    def fail_all(self, error_factory) -> List[RunHandle]:
        """Drain every queued job (dead session); returns the handles.

        ``error_factory()`` builds a fresh exception per handle; the
        caller finishes active jobs itself (they need backend-specific
        teardown).
        """
        with self._lock:
            queued, self._queued = self._queued, []
            now = time.monotonic()
            for job in queued:
                job.accounting.finished_at = now
        failed = []
        for job in queued:
            job.handle._finish(RunState.FAILED, error=error_factory())
            failed.append(job.handle)
        return failed
