"""Run handles: the job side of the session API.

``Rocket.run(keys)`` reproduces the paper's interface — one blocking
call, one dense result, the backend torn down afterwards.
``Rocket.session()`` opens the production shape of the same machinery:
a :class:`~repro.runtime.backend.BackendSession` (exported as
``repro.RocketSession``), a long-lived runtime that accepts many
:class:`~repro.core.workload.Workload` submissions, streams results as
they complete, and keeps the backend's expensive state — worker
processes, transport fabric, device/host/distributed cache levels —
alive *between* jobs, so a second job over overlapping keys hits warm
caches instead of re-spawning the world and re-running the load
pipeline::

    rocket = Rocket(app, store, backend="cluster", n_nodes=4)
    with rocket.session() as session:
        first = session.submit(AllPairs(corpus))
        for a, b, value in first.stream():     # results as they land
            index.update(a, b, value)
        second = session.submit(DeltaPairs(corpus, new_items))  # warm caches
        grown = results.merge(second.result())

Each submission returns a :class:`RunHandle` — the job's future:
``result()`` blocks for the shaped
:class:`~repro.core.result.ResultMatrix`, ``stream()`` iterates
``(key_a, key_b, value)`` triples as result batches land, ``progress()``
reports pairs done vs. total, and ``cancel()`` aborts the job while
leaving the session usable for the next one.

How jobs within one session overlap is a scheduling *policy*
(:class:`~repro.core.scheduler.SchedulingPolicy`): the default
``"fifo"`` runs them serially in submission order, while ``"fair"``
multiplexes many in-flight jobs over the live backend with weighted
fair sharing — ``submit(workload, priority=4.0)`` gives a job four
times the device share of a ``priority=1.0`` one, and a small query
co-scheduled with a large job finishes in roughly its own time instead
of queueing behind the giant::

    with Rocket(app, store).session(policy="fair") as session:
        big = session.submit(AllPairs(corpus))
        urgent = session.submit(Bipartite(queries, corpus), priority=8.0)
        urgent.result()   # does not wait for `big`
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.core.result import ResultMatrix
from repro.core.workload import Workload

__all__ = ["RunState", "RunHandle", "SessionClosed"]


class SessionClosed(RuntimeError):
    """The session is closed (or another thread is closing it).

    Raised by ``submit()`` on a closed session, by ``close()`` when the
    session was already closed — a double close is almost always a
    lifecycle bug in the caller, and silently ignoring it used to let
    two concurrent ``close()`` calls race the backend teardown — and by
    a ``submit()`` that lost the race against a concurrent ``close()``
    (its handle resolves CANCELLED before this is raised, so ``wait()``
    on it can never hang).  Subclasses ``RuntimeError`` so existing
    ``except RuntimeError`` call sites keep working.  Context-manager
    exits suppress it: ``with`` blocks that close their session early
    stay valid.
    """


class RunState(enum.Enum):
    """Lifecycle of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job can no longer leave.
_TERMINAL = (RunState.DONE, RunState.FAILED, RunState.CANCELLED)


class RunHandle:
    """Live view of one submitted workload's execution.

    Produced by ``session.submit(workload)``; consumed from the
    submitting side.  The backend records results through the private
    ``_record_block`` / ``_finish`` hooks; user code reads them through
    :meth:`result`, :meth:`stream`, :meth:`read` and :meth:`progress`.

    A pair is recorded once, in the job's arrival-ordered
    :class:`~repro.core.result.ResultMatrix`; every reader —
    ``stream()`` iterators, served clients, the session's memo journal
    — follows it with a cursor of its own (:meth:`read`), so readers
    take nothing from each other and nobody holds a second copy.
    """

    #: Pairs a ``stream()`` iterator fetches per :meth:`read`.
    _STREAM_CHUNK = 1024

    def __init__(
        self,
        workload: Workload,
        *,
        priority: float = 1.0,
        max_inflight: Optional[int] = None,
    ) -> None:
        if not priority > 0:
            raise ValueError(f"priority must be positive, got {priority}")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.workload = workload
        #: What the backend executes: the workload, or — set by a
        #: store-backed session — its ``ResidualPairs`` rewrite after
        #: the memo store served ``memo_hits`` pairs (they lead the
        #: arrival order); None when the store served all of them.
        self.residual: Optional[Workload] = workload
        self.memo_hits = 0
        #: Fair-share weight under the FAIR scheduling policy (a job
        #: with twice the priority receives twice the device share).
        self.priority = float(priority)
        #: Cap on this job's concurrently in-flight pair comparisons
        #: (None — the scheduler's default window).  Enforced per node
        #: engine: on the cluster backend each of the N nodes admits up
        #: to this many of the job's pairs.
        self.max_inflight = max_inflight
        self._matrix: ResultMatrix = workload.make_result()
        self._total = workload.n_pairs
        self._cond = threading.Condition()
        self._state = RunState.QUEUED
        #: ``time.monotonic()`` of the terminal transition (None while live).
        self.finished_at: Optional[float] = None
        self._error: Optional[BaseException] = None
        self._cancel_requested = False
        self._cancel_cb: Optional[Callable[[], None]] = None
        #: The finished job's :class:`~repro.runtime.stats.RunStats`,
        #: None until DONE.
        self.stats: Any = None
        #: Per-job scheduling accounting
        #: (:class:`~repro.core.scheduler.JobAccounting`), attached by
        #: the owning session's scheduler at submit time.
        self.accounting: Any = None

    # -- interrogation ---------------------------------------------------

    @property
    def state(self) -> RunState:
        return self._state

    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self._state in _TERMINAL

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state.

        Returns True once terminal, False if ``timeout`` elapsed first.
        Unlike :meth:`result` this never raises for failed or cancelled
        jobs — it only watches the state machine.
        """
        with self._cond:
            return self._cond.wait_for(self.done, timeout=timeout)

    def progress(self) -> Tuple[int, int]:
        """``(pairs_done, pairs_total)`` of this job, live."""
        return len(self._matrix), self._total

    # -- consumption -----------------------------------------------------

    def result(self, timeout: Optional[float] = None) -> ResultMatrix:
        """Block until the job finishes; return its result matrix.

        Raises the job's error for FAILED jobs, ``RuntimeError`` for
        cancelled ones, and ``TimeoutError`` if ``timeout`` elapses
        first.
        """
        with self._cond:
            if not self._cond.wait_for(self.done, timeout=timeout):
                raise TimeoutError(
                    f"job did not finish within {timeout}s "
                    f"({len(self._matrix)}/{self._total} pairs)"
                )
        if self._state is RunState.FAILED:
            assert self._error is not None
            raise self._error
        if self._state is RunState.CANCELLED:
            raise RuntimeError("job was cancelled")
        return self._matrix

    def read(
        self, cursor: int = 0, limit: Optional[int] = None, wait: Optional[float] = None
    ) -> Tuple[List[Tuple[Any, Any, Any]], bool]:
        """Up to ``limit`` ``(key_a, key_b, value)`` from arrival position ``cursor``.

        Blocks up to ``wait`` seconds (None — indefinitely) while the
        cursor is at the end of what has arrived and the job is live.
        Returns the chunk and a ``drained`` flag: True once the job is
        terminal *and* the chunk reaches the end of its results — a
        reader advancing ``cursor`` by ``len(chunk)`` stops there, having
        seen every pair exactly once.  Reading never consumes: any number
        of readers may start from any cursor, before or after the end.
        """
        if cursor < 0:
            raise ValueError(f"negative cursor {cursor}")
        matrix = self._matrix
        with self._cond:
            self._cond.wait_for(lambda: len(matrix) > cursor or self.done(), timeout=wait)
            # Sampled before the chunk: nothing is recorded after the
            # terminal transition, so a terminal chunk reaches the end.
            terminal = self.done()
        chunk = matrix.arrivals(cursor, limit)
        return chunk, terminal and cursor + len(chunk) >= len(matrix)

    def stream(self) -> Iterator[Tuple[Any, Any, Any]]:
        """Iterate ``(key_a, key_b, value)`` as result batches land.

        Lazy: pairs are yielded as the backend delivers them, in
        arrival order (pairs served from the memo store first).  Each
        call returns an iterator with its own cursor (:meth:`read`):
        every iterator yields every pair exactly once, in the same
        order, whether it starts before, during or after the run — what
        a remote client's stream always did.  The iterator ends when the
        job is terminal and every delivered pair has been yielded; a
        FAILED job's error is raised after that.
        """
        cursor, drained = 0, False
        while not drained:
            chunk, drained = self.read(cursor, self._STREAM_CHUNK)
            cursor += len(chunk)
            yield from chunk
        if self._state is RunState.FAILED:
            assert self._error is not None
            raise self._error

    def cancel(self) -> bool:
        """Request cancellation; True if the job was still cancellable.

        A QUEUED job — never handed to the backend — resolves to
        CANCELLED immediately, inside this call, without the backend
        session being involved; a RUNNING job is aborted (in-flight
        pair jobs drain, their late results are discarded).  The owning
        session stays usable for subsequent submissions.  ``result()``
        raises for cancelled jobs; the pairs already streamed remain
        valid.

        Returning True means the request was *accepted*, not that the
        job will end CANCELLED: a job whose every pair had already
        completed when the cancel was observed finishes DONE (on every
        backend) — check :attr:`state` or :meth:`wait` for the actual
        terminal state.
        """
        with self._cond:
            if self.done():
                return False
            self._cancel_requested = True
            cb = self._cancel_cb
        if cb is not None:
            cb()
        return True

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    # -- backend-side hooks ---------------------------------------------

    def _set_cancel_cb(self, cb: Optional[Callable[[], None]]) -> None:
        """Install the current-stage cancel hook (queued or running).

        If a cancel request already landed, the new hook is invoked
        right away so the request is never lost across the hand-off
        from the admission queue to the backend.
        """
        with self._cond:
            self._cancel_cb = cb
            already_cancelled = self._cancel_requested and not self.done()
        if already_cancelled and cb is not None:
            cb()

    def _mark_running(self, cancel_cb: Optional[Callable[[], None]]) -> None:
        with self._cond:
            self._state = RunState.RUNNING
            self._cancel_cb = cancel_cb
            already_cancelled = self._cancel_requested
        if already_cancelled and cancel_cb is not None:
            # cancel() landed between the dispatcher's pre-check and
            # this point: apply it now instead of losing it.
            cancel_cb()

    def _record_block(self, i: Any, j: Any, values: Any) -> None:
        """Record one batch of pair results: index columns into the key list.

        One matrix lock and one wake-up of the waiting readers per
        batch; every cell is still checked (duplicate, diagonal, out of
        range, non-real value) and a rejected batch records nothing.
        The one writer of ``accounting.pairs_completed``: the memoized
        batch, recorded before the scheduler attaches the accounting,
        stays uncounted.
        """
        self._matrix.set_block(i, j, values)
        with self._cond:
            if self.accounting is not None:
                self.accounting.pairs_completed += len(values)
            self._cond.notify_all()

    def _finish(
        self,
        state: RunState,
        stats: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        assert state in _TERMINAL
        with self._cond:
            self._state = state
            self._error = error
            self.stats = stats
            self._cancel_cb = None
            self.finished_at = time.monotonic()
            self._cond.notify_all()
