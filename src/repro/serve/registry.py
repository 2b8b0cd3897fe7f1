"""Served-job state that outlives the submitting connection.

An in-process :class:`~repro.core.session.RunHandle` lives exactly as
long as the Python object the submitter holds.  A served job must not:
the client's socket may drop mid-run (laptop lid, network blip,
process restart) and the whole point of the daemon is that the job
keeps executing and its results stay fetchable.  The
:class:`JobRegistry` is that durability layer:

- every submission becomes a :class:`JobRecord` addressed by a job id
  (``"j-000042"``) scoped to its tenant — any later connection of the
  same tenant can reattach by id;
- the record *is* the handle plus a name: the handle keeps its results
  in arrival order and is read by cursor
  (:meth:`~repro.core.session.RunHandle.read`), so any number of
  clients can (re)stream from any cursor at any time straight off it —
  no per-job thread, no second copy of the triples;
- finished records are **retained** until the tenant acknowledges them
  (``ack``) or a TTL expires, whichever comes first — a reconnect
  hours later finds nothing, a reconnect within the window finds the
  full :class:`~repro.core.result.ResultMatrix`.

The registry never talks to the backend: cancellation, progress and
results all flow through the wrapped handle, so everything the
in-process session guarantees (exactly-once recording, cancel
isolation, accounting) holds unchanged for served jobs.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.session import RunHandle
from repro.serve.errors import UnknownJob

__all__ = ["JobRecord", "JobRegistry"]

#: Default seconds a finished, unacknowledged job's results stay
#: fetchable.  Chosen for interactive reconnects (minutes, not hours);
#: daemons serving batch tenants should raise it.
DEFAULT_RESULT_TTL = 900.0


class JobRecord:
    """One served job: its handle under a tenant-scoped id."""

    def __init__(self, job_id: str, tenant: str, handle: RunHandle) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.handle = handle
        self.created_at = time.monotonic()
        self.acked = False

    @property
    def done(self) -> bool:
        return self.handle.done()

    @property
    def finished_at(self) -> Optional[float]:
        """When the job turned terminal (None while live): the retention clock."""
        return self.handle.finished_at

    def read_triples(
        self, cursor: int, limit: int, wait: float = 0.0
    ) -> Tuple[List[Tuple[Any, Any, Any]], bool]:
        """Up to ``limit`` triples from ``cursor`` on, long-poll style.

        Blocks up to ``wait`` seconds for new triples (or the terminal
        state) when the cursor is at the end of what has arrived.
        Returns the chunk plus a ``drained`` flag: True once the job is
        terminal *and* the returned chunk reaches the end of its
        results — the client's stream iterator ends there.
        """
        return self.handle.read(cursor, limit, wait=max(0.0, wait))

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal (every triple is then readable)."""
        return self.handle.wait(timeout)

    def status(self) -> Dict[str, Any]:
        """JSON-dumpable live status of this job."""
        done_pairs, total_pairs = self.handle.progress()
        acct = self.handle.accounting
        error = self.handle._error
        return {
            "job": self.job_id,
            "tenant": self.tenant,
            "state": self.handle.state.value,
            "pairs_done": done_pairs,
            "pairs_total": total_pairs,
            "streamed": done_pairs,
            "accounting": acct.to_dict() if acct is not None else None,
            "error": f"{type(error).__name__}: {error}" if error is not None else None,
        }


class JobRegistry:
    """Tenant-scoped job records with ack/TTL retention."""

    def __init__(self, result_ttl: float = DEFAULT_RESULT_TTL) -> None:
        if result_ttl <= 0:
            raise ValueError(f"result_ttl must be positive, got {result_ttl}")
        self.result_ttl = result_ttl
        self._lock = threading.Lock()
        self._jobs: Dict[str, JobRecord] = {}
        self._ids = itertools.count()

    # -- write side ------------------------------------------------------

    def register(self, tenant: str, handle: RunHandle) -> JobRecord:
        """File a freshly submitted handle under a new job id."""
        with self._lock:
            job_id = f"j-{next(self._ids):06d}"
        record = JobRecord(job_id, tenant, handle)
        with self._lock:
            self._jobs[job_id] = record
        return record

    def ack(self, tenant: str, job_id: str) -> bool:
        """Release a finished job's retention; True if purged now.

        Acking a still-running job just marks it — the record is purged
        on the first sweep after it finishes.
        """
        record = self.get(tenant, job_id)
        record.acked = True
        if record.done:
            with self._lock:
                self._jobs.pop(job_id, None)
            return True
        return False

    def purge_expired(self, now: Optional[float] = None) -> int:
        """Drop finished records past their TTL (or acked); returns count."""
        now = time.monotonic() if now is None else now
        with self._lock:
            expired = [
                job_id
                for job_id, rec in self._jobs.items()
                if rec.finished_at is not None
                and (rec.acked or now - rec.finished_at > self.result_ttl)
            ]
            for job_id in expired:
                del self._jobs[job_id]
        return len(expired)

    # -- read side -------------------------------------------------------

    def get(self, tenant: str, job_id: str) -> JobRecord:
        """The tenant's record under ``job_id``.

        Tenant isolation is enforced here: another tenant's job id
        raises the same :class:`UnknownJob` as a nonexistent one, so
        ids leak no cross-tenant information.
        """
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None or record.tenant != tenant:
            raise UnknownJob(
                f"no retained job {job_id!r} for tenant {tenant!r} "
                f"(finished jobs are released on ack or after "
                f"{self.result_ttl:.0f}s)"
            )
        return record

    def jobs_of(self, tenant: str) -> List[JobRecord]:
        """The tenant's retained records, oldest first."""
        with self._lock:
            records = [r for r in self._jobs.values() if r.tenant == tenant]
        return sorted(records, key=lambda r: r.job_id)

    def live_records(self, tenant: Optional[str] = None) -> List[JobRecord]:
        """Non-terminal records (all tenants, or one)."""
        with self._lock:
            return [
                r
                for r in self._jobs.values()
                if not r.done and (tenant is None or r.tenant == tenant)
            ]

    def pending_pairs(self, tenant: str) -> int:
        """Summed accepted pairs of the tenant's live jobs (quota input)."""
        return sum(r.handle.workload.n_pairs for r in self.live_records(tenant))

    def counts(self) -> Dict[str, int]:
        """``{"live": ..., "retained": ...}`` for health reporting."""
        with self._lock:
            live = sum(1 for r in self._jobs.values() if not r.done)
            return {"live": live, "retained": len(self._jobs) - live}

    def cancel_live(self) -> List[JobRecord]:
        """Request cancellation of every live job; returns the records."""
        live = self.live_records()
        for record in live:
            record.handle.cancel()
        return live
