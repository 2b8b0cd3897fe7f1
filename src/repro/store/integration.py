"""Submit-time memoization: rewrite jobs to their non-memoized pairs.

A :class:`SessionMemo` is the memo plane of one
:class:`~repro.runtime.backend.BackendSession` (opened when the config
carries a ``store_dir``): two steps of the session's own job lifecycle,
not a layer around it — a job has one
:class:`~repro.core.session.RunHandle` with or without a store.

- :meth:`SessionMemo.partition`, inside ``submit()``: content-hash the
  workload's items (through the stat-cached
  :class:`~repro.store.hashing.ItemHasher`, so an unchanged corpus costs
  stat calls, not reads) and split the accepted pairs into *memoized*
  (the store holds a value recorded under both items' current hashes)
  and *residual*.  The session records the memoized block in the job's
  handle up front — exactly-once, value-identical to recomputing it —
  and the backend executes the :class:`ResidualPairs`, whose accepted
  set is built straight from the residual index columns; a fully
  memoized job is resolved on the spot and never reaches the backend.
- :meth:`SessionMemo.journal`, on the session's driver thread: the
  driver follows the handle's result columns by cursor and appends each
  freshly computed batch to the memo journal as one record — every tick
  and once more before the job turns terminal, so failed and cancelled
  jobs' pairs are journaled too.  A failing append never reaches the
  job.

The memo key includes the item *keys*, not just their content hashes:
application callbacks receive keys and may depend on them (the
microscopy app seeds its optimizer from the key), so identical bytes
under different keys must not share results.  Invalidation still works
through the stored content hashes — editing an item changes its hash
and exactly its pairs stop matching.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.api import Application
from repro.core.workload import PairSubset, Workload
from repro.data.filestore import FileStore

from repro.store.manager import RocketStore

__all__ = ["SessionMemo", "ResidualPairs"]


class ResidualPairs(PairSubset):
    """A workload narrowed to the pairs the memo store could not serve.

    A :class:`~repro.core.workload.PairSubset` of the submitted
    workload, built straight from the partition's index columns, plus
    ``hashes``: the item content hashes the partition was made under
    (None: unreadable blob); computed pairs are journaled with them.
    """

    kind = "memo-residual"

    def __init__(
        self,
        base: Workload,
        i: np.ndarray,
        j: np.ndarray,
        hashes: Dict[Any, Optional[str]],
    ) -> None:
        super().__init__(base, i, j)
        self.hashes = hashes
        #: Per key index: has a content hash, so its pairs can be journaled.
        self.readable = np.array([hashes[k] is not None for k in self.keys], dtype=bool)


class SessionMemo:
    """One session's memo store: the submit-time partition and the journal."""

    def __init__(self, app: Application, files: FileStore, store_dir) -> None:
        self._app = app
        self._fingerprint = app.fingerprint()
        self._store = RocketStore(store_dir)
        self._hasher = self._store.hasher(files)
        self._lock = threading.Lock()
        self._counters = {
            "hits": 0,  # pairs served from the memo store
            "misses": 0,  # pairs consulted but recomputed
            "appended": 0,  # freshly computed pairs journaled
            "append_failures": 0,  # computed pairs whose block the store refused
            "jobs": 0,
            "jobs_short_circuited": 0,  # jobs fully served from the store
        }

    def _hash_items(self, keys) -> Dict[Any, Optional[str]]:
        """Current content hash per key; None when the blob is unreadable.

        A missing blob is the *job's* problem (its load will fail the
        same way a cold run's would); here it just disables memoization
        for the pairs that touch it.
        """
        hashes: Dict[Any, Optional[str]] = {}
        for key in keys:
            try:
                hashes[key] = self._hasher.digest(self._app.file_name(key))
            except (KeyError, OSError):
                hashes[key] = None
        return hashes

    def partition(
        self, workload: Workload
    ) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], Optional[ResidualPairs]]:
        """Split ``workload`` into what the store serves and what must run.

        Returns the memoized pairs as ``(i, j, values)`` columns
        (indices into ``workload.keys``, in block order) and the
        residual workload (None: nothing is left).  Each key's hash and
        memo identity are resolved once; the pairs are matched in bulk.
        """
        keys = workload.keys
        hashes = self._hash_items(keys)
        self._hasher.save()
        memo = self._store.memo
        memo.refresh()

        i, j = workload.pair_columns()
        hit, values = memo.lookup_block(
            self._fingerprint, keys, [hashes[k] for k in keys], i, j
        )
        miss = ~hit
        misses = int(np.count_nonzero(miss))

        with self._lock:
            self._counters["jobs"] += 1
            self._counters["hits"] += len(values)
            self._counters["misses"] += misses
            if not misses:
                self._counters["jobs_short_circuited"] += 1
        return (
            (i[hit], j[hit], values),
            ResidualPairs(workload, i[miss], j[miss], hashes) if misses else None,
        )

    def journal(
        self, residual: ResidualPairs, i: np.ndarray, j: np.ndarray, values: np.ndarray
    ) -> None:
        """Append computed pairs — columns indexing ``residual.keys`` — as one record.

        The record carries the block's own key table and content hashes;
        pairs touching an unreadable blob are skipped.  A block the store
        cannot take counts its pairs as append failures.
        """
        keep = residual.readable[i] & residual.readable[j]
        if not keep.all():
            i, j, values = i[keep], j[keep], values[keep]
        if not len(values):
            return
        used, local = np.unique(np.concatenate((i, j)), return_inverse=True)
        table = [residual.keys[k] for k in used.tolist()]
        stored = self._store.memo.append_block(
            self._fingerprint,
            table,
            [residual.hashes[k] for k in table],
            local[: len(i)],
            local[len(i) :],
            values,
        )
        with self._lock:
            self._counters["appended" if stored else "append_failures"] += len(values)

    def snapshot(self) -> Dict[str, Any]:
        """The ``"store"`` section of ``session.metrics()``."""
        with self._lock:
            counters = dict(self._counters)
        return {
            "memo": dict(
                counters,
                records=self._store.memo.record_count(),
                journal_bytes=self._store.memo.size_bytes(),
            ),
            "hashes_cached": self._hasher.cached_count(),
        }

    def close(self) -> None:
        self._hasher.save()
        self._store.close()
