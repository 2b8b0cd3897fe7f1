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
  and the backend executes the :class:`ResidualPairs`; a fully memoized
  job is resolved on the spot and never reaches the backend.
- :meth:`SessionMemo.journal`, on the session's driver thread: the
  driver follows the handle's results by cursor and appends each
  freshly computed batch to the memo journal — every tick and once more
  before the job turns terminal, so failed and cancelled jobs' pairs
  are journaled too.  A failing append never reaches the job.

The memo key includes the item *keys*, not just their content hashes:
application callbacks receive keys and may depend on them (the
microscopy app seeds its optimizer from the key), so identical bytes
under different keys must not share results.  Invalidation still works
through the stored content hashes — editing an item changes its hash
and exactly its pairs stop matching.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.api import Application
from repro.core.workload import PairSetFilter, Workload
from repro.data.filestore import FileStore

from repro.store.manager import RocketStore

__all__ = ["SessionMemo", "ResidualPairs"]


class ResidualPairs(Workload):
    """A workload restricted to the pairs the memo store could not serve.

    Keeps the base workload's index space and block decomposition (so
    scheduling locality is untouched) and narrows the accepted set with
    a :class:`~repro.core.workload.PairSetFilter` — which already embeds
    the base workload's own filter, applied during the submit-time sweep.
    ``hashes`` are the item content hashes the partition was made under
    (None: unreadable blob); computed pairs are journaled with them.
    """

    kind = "memo-residual"

    def __init__(
        self,
        base: Workload,
        accepted: Set[Tuple[Any, Any]],
        hashes: Dict[Any, Optional[str]],
    ) -> None:
        super().__init__()
        if not accepted:
            raise ValueError("residual workload needs at least one pair")
        self.keys = list(base.keys)
        self.hashes = hashes
        self._base = base
        self._subset = PairSetFilter(accepted)

    def blocks(self):
        return self._base.blocks()

    @property
    def pair_filter(self):
        return self._subset


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
            "append_failures": 0,  # unpicklable / unwritable values
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
    ) -> Tuple[List[Tuple[int, int]], List[Any], Optional[ResidualPairs]]:
        """Split ``workload`` into what the store serves and what must run.

        Returns the memoized pairs (indices into ``workload.keys``),
        their values, and the residual workload (None: nothing is left).
        """
        keys = workload.keys
        hashes = self._hash_items(keys)
        self._hasher.save()
        memo = self._store.memo
        memo.refresh()

        flt = workload.pair_filter
        memo_pairs: List[Tuple[int, int]] = []
        memo_values: List[Any] = []
        residual: Set[Tuple[Any, Any]] = set()
        for block in workload.blocks():
            for i, j in block.pairs():
                ka, kb = keys[i], keys[j]
                if flt is not None and not flt(ka, kb):
                    continue
                ha, hb = hashes[ka], hashes[kb]
                hit = False
                if ha is not None and hb is not None:
                    hit, value = memo.lookup(self._fingerprint, ka, kb, ha, hb)
                if hit:
                    memo_pairs.append((i, j))
                    memo_values.append(value)
                else:
                    residual.add((ka, kb))

        with self._lock:
            self._counters["jobs"] += 1
            self._counters["hits"] += len(memo_pairs)
            self._counters["misses"] += len(residual)
            if not residual:
                self._counters["jobs_short_circuited"] += 1
        return (
            memo_pairs,
            memo_values,
            ResidualPairs(workload, residual, hashes) if residual else None,
        )

    def journal(self, hashes: Dict[Any, Optional[str]], triples) -> None:
        """Append computed ``(key_a, key_b, value)`` triples to the memo journal.

        ``hashes`` are the residual workload's (pairs touching an
        unreadable blob are skipped).  A value the store cannot take
        counts as an append failure; if pickling one raises past
        ``append``'s guard the error propagates with the rest of the
        batch counted failed too — the session driver contains it.
        """
        wanted = [
            (ka, kb, hashes[ka], hashes[kb], value)
            for ka, kb, value in triples
            if hashes.get(ka) is not None and hashes.get(kb) is not None
        ]
        append = self._store.memo.append
        appended = 0
        try:
            for ka, kb, ha, hb, value in wanted:
                appended += append(self._fingerprint, ka, kb, ha, hb, value)
        finally:
            with self._lock:
                self._counters["appended"] += appended
                self._counters["append_failures"] += len(wanted) - appended

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
