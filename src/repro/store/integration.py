"""Submit-time memoization: rewrite jobs to their non-memoized pairs.

:class:`StoreSession` wraps a
:class:`~repro.runtime.backend.BackendSession`, mirroring its public
surface; it is installed (by :class:`~repro.core.session.RocketSession` and the
one-shot ``Rocket.run`` path) whenever the backend's config carries a
``store_dir``.  On every submit it:

1. content-hashes the workload's items (through the shared stat-cached
   :class:`~repro.store.hashing.ItemHasher`, so an unchanged corpus
   costs stat calls, not reads);
2. partitions the accepted pairs into *memoized* (the memo store holds
   a value recorded under both items' current hashes) and *residual*;
3. injects the memoized values straight into the job's handle —
   exactly-once, value-identical to recomputing them — and submits only
   a :class:`ResidualPairs` rewrite of the workload to the real
   backend.  A fully-memoized job never touches the backend at all;
4. bridges the inner job's stream back to the outer handle, appending
   each freshly computed pair to the memo journal as it lands.

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

from repro.core.session import RunHandle, RunState, SessionClosed
from repro.core.workload import PairSetFilter, Workload
from repro.runtime.backend import BackendSession, RocketBackend

from repro.store.manager import RocketStore

__all__ = ["StoreSession", "ResidualPairs", "PairSubsetFilter", "maybe_wrap_store"]


#: The residual filter's historical name (``repro.store.__all__``).
PairSubsetFilter = PairSetFilter


class ResidualPairs(Workload):
    """A workload restricted to the pairs the memo store could not serve.

    Keeps the base workload's index space and block decomposition (so
    scheduling locality is untouched) and narrows the accepted set with
    a :class:`~repro.core.workload.PairSetFilter` — which already embeds
    the base workload's own filter, applied during the submit-time sweep.
    """

    kind = "memo-residual"

    def __init__(self, base: Workload, accepted: Set[Tuple[Any, Any]]) -> None:
        super().__init__()
        if not accepted:
            raise ValueError("residual workload needs at least one pair")
        self.keys = list(base.keys)
        self._base = base
        self._subset = PairSetFilter(accepted)

    def blocks(self):
        return self._base.blocks()

    @property
    def pair_filter(self):
        return self._subset


class StoreSession:
    """Backend session wrapper adding submit-time result memoization."""

    def __init__(self, inner: BackendSession, app, files, store_dir) -> None:
        self._inner = inner
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
        self._bridges: List[threading.Thread] = []

    # -- submit-time rewrite --------------------------------------------

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
            except Exception:
                hashes[key] = None
        return hashes

    def submit(
        self,
        workload: Workload,
        *,
        priority: float = 1.0,
        max_inflight: Optional[int] = None,
    ) -> RunHandle:
        keys = workload.keys
        hashes = self._hash_items(keys)
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

        outer = RunHandle(workload, priority=priority, max_inflight=max_inflight)
        #: Pairs this job served from the memo store (read by the serve
        #: daemon's per-tenant hit accounting).
        outer.memo_hits = len(memo_pairs)

        if not residual:
            # Nothing left for the backend: resolve the job right here.
            with self._lock:
                self._counters["jobs_short_circuited"] += 1
            outer._mark_running(None)
            outer._record_block(memo_pairs, memo_values)
            outer._finish(RunState.DONE)
            self._hasher.save()
            return outer

        inner_handle = self._inner.submit(
            ResidualPairs(workload, residual),
            priority=priority,
            max_inflight=max_inflight,
        )
        # Memoized values land in the stream first, then computed pairs
        # in backend arrival order; each pair exactly once (the memoized
        # and residual sets are disjoint by construction).
        outer._mark_running(inner_handle.cancel)
        outer._record_block(memo_pairs, memo_values)

        bridge = threading.Thread(
            target=self._bridge,
            args=(outer, inner_handle, {key: idx for idx, key in enumerate(keys)}, hashes),
            name="store-bridge",
            daemon=True,
        )
        self._bridges.append(bridge)
        bridge.start()
        return outer

    def _bridge(self, outer: RunHandle, inner: RunHandle, index, hashes) -> None:
        """Forward the inner job's results, journaling each pair."""
        appended = failures = 0
        try:
            for ka, kb, value in inner.stream():
                outer._record(index[ka], index[kb], value)
                ha, hb = hashes.get(ka), hashes.get(kb)
                if ha is not None and hb is not None:
                    if self._store.memo.append(self._fingerprint, ka, kb, ha, hb, value):
                        appended += 1
                    else:
                        failures += 1
        except BaseException as error:
            # A FAILED inner job raises from stream() once drained.
            outer.accounting = inner.accounting
            outer._finish(RunState.FAILED, stats=inner.stats, error=error)
            return
        finally:
            with self._lock:
                self._counters["appended"] += appended
                self._counters["append_failures"] += failures
            self._hasher.save()
        inner.wait()
        outer.accounting = inner.accounting
        outer._finish(inner.state, stats=inner.stats)

    # -- delegation ------------------------------------------------------

    def close(self) -> None:
        try:
            self._inner.close()
        finally:
            for bridge in self._bridges:
                bridge.join(timeout=10.0)
            self._bridges.clear()
            self._hasher.save()
            self._store.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed

    def add_node(self) -> int:
        return self._inner.add_node()

    def retire_node(self, node: Optional[int] = None, *, drain: bool = True) -> int:
        return self._inner.retire_node(node, drain=drain)

    def metrics(self) -> Dict[str, Any]:
        snap = self._inner.metrics()
        with self._lock:
            counters = dict(self._counters)
        snap = dict(snap)
        snap["store"] = {
            "memo": dict(
                counters,
                records=self._store.memo.record_count(),
                journal_bytes=self._store.memo.size_bytes(),
            ),
            "hashes_cached": self._hasher.cached_count(),
        }
        return snap

    def profile(self):
        return self._inner.profile()

    def __enter__(self) -> "StoreSession":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.close()
        except SessionClosed:
            pass  # closed early inside the with block


def maybe_wrap_store(session: BackendSession, backend: RocketBackend):
    """Wrap ``session`` with memoization when the backend has a store.

    The no-op path (no ``store_dir`` configured, or a backend without
    the app/store/config attributes) returns the session unchanged.
    """
    config = getattr(backend, "config", None)
    store_dir = getattr(config, "store_dir", None)
    app = getattr(backend, "app", None)
    files = getattr(backend, "store", None)
    if not store_dir or app is None or files is None:
        return session
    return StoreSession(session, app, files, store_dir)
