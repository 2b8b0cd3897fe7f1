"""Persistent cross-session store: item cache + result memoization.

The paper's cache hierarchy (device → host → distributed peers) dies
with the session.  ``repro.store`` adds the two planes that survive it,
sharing one ``store_dir`` (enable with ``RocketConfig(store_dir=...)``,
``Rocket.run``'s ``--store-dir`` CLI flag, or the serve daemon's
``--store-dir``):

- :class:`~repro.store.itemcache.PersistentItemCache` — the disk level
  behind the host cache: content-addressed preprocessed payloads in
  ``.npy`` files it reads and writes itself; a warm start maps one
  read-only, so stored items skip io/parse/preprocess;
- :class:`~repro.store.memo.ResultMemoStore` — an append-merge journal
  of computed pair results.  The session consults it inside
  ``submit()`` and appends to it from its driver thread
  (:class:`~repro.store.integration.SessionMemo`), so a repeated job
  over an unchanged corpus recomputes zero pairs — with the one
  :class:`~repro.core.session.RunHandle` every job has and no thread
  of its own;
- :class:`~repro.store.manager.RocketStore` — the directory façade:
  stats and size-budgeted GC (``python -m repro store stats|gc``).

Both planes invalidate through item content hashes plus the
application's :meth:`~repro.core.api.Application.fingerprint`: edit an
item and exactly its rows recompute; bump ``Application.version`` and
everything does.
"""

from repro.store.hashing import ItemHasher, hash_bytes
from repro.store.integration import ResidualPairs, SessionMemo
from repro.store.itemcache import PersistentItemCache
from repro.store.manager import RocketStore
from repro.store.memo import ResultMemoStore

__all__ = [
    "ItemHasher",
    "PersistentItemCache",
    "ResidualPairs",
    "ResultMemoStore",
    "RocketStore",
    "SessionMemo",
    "hash_bytes",
]
