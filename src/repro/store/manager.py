"""The store directory as one object: stats, GC, component factories.

A store directory looks like::

    store_dir/
      hashes.json          # advisory stat-validated content-hash cache
      items/<digest>.npy   # persistent item cache (content-addressed)
      items/.tmp-*.npy     # item writes in flight (or orphaned by a kill)
      memo/seg-*.log       # result memo journal segments
      lock                 # GC mutual exclusion

:class:`RocketStore` is the façade the CLI (``store stats|gc``) and the
session integration build on.  GC is size-budgeted: when the directory
exceeds the budget it deletes item payloads oldest-first (they are pure
accelerators — a deleted payload just reloads through the pipeline),
then dead memo segments oldest-first (live ones are detected by their
writer's ``flock`` and never touched).  Whatever the budget, it first
deletes item temp files older than ``TEMP_GRACE_S``: a write renames
its temp file within milliseconds, so only a killed writer leaves one
that old.  Concurrent GCs serialise on an
exclusive lock file; everything else needs no locks by construction.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, Optional

from repro.data.filestore import DirectoryStore, FileStore

from repro.store.hashing import ItemHasher
from repro.store.itemcache import ITEMS_DIR, TEMP_PREFIX
from repro.store.memo import MEMO_DIR, ResultMemoStore

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["RocketStore"]

# Age after which an item temp file is an orphan, not a write in flight.
TEMP_GRACE_S = 3600.0


class RocketStore:
    """One persistent store directory: item payloads + result memos."""

    def __init__(self, store_dir: "str | Path") -> None:
        self.root = Path(store_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self._memo: Optional[ResultMemoStore] = None

    # -- components ------------------------------------------------------

    @property
    def memo(self) -> ResultMemoStore:
        if self._memo is None:
            self._memo = ResultMemoStore(self.root)
        return self._memo

    def hasher(self, files: FileStore) -> ItemHasher:
        return ItemHasher(self.root, files)

    # -- stats -----------------------------------------------------------

    def _dir_store(self, sub: str) -> DirectoryStore:
        # DirectoryStore.stat() is exactly the (size, mtime) helper the
        # GC needs; both planes keep their files flat for this reason.
        return DirectoryStore(self.root / sub, create=True)

    def stats(self) -> Dict[str, dict]:
        """Sizes and counts of both planes (pure filesystem inspection)."""
        items = self._dir_store(ITEMS_DIR)
        item_bytes = []
        for name in items.names():
            if name.startswith(".") or not name.endswith(".npy"):
                continue  # temp files: writes in flight or orphans, not payloads
            try:
                item_bytes.append(items.stat(name)[0])
            except KeyError:
                continue  # deleted since the listing (a concurrent GC)
        memo = self.memo
        memo.refresh()
        return {
            "items": {"count": len(item_bytes), "bytes": sum(item_bytes)},
            "memo": {
                "records": memo.record_count(),
                "segments": len(memo.segment_files()),
                "bytes": memo.size_bytes(),
            },
            "hashes": {"cached": ItemHasher(self.root, items).cached_count()},
            "total_bytes": self.total_bytes(),
        }

    def total_bytes(self) -> int:
        total = 0
        for sub in (ITEMS_DIR, MEMO_DIR):
            d = self.root / sub
            if not d.is_dir():
                continue
            for path in d.iterdir():
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return total

    # -- garbage collection ---------------------------------------------

    def _segment_is_live(self, path: Path) -> bool:
        """A segment whose writer still holds its flock must survive."""
        if fcntl is None:
            return True  # cannot tell: be conservative
        try:
            fd = os.open(str(path), os.O_RDONLY)
        except OSError:
            return False
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                return True  # writer holds it
            fcntl.flock(fd, fcntl.LOCK_UN)
            return False
        finally:
            os.close(fd)

    def _delete_orphaned_temp_files(self) -> int:
        """Delete item temp files older than ``TEMP_GRACE_S``; bytes freed."""
        items_dir = self.root / ITEMS_DIR
        if not items_dir.is_dir():
            return 0
        cutoff = time.time() - TEMP_GRACE_S
        freed = 0
        for path in items_dir.iterdir():
            if not path.name.startswith(TEMP_PREFIX):
                continue
            try:
                st = path.stat()
                if st.st_mtime < cutoff:
                    path.unlink()
                    freed += st.st_size
            except OSError:
                continue
        return freed

    def gc(self, max_bytes: int) -> Dict[str, int]:
        """Shrink the store to ``max_bytes``; returns a deletion report.

        Eviction order is oldest-first within each plane, items before
        memo segments: payloads only cost a re-load, while a deleted
        segment costs recomputing every pair it memoized.  Orphaned item
        temp files go first, on any budget; ``freed_bytes`` counts them.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        report = {"deleted_items": 0, "deleted_segments": 0, "freed_bytes": 0}
        lock_path = self.root / "lock"
        lock_fd = os.open(str(lock_path), os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(lock_fd, fcntl.LOCK_EX)
            report["freed_bytes"] += self._delete_orphaned_temp_files()
            excess = self.total_bytes() - max_bytes
            if excess <= 0:
                return report

            def oldest_first(directory: Path, keep_live: bool):
                entries = []
                if not directory.is_dir():
                    return entries
                for path in directory.iterdir():
                    if path.name.startswith("."):
                        continue  # in-flight temp files
                    try:
                        st = path.stat()
                    except OSError:
                        continue
                    if keep_live and self._segment_is_live(path):
                        continue
                    entries.append((st.st_mtime, st.st_size, path))
                entries.sort()
                return entries

            victims = oldest_first(self.root / ITEMS_DIR, keep_live=False)
            victims += oldest_first(self.root / MEMO_DIR, keep_live=True)
            for _mtime, size, path in victims:
                if excess <= 0:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                excess -= size
                report["freed_bytes"] += size
                if path.suffix == ".log":
                    report["deleted_segments"] += 1
                else:
                    report["deleted_items"] += 1
            return report
        finally:
            if fcntl is not None:
                try:
                    fcntl.flock(lock_fd, fcntl.LOCK_UN)
                except OSError:
                    pass
            os.close(lock_fd)

    def close(self) -> None:
        if self._memo is not None:
            self._memo.close()
            self._memo = None
