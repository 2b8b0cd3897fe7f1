"""Content hashing of corpus items, with a stat-validated cache.

Everything the persistent store does — payload addressing, memo
invalidation — is keyed on the SHA-1 of an item's *raw bytes*, so an
edited item automatically stops matching anything cached under its old
contents.  Hashing every blob on every session would itself cost a full
corpus read, which is exactly the IO a warm start is meant to skip; the
:class:`ItemHasher` therefore keeps a ``hashes.json`` cache in the
store directory, validated per blob against :meth:`FileStore.stat`
``(size, mtime)``.  Stores that cannot report honest mtimes (the base
default returns ``0.0``) are never trusted: their blobs are re-read and
re-hashed each session, which is slower but always correct.

The cache file is advisory and shared: any process may rewrite it
(atomic replace, last writer wins) and a lost update merely costs a
re-hash next time.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.data.filestore import FileStore

__all__ = ["ItemHasher", "hash_bytes"]

_HASHES_FILE = "hashes.json"


def hash_bytes(data: bytes) -> str:
    """Hex content digest of raw item bytes."""
    return hashlib.sha1(bytes(data)).hexdigest()


class ItemHasher:
    """Content hashes for blobs of one :class:`FileStore`, cached on disk."""

    def __init__(self, root: "str | Path", files: FileStore) -> None:
        self.root = Path(root)
        self.files = files
        self._lock = threading.Lock()
        self._dirty = False
        # name -> (size, mtime, digest); only trusted when stat matches.
        self._cache: Dict[str, Tuple[int, float, str]] = {}
        self._load()

    @property
    def path(self) -> Path:
        return self.root / _HASHES_FILE

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
            self._cache = {
                name: (int(size), float(mtime), str(digest))
                for name, (size, mtime, digest) in raw.items()
            }
        except (OSError, ValueError, TypeError, AttributeError):
            self._cache = {}  # absent or corrupt: start cold

    def digest(self, name: str) -> str:
        """Content hash of blob ``name``, reading it only when needed.

        Raises ``KeyError`` when the blob is absent (propagated from the
        store), matching the load pipeline's behaviour for missing files.
        """
        size, mtime = self.files.stat(name)
        with self._lock:
            cached = self._cache.get(name)
            if cached is not None and cached[0] == size and cached[1] == mtime and mtime > 0:
                return cached[2]
        digest = hash_bytes(self.files.read(name))
        with self._lock:
            self._cache[name] = (size, mtime, digest)
            self._dirty = True
        return digest

    def note(self, name: str, data: bytes) -> str:
        """Record the hash of ``data`` as blob ``name``'s current contents.

        Used by the load pipeline, which already holds the raw bytes —
        hashing them directly avoids a second store read.
        """
        digest = hash_bytes(data)
        try:
            size, mtime = self.files.stat(name)
        except (KeyError, OSError):  # deleted since the read, or unreadable
            size, mtime = len(data), 0.0
        with self._lock:
            self._cache[name] = (size, mtime, digest)
            self._dirty = True
        return digest

    def cached_count(self) -> int:
        with self._lock:
            return len(self._cache)

    def save(self) -> None:
        """Persist the cache (atomic replace; best-effort, advisory)."""
        with self._lock:
            if not self._dirty:
                return
            snapshot = dict(self._cache)
            self._dirty = False
        tmp = self.path.with_name(f".{_HASHES_FILE}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(snapshot, sort_keys=True), encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
