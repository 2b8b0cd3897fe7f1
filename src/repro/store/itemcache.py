"""Persistent item cache: the disk-backed level behind the host cache.

The paper's hierarchy (device SlotCache → host SlotCache → distributed
peers) forgets every preprocessed item when the session dies.  This
module adds the level below: a content-addressed directory of ``.npy``
payloads, one per ``(application fingerprint, key, raw-bytes hash)``.
A warm-start session finds its items here and skips the entire load
pipeline — no store IO, no parse, no preprocess kernel — paying only an
``np.load(mmap_mode="r")`` whose pages fault in lazily as the H2D copy
touches them.

Addressing by content hash makes invalidation automatic: editing an
item's bytes changes its digest, so the stale payload is simply never
found again (GC eventually removes it).  The key is part of the digest
because application callbacks receive keys and may use them (the
microscopy app seeds its optimizer from the key), so identical bytes
under two keys are *not* interchangeable.

Writes are atomic (temp file + ``os.replace``) so concurrent processes
sharing one store directory never observe half-written payloads; a
corrupt or vanished file is treated as a miss, never an error.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.api import Application
from repro.data.filestore import FileStore

from repro.store.hashing import ItemHasher

__all__ = ["PersistentItemCache", "ITEMS_DIR"]

ITEMS_DIR = "items"


class PersistentItemCache:
    """Content-addressed ``.npy`` payload store under ``store_dir/items``."""

    def __init__(self, store_dir: "str | Path", app: Application, files: FileStore) -> None:
        self.root = Path(store_dir)
        self.items_dir = self.root / ITEMS_DIR
        self.items_dir.mkdir(parents=True, exist_ok=True)
        self.app = app
        self.files = files
        self.hasher = ItemHasher(self.root, files)
        self._fingerprint = app.fingerprint()
        self._lock = threading.Lock()

    # -- addressing ------------------------------------------------------

    def entry_digest(self, key, blob_hash: str) -> str:
        token = f"{self._fingerprint}\x00{key!r}\x00{blob_hash}"
        return hashlib.sha1(token.encode("utf-8")).hexdigest()

    def _path_for(self, key, blob_hash: str) -> Path:
        return self.items_dir / f"{self.entry_digest(key, blob_hash)}.npy"

    # -- read side -------------------------------------------------------

    def load(self, key) -> Optional[np.ndarray]:
        """Memory-mapped preprocessed payload for ``key``, or ``None``.

        ``None`` covers every way a warm start can fail — unknown item,
        stale payload (bytes edited since it was stored), corrupt or
        concurrently-GC'd file — because the load pipeline is always
        there to fall back on.
        """
        try:
            blob_hash = self.hasher.digest(self.app.file_name(key))
        except (KeyError, OSError):
            return None  # missing blob: let the real pipeline raise
        path = self._path_for(key, blob_hash)
        try:
            # One load at a time: the ``.npy`` header parse
            # (``ast.literal_eval``) raced into ``SystemError`` on
            # CPython 3.11 when job threads loaded concurrently.
            with self._lock:
                return np.load(path, mmap_mode="r", allow_pickle=False)
        except FileNotFoundError:
            return None
        except (ValueError, EOFError):
            # Torn write or bit rot (a bad header or a short body: a
            # ValueError; a zero-byte file: EOFError): drop the file so
            # it stops costing a failed load on every future session.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    # -- write side ------------------------------------------------------

    def store(self, key, payload: np.ndarray, blob: Optional[bytes] = None) -> int:
        """Persist ``key``'s preprocessed payload; returns bytes written.

        ``blob`` is the raw item bytes when the caller just loaded them
        (the pipeline write-back path) — hashing them directly avoids a
        second store read.  Returns 0 when the payload is already
        present or cannot be stored (object dtype, disk error): the
        cache is an accelerator, never a correctness dependency.
        """
        try:
            name = self.app.file_name(key)
            blob_hash = (
                self.hasher.note(name, blob) if blob is not None else self.hasher.digest(name)
            )
        except (KeyError, OSError):
            return 0
        path = self._path_for(key, blob_hash)
        if path.exists():
            return 0
        arr = np.asarray(payload)
        if arr.dtype == object:
            return 0  # never allow_pickle on either side of the store
        fd = None
        tmp_name = None
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.items_dir), prefix=".tmp-", suffix=".npy"
            )
            with os.fdopen(fd, "wb") as fh:
                fd = None
                np.save(fh, arr, allow_pickle=False)
            os.replace(tmp_name, path)
            tmp_name = None
            return path.stat().st_size
        except (OSError, ValueError):
            return 0
        finally:
            if fd is not None:
                os.close(fd)
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass

    def close(self) -> None:
        self.hasher.save()
