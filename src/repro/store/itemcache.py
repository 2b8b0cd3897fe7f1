"""Persistent item cache: the disk-backed level behind the host cache.

The paper's hierarchy (device SlotCache → host SlotCache → distributed
peers) forgets every preprocessed item when the session dies.  This
module adds the level below: a content-addressed directory of ``.npy``
payloads, one per ``(application fingerprint, key, raw-bytes hash)``.
A warm-start session finds its items here and skips the entire load
pipeline — no store IO, no parse, no preprocess kernel — paying only
one ``open`` and one read-only ``mmap`` whose pages fault in lazily as
the H2D copy touches them.

The cache reads and writes the ``.npy`` format itself, in the one form
``np.save`` gives a C-contiguous numeric array: a version 1.0 header
(``descr``, ``fortran_order: False``, ``shape``, space-padded to 64
bytes) and the raw body.  Files ``np.save`` wrote in that form read
back, and the writer's bytes are ``np.save``'s.  Any other header —
another version, Fortran order, an object or structured dtype — is a
damaged file like a short body is.

Addressing by content hash makes invalidation automatic: editing an
item's bytes changes its digest, so the stale payload is simply never
found again (GC eventually removes it).  The key is part of the digest
because application callbacks receive keys and may use them (the
microscopy app seeds its optimizer from the key), so identical bytes
under two keys are *not* interchangeable.

Writes are atomic (a ``TEMP_PREFIX`` file, then ``os.replace``) so
concurrent processes sharing one store directory never observe
half-written payloads; a corrupt or vanished file is treated as a miss,
never an error.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import os
import re
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.api import Application
from repro.data.filestore import FileStore

from repro.store.hashing import ItemHasher

__all__ = ["PersistentItemCache", "ITEMS_DIR", "TEMP_PREFIX"]

ITEMS_DIR = "items"
# In-flight writes are ``items/.tmp-<random>.npy`` until their rename.
TEMP_PREFIX = ".tmp-"

# The ``.npy`` v1.0 layout: magic and version, a little-endian uint16
# header length, then a header padded so the body starts on a 64-byte
# boundary.  The spare spaces after the dict (21 digits for the first
# axis) are numpy's room to grow an array in place; they are part of
# the bytes ``np.save`` writes.
_MAGIC = b"\x93NUMPY\x01\x00"
_PREFIX_LEN = len(_MAGIC) + 2
_ALIGN = 64
_GROWTH_DIGITS = 21
_KINDS = "biufc"  # bool, int, uint, float, complex: bodies are plain bytes
_HEADER = re.compile(
    rb"\{'descr': '([<>|][" + _KINDS.encode() + rb"][0-9]+)', 'fortran_order': False, "
    rb"'shape': \((|[0-9]+,|[0-9]+(?:, [0-9]+)+)\), \} *\n"
)


def _npy_header(arr: np.ndarray) -> bytes:
    """The header ``np.save`` writes for C-contiguous ``arr``."""
    shape = arr.shape
    text = f"{{'descr': '{arr.dtype.str}', 'fortran_order': False, 'shape': {shape!r}, }}"
    if shape:
        text += " " * (_GROWTH_DIGITS - len(repr(shape[0])))
    hlen = len(text) + 1  # the closing newline
    pad = _ALIGN - (_PREFIX_LEN + hlen) % _ALIGN
    return b"".join((
        _MAGIC, (hlen + pad).to_bytes(2, "little"), text.encode("ascii"), b" " * pad, b"\n",
    ))


def _view_npy(mm: mmap.mmap) -> np.ndarray:
    """The array a mapped ``.npy`` file holds; ``ValueError`` if damaged."""
    if mm[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a version 1.0 .npy file")
    start = _PREFIX_LEN + int.from_bytes(mm[len(_MAGIC):_PREFIX_LEN], "little")
    match = _HEADER.fullmatch(mm[_PREFIX_LEN:start])
    if match is None:
        raise ValueError("unsupported .npy header")
    try:
        dtype = np.dtype(match[1].decode("ascii"))
    except TypeError:  # a well-formed code numpy has no type for ('<f3')
        raise ValueError("unknown .npy dtype") from None
    shape = tuple(int(d) for d in match[2].replace(b",", b" ").split())
    count = math.prod(shape)
    if len(mm) != start + count * dtype.itemsize:
        raise ValueError("body size does not match the header")
    return np.frombuffer(mm, dtype, count, start).reshape(shape)


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
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return None  # absent (never stored, or GC'd) or unreadable
        mm = None
        try:
            mm = mmap.mmap(fd, 0, prot=mmap.PROT_READ)  # ValueError if empty
            return _view_npy(mm)
        except OSError:
            return None
        except ValueError:
            # Torn write, bit rot or a format this reader does not
            # write: drop the file so it stops costing a failed load on
            # every future session.
            if mm is not None:
                mm.close()
            try:
                path.unlink()
            except OSError:
                pass
            return None
        finally:
            os.close(fd)

    # -- write side ------------------------------------------------------

    def store(self, key, payload: np.ndarray, blob: Optional[bytes] = None) -> int:
        """Persist ``key``'s preprocessed payload; returns bytes written.

        ``blob`` is the raw item bytes when the caller just loaded them
        (the pipeline write-back path) — hashing them directly avoids a
        second store read.  Returns 0 when the payload is already
        present or cannot be stored (a dtype other than bool, integer,
        float or complex; a disk error): the cache is an accelerator,
        never a correctness dependency.
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
        arr = np.asarray(payload, order="C")
        if arr.dtype.kind not in _KINDS:
            return 0  # never pickle, and no header the reader rejects
        pending = [memoryview(_npy_header(arr)), memoryview(arr.reshape(-1).view(np.uint8))]
        size = sum(len(buf) for buf in pending)
        tmp = self.items_dir / f"{TEMP_PREFIX}{os.urandom(8).hex()}.npy"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        except OSError:
            return 0
        try:
            try:
                while pending:  # one writev unless the kernel writes short
                    done = os.writev(fd, pending)
                    while pending and done >= len(pending[0]):
                        done -= len(pending.pop(0))
                    if pending:
                        pending[0] = pending[0][done:]
            finally:
                os.close(fd)
            os.replace(tmp, path)
            return size
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return 0

    def close(self) -> None:
        self.hasher.save()
