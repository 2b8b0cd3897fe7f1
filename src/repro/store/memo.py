"""Cross-session result memo store: an append-merge journal of pairs.

Every computed pair result is appended as one record keyed on
``(application fingerprint, key_a, key_b)`` together with the content
hashes both items had when the value was computed.  At submit time the
session consults the store: a pair whose stored hashes still match the
items' current hashes is *memoized* — its value is injected straight
into the job's :class:`ResultMatrix` and the backend never sees the
pair.  Editing an item changes its hash, so exactly that item's rows
stop matching and recompute; nothing else does.  This is
``DeltaPairs.merge()`` extended across sessions: the journal is the
durable prior matrix and each run appends its delta.

Durability model — single-writer journal segments:

- each writing process appends to its *own* segment file (created
  ``O_EXCL``, held under an ``flock`` for its lifetime so the GC can
  tell live segments from dead ones);
- a record is ``[u32 length][u32 crc32][pickle payload]``; readers stop
  a segment at the first short or corrupt record and simply retry from
  that offset on the next refresh — a torn tail behind a crash (or a
  concurrent writer mid-append) costs those records, never a crash or
  a wrong result;
- every record carries a stamp (the writer's wall clock in ns, pushed
  past every stamp the writer has seen); merging folds all segments and
  the record with the newest stamp wins, so the outcome does not depend on the
  order segments are read in (their names are ``seg-<pid>-<random>``,
  which says nothing about age).  Records written before stamps
  existed load with stamp 0: anything stamped supersedes them.

No coordination is needed between one long-lived daemon and N one-shot
CLIs sharing a directory: writers never touch each other's segments and
readers tolerate any prefix of a segment.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["ResultMemoStore", "MEMO_DIR", "canonical_pair"]

MEMO_DIR = "memo"
_HEADER = struct.Struct("<II")  # record length, crc32 of the payload
_MAX_RECORD = 64 * 1024 * 1024  # sanity bound: larger lengths mean corruption
#: What decoding a CRC-valid record that this journal did not write can
#: raise: a bad pickle stream, a missing class or module, an object whose
#: reconstruction fails, or a value that is not a ``(fp, a, b, ha, hb,
#: value[, stamp])`` tuple.  Such a record counts as a torn tail.
_FOREIGN_RECORD = (
    pickle.UnpicklingError,
    EOFError,
    ValueError,
    TypeError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
)


def canonical_pair(key_a, key_b) -> Tuple[Any, Any]:
    """Deterministic ordering of an unordered pair.

    Workloads enumerate pairs in key-list index order, which can differ
    between runs (``AllPairs`` vs the ``DeltaPairs`` that first computed
    a pair); the memo must treat ``(a, b)`` and ``(b, a)`` as the same
    entry, so both sides normalize through this.
    """
    return (key_a, key_b) if repr(key_a) <= repr(key_b) else (key_b, key_a)


class ResultMemoStore:
    """Journal-backed map ``(fingerprint, key_a, key_b) -> (hash_a, hash_b, value)``."""

    def __init__(self, store_dir: "str | Path") -> None:
        self.dir = Path(store_dir) / MEMO_DIR
        self.dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        #: ``(fingerprint, key_a, key_b) -> (hash_a, hash_b, value, stamp)``
        self._entries: Dict[tuple, Tuple[str, str, Any, int]] = {}
        self._last_stamp = 0
        # Per segment: bytes already consumed (up to the last valid record).
        self._offsets: Dict[str, int] = {}
        self._writer = None
        self._writer_path: Optional[Path] = None
        self.dropped_segments = 0  # unreadable segments seen by refresh
        self._counted_drops: set = set()
        self.refresh()

    # -- reading ---------------------------------------------------------

    def refresh(self) -> None:
        """Fold any new journal records from every segment into memory."""
        with self._lock:
            try:
                segments = sorted(p for p in self.dir.iterdir() if p.suffix == ".log")
            except OSError:
                return
            for path in segments:
                self._consume(path)

    def _consume(self, path: Path) -> None:
        offset = self._offsets.get(path.name, 0)
        try:
            size = path.stat().st_size
        except OSError:
            return
        if size <= offset:
            return
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                data = fh.read(size - offset)
        except OSError:
            self._count_drop(path.name)
            return
        pos = 0
        torn = False
        while pos + _HEADER.size <= len(data):
            length, crc = _HEADER.unpack_from(data, pos)
            end = pos + _HEADER.size + length
            if length > _MAX_RECORD or end > len(data):
                torn = True
                break  # torn tail or garbage length: retry next refresh
            payload = data[pos + _HEADER.size : end]
            if zlib.crc32(payload) != crc:
                torn = True
                break  # corrupt record poisons the rest of the segment
            try:
                fp, key_a, key_b, hash_a, hash_b, value, *rest = pickle.loads(payload)
                stamp = int(rest[0]) if rest else 0  # pre-stamp records
            except _FOREIGN_RECORD:
                torn = True
                break
            self._fold((fp, key_a, key_b), (hash_a, hash_b, value, stamp))
            pos = end
        if torn and pos == 0 and offset == 0:
            # Nothing was ever readable from this segment: pure garbage
            # (as opposed to a torn tail behind valid records).
            self._count_drop(path.name)
        self._offsets[path.name] = offset + pos

    def _fold(self, key: tuple, entry: Tuple[str, str, Any, int]) -> None:
        """Keep the newest record of a pair, whatever order they arrive in."""
        current = self._entries.get(key)
        if current is None or entry[3] >= current[3]:
            self._entries[key] = entry
        if entry[3] > self._last_stamp:
            self._last_stamp = entry[3]

    def _count_drop(self, name: str) -> None:
        if name not in self._counted_drops:
            self._counted_drops.add(name)
            self.dropped_segments += 1

    def lookup(self, fingerprint: str, key_a, key_b, hash_a: str, hash_b: str):
        """``(True, value)`` when the pair is memoized under these hashes."""
        ka, kb = canonical_pair(key_a, key_b)
        if (ka, kb) != (key_a, key_b):
            hash_a, hash_b = hash_b, hash_a
        with self._lock:
            entry = self._entries.get((fingerprint, ka, kb))
        if entry is not None and entry[0] == hash_a and entry[1] == hash_b:
            return True, entry[2]
        return False, None

    def record_count(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- writing ---------------------------------------------------------

    def _open_writer(self) -> None:
        token = os.urandom(4).hex()
        path = self.dir / f"seg-{os.getpid():06d}-{token}.log"
        fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        fh = os.fdopen(fd, "ab")
        if fcntl is not None:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        self._writer = fh
        self._writer_path = path
        self._offsets.setdefault(path.name, 0)

    def append(self, fingerprint: str, key_a, key_b, hash_a: str, hash_b: str, value) -> bool:
        """Journal one computed pair; False when the value can't be stored.

        Unpicklable values are simply not memoized — the job still
        completes normally, the pair just recomputes next session.
        """
        ka, kb = canonical_pair(key_a, key_b)
        if (ka, kb) != (key_a, key_b):
            hash_a, hash_b = hash_b, hash_a
        with self._lock:
            # Wall clock, but never at or below a stamp already seen (own
            # or folded from another writer): a clock stepping backwards
            # cannot make a newer record lose to an older one.
            stamp = max(time.time_ns(), self._last_stamp + 1)
            try:
                payload = pickle.dumps(
                    (fingerprint, ka, kb, hash_a, hash_b, value, stamp),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            except (pickle.PicklingError, TypeError, AttributeError):
                return False
            try:
                if self._writer is None:
                    self._open_writer()
                self._writer.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
                self._writer.write(payload)
                self._writer.flush()
            except OSError:
                return False
            self._fold((fingerprint, ka, kb), (hash_a, hash_b, value, stamp))
            if self._writer_path is not None:
                # Own records are already folded in: skip them on refresh.
                self._offsets[self._writer_path.name] = (
                    self._offsets.get(self._writer_path.name, 0)
                    + _HEADER.size
                    + len(payload)
                )
        return True

    # -- introspection / lifecycle --------------------------------------

    def segment_files(self):
        try:
            return sorted(p for p in self.dir.iterdir() if p.suffix == ".log")
        except OSError:
            return []

    def size_bytes(self) -> int:
        total = 0
        for path in self.segment_files():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def close(self) -> None:
        with self._lock:
            if self._writer is not None:
                try:
                    self._writer.flush()
                    if fcntl is not None:
                        fcntl.flock(self._writer.fileno(), fcntl.LOCK_UN)
                    self._writer.close()
                except OSError:
                    pass
                self._writer = None
                self._writer_path = None
