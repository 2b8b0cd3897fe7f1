"""Cross-session result memo store: an append-merge journal of result blocks.

Every batch of computed pair results is appended as one record: the
application fingerprint, the batch's key table with the content hash
each item had when the values were computed, the pairs as two index
columns into that table, the float64 value column and one stamp.  At
submit time the session consults the store: a pair whose stored hashes
still match the items' current hashes is *memoized* — its value is
injected straight into the job's :class:`ResultMatrix` and the backend
never sees the pair.  Editing an item changes its hash, so exactly that
item's rows stop matching and recompute; nothing else does.  This is
``DeltaPairs.merge()`` extended across sessions: the journal is the
durable prior matrix and each run appends its delta.

Durability model — single-writer journal segments:

- each writing process appends to its *own* segment file (created
  ``O_EXCL``, held under an ``flock`` for its lifetime so the GC can
  tell live segments from dead ones);
- a record is ``[u32 length][u32 crc32][payload]``, written with one
  ``write`` and one ``flush``; readers stop a segment at the first
  short or corrupt record — or a CRC-valid one this journal did not
  write, such as a record of an older journal format — and simply retry
  from that offset on the next refresh: a torn tail behind a crash (or
  a concurrent writer mid-append) costs those records, never a crash or
  a wrong result.  A failed write abandons its segment (the next block
  starts a fresh one), so one error cannot hide the records after it;
- every record carries a stamp (the writer's wall clock in ns, pushed
  past every stamp the writer has seen); merging folds all segments and
  for each pair the record with the newest stamp wins, so the outcome
  does not depend on the order segments are read in (their names are
  ``seg-<pid>-<random>``, which says nothing about age).

In memory the journal is folded into columns: each ``(fingerprint,
key)`` and each content hash gets a small integer id, a pair is the
ordered pair of its two key ids, and every folded row keeps its pair
id, both hash ids, value and stamp.  A lookup sorts the rows once (per
pair the newest stamp wins) and matches a job's pairs by binary search:
folding a block and looking up a job are NumPy operations, with no
Python object per pair.

No coordination is needed between one long-lived daemon and N one-shot
CLIs sharing a directory: writers never touch each other's segments and
readers tolerate any prefix of a segment.
"""

from __future__ import annotations

import itertools
import os
import pickle
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["ResultMemoStore", "MEMO_DIR"]

MEMO_DIR = "memo"
_HEADER = struct.Struct("<II")  # record length, crc32 of the payload
_MAX_RECORD = 64 * 1024 * 1024  # sanity bound: larger lengths mean corruption
#: First field of every record this journal writes.
_RECORD_TAG = "rocket-memo-block/1"
#: What decoding a CRC-valid record that this journal did not write can
#: raise: a bad pickle stream, a missing class or module, an object whose
#: reconstruction fails, or a value that is not a block record.  Such a
#: record counts as a torn tail.
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
#: Bits of a pair id taken by the higher key id.
_KEY_BITS = 32


def _encode_record(
    fingerprint: str,
    keys: Sequence[Any],
    hashes: Sequence[str],
    i: Any,
    j: Any,
    values: Any,
    stamp: int,
) -> bytes:
    """One journal record: pairs ``(keys[i[k]], keys[j[k]])`` with ``values[k]``."""
    return pickle.dumps(
        (
            _RECORD_TAG,
            fingerprint,
            list(keys),
            list(hashes),
            np.asarray(i, dtype="<i4").tobytes(),
            np.asarray(j, dtype="<i4").tobytes(),
            np.asarray(values, dtype="<f8").tobytes(),
            stamp,
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def _decode_record(payload: bytes) -> Tuple[str, list, list, np.ndarray, np.ndarray, np.ndarray, int]:
    """Inverse of :func:`_encode_record`; raises one of ``_FOREIGN_RECORD`` otherwise."""
    tag, fingerprint, keys, hashes, i, j, values, stamp = pickle.loads(payload)
    if tag != _RECORD_TAG or type(stamp) is not int or not isinstance(fingerprint, str):
        raise ValueError("not a memo block record")
    if not isinstance(keys, list) or not isinstance(hashes, list) or len(keys) != len(hashes):
        raise ValueError("key and hash tables differ")
    if not all(isinstance(h, str) for h in hashes):
        raise ValueError("content hashes must be strings")
    hash(tuple(keys))  # TypeError for an unhashable key
    i, j = np.frombuffer(i, dtype="<i4"), np.frombuffer(j, dtype="<i4")
    values = np.frombuffer(values, dtype="<f8")
    if not len(i) == len(j) == len(values):
        raise ValueError("columns of different lengths")
    if len(i) and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= len(keys)):
        raise IndexError("pair index outside the key table")
    return fingerprint, keys, hashes, i, j, values, stamp


class ResultMemoStore:
    """Journal-backed map ``(fingerprint, key_a, key_b) -> (hash_a, hash_b, value)``."""

    def __init__(self, store_dir: "str | Path") -> None:
        self.dir = Path(store_dir) / MEMO_DIR
        self.dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        #: ``fingerprint -> {key: key id}`` and ``content hash -> hash id``,
        #: numbered by one counter: a key id is unique across fingerprints.
        self._key_ids: Dict[str, Dict[Any, int]] = {}
        self._hash_ids: Dict[str, int] = {}
        self._new_id = itertools.count().__next__
        #: Folded rows (the first ``_n`` are filled): pair id, the hash
        #: ids of its lower and higher key id, the value and the stamp.
        self._pairs = np.empty(0, dtype=np.int64)
        self._hash_lo = np.empty(0, dtype=np.int32)
        self._hash_hi = np.empty(0, dtype=np.int32)
        self._values = np.empty(0, dtype=np.float64)
        self._stamps = np.empty(0, dtype=np.int64)
        self._n = 0
        #: ``(rows indexed, sorted pair ids, newest row of each)``; rows
        #: folded since are merged in at the next lookup.
        self._newest: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        self._last_stamp = 0
        # Per segment: bytes already consumed (up to the last valid record).
        self._offsets: Dict[str, int] = {}
        self._writer = None
        self._writer_path: Optional[Path] = None
        self.dropped_segments = 0  # unreadable segments seen by refresh
        self._counted_drops: set = set()
        self.refresh()

    # -- the folded columns ---------------------------------------------

    def _ids(self, table: Dict[Any, int], items: Sequence[Any]) -> np.ndarray:
        """Ids of ``items`` in ``table``, numbering new ones (lock held).

        One C-level pass of ``dict.get`` over a table; only an item seen
        for the first time costs Python.
        """
        ids = list(map(table.get, items))
        if None in ids:
            for k, item in enumerate(items):
                if ids[k] is None:
                    if item not in table:
                        table[item] = self._new_id()
                    ids[k] = table[item]
        return np.array(ids, dtype=np.int64)

    @staticmethod
    def _pair_ids(
        key_a: np.ndarray, key_b: np.ndarray, hash_a: np.ndarray, hash_b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pair ids plus the hash ids in pair order (lower key id first)."""
        swap = key_a > key_b
        lo, hi = np.where(swap, key_b, key_a), np.where(swap, key_a, key_b)
        return (lo << _KEY_BITS) | hi, np.where(swap, hash_b, hash_a), np.where(swap, hash_a, hash_b)

    def _fold(
        self,
        fingerprint: str,
        keys: List[Any],
        hashes: List[str],
        i: np.ndarray,
        j: np.ndarray,
        values: np.ndarray,
        stamp: int,
    ) -> None:
        """Append one block's rows (lock held)."""
        m = len(values)
        if not m:
            return
        key_ids = self._ids(self._key_ids.setdefault(fingerprint, {}), keys)
        hash_ids = self._ids(self._hash_ids, hashes)
        pairs, hash_lo, hash_hi = self._pair_ids(
            key_ids[i], key_ids[j], hash_ids[i], hash_ids[j]
        )
        start, stop = self._n, self._n + m
        if stop > len(self._values):
            capacity = max(stop, 2 * len(self._values), 1024)
            for name in ("_pairs", "_hash_lo", "_hash_hi", "_values", "_stamps"):
                old = getattr(self, name)
                new = np.empty(capacity, dtype=old.dtype)
                new[:start] = old[:start]
                setattr(self, name, new)
        self._pairs[start:stop] = pairs
        self._hash_lo[start:stop] = hash_lo
        self._hash_hi[start:stop] = hash_hi
        self._values[start:stop] = values
        self._stamps[start:stop] = stamp
        self._n = stop
        self._last_stamp = max(self._last_stamp, stamp)

    def _newest_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted distinct pair ids and the row of each one's newest record.

        Newest is the highest stamp, whatever order the segments were
        read in; between equal stamps the row folded last wins.  Rows
        folded since the last call are merged into the index: sorting
        costs the new rows, not the journal.
        """
        indexed, stored, newest = self._newest or (0, np.empty(0, np.int64), np.empty(0, np.int64))
        n = self._n
        if indexed != n:
            rows = np.arange(indexed, n)
            pairs = self._pairs[indexed:n]
            order = np.lexsort((rows, self._stamps[indexed:n], pairs))
            pairs, rows = pairs[order], rows[order]
            last = np.ones(len(pairs), dtype=bool)
            last[:-1] = pairs[1:] != pairs[:-1]
            pairs, rows = pairs[last], rows[last]  # the newest new row of each pair
            at = np.searchsorted(stored, pairs)
            known = at < len(stored)
            known[known] = stored[at[known]] == pairs[known]
            newer = self._stamps[rows[known]] >= self._stamps[newest[at[known]]]
            newest = newest.copy()
            newest[at[known][newer]] = rows[known][newer]
            stored = np.insert(stored, at[~known], pairs[~known])
            newest = np.insert(newest, at[~known], rows[~known])
            self._newest = (n, stored, newest)
        return stored, newest

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
                record = _decode_record(payload)
            except _FOREIGN_RECORD:
                torn = True
                break
            self._fold(*record)
            pos = end
        if torn and pos == 0 and offset == 0:
            # Nothing was ever readable from this segment: pure garbage
            # (as opposed to a torn tail behind valid records).
            self._count_drop(path.name)
        self._offsets[path.name] = offset + pos

    def _count_drop(self, name: str) -> None:
        if name not in self._counted_drops:
            self._counted_drops.add(name)
            self.dropped_segments += 1

    def lookup_block(
        self,
        fingerprint: str,
        keys: Sequence[Any],
        hashes: Sequence[Optional[str]],
        i: np.ndarray,
        j: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Which pairs ``(keys[i[k]], keys[j[k]])`` are memoized under ``hashes``.

        ``hashes[n]`` is the current content hash of ``keys[n]`` (None:
        unknown, never a hit).  Returns the hit mask over the pairs and
        the hits' values, in pair order.  Each key is resolved once;
        the pairs are matched in bulk.
        """
        with self._lock:
            known_keys = self._key_ids.get(fingerprint, {})
            key_ids = np.fromiter(
                map(known_keys.get, keys, itertools.repeat(-1)), np.int64, len(keys)
            )
            hash_ids = np.fromiter(
                map(self._hash_ids.get, hashes, itertools.repeat(-1)), np.int64, len(hashes)
            )
            known = (key_ids >= 0) & (hash_ids >= 0)
            hit = known[i] & known[j]
            pairs, hash_lo, hash_hi = self._pair_ids(
                key_ids[i[hit]], key_ids[j[hit]], hash_ids[i[hit]], hash_ids[j[hit]]
            )
            stored, newest = self._newest_rows()
            if not len(stored):
                return np.zeros(len(i), dtype=bool), np.empty(0)
            at = np.searchsorted(stored, pairs)
            at[at == len(stored)] = 0  # past the end: the id check below fails it
            rows = newest[at]
            current = (
                (stored[at] == pairs)
                & (self._hash_lo[rows] == hash_lo)
                & (self._hash_hi[rows] == hash_hi)
            )
            hit[hit] = current
            return hit, self._values[rows[current]]

    def lookup(self, fingerprint: str, key_a, key_b, hash_a: str, hash_b: str):
        """``(True, value)`` when the pair is memoized under these hashes."""
        hit, values = self.lookup_block(
            fingerprint, [key_a, key_b], [hash_a, hash_b], np.array([0]), np.array([1])
        )
        return (True, float(values[0])) if hit[0] else (False, None)

    def record_count(self) -> int:
        """Distinct ``(fingerprint, key_a, key_b)`` pairs memoized."""
        with self._lock:
            return len(self._newest_rows()[0])

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

    def append_block(
        self,
        fingerprint: str,
        keys: Sequence[Any],
        hashes: Sequence[str],
        i: Any,
        j: Any,
        values: Any,
    ) -> bool:
        """Journal one block of computed pairs as one record; False when it can't be stored.

        Pair ``k`` is ``(keys[i[k]], keys[j[k]])``, computed from items
        whose content hashes were ``hashes[i[k]]`` and ``hashes[j[k]]``.
        A block that cannot be written (unpicklable keys, a failing
        disk) is simply not memoized — the job still completes
        normally, its pairs just recompute next session.
        """
        i = np.asarray(i, dtype=np.int32)
        j = np.asarray(j, dtype=np.int32)
        values = np.asarray(values, dtype=np.float64)
        with self._lock:
            # Wall clock, but never at or below a stamp already seen (own
            # or folded from another writer): a clock stepping backwards
            # cannot make a newer record lose to an older one.
            stamp = max(time.time_ns(), self._last_stamp + 1)
            try:
                payload = _encode_record(fingerprint, keys, hashes, i, j, values, stamp)
            except (pickle.PicklingError, TypeError, AttributeError):
                return False
            try:
                if self._writer is None:
                    self._open_writer()
                self._writer.write(_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)
                self._writer.flush()
            except OSError:
                # The segment may now end in a partial record: start the
                # next block on a fresh one.
                self._close_writer()
                return False
            self._fold(fingerprint, list(keys), list(hashes), i, j, values, stamp)
            if self._writer_path is not None:
                # Own records are already folded in: skip them on refresh.
                self._offsets[self._writer_path.name] = (
                    self._offsets.get(self._writer_path.name, 0)
                    + _HEADER.size
                    + len(payload)
                )
        return True

    def append(self, fingerprint: str, key_a, key_b, hash_a: str, hash_b: str, value) -> bool:
        """Journal one computed pair (a block of one)."""
        return self.append_block(fingerprint, [key_a, key_b], [hash_a, hash_b], [0], [1], [value])

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

    def _close_writer(self) -> None:
        """Flush and close the own segment; closing releases its ``flock``."""
        writer, self._writer, self._writer_path = self._writer, None, None
        if writer is not None:
            try:
                writer.close()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            self._close_writer()
