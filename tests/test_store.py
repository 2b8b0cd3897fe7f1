"""Tests for the persistent cross-session store (:mod:`repro.store`).

Four layers:

- component units: content hashing with the stat-validated cache,
  the item payload cache (round trip, its ``.npy`` bytes against
  numpy's, invalidation, damaged- and foreign-file recovery, loads
  from many threads), the memo journal (one record per block, merge across
  writers, unordered pairs, hash-keyed invalidation, newest stamp wins,
  truncated/garbage/foreign-record tolerance, a segment of the older
  per-pair format recomputing) and :meth:`Application.fingerprint`;
- warm-start acceptance on **both** backends: a repeated identical
  run against an unchanged corpus recomputes zero pairs, skips the
  backend entirely, and is value-identical to the cold run;
- incremental invalidation: editing one item's bytes between two
  sessions recomputes exactly that item's pairs (verified through
  both the memo counters and a compare-counting application), and a
  corrupted store never crashes or corrupts results — it just runs
  cold;
- surfaces: store counters in ``session.metrics()`` and the serve
  daemon's ``metrics`` verb, per-tenant ``store_hits`` accounting,
  directory ``stats``/``gc`` and the ``repro store`` CLI.
"""

import gc
import glob
import io
import json
import operator
import os
import pickle
import struct
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.rocket import Rocket
from repro.core.workload import AllPairs, DeltaPairs
from repro.data.filestore import DirectoryStore
from repro.runtime.localrocket import RocketConfig
from repro.store import (
    ItemHasher,
    PersistentItemCache,
    ResultMemoStore,
    RocketStore,
    hash_bytes,
)
from repro.store.memo import _encode_record

from tests.test_cluster_runtime import SumApp, make_store
from tests.test_multijob import make_rocket


def warm_config(store_dir, **overrides):
    cfg = dict(n_devices=2, leaf_size=2, seed=7, store_dir=str(store_dir))
    cfg.update(overrides)
    return RocketConfig(**cfg)


def result_dict(matrix):
    return {(a, b): v for a, b, v in matrix.items()}


def npy_bytes(array, version=None, allow_pickle=False):
    """The ``.npy`` file numpy writes for ``array``."""
    buf = io.BytesIO()
    if version is None:
        np.save(buf, array, allow_pickle=allow_pickle)
    else:
        np.lib.format.write_array(buf, array, version=version, allow_pickle=allow_pickle)
    return buf.getvalue()


FORMAT_CASES = [
    np.arange(2 * 2363, dtype=np.float64).reshape(2, 2363),
    np.arange(8, dtype=np.float64),
    np.linspace(0, 1, 128 * 128, dtype=np.float32).reshape(128, 128),
    np.arange(60, dtype=np.int32).reshape(3, 4, 5),
    np.array(2.5),
]
FORMAT_IDS = ["2x2363-f8", "8-f8", "128x128-f4", "3x4x5-i4", "0d-f8"]


class CountingApp(SumApp):
    """SumApp that counts compare() invocations (local backend: threads).

    The counter lives in a dict on purpose: ``fingerprint()`` folds in
    scalar instance attributes, and the count must not shift the app's
    store identity between sessions.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.counts = {"compared": 0}

    @property
    def compared(self):
        return self.counts["compared"]

    def compare(self, key_a, a, key_b, b):
        with self.lock:
            self.counts["compared"] += 1
        return super().compare(key_a, a, key_b, b)


# ----------------------------------------------------------------------
# Content hashing


class TestItemHasher:
    def test_digest_matches_hash_bytes(self, tmp_path):
        store, keys = make_store(3)
        app = SumApp()
        hasher = ItemHasher(tmp_path, store)
        name = app.file_name(keys[0])
        assert hasher.digest(name) == hash_bytes(store.read(name))

    def test_cache_survives_save_and_reload(self, tmp_path):
        store, keys = make_store(3)
        hasher = ItemHasher(tmp_path, store)
        names = [SumApp().file_name(k) for k in keys]
        digests = {n: hasher.digest(n) for n in names}
        hasher.save()
        again = ItemHasher(tmp_path, store)
        assert {n: again.digest(n) for n in names} == digests

    def test_missing_blob_raises_keyerror(self, tmp_path):
        store, _ = make_store(2)
        with pytest.raises(KeyError):
            ItemHasher(tmp_path, store).digest("no-such-item.bin")

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        (tmp_path / "hashes.json").write_text("{ not json")
        store, keys = make_store(2)
        hasher = ItemHasher(tmp_path, store)
        name = SumApp().file_name(keys[0])
        assert hasher.digest(name) == hash_bytes(store.read(name))

    def test_blob_deleted_after_read_still_hashes(self, tmp_path):
        files = DirectoryStore(tmp_path / "files")
        files.write("gone.bin", b"payload")
        data = files.read("gone.bin")
        (tmp_path / "files" / "gone.bin").unlink()
        hasher = ItemHasher(tmp_path, files)
        assert hasher.note("gone.bin", data) == hash_bytes(data)
        assert hasher._cache["gone.bin"] == (len(data), 0.0, hash_bytes(data))

    def test_edit_changes_digest(self, tmp_path):
        store, keys = make_store(2)
        hasher = ItemHasher(tmp_path, store)
        name = SumApp().file_name(keys[0])
        before = hasher.digest(name)
        data = np.frombuffer(store.read(name), dtype=np.float64) * 2.0
        store.write(name, data.tobytes())
        assert hasher.digest(name) != before


# ----------------------------------------------------------------------
# Persistent item cache


class TestPersistentItemCache:
    def test_round_trip(self, tmp_path):
        store, keys = make_store(2)
        cache = PersistentItemCache(tmp_path, SumApp(), store)
        payload = np.arange(8, dtype=np.float64)
        assert cache.store(keys[0], payload) > 0
        loaded = cache.load(keys[0])
        np.testing.assert_array_equal(np.asarray(loaded), payload)

    def test_miss_on_unknown_key(self, tmp_path):
        store, keys = make_store(2)
        cache = PersistentItemCache(tmp_path, SumApp(), store)
        assert cache.load(keys[1]) is None

    def test_content_edit_invalidates(self, tmp_path):
        store, keys = make_store(2)
        app = SumApp()
        cache = PersistentItemCache(tmp_path, app, store)
        cache.store(keys[0], np.arange(4, dtype=np.float64))
        name = app.file_name(keys[0])
        edited = np.frombuffer(store.read(name), dtype=np.float64) * 5.0
        store.write(name, edited.tobytes())
        assert PersistentItemCache(tmp_path, app, store).load(keys[0]) is None

    def test_app_fingerprint_partitions_entries(self, tmp_path):
        store, keys = make_store(2)

        class V2App(SumApp):
            version = "2"

        cache = PersistentItemCache(tmp_path, SumApp(), store)
        cache.store(keys[0], np.arange(4, dtype=np.float64))
        assert PersistentItemCache(tmp_path, V2App(), store).load(keys[0]) is None

    def test_corrupt_payload_file_is_a_miss(self, tmp_path):
        store, keys = make_store(2)
        cache = PersistentItemCache(tmp_path, SumApp(), store)
        cache.store(keys[0], np.arange(4, dtype=np.float64))
        (path,) = glob.glob(str(tmp_path / "items" / "*.npy"))
        with open(path, "wb") as fh:
            fh.write(b"\x93NUMPY garbage")
        assert cache.load(keys[0]) is None
        assert not os.path.exists(path), "corrupt payload should be unlinked"

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated", "garbage", "zero-byte", "body-one-byte-short",
            "body-one-byte-long", "fortran-order", "object-dtype",
            "structured-dtype", "version-2.0-header",
        ],
    )
    def test_damaged_payload_is_a_miss_and_unlinked(self, tmp_path, damage):
        """Anything but the reader's own ``.npy`` form is a damaged file."""
        store, keys = make_store(2)
        cache = PersistentItemCache(tmp_path, SumApp(), store)
        cache.store(keys[0], np.arange(64, dtype=np.float64))
        (path,) = glob.glob(str(tmp_path / "items" / "*.npy"))
        data = Path(path).read_bytes()
        grid = np.arange(64, dtype=np.float64).reshape(8, 8)
        damaged = {
            "truncated": data[: len(data) // 2],
            "garbage": bytes(range(256)),
            "zero-byte": b"",
            "body-one-byte-short": data[:-1],
            "body-one-byte-long": data + b"\0",
            "fortran-order": npy_bytes(np.asfortranarray(grid)),
            "object-dtype": npy_bytes(np.array([1.0, None], dtype=object), allow_pickle=True),
            "structured-dtype": npy_bytes(np.zeros(4, dtype=[("a", "<i4"), ("b", "<f8")])),
            "version-2.0-header": npy_bytes(grid, version=(2, 0)),
        }[damage]
        with open(path, "wb") as fh:
            fh.write(damaged)
        assert cache.load(keys[0]) is None
        assert not os.path.exists(path)

    def test_absent_blob_is_a_miss_and_stores_nothing(self, tmp_path):
        store, _ = make_store(2)
        cache = PersistentItemCache(tmp_path, SumApp(), store)
        assert cache.load("no-such-item") is None
        assert cache.store("no-such-item", np.arange(4, dtype=np.float64)) == 0
        assert not glob.glob(str(tmp_path / "items" / "*"))

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores directory permissions")
    def test_read_only_items_dir_stores_nothing(self, tmp_path):
        store, keys = make_store(2)
        cache = PersistentItemCache(tmp_path, SumApp(), store)
        os.chmod(cache.items_dir, 0o555)
        try:
            assert cache.store(keys[0], np.arange(4, dtype=np.float64)) == 0
        finally:
            os.chmod(cache.items_dir, 0o755)
        assert not os.listdir(cache.items_dir)

    def test_failed_rename_stores_nothing_and_leaves_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        """What a read-only ``items/`` does to the write, for any user."""
        store, keys = make_store(2)
        cache = PersistentItemCache(tmp_path, SumApp(), store)

        def read_only(src, dst):
            raise PermissionError(13, "Read-only file system", str(dst))

        monkeypatch.setattr(os, "replace", read_only)
        assert cache.store(keys[0], np.arange(4, dtype=np.float64)) == 0
        assert not os.listdir(cache.items_dir)

    @pytest.mark.parametrize("array", FORMAT_CASES, ids=FORMAT_IDS)
    def test_np_save_file_reads_back_equal(self, tmp_path, array):
        """A store directory ``np.save`` wrote stays warm."""
        store, keys = make_store(2)
        cache = PersistentItemCache(tmp_path, SumApp(), store)
        cache.store(keys[0], np.zeros(1))
        (path,) = glob.glob(str(tmp_path / "items" / "*.npy"))
        np.save(path, array)
        loaded = cache.load(keys[0])
        assert loaded.dtype == array.dtype and loaded.shape == array.shape
        assert np.array_equal(loaded, array)

    @pytest.mark.parametrize("array", FORMAT_CASES, ids=FORMAT_IDS)
    def test_written_bytes_equal_np_save(self, tmp_path, array):
        store, keys = make_store(2)
        cache = PersistentItemCache(tmp_path, SumApp(), store)
        written = cache.store(keys[0], array)
        (path,) = glob.glob(str(tmp_path / "items" / "*.npy"))
        data = Path(path).read_bytes()
        assert data == npy_bytes(array)
        assert written == len(data)

    def test_concurrent_loads_of_same_and_distinct_items(self, tmp_path):
        """Job threads read payloads at once, with no lock between them."""
        store, keys = make_store(8)
        cache = PersistentItemCache(tmp_path, SumApp(), store)
        payloads = {k: np.arange(64, dtype=np.float64) * (i + 1) for i, k in enumerate(keys)}
        for key, payload in payloads.items():
            assert cache.store(key, payload) > 0
        loaded = [[] for _ in range(8)]
        barrier = threading.Barrier(8)

        def worker(tid):
            barrier.wait()
            for _ in range(20):
                # Every thread loads the shared item and its own one.
                for key in (keys[0], keys[tid]):
                    loaded[tid].append((key, cache.load(key)))

        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside a load, not between
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [len(got) for got in loaded] == [40] * 8
        for got in loaded:
            for key, arr in got:
                assert arr is not None
                assert np.array_equal(arr, payloads[key])


class _Reconstructs:
    """Pickles to a call of ``func(*args)`` at load time."""

    def __init__(self, func, *args):
        self.func, self.args = func, args

    def __reduce__(self):
        return self.func, self.args


def block_record(keys=("a", "b"), hashes=("ha", "hb"), i=(0,), j=(1,), values=(1.0,), stamp=1,
                 fingerprint="fp"):
    """A journal payload in this journal's block format."""
    return _encode_record(fingerprint, list(keys), list(hashes), i, j, values, stamp)


def block_fields(**overrides):
    """The fields of :func:`block_record`'s default record, as pickled."""
    fields = dict(tag="rocket-memo-block/1", fingerprint="fp", keys=["a", "b"],
                  hashes=["ha", "hb"], i=np.array([0], "<i4").tobytes(),
                  j=np.array([1], "<i4").tobytes(), values=np.array([1.0]).tobytes(), stamp=3)
    fields.update(overrides)
    return tuple(fields.values())


#: The per-pair record of the journal format before block records.
PARENT_FORMAT_RECORD = pickle.dumps(("fp", "a", "b", "ha", "hb", 1.0, 3))

#: CRC-valid journal records this journal never wrote, one per shape of
#: failure the decode can meet.
FOREIGN_RECORDS = {
    "not-a-pickle": b"not a pickle",
    "truncated-pickle": block_record()[:-5],
    "empty": b"",
    "scalar": pickle.dumps(5),
    "short-tuple": pickle.dumps(("rocket-memo-block/1", "fp")),
    "text-stamp": pickle.dumps(block_fields(stamp="x")),
    "none-stamp": pickle.dumps(block_fields(stamp=None)),
    "parent-format": PARENT_FORMAT_RECORD,
    "ragged-columns": pickle.dumps(block_fields(j=b"")),
    "index-past-key-table": pickle.dumps(block_fields(j=np.array([2], "<i4").tobytes())),
    "hash-table-short": pickle.dumps(block_fields(hashes=["ha"])),
    "unhashable-key": pickle.dumps(block_fields(keys=["a", ["b"]])),
    "missing-module": b"cno_such_module_for_memo\nThing\n.",
    "missing-class": b"cpickle\nNoSuchThing\n.",
    "unregistered-extension": b"\x82\x05.",
    "index-error": pickle.dumps(_Reconstructs(operator.getitem, [], 0)),
    "key-error": pickle.dumps(_Reconstructs(operator.getitem, {}, "x")),
}


def journal_record(payload):
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def segment_records(path):
    """The payloads of a journal segment, in order."""
    data, pos, out = path.read_bytes(), 0, []
    while pos < len(data):
        length, _ = struct.unpack_from("<II", data, pos)
        out.append(data[pos + 8 : pos + 8 + length])
        pos += 8 + length
    return out


# ----------------------------------------------------------------------
# Result memo journal


class TestResultMemoStore:
    def test_append_refresh_lookup(self, tmp_path):
        memo = ResultMemoStore(tmp_path)
        assert memo.append("fp", "a", "b", "ha", "hb", 1.5)
        other = ResultMemoStore(tmp_path)
        other.refresh()
        assert other.lookup("fp", "a", "b", "ha", "hb") == (True, 1.5)
        memo.close()

    def test_pairs_are_unordered(self, tmp_path):
        memo = ResultMemoStore(tmp_path)
        memo.append("fp", "b", "a", "hb", "ha", 2.0)
        assert memo.lookup("fp", "a", "b", "ha", "hb") == (True, 2.0)
        assert memo.lookup("fp", "b", "a", "hb", "ha") == (True, 2.0)
        assert memo.lookup("fp", "a", "b", "hb", "ha") == (False, None)
        memo.close()

    def test_hash_mismatch_misses(self, tmp_path):
        memo = ResultMemoStore(tmp_path)
        memo.append("fp", "a", "b", "ha", "hb", 2.0)
        assert memo.lookup("fp", "a", "b", "EDITED", "hb") == (False, None)
        assert memo.lookup("other-fp", "a", "b", "ha", "hb") == (False, None)
        memo.close()

    def test_a_block_is_one_record_and_is_looked_up_in_bulk(self, tmp_path):
        memo = ResultMemoStore(tmp_path)
        keys, hashes = ["a", "b", "c", "d"], ["ha", "hb", "hc", "hd"]
        assert memo.append_block("fp", keys, hashes, [0, 2, 3], [1, 0, 1], [1.0, 2.0, 3.0])
        memo.close()
        (segment,) = memo.segment_files()
        assert len(segment_records(segment)) == 1
        reader = ResultMemoStore(tmp_path)
        assert reader.record_count() == 3
        # Another job's key order, one edited item, one pair never computed.
        job_keys = ["d", "c", "b", "a"]
        hit, values = reader.lookup_block(
            "fp", job_keys, ["hd", "hc", "hb", "EDITED"],
            np.array([0, 1, 2, 0]), np.array([2, 3, 3, 1]),
        )
        assert hit.tolist() == [True, False, False, False]
        assert values.tolist() == [3.0]
        hit, values = reader.lookup_block(
            "fp", job_keys, ["hd", "hc", "hb", "ha"], np.array([1, 2, 0]), np.array([3, 3, 2])
        )
        assert hit.tolist() == [True, True, True] and values.tolist() == [2.0, 1.0, 3.0]

    def test_alternating_key_tables_fold_like_each_record_alone(self, tmp_path):
        """Records alternate between key tables that differ in the
        fingerprint, one key or one hash, and keep resolving ids into the
        same tables; lookups answer like a dict that folds each record
        alone, newest last, on the writer and on a fresh reader."""
        keys = ["a", "b", "c", "d", "e", "f"]
        hashes = [f"h{k}" for k in keys]
        tables = {
            "A": ("fp", keys, hashes),
            "B": ("fp", keys, hashes[:2] + ["c-edited"] + hashes[3:]),  # a hash differs
            "C": ("fp2", keys, hashes),  # the fingerprint differs
            "D": ("fp", keys[:5] + ["g"], hashes),  # a key differs (f renamed)
        }
        i, j = np.triu_indices(len(keys), 1)
        order = "AABACCBADDA"
        writer = ResultMemoStore(tmp_path)
        reference = {}
        for r, name in enumerate(order):
            fingerprint, table_keys, table_hashes = tables[name]
            pick = np.arange(r % 3, len(i), 3)  # pairs recur: newer records win
            values = pick + 100.0 * r
            assert writer.append_block(
                fingerprint, table_keys, table_hashes, i[pick], j[pick], values
            )
            for a, b, value in zip(i[pick], j[pick], values):
                pair = (fingerprint, *sorted((table_keys[a], table_keys[b])))
                hash_of = dict(zip(table_keys, table_hashes))
                reference[pair] = (hash_of[pair[1]], hash_of[pair[2]], value)
        writer.close()
        reader = ResultMemoStore(tmp_path)
        for fingerprint, table_keys, table_hashes in tables.values():
            hash_of = dict(zip(table_keys, table_hashes))
            want_hit, want_values = [], []
            for a, b in zip(i, j):
                pair = (fingerprint, *sorted((table_keys[a], table_keys[b])))
                stored = reference.get(pair)
                hit = stored is not None and stored[:2] == (hash_of[pair[1]], hash_of[pair[2]])
                want_hit.append(hit)
                if hit:
                    want_values.append(stored[2])
            for folded in (writer, reader):
                hit, values = folded.lookup_block(fingerprint, table_keys, table_hashes, i, j)
                assert hit.tolist() == want_hit and values.tolist() == want_values
        assert writer.record_count() == reader.record_count() == len(reference)

    def test_merges_segments_from_two_writers(self, tmp_path):
        w1, w2 = ResultMemoStore(tmp_path), ResultMemoStore(tmp_path)
        w1.append("fp", "a", "b", "ha", "hb", 1.0)
        w2.append("fp", "c", "d", "hc", "hd", 2.0)
        w1.close()
        w2.close()
        reader = ResultMemoStore(tmp_path)
        reader.refresh()
        assert reader.lookup("fp", "a", "b", "ha", "hb") == (True, 1.0)
        assert reader.lookup("fp", "c", "d", "hc", "hd") == (True, 2.0)
        assert reader.record_count() == 2

    def test_truncated_tail_keeps_earlier_records(self, tmp_path):
        memo = ResultMemoStore(tmp_path)
        memo.append("fp", "a", "b", "ha", "hb", 1.0)
        memo.append("fp", "c", "d", "hc", "hd", 2.0)
        memo.close()
        (seg,) = glob.glob(str(tmp_path / "memo" / "*.log"))
        with open(seg, "r+b") as fh:
            fh.truncate(os.path.getsize(seg) - 3)
        reader = ResultMemoStore(tmp_path)
        reader.refresh()
        assert reader.lookup("fp", "a", "b", "ha", "hb") == (True, 1.0)
        assert reader.lookup("fp", "c", "d", "hc", "hd") == (False, None)

    def test_newest_record_wins_whatever_the_segment_order(self, tmp_path):
        """Segment names are ``seg-<pid>-<random>``: name order says
        nothing about age, so the fold must not depend on it."""
        # The older segment gets the name that sorts (is folded) last.
        # Each is one block record; the pair (a, b) is in both.
        for value, hash_a, name in (
            (1.0, "ha-old", "seg-000000-order-z.log"),
            (2.0, "ha-new", "seg-000000-order-a.log"),
        ):
            writer = ResultMemoStore(tmp_path)
            writer.append_block(
                "fp", ["a", "b", "c"], [hash_a, "hb", "hc"], [0, 1], [1, 2], [value, value]
            )
            writer.close()
            (fresh,) = [s for s in writer.segment_files() if "-order-" not in s.name]
            fresh.rename(fresh.with_name(name))
        reader = ResultMemoStore(tmp_path)
        assert reader.lookup("fp", "a", "b", "ha-new", "hb") == (True, 2.0)
        assert reader.lookup("fp", "a", "b", "ha-old", "hb") == (False, None)
        assert reader.lookup("fp", "b", "c", "hb", "hc") == (True, 2.0)
        # A record folded late into a live reader loses to what it holds.
        late = tmp_path / "memo" / "seg-000000-late.log"
        late.write_bytes(journal_record(block_record(hashes=("ha-old", "hb"), stamp=5)))
        reader.refresh()
        assert reader.lookup("fp", "a", "b", "ha-new", "hb") == (True, 2.0)

    def test_a_parent_format_segment_reads_as_foreign(self, tmp_path):
        """A segment of per-pair records (the format before block
        records) holds nothing this journal reads: its pairs recompute."""
        (tmp_path / "memo").mkdir()
        (tmp_path / "memo" / "seg-999999-zzzz.log").write_bytes(
            journal_record(PARENT_FORMAT_RECORD) * 3
        )
        memo = ResultMemoStore(tmp_path)
        assert memo.lookup("fp", "a", "b", "ha", "hb") == (False, None)
        assert memo.record_count() == 0 and memo.dropped_segments == 1
        memo.append("fp", "a", "b", "ha", "hb", 2.0)
        memo.close()
        reader = ResultMemoStore(tmp_path)
        assert reader.lookup("fp", "a", "b", "ha", "hb") == (True, 2.0)

    def test_garbage_segment_is_dropped_not_fatal(self, tmp_path):
        (tmp_path / "memo").mkdir()
        (tmp_path / "memo" / "seg-999999-dead.log").write_bytes(b"not a journal")
        reader = ResultMemoStore(tmp_path)
        reader.refresh()
        assert reader.record_count() == 0
        assert reader.dropped_segments >= 1

    @pytest.mark.parametrize("shape", sorted(FOREIGN_RECORDS))
    def test_foreign_record_is_a_torn_tail(self, tmp_path, shape):
        good = block_record()
        (tmp_path / "memo").mkdir()
        (tmp_path / "memo" / "seg-999999-alone.log").write_bytes(
            journal_record(FOREIGN_RECORDS[shape])
        )
        (tmp_path / "memo" / "seg-999999-after.log").write_bytes(
            journal_record(good) + journal_record(FOREIGN_RECORDS[shape])
        )
        reader = ResultMemoStore(tmp_path)
        reader.refresh()
        assert reader.record_count() == 1
        assert reader.lookup("fp", "a", "b", "ha", "hb") == (True, 1.0)
        assert reader.dropped_segments == 1  # only the segment with nothing readable

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.integers(0, 3), st.integers(0, 3),
                        st.sampled_from(["h0", "h1"]), st.sampled_from(["h0", "h1"]),
                        st.floats(allow_nan=False, width=64),
                    ),
                    min_size=1, max_size=5,
                ),
                st.integers(1, 5),  # the block's stamp: blocks arrive in any stamp order
            ),
            max_size=8,
        )
    )
    def test_newest_stamp_wins_per_pair_over_any_fold_order(self, blocks):
        """Folded one block at a time with lookups in between: each pair
        answers with its newest record (highest stamp, then last folded)."""
        keys = ["k0", "k1", "k2", "k3"]
        newest = {}  # unordered pair -> ((stamp, order), (key, hash) -> hash, value)
        with tempfile.TemporaryDirectory() as root:
            reader = ResultMemoStore(root)
            order = 0
            for n, (rows, stamp) in enumerate(blocks):
                rows = [r for r in rows if r[0] != r[1]]
                # A key may come with two hashes in one block: one entry each.
                table = sorted(
                    {f"{keys[a]}/{ha}" for a, _, ha, _, _ in rows}
                    | {f"{keys[b]}/{hb}" for _, b, _, hb, _ in rows}
                )
                index = {entry: k for k, entry in enumerate(table)}
                payload = _encode_record(
                    "fp", [e.split("/")[0] for e in table], [e.split("/")[1] for e in table],
                    [index[f"{keys[a]}/{ha}"] for a, b, ha, hb, _ in rows],
                    [index[f"{keys[b]}/{hb}"] for a, b, ha, hb, _ in rows],
                    [v for *_, v in rows], stamp,
                )
                (Path(root) / "memo" / f"seg-{n:06d}.log").write_bytes(journal_record(payload))
                for a, b, ha, hb, value in rows:
                    order += 1
                    pair = frozenset((a, b))
                    if pair not in newest or (stamp, order) >= newest[pair][0]:
                        newest[pair] = ((stamp, order), {a: ha, b: hb}, value)
                reader.refresh()
                for pair, (_, hashes, value) in newest.items():
                    a, b = sorted(pair)
                    assert reader.lookup("fp", keys[a], keys[b], hashes[a], hashes[b]) == (True, value)
                    stale = {"h0": "h1", "h1": "h0"}[hashes[a]]
                    assert reader.lookup("fp", keys[a], keys[b], stale, hashes[b]) == (False, None)
                assert reader.record_count() == len(newest)

    def test_a_failed_write_abandons_its_segment(self, tmp_path, monkeypatch):
        """A write error may leave a partial record: later blocks go to a
        fresh segment, so a reader still sees them."""
        memo = ResultMemoStore(tmp_path)
        assert memo.append("fp", "a", "b", "ha", "hb", 1.0)
        real_write = memo._writer.write

        def torn_write(data):
            real_write(data[:5])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(memo._writer, "write", torn_write)
        assert not memo.append("fp", "c", "d", "hc", "hd", 2.0)
        assert memo.append("fp", "e", "f", "he", "hf", 3.0)
        memo.close()
        reader = ResultMemoStore(tmp_path)
        assert reader.lookup("fp", "a", "b", "ha", "hb") == (True, 1.0)
        assert reader.lookup("fp", "c", "d", "hc", "hd") == (False, None)
        assert reader.lookup("fp", "e", "f", "he", "hf") == (True, 3.0)
        assert len(memo.segment_files()) == 2


class TestFingerprint:
    def test_version_and_params_distinguish(self):
        class V2App(SumApp):
            version = "2"

        class ParamApp(SumApp):
            def __init__(self, k):
                self.k = k

        assert SumApp().fingerprint() != V2App().fingerprint()
        assert ParamApp(3).fingerprint() != ParamApp(4).fingerprint()
        assert ParamApp(3).fingerprint() == ParamApp(3).fingerprint()


# ----------------------------------------------------------------------
# Warm-start acceptance (both backends)


class TestWarmStart:
    @pytest.mark.parametrize("backend", ["local", "cluster"])
    def test_repeat_run_recomputes_zero_pairs(self, backend, tmp_path):
        store, keys = make_store(6)
        cold = make_rocket(backend, store, store_dir=str(tmp_path)).session()
        try:
            cold_results = result_dict(cold.submit(AllPairs(keys)).result())
        finally:
            cold.close()

        store2, keys2 = make_store(6)
        warm = make_rocket(backend, store2, store_dir=str(tmp_path)).session()
        try:
            warm_results = result_dict(warm.submit(AllPairs(keys2)).result())
            snap = warm.metrics()
        finally:
            warm.close()

        memo = snap["store"]["memo"]
        assert memo["hits"] == 15 and memo["misses"] == 0
        assert memo["jobs_short_circuited"] == 1
        # The backend never saw a job, let alone a pair.
        assert snap.get("jobs", {}).get("completed", 0) == 0
        assert warm_results == cold_results

    @pytest.mark.parametrize("backend", ["local", "cluster"])
    def test_warm_item_cache_skips_load_pipeline(self, backend, tmp_path):
        store, keys = make_store(6)
        rocket = make_rocket(backend, store, store_dir=str(tmp_path))
        cold_session = rocket.session()
        try:
            cold = result_dict(cold_session.submit(AllPairs(keys)).result())
        finally:
            cold_session.close()
        # Wipe the memo plane: pairs must recompute, items must not reload.
        for seg in glob.glob(str(tmp_path / "memo" / "*.log")):
            os.unlink(seg)
        store2, keys2 = make_store(6)
        rocket = make_rocket(backend, store2, store_dir=str(tmp_path))
        session = rocket.session()
        try:
            warm = result_dict(session.submit(AllPairs(keys2)).result())
            snap = session.metrics()
        finally:
            session.close()
        assert warm == cold
        persistent = snap["cache"]["persistent"]
        # Every node fills its caches from disk (the cluster's nodes
        # each consult the shared store, so hits can exceed the item
        # count); no item ever goes through io/parse/preprocess.
        assert persistent["hits"] >= 6
        assert persistent["bytes_read"] > 0
        assert snap["pipeline"]["loads"] == 0

    def test_an_edit_job_leaves_no_reference_cycles(self, tmp_path):
        """A job reading warm items frees them by reference count.

        Regression: each ``np.load`` hit left self-referencing closures
        for the cyclic collector (396 objects for 36 warm items).
        """
        store, keys = make_store(40)
        app = SumApp()
        Rocket(app, store, warm_config(tmp_path)).run(keys)
        for key in keys[:4]:
            name = app.file_name(key)
            data = np.frombuffer(store.read(name), dtype=np.float64) + 1.0
            store.write(name, data.tobytes())
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            Rocket(app, store, warm_config(tmp_path)).run(keys)
            gc.collect()
            cyclic = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert cyclic == 0

    def test_delta_workload_reuses_all_pairs_memo(self, tmp_path):
        """Memo entries are keyed on pairs, not on the workload shape."""
        store, keys = make_store(6)
        full = result_dict(
            Rocket(SumApp(), store, warm_config(tmp_path)).run(keys)
        )
        store2, keys2 = make_store(6)
        session = make_rocket("local", store2, store_dir=str(tmp_path)).session()
        try:
            delta = DeltaPairs(keys2[:-2], keys2[-2:])
            results = result_dict(session.submit(delta).result())
            memo = session.metrics()["store"]["memo"]
        finally:
            session.close()
        assert memo["misses"] == 0 and memo["hits"] == len(results)
        assert all(full[pair] == value for pair, value in results.items())


# ----------------------------------------------------------------------
# Incremental invalidation + corruption recovery


class TestInvalidation:
    def test_successive_sessions_editing_different_items(self, tmp_path):
        """Each session recomputes exactly its own edited rows.

        Regression: a fresh memo store folded segments in file-name
        order, so an older record of a pair could overwrite a newer one
        and hits were lost, differently on every run, once different
        items had been edited in successive sessions.  Segments are
        renamed here so the older one always sorts last — the order
        that used to lose.
        """
        n = 20
        store, keys = make_store(n)
        app = CountingApp()
        memo_dir = tmp_path / "memo"

        def run_session(edited):
            for key in edited:
                name = app.file_name(key)
                data = np.frombuffer(store.read(name), dtype=np.float64) + 1.0
                store.write(name, data.tobytes())
            before = app.compared
            Rocket(app, store, warm_config(tmp_path)).run(keys)
            for seg in memo_dir.glob("seg-*.log"):
                if "-age" not in seg.name:
                    generation = len(list(memo_dir.glob("seg-*-age*.log")))
                    seg.rename(memo_dir / f"seg-000000-age{99 - generation:02d}.log")
            return app.compared - before

        assert run_session(()) == n * (n - 1) // 2  # cold fill
        tenth = n // 10
        for session in range(3):
            edited = keys[session * tenth : (session + 1) * tenth]
            rows = tenth * (n - tenth) + tenth * (tenth - 1) // 2
            assert run_session(edited) == rows, f"session {session}"
        assert run_session(()) == 0  # verbatim rerun: everything memoized

    def test_editing_one_item_recomputes_only_its_pairs(self, tmp_path):
        n = 6
        store, keys = make_store(n)
        app = CountingApp()
        cold = result_dict(Rocket(app, store, warm_config(tmp_path)).run(keys))

        # Session 2: item 2's bytes change on disk between sessions.
        store2, keys2 = make_store(n)
        edited = keys2[2]
        name = app.file_name(edited)
        data = np.frombuffer(store2.read(name), dtype=np.float64) * 3.0
        store2.write(name, data.tobytes())

        counting = CountingApp()
        session = make_rocket(
            "local", store2, app=counting, store_dir=str(tmp_path)
        ).session()
        try:
            warm = result_dict(session.submit(AllPairs(keys2)).result())
            memo = session.metrics()["store"]["memo"]
        finally:
            session.close()

        # Pair-level recompute accounting: exactly the edited item's row.
        assert counting.compared == n - 1
        assert memo["misses"] == n - 1
        assert memo["hits"] == (n * (n - 1)) // 2 - (n - 1)
        for (a, b), value in warm.items():
            if edited in (a, b):
                assert value != cold[(a, b)]
            else:
                assert value == cold[(a, b)]

    def test_corrupt_store_runs_cold_with_correct_results(self, tmp_path):
        store, keys = make_store(5)
        cold = result_dict(
            Rocket(CountingApp(), store, warm_config(tmp_path)).run(keys)
        )

        # Vandalise both planes: garbage journal, truncated journal,
        # garbage payload, garbage hash cache.
        for seg in glob.glob(str(tmp_path / "memo" / "*.log")):
            with open(seg, "r+b") as fh:
                fh.truncate(max(0, os.path.getsize(seg) - 7))
        (tmp_path / "memo" / "seg-000001-feed.log").write_bytes(b"\xff" * 64)
        payloads = sorted(glob.glob(str(tmp_path / "items" / "*.npy")))
        with open(payloads[0], "wb") as fh:
            fh.write(b"junk")
        (tmp_path / "hashes.json").write_text("]")

        store2, keys2 = make_store(5)
        counting = CountingApp()
        session = make_rocket(
            "local", store2, app=counting, store_dir=str(tmp_path)
        ).session()
        try:
            warm = result_dict(session.submit(AllPairs(keys2)).result())
        finally:
            session.close()
        assert warm == cold
        assert counting.compared >= 1  # ran (partially) cold, not wrong

    def test_a_parent_format_journal_recomputes_with_correct_values(self, tmp_path):
        """A store written in the per-pair record format: every pair is
        recomputed (none is served, however well its hashes match), the
        values are the cold run's, and the new blocks serve the next run."""
        store, keys = make_store(5)
        app = SumApp()
        reference = result_dict(make_rocket("local", store).run(keys))
        hashes = {k: hash_bytes(store.read(app.file_name(k))) for k in keys}
        (tmp_path / "memo").mkdir()
        (tmp_path / "memo" / "seg-000001-parent.log").write_bytes(b"".join(
            journal_record(pickle.dumps(
                (app.fingerprint(), a, b, hashes[a], hashes[b], -1.0, 1)
            ))
            for a, b in AllPairs(keys).pairs()
        ))
        for expected_hits in (0, 10):
            session = make_rocket("local", store, store_dir=str(tmp_path)).session()
            try:
                handle = session.submit(AllPairs(keys))
                assert result_dict(handle.result()) == reference
                assert handle.memo_hits == expected_hits
            finally:
                session.close()

    def test_items_path_that_is_a_file_runs_cold(self, tmp_path):
        """The item cache cannot create ``store_dir/items``: the pipeline
        runs without its persistent level, value-identical."""
        store, keys = make_store(5)
        reference = result_dict(make_rocket("local", store).run(keys))
        (tmp_path / "items").write_bytes(b"not a directory")
        session = make_rocket("local", store, store_dir=str(tmp_path)).session()
        try:
            results = result_dict(session.submit(AllPairs(keys)).result())
            persistent = session.metrics()["cache"]["persistent"]
        finally:
            session.close()
        assert results == reference
        assert persistent and not any(persistent.values())


# ----------------------------------------------------------------------
# Surfaces: metrics, serve, stats/gc, CLI


class TestSurfaces:
    def test_session_metrics_expose_store_counters(self, tmp_path):
        store, keys = make_store(4)
        session = make_rocket("local", store, store_dir=str(tmp_path)).session()
        try:
            session.submit(AllPairs(keys)).result()
            snap = session.metrics()
        finally:
            session.close()
        memo = snap["store"]["memo"]
        assert memo["appended"] == 6 and memo["records"] == 6
        assert snap["store"]["hashes_cached"] == 4
        assert snap["cache"]["persistent"]["stores"] == 4

    def test_store_absent_without_store_dir(self):
        store, keys = make_store(4)
        session = make_rocket("local", store).session()
        try:
            session.submit(AllPairs(keys)).result()
            assert "store" not in session.metrics()
        finally:
            session.close()

    def test_serve_daemon_accounts_tenant_store_hits(self, tmp_path):
        from repro.serve import RocketServer, connect

        store, keys = make_store(5)
        rocket = make_rocket("local", store, store_dir=str(tmp_path))
        session = rocket.session(policy="fair")
        server = RocketServer(session, keys).start()
        try:
            with connect(server.address) as client:
                first = result_dict(client.run(keys))
                second = result_dict(client.run(keys))
                snapshot = client.metrics()
        finally:
            server.close()
        assert first == second
        serve = snapshot["serve"]["serve"]
        assert serve["store_hits"] == 10
        assert serve["tenants"]["default"]["store_hits"] == 10
        assert snapshot["session"]["store"]["memo"]["hits"] == 10

    def test_stats_and_gc(self, tmp_path):
        store, keys = make_store(6)
        Rocket(SumApp(), store, warm_config(tmp_path)).run(keys)
        rocket_store = RocketStore(tmp_path)
        stats = rocket_store.stats()
        assert stats["items"]["count"] == 6
        assert stats["memo"]["records"] == 15
        assert stats["total_bytes"] > 0

        report = rocket_store.gc(max_bytes=stats["total_bytes"])
        assert report == {"deleted_items": 0, "deleted_segments": 0, "freed_bytes": 0}

        report = rocket_store.gc(max_bytes=0)
        assert report["deleted_items"] == 6
        assert report["freed_bytes"] > 0
        assert not glob.glob(str(tmp_path / "items" / "*.npy"))
        rocket_store.close()

    def test_gc_spares_live_segments(self, tmp_path):
        memo = ResultMemoStore(tmp_path)
        memo.append("fp", "a", "b", "ha", "hb", 1.0)  # writer lock held
        dead = ResultMemoStore(tmp_path)
        dead.append("fp", "c", "d", "hc", "hd", 2.0)
        dead.close()
        try:
            report = RocketStore(tmp_path).gc(max_bytes=0)
            assert report["deleted_segments"] == 1
            survivors = glob.glob(str(tmp_path / "memo" / "*.log"))
            assert len(survivors) == 1
        finally:
            memo.close()

    def test_stats_count_only_finished_payloads(self, tmp_path):
        """An item write in flight (or orphaned by a kill) is no payload."""
        store, keys = make_store(4)
        Rocket(SumApp(), store, warm_config(tmp_path)).run(keys)
        (tmp_path / "items" / ".tmp-0123abcd.npy").write_bytes(b"\0" * 5000)
        rocket_store = RocketStore(tmp_path)
        try:
            stats = rocket_store.stats()
        finally:
            rocket_store.close()
        payloads = glob.glob(str(tmp_path / "items" / "*.npy"))  # skips dot files
        assert len(payloads) == 4
        assert stats["items"]["count"] == 4
        assert stats["items"]["bytes"] == sum(os.path.getsize(p) for p in payloads)

    def test_gc_deletes_orphaned_temp_files(self, tmp_path):
        """A writer killed before its rename leaves a temp file behind."""
        store, keys = make_store(4)
        Rocket(SumApp(), store, warm_config(tmp_path)).run(keys)
        orphan = tmp_path / "items" / ".tmp-orphan.npy"
        orphan.write_bytes(b"\0" * 5000)
        week_ago = time.time() - 7 * 24 * 3600  # far past the grace
        os.utime(orphan, (week_ago, week_ago))
        in_flight = tmp_path / "items" / ".tmp-in-flight.npy"
        in_flight.write_bytes(b"\0" * 100)
        rocket_store = RocketStore(tmp_path)
        try:
            report = rocket_store.gc(max_bytes=0)
            assert not orphan.exists()
            assert in_flight.exists(), "a fresh temp file may be a write in flight"
            assert report["deleted_items"] == 4
            assert report["freed_bytes"] > 5000
            assert rocket_store.total_bytes() == 100
        finally:
            rocket_store.close()

    def test_cli_store_stats_and_gc(self, tmp_path, capsys):
        store, keys = make_store(4)
        Rocket(SumApp(), store, warm_config(tmp_path)).run(keys)
        assert main(["store", "stats", "--store-dir", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["items"]["count"] == 4 and stats["memo"]["records"] == 6
        assert (
            main(
                ["store", "gc", "--store-dir", str(tmp_path),
                 "--max-bytes", "0", "--json"]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["deleted_items"] == 4
