"""The block-granular pair path: claim, run, emit and record per batch.

Four layers:

- the primitives: :meth:`ResultMatrix.set_block` / ``RunHandle._record_block``
  (one lock per batch, every cell still checked, a rejected batch
  records nothing), the unit-counting :class:`ThreadAdmission` (longest
  fitting prefix, oversized request alone, job cap; a stress run that a
  lost update would break) and ``ResultBatcher.emit_block``;
- parity (the batched path pinned to the per-item path by equality):
  every workload shape on the local backend and ``AllPairs`` on the
  cluster backend equal the hidden-``compare_block`` per-pair reference
  in values, exactly-once delivery, ``stream()`` multiset and
  ``progress()`` — ``==`` when the block kernel is the per-pair
  function, the documented tolerance only for the vectorized forensics
  kernel; a mid-batch stop leaves zero held pins and a value-correct
  partial result;
- no deadlock: the smallest legal caches (2, 3, 4 device slots) with
  ``grain=64``, one and two devices, batched and per-pair apps, FIFO
  and FAIR with ``max_inflight=1`` all complete reference-equal, each
  wait under its own deadline (``pytest-timeout`` is only a backstop);
- the regression guard: with an all-fit cache ``grain`` reaches the
  kernel — at least 32 pairs per launch on the bio workload.
"""

import random
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.apps import BioinformaticsApplication, ForensicsApplication
from repro.core.api import Application
from repro.core.result import ResultMatrix
from repro.core.rocket import Rocket
from repro.core.session import RunHandle, RunState
from repro.core.workload import AllPairs
from repro.data.filestore import InMemoryStore
from repro.data.synthetic import make_bioinformatics_dataset
from repro.runtime.cluster import ClusterConfig
from repro.runtime.localrocket import RocketConfig
from repro.runtime.pernode import NodePipeline
from repro.runtime.transport.base import ResultBatcher
from repro.scheduling.quadtree import PairBlock
from repro.scheduling.throttle import ThreadAdmission

from tests.test_cluster_runtime import SumApp, cols, make_store, triples
from tests.test_kernels_batched import (
    PerPairForensics,
    as_dict,
    assert_matrices_match,
    forensics_store,
    workload_shapes,
)

CFG = dict(
    n_devices=2,
    device_cache_slots=8,
    host_cache_slots=16,
    leaf_size=2,
    grain=64,
    seed=7,
    watchdog_seconds=60.0,
)


class BlockSumApp(SumApp):
    """SumApp with a batched kernel (values identical to per-pair)."""

    def compare_block(self, keys_a, items_a, keys_b, items_b):
        return np.array([float(a.sum() * b.sum()) for a, b in zip(items_a, items_b)])


class LoopedForensics(PerPairForensics):
    """Block dispatch around the per-pair kernel.

    Overriding ``compare_block`` puts the runtime on the batched path;
    the body is the base-class loop over ``compare``, so every value
    must *equal* the per-pair reference, not merely be close to it.
    """

    def compare_block(self, keys_a, items_a, keys_b, items_b):
        return Application.compare_block(self, keys_a, items_a, keys_b, items_b)


def assert_equal(got, ref):
    assert got == ref


#: (block-path app, how its matrix must relate to the per-pair reference)
PARITY_APPS = [
    pytest.param(LoopedForensics, assert_equal, id="same-kernel-exact"),
    pytest.param(ForensicsApplication, assert_matrices_match, id="vectorized-tolerance"),
]


def close_within(session, seconds=30.0):
    """``session.close()`` under a deadline: it joins the engine's
    threads, so after a deadlock a plain close would hang the run."""
    closer = threading.Thread(target=session.close, daemon=True)
    closer.start()
    closer.join(seconds)
    assert not closer.is_alive(), f"session.close() still blocked after {seconds}s"


# ----------------------------------------------------------------------
# Primitives


class TestSetBlock:
    KEYS = ["a", "b", "c", "d"]

    def matrix(self):
        rm = ResultMatrix(self.KEYS)
        rm.set_block([0, 2], [1, 0], [1.0, 2.0])
        return rm

    def assert_untouched(self, rm):
        assert as_dict(rm) == {("a", "b"): 1.0, ("a", "c"): 2.0}
        assert rm.arrivals() == [("a", "b", 1.0), ("a", "c", 2.0)]

    def test_records_unordered_pairs(self):
        rm = self.matrix()
        assert rm.get("a", "c") == 2.0
        rm.set_block(np.array([1], np.int32), np.array([2], np.int32), np.array([3.0]))
        rm.set_block([], [], [])
        assert len(rm) == 3
        i, j, values = rm.columns()
        assert (i.tolist(), j.tolist(), values.tolist()) == ([0, 0, 1], [1, 2, 2], [1.0, 2.0, 3.0])

    def test_duplicate_inside_a_block_rejected(self):
        rm = self.matrix()
        with pytest.raises(ValueError, match="'b', 'c' appears twice"):
            rm.set_block([1, 1, 2], [2, 3, 1], [3.0, 4.0, 5.0])
        self.assert_untouched(rm)
        rm.set_block([1], [2], [3.0])  # the rejected block left no cell behind

    def test_duplicate_across_blocks_rejected(self):
        rm = self.matrix()
        with pytest.raises(ValueError, match="'a', 'b' already has a result"):
            rm.set_block([1, 1], [3, 0], [4.0, 9.0])
        self.assert_untouched(rm)

    def test_diagonal_rejected(self):
        rm = self.matrix()
        with pytest.raises(KeyError, match="diagonal"):
            rm.set_block([1, 2], [3, 2], [4.0, 0.0])
        self.assert_untouched(rm)

    def test_unknown_key_rejected(self):
        rm = self.matrix()
        with pytest.raises(IndexError, match="out of range"):
            rm.set_block([1, 0], [3, 4], [4.0, 0.0])  # index 4: past the key list
        with pytest.raises(KeyError, match="unknown key"):
            rm.set("a", "zz", 0.0)  # the key edge
        self.assert_untouched(rm)

    def test_non_real_values_and_non_integer_indices_rejected(self):
        rm = self.matrix()
        for i, j, values in (
            ([1], [2], ["x"]),
            ([1], [2], [None]),
            ([1], [2], [[1.0, 2.0]]),
            ([1], [2], [1 + 2j]),
            ([1.0], [2], [1.0]),
            (["1"], [2], [1.0]),
            ([True], [2], [1.0]),
        ):
            with pytest.raises(TypeError):
                rm.set_block(i, j, values)
        self.assert_untouched(rm)

    def test_record_block_checks_indices_and_is_read_in_arrival_order(self):
        handle = RunHandle(AllPairs(self.KEYS))
        handle._record_block(*cols([(0, 1), (2, 0)], [1.0, 2.0]))
        for pairs in ([(1, 4)], [(-1, 2)]):  # past the end / would wrap
            with pytest.raises(IndexError):
                handle._record_block(*cols([(1, 2), *pairs], [3.0, 4.0]))
        with pytest.raises(ValueError, match="values for"):
            handle._record_block(*cols([(1, 2)], []))
        assert handle.progress() == (2, 6)
        # Rejected batches left no trace; reading does not consume.
        arrived = [("a", "b", 1.0), ("a", "c", 2.0)]
        assert handle.read(0, wait=0.0) == (arrived, False)
        assert handle.read(1, wait=0.0) == (arrived[1:], False)
        handle._finish(RunState.CANCELLED)
        assert handle.read(0) == (arrived, True)
        assert handle.read(0, 1) == (arrived[:1], False)
        assert list(handle.stream()) == list(handle.stream()) == arrived


class TestAdmissionUnits:
    def test_grants_the_longest_prefix_that_fits(self):
        adm = ThreadAdmission(limit=5)
        assert adm.acquire([2, 3, 3, 4, 6, 7]) == 4  # 4 units fit, 6 do not
        assert adm.in_flight == 4 and adm.jobs_in_flight == 1
        assert adm.acquire([2], timeout=0.01) == 0  # one unit left
        adm.release(4)
        assert adm.acquire([2, 3]) == 2
        adm.release(3)
        assert adm.in_flight == 0 and adm.peak_in_flight == 4
        assert adm.total_admitted == 2

    def test_oversized_request_runs_alone(self):
        adm = ThreadAdmission(limit=1)
        assert adm.acquire([2, 3]) == 1  # a pair on a 2-slot cache
        assert adm.in_flight == 2
        assert adm.acquire([2], timeout=0.01) == 0
        adm.release(2)
        assert adm.acquire([2]) == 1

    def test_job_cap_holds_with_units_to_spare(self):
        adm = ThreadAdmission(limit=100, max_jobs=2)
        assert adm.acquire([2]) and adm.acquire([2])
        assert adm.acquire([2], timeout=0.01) == 0
        adm.release(2)
        assert adm.acquire([2]) == 1

    def test_release_of_more_than_claimed_rejected(self):
        adm = ThreadAdmission(limit=4)
        adm.acquire([2])
        with pytest.raises(RuntimeError):
            adm.release(3)

    def test_concurrent_claims_never_exceed_the_limit(self):
        """More threads than cores, a short switch interval: a lost
        update in the unit counter would break the bound or the final
        balance."""
        adm = ThreadAdmission(limit=7, max_jobs=3)
        lock = threading.Lock()
        held = {"units": 0, "jobs": 0, "worst_units": 0, "worst_jobs": 0}
        deadline = time.monotonic() + 1.0

        def worker(seed):
            rng = random.Random(seed)
            while time.monotonic() < deadline:
                needs = sorted(rng.randint(2, 9) for _ in range(rng.randint(1, 4)))
                count = adm.acquire(needs, timeout=0.05)
                if not count:
                    continue
                units = needs[count - 1]
                with lock:
                    held["units"] += units
                    held["jobs"] += 1
                    held["worst_units"] = max(held["worst_units"], held["units"])
                    held["worst_jobs"] = max(held["worst_jobs"], held["jobs"])
                with lock:
                    held["units"] -= units
                    held["jobs"] -= 1
                adm.release(units)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        # An oversized request (8 or 9 units) runs alone; otherwise the limit holds.
        assert held["worst_units"] <= 9 and held["worst_jobs"] <= 3
        assert adm.peak_in_flight <= 9
        assert adm.in_flight == 0 and adm.jobs_in_flight == 0


class TestResultBatcherBlocks:
    def test_block_is_appended_whole_and_flushed_by_the_same_rule(self):
        out = []
        batcher = ResultBatcher(out.append, node_id=1, batch_size=4, job_id=3)
        batcher.emit_block(*cols([(0, 1), (0, 2), (0, 3)], [1.0, 2.0, 3.0]))
        assert out == []  # below the batch size: buffered
        batcher.emit_block(*cols([(1, 2), (1, 3), (2, 3)], [4.0, 5.0, 6.0]))
        ((kind, node, job_id, block),) = out  # full: everything buffered ships at once
        assert kind == "results" and node == 1 and job_id == 3
        assert triples(block) == [
            (0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (1, 2, 4.0), (1, 3, 5.0), (2, 3, 6.0)
        ]
        batcher.flush()
        assert len(out) == 1 and batcher.results_sent == 6 and batcher.batches_sent == 1


# ----------------------------------------------------------------------
# Parity with the per-pair reference


def run_and_observe(session, workload):
    """One job's matrix, its ``stream()`` multiset, ``progress()`` and stats.

    ``stream()`` has no timeout, so it is consumed on a side thread and
    ``result(timeout=)`` is the deadline a stuck job fails on.
    """
    handle = session.submit(workload)
    streamed = Counter()
    consumer = threading.Thread(
        target=lambda: streamed.update((a, b) for a, b, _ in handle.stream()),
        daemon=True,
    )
    consumer.start()
    matrix = handle.result(timeout=120.0)
    consumer.join(10.0)
    assert not consumer.is_alive()
    return matrix, streamed, handle.progress(), handle.stats


def assert_delivered_exactly_once(matrix, streamed, progress, workload):
    assert matrix.is_complete() and len(matrix) == workload.n_pairs
    assert progress == (workload.n_pairs, workload.n_pairs)
    assert set(streamed.values()) == {1}
    assert set(streamed) == set(as_dict(matrix))


class TestBlockPathParity:
    @pytest.mark.parametrize("app_cls, assert_values", PARITY_APPS)
    def test_every_workload_shape_on_the_local_backend(self, app_cls, assert_values):
        store, keys = forensics_store()
        for workload in workload_shapes(keys):
            ref = Rocket(
                PerPairForensics(), store, RocketConfig(**CFG)
            ).run(workload)
            session = Rocket(
                app_cls(), store, RocketConfig(**CFG)
            ).session()
            try:
                matrix, streamed, progress, stats = run_and_observe(session, workload)
            finally:
                close_within(session)
            assert_delivered_exactly_once(matrix, streamed, progress, workload)
            assert_values(as_dict(matrix), as_dict(ref))
            # Batches, not pairs, reached the kernel (10 preprocess launches).
            assert sum(stats.kernel_counts.values()) - 10 < workload.n_pairs / 2

    @pytest.mark.parametrize("app_cls, assert_values", PARITY_APPS)
    def test_all_pairs_on_the_cluster_backend(self, app_cls, assert_values):
        store, keys = forensics_store()
        workload = AllPairs(keys)
        ref = Rocket(
            PerPairForensics(), store, RocketConfig(**CFG)
        ).run(workload)
        session = Rocket(
            app_cls(), store, RocketConfig(**dict(CFG, n_devices=1)),
            backend="cluster",
            cluster=ClusterConfig(n_nodes=2, fetch_timeout=20.0, steal_timeout=5.0),
        ).session()
        try:
            matrix, streamed, progress, _ = run_and_observe(session, workload)
        finally:
            close_within(session)
        assert_delivered_exactly_once(matrix, streamed, progress, workload)
        assert_values(as_dict(matrix), as_dict(ref))

    def test_mid_batch_stop_releases_every_pin_and_keeps_values_correct(self):
        class SlowLoopedForensics(LoopedForensics):
            def compare_block(self, keys_a, items_a, keys_b, items_b):
                time.sleep(0.02)
                return super().compare_block(keys_a, items_a, keys_b, items_b)

        store, keys = forensics_store(n_images=12)
        ref = as_dict(
            Rocket(PerPairForensics(), store, RocketConfig(**CFG)).run(keys)
        )
        emitted = []
        first_block = threading.Event()

        def emit_block(i, j, values):
            emitted.append((list(zip(i.tolist(), j.tolist())), values.tolist()))
            first_block.set()

        pipeline = NodePipeline(
            SlowLoopedForensics(), store,
            RocketConfig(**dict(CFG, device_cache_slots=6, grain=8)), keys,
            emit_block=emit_block,
            expected_pairs=66,
            initial_blocks=[PairBlock.root(len(keys))],
        )
        pipeline.start()
        try:
            assert first_block.wait(30.0)
            pipeline.request_stop(abort=True)  # batches are in flight right now
            pipeline.join(timeout=10.0)
            assert pipeline.held_pins == 0
            assert all(st.admission.in_flight == 0 for st in pipeline.states)
            assert all(st.admission.jobs_in_flight == 0 for st in pipeline.states)
            assert all(st.cache.pinned_count() == 0 for st in pipeline.states)
        finally:
            pipeline.close()
        assert not pipeline.errors
        delivered = Counter()
        for pairs, values in emitted:
            assert len(pairs) == len(values)
            for (i, j), value in zip(pairs, values):
                delivered[(keys[i], keys[j])] += 1
                assert value == ref[(keys[i], keys[j])]
        assert 0 < len(delivered) < 66 and set(delivered.values()) == {1}


# ----------------------------------------------------------------------
# No deadlock at the smallest caches


@pytest.mark.timeout(120)
class TestNoDeadlock:
    @pytest.mark.parametrize("policy", ["fifo", "fair"])
    @pytest.mark.parametrize("app_cls", [BlockSumApp, SumApp])
    @pytest.mark.parametrize("n_devices", [1, 2])
    @pytest.mark.parametrize("slots", [2, 3, 4])
    def test_tiny_caches_complete_reference_equal(self, slots, n_devices, app_cls, policy):
        store, keys = make_store(10)
        items = {
            k: 2.0 * np.frombuffer(store.read(f"{k}.bin"), dtype=np.float64).sum()
            for k in keys
        }
        cfg = RocketConfig(
            n_devices=n_devices, device_cache_slots=slots, host_cache_slots=4,
            grain=64, leaf_size=2, seed=3, watchdog_seconds=60.0,
        )
        session = Rocket(app_cls(), store, cfg).session(policy=policy)
        try:
            handles = [
                session.submit(
                    AllPairs(keys), max_inflight=1 if policy == "fair" else None
                )
                for _ in range(2)
            ]
            for handle in handles:
                matrix = handle.result(timeout=60.0)
                assert matrix.is_complete()
                assert as_dict(matrix) == {
                    (a, b): items[a] * items[b]
                    for i, a in enumerate(keys) for b in keys[i + 1 :]
                }
            engine = session._engine
            assert all(st.admission.peak_in_flight <= max(2, slots - 1) for st in engine.states)
            assert all(st.admission.in_flight == 0 for st in engine.states)
            assert all(st.cache.pinned_count() == 0 for st in engine.states)
        finally:
            close_within(session)


# ----------------------------------------------------------------------
# The regression cannot silently return


def test_grain_reaches_the_kernel_when_the_cache_fits():
    """bio n=112, all-fit cache, default grain (64): at least 32 pairs per launch.

    Pair-denominated admission capped every batch at ``concurrent_jobs``
    pairs (about 6 per launch, ~1000 launches for this job).
    """
    store = InMemoryStore()
    keys = list(make_bioinformatics_dataset(store, n_species=112, seed=3).keys)
    cfg = RocketConfig(n_devices=2, device_cache_slots=128, host_cache_slots=128)
    session = Rocket(BioinformaticsApplication(), store, cfg).session()
    try:
        session.submit(AllPairs(keys)).result(timeout=120.0)  # loads every item
        handle = session.submit(AllPairs(keys))
        matrix = handle.result(timeout=120.0)
    finally:
        session.close()
    n_pairs = 112 * 111 // 2
    assert matrix.is_complete() and len(matrix) == n_pairs
    assert handle.stats.loads == 0  # warm: every launch is a comparison
    assert sum(handle.stats.kernel_counts.values()) * 32 <= n_pairs
