"""Batched compare_block parity with the per-pair path.

Three layers:

- kernel-level parity: for each application with a batched kernel,
  ``compare_block`` over a block of pairs returns what per-pair
  ``compare`` returns, within the documented floating-point-summation
  tolerance of the einsum/Gram reductions (microscopy's registration
  is data-dependent and runs the per-pair path);
- runtime parity on the local backend: a batched application and a
  wrapper that hides ``compare_block`` (forcing the per-pair dispatch
  path) produce equal result matrices for every workload shape, the
  batched path drains cleanly through a mid-run ``cancel()``, and an
  application without ``compare_block`` still runs the per-pair path;
- cluster-backend parity (marked ``slow``): the batched application on
  real worker processes matches the per-pair local reference for every
  workload shape.
"""

import math
import random
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.apps import BioinformaticsApplication, ForensicsApplication
from repro.apps.bioinformatics.composition import cv_distance_block
from repro.apps.forensics.prnu import ncc_pairs
from repro.core.api import Application
from repro.core.rocket import Rocket
from repro.core.workload import AllPairs, Bipartite, DeltaPairs, FilteredPairs
from repro.data.filestore import InMemoryStore
from repro.data.synthetic import make_bioinformatics_dataset, make_forensics_dataset
from repro.runtime.cluster import ClusterConfig
from repro.runtime.localrocket import RocketConfig

CFG = dict(
    n_devices=1,
    device_cache_slots=8,
    host_cache_slots=16,
    leaf_size=2,
    seed=7,
    watchdog_seconds=120.0,
)

#: Documented tolerance of the vectorised einsum/Gram kernels versus
#: per-pair evaluation (floating-point summation order only).
REL_TOL = 1e-9
ABS_TOL = 1e-12


class PerPairForensics(ForensicsApplication):
    """Forensics app with the batched fast path hidden.

    Restoring the base-class methods flips ``supports_compare_block``
    off, so the runtime takes the per-pair dispatch path — the
    reference for every parity assertion below.
    """

    compare_block = Application.compare_block
    item_view = Application.item_view


def crc_filter(a, b):
    """Deterministic, module-level (picklable) pair predicate."""
    return zlib.crc32(f"{a}|{b}".encode()) % 2 == 0


def forensics_store(n_images=10, seed=11):
    store = InMemoryStore()
    ds = make_forensics_dataset(store, n_images=n_images, image_shape=(32, 32), seed=seed)
    return store, ds.keys


def workload_shapes(keys):
    return [
        AllPairs(keys),
        FilteredPairs(keys, crc_filter),
        Bipartite(keys[:4], keys[4:]),
        DeltaPairs(keys[:7], keys[7:]),
    ]


def as_dict(matrix):
    return {(a, b): v for a, b, v in matrix.items()}


def assert_matrices_match(got, ref):
    assert got.keys() == ref.keys()
    for pair, v in ref.items():
        assert math.isclose(got[pair], v, rel_tol=REL_TOL, abs_tol=ABS_TOL), pair


# ----------------------------------------------------------------------
# Kernel-level parity


def load_items(app, store, keys):
    return {
        key: app.preprocess(key, app.parse(key, store.read(app.file_name(key))))
        for key in keys
    }


def block_vs_pairs(app, items, keys, *, use_views):
    pairs = [(a, b) for i, a in enumerate(keys) for b in keys[i + 1 :]]
    views = (
        {k: app.item_view(k, items[k]) for k in keys} if use_views else items
    )
    keys_a = [a for a, _ in pairs]
    keys_b = [b for _, b in pairs]
    block = app.compare_block(
        keys_a, [views[a] for a in keys_a], keys_b, [views[b] for b in keys_b]
    )
    ref = [
        app.postprocess(a, b, app.compare(a, items[a], b, items[b]))
        for a, b in pairs
    ]
    got = [app.postprocess(a, b, block[k]) for k, (a, b) in enumerate(pairs)]
    return np.asarray(ref, dtype=np.float64), np.asarray(got, dtype=np.float64)


class TestKernelParity:
    def test_bioinformatics_block_matches_per_pair(self):
        store = InMemoryStore()
        ds = make_bioinformatics_dataset(
            store, n_species=8, n_proteins=3, protein_length=200, seed=3
        )
        app = BioinformaticsApplication(k=3)
        assert app.supports_compare_block and app.supports_item_view
        ref, got = block_vs_pairs(app, load_items(app, store, ds.keys), ds.keys, use_views=True)
        np.testing.assert_array_equal(got, ref)  # compare is a one-pair block

    def test_forensics_block_matches_per_pair(self):
        store, keys = forensics_store()
        app = ForensicsApplication()
        assert app.supports_compare_block and not app.supports_item_view
        ref, got = block_vs_pairs(app, load_items(app, store, keys), keys, use_views=False)
        np.testing.assert_allclose(got, ref, rtol=REL_TOL, atol=ABS_TOL)

    def test_ncc_pairs_deduplicates_by_identity(self):
        from repro.apps.forensics.prnu import ncc, ncc_pairs

        rng = np.random.default_rng(0)
        items = [rng.standard_normal((16, 16)) for _ in range(5)]
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        shared = ncc_pairs([items[i] for i, _ in pairs], [items[j] for _, j in pairs])
        # Distinct array objects (no dedup possible) give the same answer.
        copies = ncc_pairs(
            [items[i].copy() for i, _ in pairs], [items[j].copy() for _, j in pairs]
        )
        ref = np.array([ncc(items[i], items[j]) for i, j in pairs])
        np.testing.assert_allclose(shared, ref, rtol=REL_TOL, atol=ABS_TOL)
        np.testing.assert_allclose(copies, ref, rtol=REL_TOL, atol=ABS_TOL)

    def test_ncc_pairs_length_mismatch_rejected(self):
        from repro.apps.forensics.prnu import ncc_pairs

        with pytest.raises(ValueError, match="length mismatch"):
            ncc_pairs([np.zeros((2, 2))], [])

    def test_default_compare_block_loops_compare(self):
        app = PerPairForensics()
        assert not app.supports_compare_block and not app.supports_item_view
        store, keys = forensics_store(n_images=4)
        items = load_items(app, store, keys)
        ref, got = block_vs_pairs(app, items, keys, use_views=False)
        np.testing.assert_array_equal(got, ref)  # it *is* the per-pair loop


# ----------------------------------------------------------------------
# Kernel invariants: a pair's bits do not depend on its launch


def bio_views(n_species=12, k=4, seed=5):
    store = InMemoryStore()
    ds = make_bioinformatics_dataset(store, n_species=n_species, seed=seed)
    app = BioinformaticsApplication(k=k)
    items = load_items(app, store, ds.keys)
    return [app.item_view(key, items[key]) for key in ds.keys]


def forensics_residuals(n_images=10):
    store, keys = forensics_store(n_images=n_images)
    items = load_items(ForensicsApplication(), store, keys)
    return [items[key] for key in keys]


def all_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def run_pairs(kernel, operands, pairs):
    return kernel([operands[i] for i, _ in pairs], [operands[j] for _, j in pairs])


def regroupings(n_ops, seed):
    """Yield ways to launch pairs of ``n_ops`` operands, each a list of
    launches: one block, single pairs, a leaf-shaped rectangle, and
    random chunks of a shuffled order."""
    pairs = all_pairs(n_ops)
    yield [pairs]
    yield [[pair] for pair in pairs]
    half = n_ops // 2
    yield [[(i, j) for i in range(half) for j in range(half, n_ops)]]
    rng = random.Random(seed)
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    chunks, start = [], 0
    while start < len(shuffled):
        size = rng.randint(1, 17)
        chunks.append(shuffled[start : start + size])
        start += size
    yield chunks


KERNELS = [
    pytest.param(cv_distance_block, bio_views, id="cv_distance_block"),
    pytest.param(ncc_pairs, forensics_residuals, id="ncc_pairs"),
]


class TestKernelInvariants:
    @pytest.mark.parametrize("kernel, operands", KERNELS)
    def test_pair_value_is_identical_in_any_grouping(self, kernel, operands):
        ops = operands()
        pairs = all_pairs(len(ops))
        whole = dict(zip(pairs, run_pairs(kernel, ops, pairs)))
        for seed in range(3):
            for launches in regroupings(len(ops), seed):
                for launch in launches:
                    for pair, value in zip(launch, run_pairs(kernel, ops, launch)):
                        assert value == whole[pair], (pair, value, whole[pair])

    @pytest.mark.parametrize("kernel, operands", KERNELS)
    def test_concurrent_launches_match_sequential(self, kernel, operands):
        ops = operands()
        launches = list(regroupings(len(ops), seed=9))[-1]
        expected = [run_pairs(kernel, ops, launch).tobytes() for launch in launches]
        got = {}
        barrier = threading.Barrier(2)

        def worker(tid):
            barrier.wait()
            order = list(enumerate(launches))
            if tid:
                order.reverse()
            for _ in range(3):
                for pos, launch in order:
                    got.setdefault(tid, []).append(
                        (pos, run_pairs(kernel, ops, launch).tobytes())
                    )

        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        for tid in range(2):
            assert len(got[tid]) == 3 * len(launches)
            for pos, value in got[tid]:
                assert value == expected[pos]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_launch_that_raises_leaves_next_call_unchanged(self, side):
        views = bio_views(n_species=6)
        pairs = all_pairs(len(views))
        expected = run_pairs(cv_distance_block, views, pairs)
        idx, val, norm = views[1]
        broken = (idx, val[:-1], norm)  # idx and val lengths differ
        # Pairs sharing views[0] as the right operand form one group; the
        # broken view is launched after a good pair of that group.
        good = views[2]
        if side == "left":
            views_a, views_b = [good, broken], [views[0], views[0]]
        else:
            views_a, views_b = [good, good], [views[0], broken]
        with pytest.raises(ValueError):
            cv_distance_block(views_a, views_b)
        assert run_pairs(cv_distance_block, views, pairs).tobytes() == expected.tobytes()

    def test_launch_allocates_no_dense_vector(self):
        views = bio_views(n_species=16, k=4)
        pairs = [(i, j) for i in range(8) for j in range(8, 16)]
        assert len(pairs) == 64
        views_a = [views[i] for i, _ in pairs]
        views_b = [views[j] for _, j in pairs]
        expected = cv_distance_block(views_a, views_b)  # warm-up
        tracemalloc.start()
        try:
            got = cv_distance_block(views_a, views_b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tobytes() == expected.tobytes()
        # A fresh 20^4 float64 scratch would be 1.28 MB.
        assert peak < 64 * 1024, peak


# ----------------------------------------------------------------------
# Runtime parity, local backend


class TestLocalRuntimeParity:
    def test_every_workload_shape_matches_per_pair(self):
        store, keys = forensics_store()
        for workload in workload_shapes(keys):
            ref = Rocket(
                PerPairForensics(), store, RocketConfig(**CFG)
            ).run(workload)
            got = Rocket(
                ForensicsApplication(), store, RocketConfig(**CFG)
            ).run(workload)
            assert got.is_complete()
            assert_matrices_match(as_dict(got), as_dict(ref))

    def test_app_without_compare_block_runs_per_pair_path(self):
        store, keys = forensics_store(n_images=6)
        rocket = Rocket(PerPairForensics(), store, RocketConfig(**CFG))
        matrix = rocket.run(AllPairs(keys))
        assert matrix.is_complete()
        assert rocket.last_stats.n_pairs == 15

    def test_cancel_mid_batch_drains_cleanly(self):
        class SlowBatchedForensics(ForensicsApplication):
            def compare_block(self, keys_a, items_a, keys_b, items_b):
                time.sleep(0.01)
                return super().compare_block(keys_a, items_a, keys_b, items_b)

        store, keys = forensics_store()
        session = Rocket(
            SlowBatchedForensics(), store, RocketConfig(**CFG)
        ).session()
        try:
            handle = session.submit(AllPairs(keys))
            streamed = []
            for item in handle.stream():
                streamed.append(item)
                if len(streamed) >= 3:
                    assert handle.cancel()
                    break
            with pytest.raises(RuntimeError, match="cancelled"):
                handle.result(timeout=30.0)
            # The partial block stopped emitting at the abort and every
            # batch claim was returned: no leaked admission tokens or
            # pinned slots on the shared engine.
            engine = session._engine
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                if all(st.admission.in_flight == 0 for st in engine.states):
                    break
                time.sleep(0.01)
            assert all(st.admission.in_flight == 0 for st in engine.states)
            assert all(st.cache.pinned_count() == 0 for st in engine.states)
            assert engine.host_cache.pinned_count() == 0
            # Partial results are a subset of the true matrix...
            ref = as_dict(
                Rocket(
                    ForensicsApplication(), store, RocketConfig(**CFG)
                ).run(AllPairs(keys))
            )
            for a, b, v in streamed:
                assert math.isclose(v, ref[(a, b)], rel_tol=REL_TOL, abs_tol=ABS_TOL)
            # ...and the session keeps working after the cancel.
            again = session.submit(AllPairs(keys[:6]))
            assert again.result(timeout=60.0).is_complete()
        finally:
            session.close()


# ----------------------------------------------------------------------
# Runtime parity, cluster backend (real processes)


@pytest.mark.slow
class TestClusterRuntimeParity:
    def test_every_workload_shape_matches_per_pair(self):
        store, keys = forensics_store()
        references = {
            w.describe(): as_dict(
                Rocket(PerPairForensics(), store, RocketConfig(**CFG)).run(w)
            )
            for w in workload_shapes(keys)
        }
        session = Rocket(
            ForensicsApplication(), store, RocketConfig(**CFG),
            backend="cluster",
            cluster=ClusterConfig(n_nodes=2, fetch_timeout=20.0, steal_timeout=5.0),
        ).session()
        try:
            for workload in workload_shapes(keys):
                matrix = session.submit(workload).result(timeout=120.0)
                assert matrix.is_complete()
                assert_matrices_match(as_dict(matrix), references[workload.describe()])
        finally:
            session.close()
