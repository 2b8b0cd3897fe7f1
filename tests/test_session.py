"""Tests for the session/job execution API: workloads, handles, reuse.

Four layers:

- workload unit tests: pair sets, block decompositions and counts of
  AllPairs / FilteredPairs / Bipartite / DeltaPairs;
- result-matrix shape tests: ``expected_pairs``, delta ``merge``,
  ``to_dense(fill=nan)`` on partial triangles;
- session behaviour on the local backend (fast): streaming laziness and
  exactly-once delivery, progress, cancellation draining cleanly,
  warm-cache reuse across jobs, failure isolation;
- cross-backend acceptance: ``stream()`` yields the same pair set as
  the result matrix for every workload shape on *both* backends, a
  session's second job measurably hits warm caches, two jobs in one
  session equal two fresh ``Rocket.run()`` calls, and cancellation
  leaks neither worker processes nor ``/dev/shm`` segments.
"""

import math
import multiprocessing
import threading
import time

import numpy as np
import pytest

import repro
from repro.core.result import ResultMatrix
from repro.core.rocket import Rocket
from repro.core.session import RunState, SessionClosed
from repro.core.workload import (
    AllPairs,
    Bipartite,
    DeltaPairs,
    FilteredPairs,
    as_workload,
)
from repro.data.filestore import InMemoryStore
from repro.runtime.backend import BackendSession
from repro.runtime.cluster import ClusterConfig
from repro.runtime.localrocket import LocalSession, RocketConfig
from repro.runtime.pernode import NodeEngine
from repro.scheduling.quadtree import PairBlock

from tests.test_cluster_runtime import SumApp, make_store, shm_segments


CFG = dict(
    n_devices=1,
    device_cache_slots=32,
    host_cache_slots=64,
    seed=7,
    watchdog_seconds=120.0,
)


def make_rocket(name, store, transport="queue", **cfg_overrides):
    cfg = RocketConfig(**dict(CFG, **cfg_overrides))
    if name == "local":
        return Rocket(SumApp(), store, cfg)
    return Rocket(
        SumApp(), store, cfg,
        backend="cluster", cluster=ClusterConfig(
            n_nodes=2, fetch_timeout=20.0, steal_timeout=5.0, transport=transport
        ),
    )


def accept_mod2(a, b):
    """Module-level filter (picklable for the cluster backend)."""
    return (int(a[-2:]) + int(b[-2:])) % 2 == 0


# ----------------------------------------------------------------------
# Workload unit tests


class TestWorkloads:
    KEYS = [f"k{i}" for i in range(8)]

    def test_all_pairs(self):
        w = AllPairs(self.KEYS)
        assert w.n_pairs == 28
        assert w.blocks() == [PairBlock.root(8)]
        assert len(list(w.pairs())) == 28
        assert w.make_result().expected_pairs == 28
        assert "all-pairs" in w.describe()

    def test_filtered_pairs(self):
        w = FilteredPairs(self.KEYS, lambda a, b: a == "k0")
        assert w.n_pairs == 7
        assert set(w.pairs()) == {("k0", k) for k in self.KEYS[1:]}
        assert w.make_result().expected_pairs == 7

    def test_filtered_reject_all_raises(self):
        w = FilteredPairs(self.KEYS, lambda a, b: False)
        with pytest.raises(ValueError, match="rejected every pair"):
            w.n_pairs

    def test_bipartite(self):
        w = Bipartite(self.KEYS[:3], self.KEYS[3:])
        assert w.n_pairs == 3 * 5
        assert w.keys == self.KEYS
        got = set(w.pairs())
        assert got == {(a, b) for a in self.KEYS[:3] for b in self.KEYS[3:]}
        # Single rectangular block, entirely above the diagonal.
        (block,) = w.blocks()
        assert block.count == 15
        assert set(block.pairs()) == {(i, j) for i in range(3) for j in range(3, 8)}

    def test_bipartite_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            Bipartite(["a", "b"], ["b", "c"])

    def test_delta_pairs(self):
        w = DeltaPairs(self.KEYS[:5], self.KEYS[5:])
        # 5 old x 3 new + C(3, 2) new-internal.
        assert w.n_pairs == 15 + 3
        got = set(w.pairs())
        expected = {(a, b) for a in self.KEYS[:5] for b in self.KEYS[5:]}
        expected |= {("k5", "k6"), ("k5", "k7"), ("k6", "k7")}
        assert got == expected
        # Prior triangle + delta = full triangle of the grown corpus.
        assert math.comb(5, 2) + w.n_pairs == math.comb(8, 2)

    def test_delta_single_new_item(self):
        w = DeltaPairs(self.KEYS[:7], self.KEYS[7:])
        assert w.n_pairs == 7
        assert len(w.blocks()) == 1  # no new-internal triangle needed

    def test_delta_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            DeltaPairs(["a", "b"], ["b"])

    def test_block_counts_cached_filter_called_once_per_pair(self):
        calls = []

        def flt(a, b):
            calls.append((a, b))
            return True

        w = FilteredPairs(self.KEYS, flt)
        assert w.n_pairs == 28
        assert w.block_counts() == [28]
        assert len(calls) == 28  # the second call reused the cache

    def test_as_workload(self):
        w = as_workload(self.KEYS)
        assert isinstance(w, AllPairs)
        bp = Bipartite(self.KEYS[:2], self.KEYS[2:])
        assert as_workload(bp) is bp

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AllPairs(["a", "a", "b"])


# ----------------------------------------------------------------------
# Result-matrix shapes


class TestResultMatrixShapes:
    def test_expected_pairs_completeness(self):
        rm = ResultMatrix(["a", "b", "c"], expected_pairs=2)
        rm.set("a", "b", 1.0)
        assert not rm.is_complete()
        rm.set("a", "c", 2.0)
        assert rm.is_complete()  # partial triangle, but all expected pairs
        assert rm.n_pairs == 3  # the full triangle is still 3 cells

    def test_expected_pairs_validation(self):
        with pytest.raises(ValueError, match="expected_pairs"):
            ResultMatrix(["a", "b"], expected_pairs=2)
        with pytest.raises(ValueError, match="expected_pairs"):
            ResultMatrix(["a", "b"], expected_pairs=0)

    def test_to_dense_nan_fill_for_incomplete_triangle(self):
        w = Bipartite(["q0", "q1"], ["r0", "r1"])
        rm = w.make_result()
        for a, b in w.pairs():
            rm.set(a, b, 1.0)
        dense = rm.to_dense(fill=float("nan"))
        assert np.isnan(dense[0, 1])  # query-internal: never computed
        assert np.isnan(dense[2, 3])  # reference-internal: never computed
        assert dense[0, 2] == dense[2, 0] == 1.0

    def test_to_condensed_requires_full_triangle(self):
        rm = ResultMatrix(["a", "b", "c"], expected_pairs=2)
        rm.set("a", "b", 1.0)
        rm.set("a", "c", 2.0)
        assert rm.is_complete()
        with pytest.raises(ValueError, match="incomplete"):
            rm.to_condensed()

    def test_merge_delta_into_prior(self):
        old = ["a", "b", "c"]
        new = ["d", "e"]
        prior = AllPairs(old).make_result()
        for idx, (a, b) in enumerate(AllPairs(old).pairs()):
            prior.set(a, b, float(idx))
        delta_w = DeltaPairs(old, new)
        delta = delta_w.make_result()
        for idx, (a, b) in enumerate(delta_w.pairs()):
            delta.set(a, b, 100.0 + idx)
        full = prior.merge(delta)
        assert full.keys == old + new
        assert full.n_pairs == full.expected_pairs == 10
        assert full.is_complete()
        assert full.get("a", "b") == prior.get("a", "b")
        assert full.get("a", "d") == delta.get("a", "d")
        assert list(full.to_condensed()) == pytest.approx(
            [float(v) for _, _, v in full.items()]
        )

    def test_merge_conflict_rejected(self):
        m1 = ResultMatrix(["a", "b"])
        m1.set("a", "b", 1.0)
        m2 = ResultMatrix(["a", "b"])
        m2.set("a", "b", 2.0)
        with pytest.raises(ValueError, match="both matrices"):
            m1.merge(m2)


# ----------------------------------------------------------------------
# Local-backend session behaviour (fast paths)


class TestLocalSession:
    def test_stream_is_lazy_and_exactly_once(self):
        store, keys = make_store(10)
        session = make_rocket("local", store).session()
        try:
            handle = session.submit(AllPairs(keys))
            seen = []
            for a, b, v in handle.stream():  # consume while the job runs
                seen.append((a, b, v))
            matrix = handle.result()
            assert len(seen) == len(set((a, b) for a, b, _ in seen)) == 45
            assert set(seen) == set(matrix.items())
        finally:
            session.close()

    def test_progress_and_states(self):
        store, keys = make_store(8)
        session = make_rocket("local", store).session()
        try:
            handle = session.submit(AllPairs(keys))
            assert handle.result().is_complete()
            assert handle.state is RunState.DONE
            assert handle.progress() == (28, 28)
            assert handle.done()
            assert not handle.cancel()  # terminal jobs are not cancellable
        finally:
            session.close()

    def test_second_job_hits_warm_caches(self):
        store, keys = make_store(10)
        session = make_rocket("local", store).session()
        try:
            first = session.submit(AllPairs(keys))
            first.result()
            assert first.stats.loads == 10
            second = session.submit(AllPairs(keys))
            second.result()
            # Every item is still cached: no loads, and the cache hits
            # of the second job are measured (delta counters).
            assert second.stats.loads == 0
            assert (
                second.stats.device_counters.hits + second.stats.host_counters.hits
                > 0
            )
        finally:
            session.close()

    def test_jobs_queue_serially(self):
        store, keys = make_store(8)
        session = make_rocket("local", store).session()
        try:
            handles = [session.submit(AllPairs(keys)) for _ in range(3)]
            results = [h.result() for h in handles]
            assert all(r.is_complete() for r in results)
            for a, b, v in results[0].items():
                assert results[1].get(a, b) == v == results[2].get(a, b)
        finally:
            session.close()

    def test_failure_isolated_to_its_job(self):
        class BadApp(SumApp):
            def parse(self, key, file_contents):
                if key == "item03":
                    raise ValueError(f"corrupt file for {key}")
                return super().parse(key, file_contents)

        store, keys = make_store(6)
        rocket = Rocket(BadApp(), store, RocketConfig(**CFG))
        session = rocket.session()
        try:
            bad = session.submit(AllPairs(keys))
            with pytest.raises(ValueError, match="corrupt file"):
                bad.result()
            assert bad.state is RunState.FAILED
            # The session survives a failed job; keys avoiding the poison
            # item run fine afterwards.
            good = session.submit(AllPairs([k for k in keys if k != "item03"]))
            assert good.result().is_complete()
        finally:
            session.close()

    def test_cancel_pending_job_never_runs(self):
        store, keys = make_store(8)
        session = make_rocket("local", store).session()
        try:
            blocker = session.submit(AllPairs(keys))
            queued = session.submit(AllPairs(keys))
            assert queued.cancel()
            blocker.result()
            with pytest.raises(RuntimeError, match="cancelled"):
                queued.result()
            assert queued.state is RunState.CANCELLED
        finally:
            session.close()

    def test_cancel_mid_run_drains_cleanly(self):
        class SlowApp(SumApp):
            def compare(self, key_a, a, key_b, b):
                time.sleep(0.01)
                return super().compare(key_a, a, key_b, b)

        store, keys = make_store(10)
        rocket = Rocket(SlowApp(), store, RocketConfig(**CFG))
        session = rocket.session()
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
            # Mid-run state fully drained: no leaked admission tokens or
            # pinned slots on the shared engine...
            engine = session._engine
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                if all(st.admission.in_flight == 0 for st in engine.states):
                    break
                time.sleep(0.01)
            assert all(st.admission.in_flight == 0 for st in engine.states)
            assert all(st.cache.pinned_count() == 0 for st in engine.states)
            assert engine.host_cache.pinned_count() == 0
            # ...and the session keeps working.
            again = session.submit(AllPairs(keys[:6]))
            assert again.result(timeout=60.0).is_complete()
        finally:
            session.close()

    def test_results_held_once_and_replayed_in_arrival_order(self):
        store, keys = make_store(8)
        session = make_rocket("local", store).session()
        try:
            handle = session.submit(AllPairs(keys))
            live = list(handle.stream())  # follows the run
            matrix = handle.result()
            # The matrix is the only store of the results: a read builds
            # its triples on the spot, the handle keeps no list of them...
            assert handle.read(0, 1)[0][0] is not handle.read(0, 1)[0][0]
            # ...and still a stream() started after the end replays every
            # pair, in the order the live one saw them arrive.
            late = list(handle.stream())
            assert late == live and set(late) == set(matrix.items())
            assert handle.read(len(live)) == ([], True)
        finally:
            session.close()

    @pytest.mark.parametrize("stored", [False, True])
    @pytest.mark.parametrize("policy", ["fifo", "fair"])
    def test_filter_predicate_runs_once_per_pair(self, stored, policy, tmp_path):
        """Counting, decomposition, the memo partition and every leaf
        walk read the job's pair set: the predicate itself runs exactly
        once per pair of the index space, end to end."""
        store, keys = make_store(9)
        calls = []

        def accept(a, b):
            calls.append((a, b))
            return accept_mod2(a, b)

        overrides = {"store_dir": str(tmp_path)} if stored else {}
        session = make_rocket("local", store, **overrides).session(policy=policy)
        try:
            matrix = session.submit(FilteredPairs(keys, accept)).result(timeout=60.0)
        finally:
            session.close()
        assert matrix.is_complete()
        assert len(calls) == math.comb(len(keys), 2)
        assert len(set(calls)) == len(calls)

    def test_submit_after_close_raises(self):
        store, keys = make_store(4)
        session = make_rocket("local", store).session()
        session.close()
        assert session.closed
        with pytest.raises(SessionClosed):
            session.submit(AllPairs(keys))
        # A double close is a lifecycle bug: loud, not silently ignored.
        with pytest.raises(SessionClosed):
            session.close()

    def test_rocket_session_facade(self):
        store, keys = make_store(8)
        rocket = Rocket(SumApp(), store, RocketConfig(**CFG))
        with rocket.session() as session:
            assert session.backend == "local"
            matrix = session.run(AllPairs(keys))
            assert matrix.is_complete()
            assert session.last_stats.n_pairs == 28
            # Plain key lists are accepted too (AllPairs shorthand).
            handle = session.submit(keys)
            assert handle.result().is_complete()
        assert session.closed


class TestOneSessionType:
    """``Rocket.session()`` and
    ``repro.RocketSession`` are one class: the session driver."""

    @staticmethod
    def open_rocket(backend, store):
        if backend == "local":
            return Rocket(SumApp(), store, RocketConfig(**CFG))
        return Rocket(
            SumApp(), store, RocketConfig(**CFG),
            backend="cluster",
            cluster=ClusterConfig(n_nodes=1, fetch_timeout=20.0, steal_timeout=5.0),
        )

    @pytest.mark.parametrize("backend", ["local", "cluster"])
    def test_open_session_is_the_full_session(self, backend):
        store, keys = make_store(6)
        with self.open_rocket(backend, store).session() as session:
            assert session.backend == backend
            assert session.last_stats is None
            # A plain key list is submitted as AllPairs.
            matrix = session.submit(keys).result(timeout=60)
            assert matrix.expected_pairs == 15 and matrix.is_complete()
            for a, b, value in matrix.items():
                # make_store: item i holds eight (i + 1)s; SumApp doubles.
                assert value == 256.0 * (int(a[-2:]) + 1) * (int(b[-2:]) + 1)
            assert session.last_stats.n_pairs == 15
            small = session.run(keys[:4])
            assert small.is_complete() and small.expected_pairs == 6
            assert all(matrix.get(a, b) == value for a, b, value in small.items())
            assert session.last_stats.n_pairs == 6

    def test_rocket_session_is_the_driver(self):
        assert repro.RocketSession is BackendSession
        store, keys = make_store(4)
        session = Rocket(SumApp(), store, RocketConfig(**CFG)).session(policy="fair")
        try:
            assert type(session) is LocalSession
            assert session.policy.value == "fair"
        finally:
            session.close()


# ----------------------------------------------------------------------
# Cross-backend acceptance


class TestSessionAcrossBackends:
    N = 10

    def workloads(self, keys):
        return [
            AllPairs(keys),
            FilteredPairs(keys, accept_mod2),
            Bipartite(keys[:4], keys[4:]),
            DeltaPairs(keys[:7], keys[7:]),
        ]

    @pytest.mark.parametrize("backend", ["local", "cluster"])
    def test_stream_matches_matrix_for_every_workload(self, backend):
        store, keys = make_store(self.N)
        session = make_rocket(backend, store).session()
        try:
            for workload in self.workloads(keys):
                handle = session.submit(workload)
                streamed = list(handle.stream())
                matrix = handle.result()
                assert matrix.is_complete()
                assert len(streamed) == workload.n_pairs
                assert set(streamed) == set(matrix.items())
                assert set((a, b) for a, b, _ in streamed) == set(workload.pairs())
        finally:
            session.close()

    @pytest.mark.parametrize("backend", ["local", "cluster"])
    def test_session_jobs_equal_fresh_runs(self, backend):
        store, keys = make_store(self.N)
        fresh = make_rocket(backend, store)
        expected_all = fresh.run(keys)
        expected_delta = fresh.run(DeltaPairs(keys[:7], keys[7:]))

        session = make_rocket(backend, store).session()
        try:
            first = session.submit(AllPairs(keys)).result()
            second = session.submit(DeltaPairs(keys[:7], keys[7:])).result()
        finally:
            session.close()
        assert set(first.items()) == set(expected_all.items())
        assert set(second.items()) == set(expected_delta.items())

    def test_cluster_second_job_hits_warm_caches(self):
        store, keys = make_store(self.N)
        session = make_rocket("cluster", store).session()
        try:
            first = session.submit(AllPairs(keys))
            first.result()
            second = session.submit(AllPairs(keys))
            second.result()
            assert second.stats.loads < first.stats.loads
            warm_hits = sum(
                ns.device_counters.hits + ns.host_counters.hits
                for ns in second.stats.node_stats
            )
            assert warm_hits > 0  # measured cache hits on the second job
        finally:
            session.close()

    def test_cluster_cancel_leaks_nothing(self):
        class SlowApp(SumApp):
            def compare(self, key_a, a, key_b, b):
                time.sleep(0.01)
                return super().compare(key_a, a, key_b, b)

        store, keys = make_store(12)
        before = shm_segments()
        rocket = Rocket(
            SlowApp(), store, RocketConfig(**CFG),
            backend="cluster", cluster=ClusterConfig(
                n_nodes=2, transport="shm", fetch_timeout=20.0, steal_timeout=5.0
            ),
        )
        session = rocket.session()
        try:
            handle = session.submit(AllPairs(keys))
            # Wait until the job is really in flight, then cancel.
            deadline = time.perf_counter() + 30.0
            while handle.progress()[0] < 2 and time.perf_counter() < deadline:
                time.sleep(0.01)
            assert handle.cancel()
            with pytest.raises(RuntimeError, match="cancelled"):
                handle.result(timeout=60.0)
            # The session survives the cancellation...
            again = session.submit(AllPairs(keys[:6]))
            assert again.result(timeout=60.0).is_complete()
        finally:
            session.close()
        # ...and closing leaks neither processes nor shared memory.
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("rocket-node")]
        assert shm_segments() == before

    def test_cluster_cancel_racing_first_job_handout(self):
        """A cancel issued immediately after submit must not be lost.

        The stop broadcast can reach a node while it is still picking
        the job up (job not yet begun); the node must honour it via the
        early-stop map instead of running the cancelled job to its own
        watchdog.
        """
        store, keys = make_store(10)
        rocket = Rocket(
            SumApp(), store,
            RocketConfig(**dict(CFG, watchdog_seconds=30.0)),
            backend="cluster",
            cluster=ClusterConfig(n_nodes=2, fetch_timeout=10.0, steal_timeout=2.0),
        )
        session = rocket.session()
        try:
            handle = session.submit(AllPairs(keys))
            handle.cancel()  # immediately: races the job hand-out
            t0 = time.perf_counter()
            try:
                handle.result(timeout=25.0)  # rare: the job won the race
            except RuntimeError:
                pass  # cancelled (the expected outcome)
            assert time.perf_counter() - t0 < 20.0, "lost cancel hit the watchdog"
            assert handle.state in (RunState.CANCELLED, RunState.DONE)
            # The session must still serve jobs afterwards.
            again = session.submit(AllPairs(keys[:5]))
            assert again.result(timeout=60.0).is_complete()
        finally:
            session.close()

    def test_cluster_runs_lambda_filter(self):
        """Only the evaluated pair set travels to the worker processes,
        so a lambda predicate runs on the cluster, value-identical to
        the local backend."""
        store, keys = make_store(8)
        accept = lambda a, b: (int(a[-2:]) * int(b[-2:])) % 3 != 1  # noqa: E731
        local = make_rocket("local", store).run(FilteredPairs(keys, accept))
        session = make_rocket("cluster", store).session()
        try:
            matrix = session.submit(FilteredPairs(keys, accept)).result(timeout=60.0)
        finally:
            session.close()
        assert matrix.is_complete()
        assert sorted(matrix.items()) == sorted(local.items())
        assert {(a, b) for a, b, _ in matrix.items()} == {
            (a, b) for i, a in enumerate(keys) for b in keys[i + 1 :] if accept(a, b)
        }

    def test_cluster_rejects_unpicklable_key(self):
        class LocalKey(str):  # a class local to a function cannot pickle
            pass

        store, keys = make_store(6)
        session = make_rocket("cluster", store).session()
        try:
            with pytest.raises(ValueError, match="picklable"):
                session.submit(AllPairs([LocalKey(k) for k in keys]))
        finally:
            session.close()

    def test_cluster_failed_startup_leaks_nothing(self):
        """A session whose processes cannot even start must clean up.

        Under the "spawn" start method an unpicklable application makes
        ``Process.start()`` raise inside ``Rocket.session()``; the
        half-built session is unreachable, so the constructor itself
        must unlink the fabric's segments and kill started processes.
        """
        store, keys = make_store(6)
        app = SumApp()
        app.poison = threading.Lock()  # unpicklable under spawn
        before = shm_segments()
        rocket = Rocket(
            app, store, RocketConfig(**dict(CFG, watchdog_seconds=30.0)),
            backend="cluster",
            cluster=ClusterConfig(n_nodes=2, start_method="spawn", transport="shm"),
        )
        with pytest.raises(Exception):
            rocket.session()
        time.sleep(0.2)
        assert shm_segments() == before
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("rocket-node")]

    def test_cluster_one_shot_run_with_workload(self):
        store, keys = make_store(8)
        rocket = make_rocket("cluster", store)
        results = rocket.run(Bipartite(keys[:3], keys[3:]))
        assert results.is_complete()
        assert len(results) == 15
        assert rocket.last_stats.n_pairs == 15


class TestOneShotEngineSizing:
    """A one-shot run sizes its engine's cache slots by its workload; a
    session, which may run larger jobs later, takes the configured slots."""

    def test_run_passes_the_item_count_and_session_passes_none(self, monkeypatch):
        hints = []
        init = NodeEngine.__init__

        def recording_init(self, config, **kwargs):
            hints.append(kwargs.get("capacity_hint"))
            init(self, config, **kwargs)

        monkeypatch.setattr(NodeEngine, "__init__", recording_init)
        store, keys = make_store(10)
        rocket = Rocket(SumApp(), store, RocketConfig(**CFG))
        assert rocket.run(keys).is_complete()
        assert hints == [10]
        with rocket.session() as session:
            assert session.run(keys).is_complete()
        assert hints == [10, None]
