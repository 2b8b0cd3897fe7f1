"""Chaos suite for live membership and fault-tolerant recovery.

Kills real worker processes (SIGKILL — no cleanup, no goodbye) before,
during and after a job, joins and retires nodes on a live session, and
races cancellation against node death, asserting the invariants every
cluster session promises: a completed job's ResultMatrix is
value-identical to an undisturbed run with every pair delivered exactly
once, losing the last node ends in one clean error, and nothing — child
process, cache pin, ``/dev/shm`` segment — is left behind, on both
transports.
"""

import glob
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cache.distributed import CandidateDirectory, mediator_of_live
from repro.core.api import Application
from repro.core.rocket import Rocket
from repro.core.session import RunState
from repro.core.workload import AllPairs
from repro.data.filestore import InMemoryStore
from repro.runtime.cluster import ClusterConfig, NodeCommServer
from repro.runtime.cluster import node as cluster_node
from repro.runtime.localrocket import RocketConfig
from repro.runtime.transport.shm import SharedMemoryFabric
from repro.scheduling.workstealing import VictimSelector, WorkerTopology
from repro.util.rng import RngFactory


def shm_segments():
    """Names of this transport's segments currently visible in /dev/shm."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("/dev/shm not available on this platform")
    return set(glob.glob(f"/dev/shm/{SharedMemoryFabric.SEGMENT_PREFIX}*"))


class SlowSumApp(Application[str, float]):
    """Deterministic toy app, slowed so kills land mid-job reliably."""

    compare_delay = 0.004

    def file_name(self, key):
        return f"{key}.bin"

    def parse(self, key, file_contents):
        return np.frombuffer(file_contents, dtype=np.float64).copy()

    def preprocess(self, key, parsed):
        return parsed * 2.0

    def compare(self, key_a, a, key_b, b):
        if self.compare_delay:
            time.sleep(self.compare_delay)
        return np.asarray(float(a.sum() * b.sum()))

    def postprocess(self, key_a, key_b, raw):
        return float(raw)


def make_store(n, floats=8):
    store = InMemoryStore()
    keys = []
    for i in range(n):
        key = f"item{i:02d}"
        store.write(f"{key}.bin", np.full(floats, float(i + 1)).tobytes())
        keys.append(key)
    return store, keys


CFG = dict(
    n_devices=2,
    device_cache_slots=8,
    host_cache_slots=16,
    leaf_size=2,
    seed=11,
    watchdog_seconds=120.0,
)


def cluster_cfg(transport, n_nodes=3, **kw):
    kw.setdefault("fetch_timeout", 15.0)
    kw.setdefault("steal_timeout", 5.0)
    # Small batches: a job streams its first pair early, so an action
    # triggered on it lands mid-job.
    kw.setdefault("result_batch", 4)
    return ClusterConfig(n_nodes=n_nodes, transport=transport, **kw)


def wait_for(predicate, timeout=30.0):
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, "condition never held"
        time.sleep(0.002)


def mid_job(handle):
    """Return once ``handle`` has streamed its first pair; assert it is not done.

    Chaos actions are triggered on this event rather than after a sleep:
    a job may finish inside any fixed sleep.
    """
    wait_for(lambda: handle.progress()[0] > 0)
    done, total = handle.progress()
    assert done < total


def kill_mid_job(session, handle, nodes):
    mid_job(handle)
    for node in nodes:
        os.kill(session._procs[node].pid, signal.SIGKILL)


def local_baseline(keys, store):
    app = SlowSumApp()
    app.compare_delay = 0.0
    rocket = Rocket(app, store, RocketConfig(**CFG))
    return rocket.run(keys)


def assert_parity(results, baseline):
    assert results.is_complete()
    for a, b, v in baseline.items():
        assert results.get(a, b) == v  # bit-identical: pure pipelines


# ----------------------------------------------------------------------
# Unit layer: the membership building blocks


class TestElasticPrimitives:
    def test_mediator_of_live_spans_sparse_sets(self):
        live = [0, 2, 5]
        mediators = {mediator_of_live(i, live) for i in range(12)}
        assert mediators == set(live)  # every live node mediates
        # Deterministic: same inputs, same mediator, any call order.
        assert mediator_of_live(7, [5, 0, 2]) == mediator_of_live(7, live)

    def test_mediator_of_live_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            mediator_of_live(0, [])
        with pytest.raises(ValueError):
            mediator_of_live(-1, [0, 1])

    def test_directory_evict_node_drops_every_candidate_entry(self):
        d = CandidateDirectory(max_candidates=3)
        d.lookup_and_record("a", 1)
        d.lookup_and_record("a", 2)
        d.lookup_and_record("b", 1)
        assert d.evict_node(1) == 2
        assert d.peek("a") == [2]
        assert d.peek("b") == []
        assert d.evict_node(1) == 0  # idempotent

    def test_victim_selector_exclude_filters_every_tier(self):
        topo = WorkerTopology.from_gpus_per_node([2, 2, 2])
        sel = VictimSelector(topo, RngFactory(3).get("t"))
        full = set(sel.candidates(0))
        drop = {2, 3}  # node 1's workers
        filtered = set(sel.candidates(0, exclude=drop))
        assert filtered == full - drop
        assert set(sel.candidates(0, exclude=full)) == set()

    def test_cluster_config_capacity(self):
        assert ClusterConfig(n_nodes=2).capacity == 6  # four joinable slots
        assert ClusterConfig(n_nodes=2, max_nodes=3).capacity == 3
        with pytest.raises(ValueError):
            ClusterConfig(n_nodes=4, max_nodes=2)
        with pytest.raises(TypeError):  # membership has one mode, no switch
            ClusterConfig(n_nodes=2, elastic=True)

    def test_plain_session_supports_membership_calls(self):
        store, keys = make_store(6)
        rocket = Rocket(
            SlowSumApp(), store, RocketConfig(**CFG),
            backend="cluster", cluster=ClusterConfig(n_nodes=2),
        )
        with rocket.session() as session:
            assert session.add_node() == 2
            assert session.retire_node() == 2
            assert session._live == {0, 1}
            assert_parity(
                session.submit(AllPairs(keys)).result(), local_baseline(keys, store)
            )


# ----------------------------------------------------------------------
# Chaos layer: real process kills on live sessions


class TestNodeLossRecovery:
    @pytest.mark.parametrize("transport", ["queue", "shm"])
    def test_kill_one_node_mid_job_preserves_results(self, transport):
        store, keys = make_store(14)
        baseline = local_baseline(keys, store)
        before = shm_segments() if transport == "shm" else None

        rocket = Rocket(
            SlowSumApp(), store, RocketConfig(**CFG),
            backend="cluster", cluster=cluster_cfg(transport),
        )
        session = rocket.session()
        try:
            handle = session.submit(AllPairs(keys))
            kill_mid_job(session, handle, [1])
            results = handle.result()
            assert_parity(results, baseline)
            # The job cannot resolve while node 1 owes its report, and a
            # dead node never sends one: it was evicted first.
            assert 1 not in session._live
            # The session survives: a follow-up job runs on the others.
            again = session.submit(AllPairs(keys)).result()
            assert_parity(again, baseline)
            if transport == "shm":
                # The dead node's segment is unlinked at forgiveness
                # time, not held until close.
                time.sleep(0.2)
                leaked = {s for s in shm_segments() if s.endswith("_n1")}
                assert not leaked
        finally:
            session.close()
        if transport == "shm":
            assert shm_segments() == before  # nothing leaks past close

    def test_kill_is_accounted_on_the_job(self):
        store, keys = make_store(14)
        baseline = local_baseline(keys, store)
        rocket = Rocket(
            SlowSumApp(), store, RocketConfig(**CFG),
            backend="cluster", cluster=cluster_cfg("queue"),
        )
        with rocket.session() as session:
            handle = session.submit(AllPairs(keys))
            # Node 0 holds the initial share: killed this early it still
            # owns unfinished blocks, so the loss is handled mid-job.
            kill_mid_job(session, handle, [0])
            results = handle.result()
            assert_parity(results, baseline)
            acct = handle.accounting
            assert acct.nodes_lost == 1
            assert acct.pairs_recovered >= 0
            record = acct.to_dict()
            assert record["nodes_lost"] == 1

    def test_losing_every_node_is_still_fatal(self):
        store, keys = make_store(10)
        rocket = Rocket(
            SlowSumApp(), store, RocketConfig(**CFG),
            backend="cluster", cluster=cluster_cfg("queue", n_nodes=2),
        )
        session = rocket.session()
        try:
            handle = session.submit(AllPairs(keys))
            kill_mid_job(session, handle, range(len(session._procs)))
            with pytest.raises(RuntimeError):
                handle.result()
        finally:
            session.close()

    def test_cancel_racing_a_node_death_resolves_cleanly(self):
        store, keys = make_store(14)
        rocket = Rocket(
            SlowSumApp(), store, RocketConfig(**CFG),
            backend="cluster", cluster=cluster_cfg("queue"),
        )
        with rocket.session() as session:
            handle = session.submit(AllPairs(keys))
            kill_mid_job(session, handle, [1])
            handle.cancel()
            assert handle.wait(timeout=60.0)
            assert handle.state in (RunState.CANCELLED, RunState.DONE)
            # The survivors keep serving.
            baseline = local_baseline(keys, store)
            assert_parity(session.submit(AllPairs(keys)).result(), baseline)


#: Kill points of the death matrix, relative to the job's life.
BEFORE_FIRST_RESULT = "before-first-result"
MID_JOB = "mid-job"
AFTER_STOP = "after-stop-broadcast"


class TestDeathMatrix:
    """Kill point x survivors x transport, one set of invariants."""

    #: How long a node sits between its job's end and its stats report
    #: — the window the after-stop kills land in.
    REPORT_DELAY = 0.8

    @pytest.fixture
    def node_probes(self, monkeypatch, tmp_path):
        """Instrument the (forked) node processes; returns the pin log reader.

        Every node appends the pins its pipeline still holds when a job
        ends on it, and delays its stats report so a kill can land
        between the stop broadcast and the report.
        """
        log = tmp_path / "held_pins.log"
        retire, ship_stats = cluster_node._retire, NodeCommServer.ship_stats
        delay = self.REPORT_DELAY

        def logging_retire(comm, state, finished):
            retire(comm, state, finished)  # joined, reported, ended
            with open(log, "a") as fh:
                fh.write(f"{state.pipeline.held_pins}\n")

        def slow_ship_stats(comm, state, stats):
            time.sleep(delay)
            ship_stats(comm, state, stats)

        monkeypatch.setattr(cluster_node, "_retire", logging_retire)
        monkeypatch.setattr(NodeCommServer, "ship_stats", slow_ship_stats)
        return lambda: [int(x) for x in log.read_text().split()] if log.exists() else []

    @pytest.mark.parametrize("transport", ["queue", "shm"])
    @pytest.mark.parametrize("survivors", [1, 0])
    @pytest.mark.parametrize("kill_at", [BEFORE_FIRST_RESULT, MID_JOB, AFTER_STOP])
    def test_node_death(self, kill_at, survivors, transport, node_probes):
        store, keys = make_store(12)
        baseline = local_baseline(keys, store)
        total = len(keys) * (len(keys) - 1) // 2
        before = shm_segments()
        rocket = Rocket(
            SlowSumApp(), store, RocketConfig(**CFG),
            backend="cluster", cluster=cluster_cfg(transport, n_nodes=2),
        )
        session = rocket.session()
        streamed, stream_error = [], []

        def consume(handle):
            try:
                streamed.extend(handle.stream())
            except RuntimeError as exc:
                stream_error.append(exc)

        try:
            handle = session.submit(AllPairs(keys))
            queued = session.submit(AllPairs(keys))  # FIFO: waits behind it
            consumer = threading.Thread(target=consume, args=(handle,), daemon=True)
            consumer.start()
            if kill_at == BEFORE_FIRST_RESULT:
                assert handle.progress()[0] == 0
            elif kill_at == MID_JOB:
                wait_for(lambda: handle.progress()[0] >= 10)
                assert handle.progress()[0] < total
            else:
                # All pairs in: the stop broadcast is out and the nodes
                # are sitting on their stats reports.
                wait_for(lambda: handle.progress()[0] == total)
                assert not handle.done()
            # Node 0 holds the whole initial share: the harder victim.
            victims = [0] if survivors else [0, 1]
            for node in victims:
                os.kill(session._procs[node].pid, signal.SIGKILL)

            assert handle.wait(timeout=60.0) and queued.wait(timeout=60.0)
            consumer.join(timeout=10.0)
            assert not consumer.is_alive()
            clean_error = (
                r"session is dead: no live node remains: "
                r"node 0 died \(exit code -9\), node 1 died \(exit code -9\)"
            )
            if survivors or kill_at == AFTER_STOP:
                # Completed: value-identical, every pair exactly once.
                assert_parity(handle.result(), baseline)
                assert handle.progress() == (total, total)
                assert handle.accounting.pairs_completed == total
                assert len(streamed) == total
                assert len({(a, b) for a, b, _ in streamed}) == total
            else:
                with pytest.raises(RuntimeError, match=clean_error):
                    handle.result()
                assert stream_error  # the stream ends with the error too
                assert len({(a, b) for a, b, _ in streamed}) == len(streamed)
            if survivors:
                assert session._live == {1}
                assert_parity(queued.result(), baseline)
            else:
                # The last node is gone: one error for the queued job
                # and for every later submission.
                with pytest.raises(RuntimeError, match=clean_error):
                    queued.result()
                with pytest.raises(RuntimeError, match="no live node remains"):
                    session.submit(AllPairs(keys))
        finally:
            session.close()
        assert all(not p.is_alive() for p in session._procs)
        assert shm_segments() == before
        # Every job that ended on a node that lived to see it end had
        # handed all its device-cache pins back.
        held = node_probes()
        assert all(n == 0 for n in held), held
        if survivors:
            assert len(held) >= 2  # the survivor ended both jobs


class TestMembership:
    @pytest.mark.parametrize("transport", ["queue", "shm"])
    def test_join_mid_job_participates(self, transport):
        store, keys = make_store(20)  # long enough to outlast the fork
        baseline = local_baseline(keys, store)
        rocket = Rocket(
            SlowSumApp(), store, RocketConfig(**CFG),
            backend="cluster", cluster=cluster_cfg(transport, n_nodes=2),
        )
        with rocket.session() as session:
            handle = session.submit(AllPairs(keys))
            mid_job(handle)
            new = session.add_node()
            assert new == 2
            assert new in session._live
            results = handle.result()
            assert_parity(results, baseline)
            # The joiner was enrolled as a participant of the running
            # job (its stats report is part of the job's aggregate).
            assert handle.stats.n_nodes == 3
            # And it serves jobs submitted after the join.
            h2 = session.submit(AllPairs(keys))
            assert_parity(h2.result(), baseline)
            assert h2.stats.n_nodes == 3

    def test_add_node_beyond_capacity_fails_cleanly(self):
        store, keys = make_store(6)
        rocket = Rocket(
            SlowSumApp(), store, RocketConfig(**CFG),
            backend="cluster", cluster=cluster_cfg("queue", n_nodes=2, max_nodes=3),
        )
        with rocket.session() as session:
            assert session.add_node() == 2
            with pytest.raises(RuntimeError, match="capacity"):
                session.add_node()
            baseline = local_baseline(keys, store)
            assert_parity(session.submit(AllPairs(keys)).result(), baseline)

    @pytest.mark.parametrize("transport", ["queue", "shm"])
    def test_retire_with_drain_loses_no_pairs(self, transport):
        store, keys = make_store(14)
        baseline = local_baseline(keys, store)
        rocket = Rocket(
            SlowSumApp(), store, RocketConfig(**CFG),
            backend="cluster", cluster=cluster_cfg(transport),
        )
        with rocket.session() as session:
            handle = session.submit(AllPairs(keys))
            mid_job(handle)
            gone = session.retire_node()
            assert gone == 2
            assert gone not in session._live
            assert not session._procs[gone].is_alive()
            results = handle.result()
            assert_parity(results, baseline)
            # Voluntary departure is not a "lost" node.
            assert handle.accounting.nodes_lost == 0
            assert_parity(session.submit(AllPairs(keys)).result(), baseline)

    def test_retiring_the_last_node_is_refused(self):
        store, keys = make_store(4)
        rocket = Rocket(
            SlowSumApp(), store, RocketConfig(**CFG),
            backend="cluster", cluster=cluster_cfg("queue", n_nodes=2),
        )
        with rocket.session() as session:
            session.retire_node(0)
            with pytest.raises(RuntimeError, match="last live node"):
                session.retire_node()

    def test_churn_kill_and_join_same_job(self):
        store, keys = make_store(20)  # long enough to outlast the fork
        baseline = local_baseline(keys, store)
        rocket = Rocket(
            SlowSumApp(), store, RocketConfig(**CFG),
            backend="cluster", cluster=cluster_cfg("queue", n_nodes=2),
        )
        with rocket.session() as session:
            handle = session.submit(AllPairs(keys))
            mid_job(handle)
            new = session.add_node()
            kill_mid_job(session, handle, [0])
            results = handle.result()
            assert_parity(results, baseline)
            assert session._live == {1, new}


# ----------------------------------------------------------------------
# close() vs QUEUED handles (hang regression, both backends)


class TestCloseResolvesQueuedHandles:
    def test_cluster_close_resolves_queued_jobs(self):
        store, keys = make_store(10)
        rocket = Rocket(
            SlowSumApp(), store, RocketConfig(**CFG),
            backend="cluster", cluster=cluster_cfg("queue", n_nodes=2),
        )
        session = rocket.session()  # FIFO: later jobs queue
        handles = [session.submit(AllPairs(keys)) for _ in range(4)]
        session.close()
        for handle in handles:
            assert handle.wait(timeout=30.0)  # must never hang
            assert handle.state in (
                RunState.CANCELLED, RunState.DONE, RunState.FAILED,
            )

    def test_local_close_resolves_queued_jobs(self):
        store, keys = make_store(10)
        app = SlowSumApp()
        rocket = Rocket(app, store, RocketConfig(**CFG))
        session = rocket.session()
        handles = [session.submit(AllPairs(keys)) for _ in range(4)]
        session.close()
        for handle in handles:
            assert handle.wait(timeout=30.0)
            assert handle.state in (
                RunState.CANCELLED, RunState.DONE, RunState.FAILED,
            )
