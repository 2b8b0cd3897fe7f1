"""Tests for the multi-process cluster runtime and its protocols.

Two layers:

- protocol unit tests drive :class:`NodeCommServer` handlers over a
  synchronous in-process transport (no OS processes), which makes
  churn scenarios — holders evicting items between the mediator
  forward and the fetch — deterministic;
- end-to-end tests spawn real worker processes and check that the
  cluster backend produces results identical to the local backend
  under **both** data planes (queue and shared-memory), that remote
  cache hits genuinely travel over the transport, and that failures
  (application errors, node crashes) surface as clean errors instead
  of hangs — without leaking ``/dev/shm`` segments.
"""

import functools
import glob
import os
import threading
import time

import numpy as np
import pytest

from repro.apps import ForensicsApplication
from repro.cache.distributed import mediator_of
from repro.core.api import Application
from repro.core.rocket import Rocket
from repro.core.session import RunState
from repro.core.workload import AllPairs, Bipartite, FilteredPairs
from repro.data import make_forensics_dataset
from repro.data.filestore import InMemoryStore
from repro.runtime.cluster import ClusterConfig, NodeCommServer
from repro.runtime.cluster import node as cluster_node
from repro.runtime.localrocket import RocketConfig
from repro.runtime.pernode import NodeEngine, NodePipeline
from repro.runtime.stats import NodeStats
from repro.runtime.transport import Transport
from repro.runtime.transport.shm import SharedMemoryFabric
from repro.scheduling.quadtree import PairBlock
from repro.util.trace import TraceRecorder

from tests.test_elastic import wait_for


def shm_segments():
    """Names of this transport's segments currently visible in /dev/shm."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("/dev/shm not available on this platform")
    return set(glob.glob(f"/dev/shm/{SharedMemoryFabric.SEGMENT_PREFIX}*"))


class SumApp(Application[str, float]):
    """Deterministic toy app: compare = sum(a) * sum(b)."""

    def file_name(self, key):
        return f"{key}.bin"

    def parse(self, key, file_contents):
        return np.frombuffer(file_contents, dtype=np.float64).copy()

    def preprocess(self, key, parsed):
        return parsed * 2.0

    def compare(self, key_a, a, key_b, b):
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


def cols(pairs, values):
    """``(i, j, values)`` columns of a list of ``(i, j)`` pairs and their values."""
    index = np.asarray(pairs, dtype=np.int32).reshape(-1, 2)
    return index[:, 0], index[:, 1], np.asarray(values, dtype=np.float64)


def triples(block):
    """The ``(i, j, value)`` triples of a shipped result block."""
    i, j, values = block
    return list(zip(i.tolist(), j.tolist(), values.tolist()))


def accept_pair(a, b):
    """Module-level pair filter (inherited by forked workers)."""
    return (int(a[-2:]) + int(b[-2:])) % 3 != 0


# ----------------------------------------------------------------------
# Protocol unit tests (synchronous in-process transport)


class SyncNet:
    """Delivers node-to-node messages synchronously; collects coordinator traffic."""

    def __init__(self):
        self.servers = {}
        self.coordinator_log = []

    def transport_for(self, node):
        return _SyncTransport(self, node)


class _SyncTransport(Transport):
    """Inherits the inline payload plane; messaging is synchronous."""

    def __init__(self, net, node_id):
        super().__init__(node_id)
        self.net = net

    def send_node(self, node, msg):
        self.net.servers[node].handle(msg)

    def send_coordinator(self, msg):
        self.net.coordinator_log.append(msg)

    def recv(self, timeout):
        return None


class StubPipeline:
    """Just enough pipeline surface for the comm server and the node driver."""

    def __init__(self, payloads=None):
        self.payloads = dict(payloads or {})
        self.injected = []
        self.stopped = None
        self.started = False
        self.errors = []
        self.trace = TraceRecorder(enabled=False)
        #: What ``has_queued_work`` and ``in_flight`` report (the result
        #: flush rule reads both).
        self.queued = False
        self.pairs_in_flight = 0

    def start(self):
        self.started = True

    def wait(self, timeout):
        return self.stopped is not None

    def join(self, timeout):
        pass

    def close(self):
        pass

    def stats(self):
        return NodeStats()

    def has_queued_work(self):
        return self.queued

    def in_flight(self):
        return self.pairs_in_flight

    def host_payload_view(self, key):
        return self.payloads.get(key)

    def steal_for_remote(self):
        return None

    def inject_block(self, block):
        self.injected.append(block)

    def request_stop(self, abort=False):
        self.stopped = abort


JOB = 0  # protocol job id used by the unit-test network


def stub_pipelines(payloads_by_node=None):
    """A pipeline factory handing each node a :class:`StubPipeline`."""

    def make(comm, state, pair_filter, blocks, max_inflight):
        return StubPipeline((payloads_by_node or {}).get(comm.node_id, {}))

    return make


def hand_out(server, job_id, keys, blocks=()):
    """Deliver one ``("job", ...)`` hand-out; return the job's registered state."""
    server.handle(("job", job_id, (list(keys), None, list(blocks)), None))
    return server._job_state(job_id)


def make_net(n_nodes, keys, payloads_by_node, max_hops=2, **cluster):
    net = SyncNet()
    cfg = ClusterConfig(
        n_nodes=n_nodes, max_hops=max_hops, fetch_timeout=1.0, steal_timeout=0.2, **cluster
    )
    net.states = {}
    for node_id in range(n_nodes):
        net.servers[node_id] = NodeCommServer(
            node_id, cfg, net.transport_for(node_id), stub_pipelines(payloads_by_node)
        )
    for node_id, server in net.servers.items():
        net.states[node_id] = hand_out(server, JOB, keys)
        assert net.states[node_id].pipeline.started
    return net


class TestDistributedCacheProtocol:
    KEYS = [f"k{i}" for i in range(8)]

    def test_first_request_has_no_candidates(self):
        net = make_net(2, self.KEYS, {})
        requester, state = net.servers[0], net.states[0]
        assert requester.remote_fetch(state, 1) is None
        assert state.stats.hop_stats.no_candidates == 1
        assert state.stats.hop_stats.requests == 1

    def test_hit_at_first_hop_ships_payload(self):
        item = 1
        assert mediator_of(item, 2) == 1
        payload = np.arange(6.0)
        net = make_net(2, self.KEYS, {1: {self.KEYS[item]: payload}})
        # Node 1 requested the item earlier, so the mediator (itself)
        # lists it as the candidate for future requests.
        net.servers[1].handle(("creq", JOB, 1, item, 999, 0))
        got = net.servers[0].remote_fetch(net.states[0], item)
        assert got is not None and np.array_equal(got, payload)
        assert net.states[0].stats.hop_stats.hits_at_hop[0] == 1
        assert net.states[0].stats.bytes_received == payload.nbytes
        assert net.states[1].stats.bytes_shipped == payload.nbytes

    def test_holder_evicted_between_forward_and_fetch_is_a_miss(self):
        """Churn: the candidate dropped the item; request falls to a load."""
        item = 1
        net = make_net(2, self.KEYS, {1: {}})  # node 1 holds nothing any more
        net.servers[1].handle(("creq", JOB, 1, item, 999, 0))  # ...but is still listed
        assert net.servers[0].remote_fetch(net.states[0], item) is None
        assert net.states[0].stats.hop_stats.misses == 1
        assert net.states[0].stats.hop_stats.total_hits == 0

    def test_eviction_falls_through_to_next_candidate(self):
        """Churn along the chain: first candidate evicted, second still holds."""
        item = 3
        assert mediator_of(item, 4) == 3
        payload = np.full(4, 7.0)
        net = make_net(
            4,
            self.KEYS,
            {2: {}, 1: {self.KEYS[item]: payload}},  # node 2 evicted, node 1 holds
        )
        mediator = net.servers[3]
        mediator.handle(("creq", JOB, 1, item, 901, 0))  # node 1 requested first
        mediator.handle(("creq", JOB, 2, item, 902, 0))  # node 2 most recent candidate
        got = net.servers[0].remote_fetch(net.states[0], item)
        assert got is not None and np.array_equal(got, payload)
        # Probe visited node 2 (miss) then node 1: a hit at hop 2.
        assert net.states[0].stats.hop_stats.hits_at_hop == [0, 1]

    def test_chain_exhausted_records_miss(self):
        item = 3
        net = make_net(4, self.KEYS, {1: {}, 2: {}})
        mediator = net.servers[3]
        mediator.handle(("creq", JOB, 1, item, 901, 0))
        mediator.handle(("creq", JOB, 2, item, 902, 0))
        assert net.servers[0].remote_fetch(net.states[0], item) is None
        assert net.states[0].stats.hop_stats.misses == 1
        assert net.states[0].stats.hop_stats.no_candidates == 0

    def test_mediator_excludes_requester_from_candidates(self):
        item = 1
        net = make_net(2, self.KEYS, {})
        net.servers[1].handle(("creq", JOB, 0, item, 900, 0))  # only node 0 ever asked
        assert net.servers[0].remote_fetch(net.states[0], item) is None
        # Node 0 must not be forwarded to itself: that is a no-candidate miss.
        assert net.states[0].stats.hop_stats.no_candidates == 2 - 1  # second request, still none

    def test_message_budget_is_h_plus_2(self):
        """A full-chain miss costs exactly h + 2 protocol messages."""
        item = 3
        h = 2
        net = make_net(4, self.KEYS, {1: {}, 2: {}}, max_hops=h)
        mediator = net.servers[3]
        mediator.handle(("creq", JOB, 1, item, 901, 0))
        mediator.handle(("creq", JOB, 2, item, 902, 0))
        before = sum(s.stats.messages for s in net.states.values())
        net.servers[0].remote_fetch(net.states[0], item)
        spent = sum(s.stats.messages for s in net.states.values()) - before
        assert spent == h + 2  # request + h forwards + reply

    def test_unknown_job_request_answered_with_miss(self):
        """A creq for a job this node never began gets a definitive miss
        reply instead of being dropped — the requester must fall through
        to a local load, not block out its fetch timeout."""
        net = make_net(2, self.KEYS, {})
        assert net.servers[0].remote_fetch(net.states[0], 1) is None  # warm-up
        state_other = hand_out(net.servers[0], 99, self.KEYS)
        # Node 1 never began job 99: the mediator answers with a miss.
        assert net.servers[0].remote_fetch(state_other, 1) is None
        assert state_other.stats.hop_stats.misses + state_other.stats.hop_stats.no_candidates >= 1

    def test_node_loss_wakes_a_fetch_parked_on_a_dead_candidate(self):
        """The mediator is alive, the candidate it forwarded to is not:
        the membership update must end the wait, not the fetch timeout."""
        item = 2
        assert mediator_of(item, 3) == 2
        net = make_net(3, self.KEYS, {})
        net.servers[2].handle(("creq", JOB, 1, item, 900, 0))  # node 1 is the candidate
        net.servers[1].handle = lambda msg: None  # ...and died: probes vanish
        requester, state = net.servers[0], net.states[0]
        out = []
        t = threading.Thread(target=lambda: out.append(requester.remote_fetch(state, item)))
        t0 = time.perf_counter()
        t.start()
        time.sleep(0.1)
        assert t.is_alive()  # parked on the dead candidate
        requester.handle(("epoch", 1, (0, 2)))
        t.join(timeout=0.5)
        assert not t.is_alive() and out == [None]
        assert time.perf_counter() - t0 < 0.9  # fetch_timeout is 1.0 s

    def test_late_steal_grant_is_not_lost(self):
        net = make_net(2, self.KEYS, {})
        server = net.servers[0]
        block = PairBlock.root(8)
        server.handle(("sgrant", JOB, 12345, block))  # no pending request: timed out
        assert net.states[0].pipeline.injected == [block]

    def test_steal_grant_for_ended_job_is_dropped(self):
        """A grant tagged with an ended job's id must not be injected
        into another job's pipeline (its index space differs)."""
        net = make_net(2, self.KEYS, {})
        server = net.servers[0]
        server.end_job(net.states[0])
        block = PairBlock.root(8)
        server.handle(("sgrant", JOB, 12345, block))
        assert net.states[0].pipeline.injected == []

    def test_stop_wakes_blocked_steal(self):
        net = make_net(2, self.KEYS, {})
        server, state = net.servers[0], net.states[0]
        out = []
        t = threading.Thread(target=lambda: out.append(server.global_steal(state)))
        t.start()
        # sreq goes to the coordinator log and nobody answers; stop must wake it.
        server.handle(("stop", JOB, False))
        t.join(timeout=2.0)
        assert not t.is_alive() and out == [None]
        assert state.pipeline.stopped is False
        assert state.stopped.is_set()

    def test_stop_of_one_job_leaves_other_running(self):
        """Job isolation: stopping job A resolves only A's pending
        requests and pipeline; co-active job B is untouched."""
        net = make_net(2, self.KEYS, {})
        server = net.servers[0]
        state_a = net.states[0]
        state_b = hand_out(server, 7, self.KEYS)
        server.handle(("stop", JOB, True))
        assert state_a.stopped.is_set() and state_a.pipeline.stopped is True
        assert not state_b.stopped.is_set() and state_b.pipeline.stopped is None


class FakeJobPipeline(StubPipeline):
    """A pipeline that emits one launch while work is still queued, then ends."""

    def __init__(self, comm, state, pair_filter, blocks, max_inflight):
        super().__init__()
        self.emit_block = state.batcher.emit_block
        self.queued = True  # nothing but the job's end ships the launch below

    def start(self):
        self.emit_block(*cols([(0, 1)], [1.0]))

    def wait(self, timeout):
        return True


class WiredStubPipeline(StubPipeline):
    """A :class:`StubPipeline` made by the node's own pipeline factory; keeps the hooks it was given."""

    def __init__(self, app, store, config, keys, **hooks):
        super().__init__()
        self.hooks = hooks


class TestResultFlushRule:
    """A node holds a partial result batch while it has work queued or a launch in flight."""

    KEYS = [f"k{i}" for i in range(8)]

    def node(self, queued):
        net = make_net(2, self.KEYS, {}, result_batch=4)
        net.states[0].pipeline.queued = queued
        return net, net.servers[0], net.states[0]

    @staticmethod
    def sent(net):
        return [(msg[0], len(msg[3][2]) if msg[0] == "results" else None) for msg in net.coordinator_log]

    def test_a_full_batch_ships_while_work_is_queued(self):
        net, _, state = self.node(queued=True)
        state.batcher.emit_block(*cols([(0, 1), (0, 2)], [1.0, 2.0]))
        state.ship_if_idle()
        assert self.sent(net) == []  # more launches are coming: keep batching
        state.batcher.emit_block(*cols([(0, 3), (0, 4), (0, 5)], [3.0, 4.0, 5.0]))
        assert self.sent(net) == [("results", 5)]  # full: shipped whole

    def test_a_launch_that_leaves_the_deques_empty_ships_at_once(self):
        """At once when it is counted complete with no other launch in flight."""
        net, _, state = self.node(queued=False)
        state.batcher.emit_block(*cols([(0, 1)], [1.0]))
        assert self.sent(net) == []  # emitted, not yet counted complete
        state.ship_if_idle()
        assert self.sent(net) == [("results", 1)]

    def test_with_two_launches_in_flight_the_second_completion_ships_both(self, monkeypatch):
        """The hooks the node's pipeline factory wires: deques empty, launches A and B claimed."""
        monkeypatch.setattr(cluster_node, "NodePipeline", WiredStubPipeline)
        net = SyncNet()
        cluster = ClusterConfig(n_nodes=2, result_batch=4)
        factory = functools.partial(
            cluster_node._build_pipeline, SumApp(), InMemoryStore(), RocketConfig(), cluster, None
        )
        server = NodeCommServer(0, cluster, net.transport_for(0), factory)
        pipeline = hand_out(server, JOB, self.KEYS).pipeline
        emit, launch_done = pipeline.hooks["emit_block"], pipeline.hooks.get("on_launch_done")
        pipeline.pairs_in_flight = 2
        emit(*cols([(0, 1)], [1.0]))  # A
        assert self.sent(net) == []  # B is still in flight: it adds to the batch
        pipeline.pairs_in_flight = 1
        launch_done()  # A counted complete
        emit(*cols([(0, 2)], [2.0]))  # B
        assert self.sent(net) == []
        pipeline.pairs_in_flight = 0
        launch_done()  # B counted complete: nothing queued, nothing in flight
        assert self.sent(net) == [("results", 2)]

    def test_the_pipeline_reports_each_launch_after_counting_it_complete(self):
        """One call per launch, never before its results are emitted; the last finds 0 in flight."""
        store, keys = make_store(10)
        emitted, calls = [], []
        lock = threading.Lock()

        def emit_block(i, j, values):
            with lock:
                emitted.extend(values)

        def launch_done():
            with lock:
                calls.append((pipeline.in_flight(), len(emitted)))

        pipeline = NodePipeline(
            SumApp(), store, RocketConfig(n_devices=2, leaf_size=2, watchdog_seconds=60.0),
            keys, emit_block=emit_block, on_launch_done=launch_done,
            expected_pairs=45, initial_blocks=[PairBlock.root(10)],
        )
        pipeline.start()
        try:
            assert pipeline.wait(30.0)
            pipeline.join(timeout=10.0)
        finally:
            pipeline.close()
        assert not pipeline.errors
        assert len(calls) == 45  # SumApp has no compare_block: one pair per launch
        assert all(in_flight >= 0 for in_flight, _ in calls)
        assert all(n_emitted >= k + 1 for k, (_, n_emitted) in enumerate(calls))
        assert calls[-1][0] == 0

    def test_a_steal_request_ships_the_partial_batch_first(self):
        net, server, state = self.node(queued=True)
        state.batcher.emit_block(*cols([(0, 1)], [1.0]))
        assert server.global_steal(state) is None  # nobody answers: steal_timeout
        assert self.sent(net) == [("results", 1), ("sreq", None)]

    def test_job_end_ships_the_partial_batch(self):
        net = SyncNet()
        cluster = ClusterConfig(n_nodes=2, result_batch=4)
        server = NodeCommServer(0, cluster, net.transport_for(0), FakeJobPipeline)
        hand_out(server, JOB, self.KEYS)
        server.handle(("shutdown",))
        cluster_node._drive(server, watchdog=60.0)  # retires the finished job, then returns
        assert self.sent(net) == [("results", 1), ("stats", None)]
        assert server.active_jobs() == []


class TestHandOutOrdering:
    """A job exists from the moment its hand-out is read.

    The coordinator's messages to a node arrive in order, so whatever it
    sends after a job's hand-out — a stop, a recovery grant — finds the
    job registered, with its pipeline started.
    """

    KEYS = [f"k{i}" for i in range(8)]

    def node0(self, make_pipeline=None, **cluster):
        net = SyncNet()
        cfg = ClusterConfig(n_nodes=2, fetch_timeout=1.0, steal_timeout=0.05, **cluster)
        server = NodeCommServer(
            0, cfg, net.transport_for(0), make_pipeline or stub_pipelines()
        )
        net.servers[0] = server
        return net, server

    @staticmethod
    def drive_to_shutdown(server):
        server.handle(("shutdown",))
        cluster_node._drive(server, watchdog=60.0)
        assert server.active_jobs() == []

    def test_a_stop_right_behind_the_hand_out_aborts_the_job_and_reports(self):
        net, server = self.node0()
        state = hand_out(server, JOB, self.KEYS, [PairBlock.root(len(self.KEYS))])
        server.handle(("stop", JOB, True))
        assert state.stopped.is_set() and state.pipeline.stopped is True
        self.drive_to_shutdown(server)
        # Aborted, so no error: just the report the coordinator waits for.
        assert [msg[:3] for msg in net.coordinator_log] == [("stats", 0, JOB)]

    def test_a_recovery_grant_right_behind_a_late_joiners_hand_out_is_run(self):
        n = 6
        store, keys = make_store(n)
        config = RocketConfig(n_devices=1, device_cache_slots=8, host_cache_slots=8, leaf_size=2)
        cluster = dict(distributed_cache=False)
        engine = NodeEngine(config)
        factory = functools.partial(
            cluster_node._build_pipeline, SumApp(), store, config, ClusterConfig(**cluster), engine
        )
        net, server = self.node0(factory, **cluster)
        try:
            # A late joiner's share is empty; its first work is the
            # recovery grant (req_id -1) sent right behind the hand-out.
            hand_out(server, JOB, keys)
            server.handle(("sgrant", JOB, -1, PairBlock.root(n)))

            def delivered():
                return {
                    (i, j): v
                    for msg in list(net.coordinator_log) if msg[0] == "results"
                    for i, j, v in triples(msg[3])
                }

            wait_for(lambda: len(delivered()) == n * (n - 1) // 2, timeout=20.0)
            server.handle(("stop", JOB, False))
            self.drive_to_shutdown(server)
        finally:
            engine.close()
        # sum(item i) = 8 floats of 2 * (i + 1) after preprocessing.
        assert delivered() == {
            (i, j): 256.0 * (i + 1) * (j + 1) for i in range(n) for j in range(i + 1, n)
        }
        assert [msg[0] for msg in net.coordinator_log if msg[0] in ("error", "stats")] == [
            "stats"
        ]

    def test_a_stop_for_a_job_never_received_leaves_no_state(self):
        net, server = self.node0()
        server.handle(("stop", 42, True))
        server.handle(("sgrant", 42, -1, PairBlock.root(len(self.KEYS))))
        assert server.active_jobs() == [] and net.coordinator_log == []
        # Nothing remembers the id: a hand-out under it runs untouched.
        state = hand_out(server, 42, self.KEYS)
        assert not state.stopped.is_set()
        assert state.pipeline.stopped is None and state.pipeline.injected == []

    def test_a_hand_out_that_cannot_be_built_fails_only_its_job(self):
        def broken(comm, state, pair_filter, blocks, max_inflight):
            raise RuntimeError("injected construction fault")

        net, server = self.node0(broken)
        server.handle(("job", JOB, (self.KEYS, None, []), None))
        # A job error (never the node's fatal ``None`` id) and a report.
        assert [msg[:3] for msg in net.coordinator_log] == [
            ("error", 0, JOB), ("stats", 0, JOB)
        ]
        assert "injected construction fault" in net.coordinator_log[0][3]
        assert server.active_jobs() == []
        server.handle(("stop", JOB, True))  # the coordinator's stop finds nothing
        assert server.active_jobs() == [] and len(net.coordinator_log) == 2


class TestNodeDriver:
    """The node's main thread retires jobs; nothing ticks."""

    def test_a_job_past_its_watchdog_is_stopped_and_reported(self):
        net = SyncNet()
        server = NodeCommServer(
            0, ClusterConfig(n_nodes=2), net.transport_for(0), stub_pipelines()
        )
        state = hand_out(server, JOB, [f"k{i}" for i in range(4)])
        driver = threading.Thread(target=cluster_node._drive, args=(server, 0.3))
        t0 = time.perf_counter()
        driver.start()
        # No message arrives: the driver wakes at the job's deadline.
        wait_for(lambda: server.active_jobs() == [], timeout=5.0)
        waited = time.perf_counter() - t0
        server.handle(("shutdown",))
        driver.join(timeout=5.0)
        assert not driver.is_alive()
        assert 0.2 <= waited < 2.0
        assert state.pipeline.stopped is True  # aborted, not left running
        assert [msg[:3] for msg in net.coordinator_log] == [("error", 0, JOB), ("stats", 0, JOB)]
        assert net.coordinator_log[0][3] == "node watchdog expired"


# ----------------------------------------------------------------------
# End-to-end multi-process tests


class FirstJobFailsPipeline(NodePipeline):
    """A node pipeline whose first construction in each process raises."""

    failed = False

    def __init__(self, *args, **kwargs):
        if not FirstJobFailsPipeline.failed:
            FirstJobFailsPipeline.failed = True  # in the forked node only
            raise RuntimeError("injected construction fault")
        super().__init__(*args, **kwargs)


def run_local(keys, store, **cfg):
    rocket = Rocket(SumApp(), store, RocketConfig(**cfg))
    return rocket.run(keys)


class TestClusterRuntime:
    CFG = dict(
        n_devices=1,
        device_cache_slots=8,
        host_cache_slots=16,
        leaf_size=2,
        seed=3,
        watchdog_seconds=120.0,
    )

    #: Pre-processed payload size of the end-to-end runs (4096 float64).
    PAYLOAD_BYTES = 4096 * 8

    @pytest.mark.parametrize("transport", ["queue", "shm"])
    def test_matches_local_backend_and_hits_over_the_wire(self, transport):
        store, keys = make_store(12, floats=4096)
        local = run_local(keys, store, **self.CFG)
        before = shm_segments() if transport == "shm" else None

        rocket = Rocket(
            SumApp(),
            store,
            RocketConfig(**self.CFG),
            backend="cluster", cluster=ClusterConfig(
                n_nodes=2, fetch_timeout=20.0, steal_timeout=5.0,
                transport=transport, result_batch=8,
            ),
        )
        results = rocket.run(keys)
        assert results.is_complete()
        for a, b, v in local.items():
            assert results.get(a, b) == v  # bit-identical: pure pipelines

        stats = rocket.last_stats
        assert stats is not None
        assert stats.transport == transport
        assert stats.n_pairs == 66 and stats.n_nodes == 2
        assert len(stats.node_stats) == 2
        assert sum(sum(ns.pairs_per_device.values()) for ns in stats.node_stats) == 66
        # What the distributed-cache protocol guarantees, whatever the
        # schedule: with a peer alive every host-cache miss asks the
        # item's mediator before it loads, so each item some node
        # needed is either a load or a remote hit on that node — and
        # the 16 host slots never evict one of the 12 items.  Whether
        # any request *hits* is timing (node 1 must steal work whose
        # items node 0 has already published), so it is not asserted.
        hits = stats.hop_stats.total_hits
        assert stats.hop_stats.requests == stats.loads + hits
        assert 12 <= stats.loads and stats.loads + hits <= 2 * 12
        assert stats.messages >= stats.hop_stats.requests + 2
        # Batching: far fewer result messages than pairs.
        assert stats.message_kinds["result"] < stats.n_pairs
        assert sum(stats.message_kinds.values()) == stats.messages
        if transport == "shm":
            # Descriptors, not payloads, on the wire — and every
            # segment unlinked at run end.
            assert stats.bytes_over_wire <= hits * 1024
            assert shm_segments() == before
        else:
            # Inline shipping pays the full payload per remote hit.
            assert stats.bytes_over_wire >= hits * self.PAYLOAD_BYTES
        assert "remote hits" in stats.summary()
        assert transport in stats.summary()

    def test_single_node_cluster(self):
        store, keys = make_store(8)
        rocket = Rocket(
            SumApp(), store, RocketConfig(**self.CFG), backend="cluster",
            cluster=ClusterConfig(n_nodes=1)
        )
        results = rocket.run(keys)
        assert results.is_complete()
        assert rocket.last_stats.hop_stats.requests == 0

    @pytest.mark.parametrize("transport", ["queue", "shm"])
    def test_three_nodes_with_tight_caches_survive_churn(self, transport):
        """Constant eviction: remote requests miss, loads re-run, results hold."""
        cfg = dict(self.CFG, device_cache_slots=3, host_cache_slots=4)
        store, keys = make_store(10)
        local = run_local(keys, store, **cfg)
        rocket = Rocket(
            SumApp(),
            store,
            RocketConfig(**cfg),
            backend="cluster", cluster=ClusterConfig(
                n_nodes=3, fetch_timeout=20.0, steal_timeout=5.0, transport=transport
            ),
        )
        results = rocket.run(keys)
        assert results.is_complete()
        for a, b, v in local.items():
            assert results.get(a, b) == v
        stats = rocket.last_stats
        assert stats.hop_stats.requests > 0
        # With 4 host slots for 10 items, some requests must fail and
        # fall through to local loads.
        assert stats.hop_stats.misses + stats.hop_stats.no_candidates >= 1
        assert stats.loads >= 10

    def test_heterogeneous_nodes_speed_policy(self):
        """Per-node speed mixes: parity holds, shares track node speed."""
        from repro.scheduling.workstealing import StealPolicy

        store, keys = make_store(10)
        local = run_local(keys, store, **self.CFG)
        rocket = Rocket(
            SumApp(),
            store,
            RocketConfig(**dict(self.CFG, steal_policy=StealPolicy.SPEED)),
            backend="cluster", cluster=ClusterConfig(
                n_nodes=2,
                fetch_timeout=20.0,
                steal_timeout=5.0,
                node_speed_factors=((1.0,), (0.25,)),
            ),
        )
        results = rocket.run(keys)
        assert results.is_complete()
        for a, b, v in local.items():
            assert results.get(a, b) == v
        stats = rocket.last_stats
        assert stats.aggregate_speed == pytest.approx(1.25)
        assert stats.node_stats[0].aggregate_speed == pytest.approx(1.0)
        assert stats.node_stats[1].aggregate_speed == pytest.approx(0.25)
        # Online calibration ran on every node and fed the live model.
        assert stats.calibration is not None
        assert stats.calibration.cmp_count == stats.n_pairs
        assert stats.predicted_runtime > 0
        assert "model: predicted" in stats.summary()

    def test_node_speed_factor_validation(self):
        store, keys = make_store(4)
        with pytest.raises(ValueError, match="speed-factor tuples"):
            ClusterConfig(n_nodes=2, node_speed_factors=((1.0,),))
        with pytest.raises(ValueError, match=r"must be in \(0, 1\]"):
            ClusterConfig(n_nodes=2, node_speed_factors=((1.0,), (0.0,)))
        with pytest.raises(ValueError, match=r"must be in \(0, 1\]"):
            ClusterConfig(n_nodes=2, node_speed_factors=((1.0,), (2.0,)))
        with pytest.raises(ValueError, match="speed factors for"):
            Rocket(
                SumApp(),
                store,
                RocketConfig(n_devices=2),
                backend="cluster",
                cluster=ClusterConfig(n_nodes=2, node_speed_factors=((1.0,), (0.5,))),
            )

    def test_pair_filter(self):
        store, keys = make_store(9)
        local = run_local(keys, store, **self.CFG)  # unfiltered sanity baseline
        assert local.is_complete()
        rocket = Rocket(
            SumApp(), store, RocketConfig(**self.CFG), backend="cluster",
            cluster=ClusterConfig(n_nodes=2)
        )
        results = rocket.run(FilteredPairs(keys, accept_pair))
        expected = [
            (a, b) for i, a in enumerate(keys) for b in keys[i + 1:] if accept_pair(a, b)
        ]
        assert len(results) == len(expected)
        for a, b in expected:
            assert results.get(a, b) == local.get(a, b)

    def test_application_error_propagates_cleanly(self):
        class BadApp(SumApp):
            def parse(self, key, file_contents):
                if key == "item02":
                    raise ValueError(f"corrupt file for {key}")
                return super().parse(key, file_contents)

        store, keys = make_store(6)
        rocket = Rocket(
            BadApp(),
            store,
            RocketConfig(**dict(self.CFG, watchdog_seconds=60.0)),
            backend="cluster", cluster=ClusterConfig(n_nodes=2),
        )
        with pytest.raises(RuntimeError, match="ValueError: corrupt file"):
            rocket.run(keys)

    def test_a_job_that_cannot_start_on_its_nodes_fails_alone(self, monkeypatch):
        """A node-side failure outside the pipeline fails that job at
        once, and the session keeps serving: the node still ships the
        job's report, so the coordinator never runs out the report
        deadline and declares the whole session dead."""
        monkeypatch.setattr(cluster_node, "NodePipeline", FirstJobFailsPipeline)
        store, keys = make_store(6)
        rocket = Rocket(
            SumApp(), store, RocketConfig(**self.CFG), backend="cluster",
            cluster=ClusterConfig(n_nodes=2)
        )
        with rocket.session() as session:
            first = session.submit(AllPairs(keys))
            assert first.wait(timeout=5.0), "the failed job waited out the report deadline"
            assert first.state is RunState.FAILED
            with pytest.raises(RuntimeError, match="injected construction fault"):
                first.result()
            second = session.submit(AllPairs(keys))
            assert second.wait(timeout=60.0) and second.state is RunState.DONE
            local = run_local(keys, store, **self.CFG)
            results = second.result()
            for a, b, v in local.items():
                assert results.get(a, b) == v

    @pytest.mark.parametrize("transport", ["queue", "shm"])
    def test_node_crash_surfaces_as_clean_error(self, transport):
        class CrashApp(SumApp):
            def parse(self, key, file_contents):
                if key == "item03":
                    os._exit(3)  # simulate a node dying mid-run
                return super().parse(key, file_contents)

        store, keys = make_store(6)
        before = shm_segments() if transport == "shm" else None
        rocket = Rocket(
            CrashApp(),
            store,
            RocketConfig(**dict(self.CFG, watchdog_seconds=60.0)),
            backend="cluster", cluster=ClusterConfig(n_nodes=2, transport=transport),
        )
        with pytest.raises(RuntimeError, match=r"no live node remains: node 0 died \(exit code 3\), node 1 died \(exit code 3\)"):
            rocket.run(keys)
        if transport == "shm":
            # The coordinator owns the segments: a crashed worker must
            # not leak /dev/shm entries.
            assert shm_segments() == before


class KeyPacedSumApp(SumApp):
    """SumApp at 4 ms a pair, and 250 ms a pair for ``slow`` items."""

    def compare(self, key_a, a, key_b, b):
        time.sleep(0.25 if key_a.startswith("slow") else 0.004)
        return super().compare(key_a, a, key_b, b)


class TestEventDrivenControlPlane:
    """``poll_interval`` backs up death checks and the watchdog; nothing else waits on it."""

    def test_a_five_second_poll_interval_delays_no_user_action(self):
        store, keys = make_store(12)
        slow_keys = [f"slow{i:02d}" for i in range(12)]
        for key in slow_keys:
            store.write(f"{key}.bin", np.ones(8).tobytes())
        rocket = Rocket(
            KeyPacedSumApp(), store, RocketConfig(**TestClusterRuntime.CFG),
            backend="cluster", cluster=ClusterConfig(n_nodes=2, poll_interval=5.0),
        )
        took = {}

        def timed(name, action):
            start = time.perf_counter()
            action()
            took[name] = time.perf_counter() - start

        session = rocket.session()
        try:
            for k in range(3):
                timed(f"job{k}", lambda: session.submit(AllPairs(keys)).result(timeout=60.0))
            timed("add_node", session.add_node)
            timed("retire_node", session.retire_node)
            # Seconds of 250 ms pairs, no batch fills and no node runs dry:
            # once the dispatch traffic is over, only the cancel itself
            # can wake the coordinator.
            handle = session.submit(AllPairs(slow_keys))
            wait_for(lambda: handle.state is RunState.RUNNING)
            time.sleep(0.3)
            timed("cancel", lambda: (handle.cancel(), handle.wait(timeout=60.0)))
            assert handle.state is RunState.CANCELLED
        finally:
            timed("close", session.close)
        assert all(seconds < 1.0 for seconds in took.values()), took

    @pytest.mark.parametrize(
        "transport,result_batch", [("queue", 1), ("queue", 32), ("shm", 32)]
    )
    def test_one_pair_launches_batch_their_results(self, transport, result_batch):
        """66 pairs of 256 KB items on 3 nodes, one pair per launch."""
        cfg = dict(TestClusterRuntime.CFG, seed=11)
        store, keys = make_store(12, floats=32768)
        rocket = Rocket(
            SumApp(), store, RocketConfig(**cfg),
            backend="cluster", cluster=ClusterConfig(
                n_nodes=3, fetch_timeout=30.0, steal_timeout=5.0,
                transport=transport, result_batch=result_batch,
            ),
        )
        results = rocket.run(keys)
        for a, b, v in run_local(keys, store, **cfg).items():
            assert results.get(a, b) == v
        stats = rocket.last_stats
        assert stats.n_pairs == 66
        if result_batch == 1:
            assert stats.message_kinds["result"] == 66
        else:
            # Each node ships when a batch fills, when it runs dry and
            # before each steal request: not once per launch or two.
            assert stats.message_kinds["result"] < 66 / 4

    def test_result_batching_survives_the_flush_rule(self):
        """A cluster-fetch-shaped job: 2,016 pairs, 2 nodes x 1 device, slots 12/40."""
        store = InMemoryStore()
        keys = make_forensics_dataset(
            store, n_images=64, n_cameras=8, image_shape=(128, 128), seed=1
        ).keys
        rocket = Rocket(
            ForensicsApplication(), store,
            RocketConfig(
                n_devices=1, device_cache_slots=12, host_cache_slots=40, grain=64,
                watchdog_seconds=120.0,
            ),
            backend="cluster", cluster=ClusterConfig(n_nodes=2),
        )
        with rocket.session() as session:
            session.submit(Bipartite(keys[:5], keys[5:])).result(timeout=60.0)  # warm caches
            handle = session.submit(AllPairs(keys))
            handle.result(timeout=60.0)
        stats = handle.stats
        assert stats.n_pairs == 2016
        # Full 64-pair batches would be 32 messages; the flush rule adds
        # the partial batches a node ships each time it runs out of work.
        assert stats.message_kinds["result"] <= 48


# ----------------------------------------------------------------------
# Backend selection / Rocket integration


class TestBackendSelection:
    def test_registry_lists_both_backends(self):
        store, keys = make_store(4)
        for name in ("local", "cluster"):
            assert Rocket(SumApp(), store, backend=name).backend == name
        with pytest.raises(ValueError, match="available: local, cluster"):
            Rocket(SumApp(), store, backend="quantum")

    def test_unknown_backend_raises(self):
        store, keys = make_store(4)
        with pytest.raises(ValueError, match="unknown backend"):
            Rocket(SumApp(), store, backend="quantum")

    def test_local_backend_rejects_cluster_options(self):
        store, keys = make_store(4)
        with pytest.raises(ValueError, match="cluster backend only"):
            Rocket(SumApp(), store, backend="local", n_nodes=2)

    def test_conflicting_node_counts_raise(self):
        store, keys = make_store(4)
        with pytest.raises(ValueError, match="conflicting node counts"):
            Rocket(
                SumApp(), store, RocketConfig(), "cluster", n_nodes=3,
                cluster=ClusterConfig(n_nodes=2),
            )

    def test_rocket_cluster_backend_end_to_end(self):
        store, keys = make_store(8)
        rocket = Rocket(
            SumApp(),
            store,
            RocketConfig(n_devices=1, seed=1, watchdog_seconds=120.0),
            backend="cluster",
            n_nodes=2,
        )
        assert rocket.backend == "cluster"
        results = rocket.run(keys)
        assert results.is_complete()
        assert rocket.last_stats.n_nodes == 2

    def test_cluster_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(max_hops=0)
        with pytest.raises(ValueError):
            ClusterConfig(fetch_timeout=0.0)
