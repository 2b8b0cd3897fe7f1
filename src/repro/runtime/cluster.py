"""Multi-process cluster runtime: the paper's mechanisms over real IPC.

:class:`ClusterRocketRuntime` spawns one worker **process** per
simulated cluster node (``multiprocessing``), each running the same
threaded per-node pipeline as the local runtime
(:class:`~repro.runtime.pernode.NodePipeline`), and wires the three
cross-node mechanisms of the paper for real:

1. **Distributed cache** (Section 4.1.3) — on a host-cache miss a node
   sends a request to the item's mediator (:func:`~repro.cache.distributed.mediator_of`);
   the mediator consults its :class:`~repro.cache.distributed.CandidateDirectory`
   and forwards the request along the candidate chain; the first holder
   ships the pre-processed NumPy payload straight back to the requester
   over the transport — the paper's ``h + 2`` messages per request.
   Outcomes land in :class:`~repro.cache.distributed.HopStats`.

2. **Global work stealing** (Section 4.2) — the whole workload starts
   as one root :class:`~repro.scheduling.quadtree.PairBlock` on node 0;
   idle nodes steal blocks from remote deques through the coordinator,
   which probes victims in the order produced by the existing
   :class:`~repro.scheduling.workstealing.VictimSelector` global tier.

3. **Result gathering** — completed pairs stream back to the
   coordinator in batched result blocks
   (:class:`~repro.runtime.transport.ResultBatcher`); the coordinator
   assembles the final :class:`~repro.core.result.ResultMatrix` and the
   job's :class:`~repro.runtime.stats.RunStats` from the nodes' reports
   (pipeline counters, hop histogram, bytes and messages over the wire,
   per-kind message counts).

*How* bytes move between the processes is delegated to a pluggable
:class:`~repro.runtime.transport.Transport`
(``ClusterConfig(transport=...)``): the ``"queue"`` transport pickles
payloads inline through per-node ``multiprocessing`` queues, the
``"shm"`` transport keeps payloads in coordinator-owned shared-memory
segments and ships only small descriptors.  The default ``fork`` start
method shares the application/store objects with the children at no
cost; with ``spawn`` they must be picklable.

The runtime is **session-oriented and multi-job**: worker processes
are spawned once per :class:`ClusterSession` and then serve *many
concurrently active jobs*.  Each job is dispatched over the transport
as a ``("job", job_id, packed_spec, max_inflight)`` message, where the
spec ``(keys, pair_filter, blocks)`` rides inline on the queue
transport and as a shared-segment descriptor on shm; the node runs it
on its own
:class:`~repro.runtime.pernode.NodePipeline` borrowed from the
persistent :class:`~repro.runtime.pernode.NodeEngine`, so several
jobs' pair streams interleave on the shared devices and caches while
the processes, kernel threads and transport fabric survive between
jobs.  Every protocol message — cache requests and replies, steal
probes and grants, result batches, stats reports — is tagged with its
job id, so one job's stragglers can never leak into another job's
accounting, and aborting one job (``("stop", job_id, abort)``) leaves
co-running jobs untouched.  How many jobs run at once and in which
order is decided coordinator-side by the
:class:`~repro.core.scheduler.JobScheduler` (FIFO: serial, the
historical behaviour; FAIR: priority-ordered concurrent admission).
``ClusterRocketRuntime.run()`` is the one-shot compatibility path:
open a session, submit one workload, close.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import pickle
import queue
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cache.distributed import CandidateDirectory, HopStats, mediator_of_live
from repro.core.api import Application
from repro.core.scheduler import JobScheduler, coerce_policy
from repro.core.session import RunHandle
from repro.core.workload import Workload
from repro.data.filestore import FileStore
from repro.runtime.backend import BackendSession, RocketBackend, SessionJob
from repro.runtime.localrocket import RocketConfig
from repro.runtime.pernode import NodeEngine, NodePipeline
from repro.runtime.stats import MESSAGE_KINDS, NodeStats
from repro.runtime.transport import (
    QueueTransport,
    ResultBatcher,
    Transport,
    TransportFabric,
    available_transports,
    create_fabric,
)
from repro.scheduling.quadtree import PairBlock, partition_blocks
from repro.scheduling.workstealing import StealPolicy, VictimSelector, WorkerTopology
from repro.util.rng import RngFactory
from repro.util.trace import TraceRecorder

__all__ = [
    "ClusterConfig",
    "ClusterRocketRuntime",
    "ClusterSession",
    "NodeCommServer",
    "NodeJobState",
    "QueueTransport",
    "MESSAGE_KINDS",
]


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of the multi-process runtime."""

    n_nodes: int = 2
    #: Enable the third (distributed) cache level.
    distributed_cache: bool = True
    #: ``h`` — candidate-chain length a request may be forwarded along.
    max_hops: int = 2
    #: How long a worker waits for a distributed-cache reply before
    #: falling through to a local load.
    fetch_timeout: float = 30.0
    #: How long a worker waits for a global-steal grant before retrying.
    steal_timeout: float = 10.0
    #: Coordinator/comm-thread queue polling granularity.
    poll_interval: float = 0.05
    #: ``multiprocessing`` start method; ``fork`` shares the app/store
    #: objects with the children, ``spawn`` requires them picklable.
    start_method: str = "fork"
    #: Data-plane implementation (see :mod:`repro.runtime.transport`):
    #: ``"queue"`` pickles payloads inline, ``"shm"`` ships shared-memory
    #: descriptors.
    transport: str = "queue"
    #: Pair results per ``("results", ...)`` coordinator message;
    #: 1 reproduces the old one-message-per-pair behaviour.
    result_batch: int = 64
    #: Per-node shared-segment size for the ``"shm"`` transport.  The
    #: segment is sparse until written, so generous defaults cost
    #: nothing on Linux.
    shm_segment_bytes: int = 32 * 1024 * 1024
    #: Heterogeneous node mixes: per-node device speed-factor tuples
    #: (outer length ``n_nodes``, inner length the RocketConfig's
    #: ``n_devices``), overriding the shared RocketConfig's
    #: ``device_speed_factors`` on each node.  ``None`` — every node
    #: runs the RocketConfig as given.
    node_speed_factors: Optional[Tuple[Tuple[float, ...], ...]] = None
    #: Elastic membership: a node death mid-job re-enqueues the dead
    #: node's unfinished blocks instead of killing the session, and
    #: ``ClusterSession.add_node()`` / ``retire_node()`` grow and
    #: shrink the live node set while jobs run.  Off by default: the
    #: historical fail-fast behaviour (any unexpected death is fatal).
    elastic: bool = False
    #: Upper bound on concurrently live nodes (initial + added).  The
    #: transport fabric pre-allocates this many inboxes/segments, since
    #: ``multiprocessing`` queues cannot be created after the workers
    #: fork.  ``None`` — ``n_nodes`` (no headroom) when not elastic,
    #: ``n_nodes + 4`` when elastic.
    max_nodes: Optional[int] = None

    @property
    def capacity(self) -> int:
        """Resolved node-slot capacity of the transport fabric."""
        if self.max_nodes is not None:
            return self.max_nodes
        return self.n_nodes + 4 if self.elastic else self.n_nodes

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.max_nodes is not None and self.max_nodes < self.n_nodes:
            raise ValueError(
                f"max_nodes must be >= n_nodes, got {self.max_nodes} < {self.n_nodes}"
            )
        if self.max_hops < 1:
            raise ValueError(f"max_hops (h) must be >= 1, got {self.max_hops}")
        if self.fetch_timeout <= 0 or self.steal_timeout <= 0 or self.poll_interval <= 0:
            raise ValueError("timeouts must be positive")
        if self.result_batch < 1:
            raise ValueError(f"result_batch must be >= 1, got {self.result_batch}")
        if self.shm_segment_bytes < 65536:
            raise ValueError(
                f"shm_segment_bytes must be >= 65536, got {self.shm_segment_bytes}"
            )
        if self.node_speed_factors is not None:
            if len(self.node_speed_factors) != self.n_nodes:
                raise ValueError(
                    f"{len(self.node_speed_factors)} speed-factor tuples for "
                    f"{self.n_nodes} nodes"
                )
            for node, speeds in enumerate(self.node_speed_factors):
                if not speeds or any(not 0 < s <= 1.0 for s in speeds):
                    raise ValueError(
                        f"node {node} speed factors must be in (0, 1], got {speeds}"
                    )


#: Message tag -> stats category (:data:`MESSAGE_KINDS`).  ``fetch``
#: covers the distributed cache (including shm slot releases), ``grant``
#: the global-steal protocol, ``result`` the batched result blocks;
#: every other tag (stop/error/stats/job/epoch lifecycle) is ``control``.
_KIND_OF = {
    "creq": "fetch",
    "cprobe": "fetch",
    "crep": "fetch",
    "pfree": "fetch",
    "sreq": "grant",
    "sprobe": "grant",
    "srep": "grant",
    "sgrant": "grant",
    "results": "result",
}


# ----------------------------------------------------------------------
# Per-node protocol endpoint


class _Pending:
    """One in-flight request a worker thread is blocked on."""

    def __init__(self, req_id: int, kind: str, job_id: int) -> None:
        self.req_id = req_id
        self.kind = kind  # "fetch" | "steal"
        self.job_id = job_id
        #: Node the request is waiting on (the mediator for fetches);
        #: an epoch update that declares it dead resolves the wait with
        #: a definitive miss instead of letting it run out the timeout.
        self.target: Optional[int] = None
        self.event = threading.Event()
        self.result: Any = None

    def resolve(self, value: Any) -> None:
        self.result = value
        self.event.set()


class NodeJobState:
    """One active job's protocol state on a node.

    Everything that is scoped to a *job* rather than to the node
    process lives here: the mediator directory and hop statistics of
    the job's index space, byte/message accounting, the job-tagged
    result batcher, and the job's pipeline.  The node holds one of
    these per concurrently active job, so stopping or accounting one
    job can never touch another's state.
    """

    def __init__(
        self,
        job_id: int,
        keys: Sequence[Hashable],
        cluster: ClusterConfig,
        node_id: int,
        send_coordinator,
        max_inflight: Optional[int] = None,
        pack_result_block=None,
    ) -> None:
        self.job_id = job_id
        self.keys = list(keys)
        self.max_inflight = max_inflight
        self.directory = CandidateDirectory(cluster.max_hops)
        #: The protocol half of this node's report for the job (hops,
        #: bytes, messages); ``ship_stats`` adds the pipeline's half.
        self.stats = NodeStats(hop_stats=HopStats(cluster.max_hops))
        self.remote_abort = False
        self.pipeline: Optional[NodePipeline] = None
        #: The job's per-process trace recorder.  Disabled until the
        #: runner thread installs the real (profiling-aware) one —
        #: protocol messages can arrive before the pipeline exists, and
        #: those early spans are simply not recorded.
        self.trace = TraceRecorder(enabled=False)
        self.stopped = threading.Event()
        self.batcher = ResultBatcher(
            send_coordinator,
            node_id,
            cluster.result_batch,
            max_delay=cluster.poll_interval,
            job_id=job_id,
            pack=pack_result_block,
        )


class NodeCommServer:
    """One node's endpoint of the distributed-cache and steal protocols.

    The message handlers (:meth:`handle`) route every job-tagged
    message to its :class:`NodeJobState` — the per-job mediator
    directory, accounting and pipeline — and serve remote requests
    against that job's host-cache view; :meth:`remote_fetch` /
    :meth:`global_steal` are the blocking client calls the pipelines'
    worker threads invoke (bound to their job's state).  Payload
    packing/unpacking is delegated to the
    :class:`~repro.runtime.transport.Transport`, so the same protocol
    code runs over inline queues or shared-memory descriptors — and is
    unit-testable over a synchronous in-process transport.

    The server outlives every job and serves many at once:
    :meth:`begin_job` / :meth:`end_job` frame one workload's execution
    while other jobs keep running; ``("stop", job_id, abort)`` ends
    exactly one job; ``("shutdown",)`` ends the process.  Messages for
    unknown or already-ended jobs are answered with a miss (cache and
    steal probes) or dropped after releasing any out-of-band payload
    slot they carry — one job's stragglers can neither stall a peer
    nor leak into another job's accounting.
    """

    def __init__(
        self,
        node_id: int,
        cluster: ClusterConfig,
        transport: Transport,
        epoch: int = 0,
        live: Optional[Sequence[int]] = None,
    ) -> None:
        self.node_id = node_id
        self.cluster = cluster
        self.transport = transport
        #: Monotonic membership epoch (coordinator-owned; bumped on
        #: every join/death/retire and broadcast as ``("epoch", e,
        #: live)``).  Cache messages carry the sender's epoch so a
        #: receiver that already moved on answers a definitive miss
        #: instead of serving stale membership.
        self.epoch = int(epoch)
        #: Sorted tuple of currently live node ids; drives the mediator
        #: mapping and candidate filtering.
        self.live: Tuple[int, ...] = (
            tuple(sorted(live)) if live is not None else tuple(range(cluster.n_nodes))
        )
        self._stats_lock = threading.Lock()
        self._jobs_lock = threading.Lock()
        self._jobs_state: Dict[int, NodeJobState] = {}
        #: Recently ended jobs — a stop for one of these is stale.
        #: Bounded: stale stops only trail a job by the coordinator's
        #: report window (seconds), so remembering the last few hundred
        #: ids is ample and a high-churn session cannot grow it forever.
        #: (Job ids are not monotonic in dispatch order under FAIR
        #: priority admission, so the old greater-id guard cannot be
        #: used here.)
        self._ended_jobs: Set[int] = set()
        self._ended_order: Deque[int] = deque()
        self._ended_cap = 1024
        self._pending: Dict[int, _Pending] = {}
        self._pending_lock = threading.Lock()
        self._next_id = 0
        #: Stop notices that arrived before their job was begun (the
        #: coordinator may abort a job while a node is still picking it
        #: up); ``begin_job`` consults this map.  job_id -> abort flag.
        #: Bounded like ``_ended_jobs``: a stop whose job hand-out never
        #: arrives (partial dispatch failure) must not leak an entry per
        #: failure for the session's lifetime.
        self._early_stops: Dict[int, bool] = {}
        self._early_stop_order: Deque[int] = deque()
        #: Recovery grants (req_id ``-1``) that arrived before their job
        #: was begun on this node — a late joiner's first grant can race
        #: its own job hand-out.  Drained by the job runner after the
        #: pipeline attaches; bounded like the other straggler maps.
        self._early_grants: Dict[int, List[PairBlock]] = {}
        self._jobs: "queue.Queue[Optional[Tuple]]" = queue.Queue()
        self._shutdown = threading.Event()

    # -- wiring ----------------------------------------------------------

    def _job_state(self, job_id: int) -> Optional[NodeJobState]:
        with self._jobs_lock:
            return self._jobs_state.get(job_id)

    def active_jobs(self) -> List[NodeJobState]:
        with self._jobs_lock:
            return list(self._jobs_state.values())

    def next_job(self) -> Optional[Tuple]:
        """Block for the next job spec; None once shutdown was received."""
        return self._jobs.get()

    def begin_job(
        self,
        job_id: int,
        keys: Sequence[Hashable],
        max_inflight: Optional[int] = None,
    ) -> NodeJobState:
        """Create the protocol state for ``job_id`` and register it.

        Called on the job's runner thread before its pipeline is
        attached.  If the coordinator already stopped this job (an
        abort raced the job hand-out), the stop state is applied
        immediately so the caller can skip straight to the shutdown
        handshake.
        """
        state = NodeJobState(
            job_id,
            keys,
            self.cluster,
            self.node_id,
            functools.partial(self._send_coordinator_for, job_id),
            max_inflight=max_inflight,
            # Result blocks leave through the transport's packer, so a
            # zero-copy transport ships descriptors instead of pickled
            # triple tuples.
            pack_result_block=self.transport.pack_result_block,
        )
        with self._jobs_lock:
            self._jobs_state[job_id] = state
            early = self._early_stops.pop(job_id, None)
        if early is not None:
            self._apply_stop(state, bool(early))
        return state

    def attach(self, state: NodeJobState, pipeline: NodePipeline) -> None:
        """Bind the pipeline whose host cache and deques serve this job.

        Grants that arrived before the pipeline existed (a recovery
        re-injection racing the job hand-out) are drained into it here.
        """
        with self._jobs_lock:
            state.pipeline = pipeline
            early = self._early_grants.pop(state.job_id, [])
        for block in early:
            pipeline.inject_block(block)

    def end_job(self, state: NodeJobState) -> None:
        """Retire the finished job's state (the engine stays warm)."""
        state.stopped.set()
        with self._jobs_lock:
            self._jobs_state.pop(state.job_id, None)
            self._early_grants.pop(state.job_id, None)
            if state.job_id not in self._ended_jobs:
                self._ended_jobs.add(state.job_id)
                self._ended_order.append(state.job_id)
                while len(self._ended_order) > self._ended_cap:
                    self._ended_jobs.discard(self._ended_order.popleft())
        state.pipeline = None

    def serve(self) -> None:
        """Inbox loop (comm thread body); runs until :meth:`finish`.

        Each tick also pushes out the active jobs' aged partial result
        batches, so the coordinator's completion counts trail the
        pipelines by at most one poll interval.
        """
        while not self._shutdown.is_set():
            msg = self.transport.recv(self.cluster.poll_interval)
            for state in self.active_jobs():
                if not state.stopped.is_set():
                    state.batcher.maybe_flush()
            if msg is None:
                continue
            try:
                self.handle(msg)
            except BaseException:  # noqa: BLE001 - must not kill the comm thread
                self.transport.send_coordinator(
                    ("error", self.node_id, None, traceback.format_exc())
                )

    def finish(self) -> None:
        """Exit the serve loop (call just before the process exits)."""
        self._shutdown.set()

    # -- client side (called from worker threads) ------------------------

    def _register(self, kind: str, job_id: int) -> _Pending:
        with self._pending_lock:
            self._next_id += 1
            pend = _Pending(self._next_id, kind, job_id)
            self._pending[pend.req_id] = pend
        return pend

    def _pop_pending(self, req_id: int) -> Optional[_Pending]:
        with self._pending_lock:
            return self._pending.pop(req_id, None)

    def _count_send(self, state: Optional[NodeJobState], msg: Tuple) -> None:
        if state is None:
            return
        kind = _KIND_OF.get(msg[0], "control")
        with self._stats_lock:
            state.stats.messages += 1
            state.stats.message_kinds[kind] += 1
        if state.trace.enabled:
            # Sends are instants on the comm lane (zero-duration spans).
            t = state.trace.now()
            state.trace.record("NET", f"send:{kind}", t, t, state.job_id)

    def _send_node(self, state: Optional[NodeJobState], node: int, msg: Tuple) -> None:
        self._count_send(state, msg)
        self.transport.send_node(node, msg)

    def _send_coordinator(self, state: Optional[NodeJobState], msg: Tuple) -> None:
        self._count_send(state, msg)
        self.transport.send_coordinator(msg)

    def _send_coordinator_for(self, job_id: int, msg: Tuple) -> None:
        """Job-id-bound coordinator send (the result batcher's hook)."""
        self._send_coordinator(self._job_state(job_id), msg)

    def send_job_error(self, state: NodeJobState, text: str) -> None:
        """Report a job-scoped failure to the coordinator."""
        self._send_coordinator(state, ("error", self.node_id, state.job_id, text))

    def remote_fetch(self, state: NodeJobState, idx: int) -> Optional[np.ndarray]:
        """Third-cache-level request for item ``idx`` (blocking).

        Returns the pre-processed payload served by some peer's host
        cache, or ``None`` (recorded as a miss) — the caller then falls
        through to a local load.
        """
        if state.stopped.is_set():
            return None
        live = self.live
        if len(live) < 2:
            return None  # nobody left to fetch from
        tracing = state.trace.enabled
        t0 = state.trace.now() if tracing else 0.0
        mediator = mediator_of_live(idx, live)
        pend = self._register("fetch", state.job_id)
        pend.target = mediator
        self._send_node(
            state,
            mediator,
            ("creq", state.job_id, self.node_id, idx, pend.req_id, self.epoch),
        )
        if not pend.event.wait(self.cluster.fetch_timeout):
            self._pop_pending(pend.req_id)
            with self._stats_lock:
                state.stats.hop_stats.record_miss(had_candidates=True)
            if tracing:
                state.trace.record("NET", "fetch:timeout", t0, state.trace.now(), state.job_id)
            return None
        if pend.result is None:  # woken by stop
            return None
        payload, hop, _provider, wire = pend.result
        with self._stats_lock:
            if payload is None:
                state.stats.hop_stats.record_miss(had_candidates=(hop != 0))
            else:
                state.stats.hop_stats.record_hit(hop)
                state.stats.bytes_received += wire
        if tracing:
            label = "fetch:hit" if payload is not None else "fetch:miss"
            state.trace.record("NET", label, t0, state.trace.now(), state.job_id)
        return payload

    def global_steal(self, state: NodeJobState) -> Optional[PairBlock]:
        """Request one of this job's blocks from a remote node."""
        if state.stopped.is_set():
            return None
        tracing = state.trace.enabled
        t0 = state.trace.now() if tracing else 0.0
        pend = self._register("steal", state.job_id)
        self._send_coordinator(
            state, ("sreq", state.job_id, self.node_id, pend.req_id)
        )
        if not pend.event.wait(self.cluster.steal_timeout):
            self._pop_pending(pend.req_id)
            if tracing:
                state.trace.record("NET", "steal:timeout", t0, state.trace.now(), state.job_id)
            return None
        if tracing:
            label = "steal:grant" if pend.result is not None else "steal:miss"
            state.trace.record("NET", label, t0, state.trace.now(), state.job_id)
        return pend.result

    # -- server side -----------------------------------------------------

    def handle(self, msg: Tuple) -> None:
        """Process one protocol message (mediator / candidate / reply)."""
        kind = msg[0]
        if kind == "job":
            # The spec travels out-of-band (or inline, per the fabric)
            # and unpacks on this side.
            _, job_id, packed, max_inflight = msg
            keys, pair_filter, blocks = self.transport.unpack_job_payload(packed)
            self._jobs.put((job_id, keys, pair_filter, blocks, max_inflight))
            return
        if kind == "shutdown":
            self._jobs.put(None)
            return
        if kind == "pfree":
            # A receiver finished copying a shared-memory payload;
            # slot bookkeeping is transport-level, not job-level.
            self.transport.handle_free(msg)
            return
        if kind == "epoch":
            # Membership update from the coordinator.  Monotonic: a
            # stale broadcast (reordered behind a newer one) is ignored.
            _, epoch, live = msg
            if epoch <= self.epoch:
                return
            gone = set(self.live) - set(live)
            self.epoch = int(epoch)
            self.live = tuple(sorted(live))
            if gone:
                # Dead nodes can no longer serve: drop them from every
                # active job's candidate directory so mediator answers
                # stop pointing requesters at them, and resolve fetches
                # currently waiting on one of them with a definitive
                # miss instead of running out the fetch timeout.
                for state in self.active_jobs():
                    for node in gone:
                        state.directory.evict_node(node)
                with self._pending_lock:
                    doomed = [
                        p
                        for p in self._pending.values()
                        if p.kind == "fetch" and p.target in gone
                    ]
                    for pend in doomed:
                        del self._pending[pend.req_id]
                for pend in doomed:
                    pend.resolve(None)
            return
        if kind == "stop":
            _, job_id, abort = msg
            state = self._job_state(job_id)
            if state is not None:
                self._apply_stop(state, bool(abort))
                return
            with self._jobs_lock:
                if job_id not in self._ended_jobs:
                    # The stop raced the job hand-out: remember it for
                    # begin_job.
                    if job_id not in self._early_stops:
                        self._early_stop_order.append(job_id)
                        while len(self._early_stop_order) > self._ended_cap:
                            self._early_stops.pop(
                                self._early_stop_order.popleft(), None
                            )
                    self._early_stops[job_id] = bool(abort)
            return

        job_id = msg[1]
        state = self._job_state(job_id)
        if kind == "creq":
            # Mediator step: return current candidates, record requester.
            _, _, requester, idx, req_id, epoch = msg
            if state is None or not 0 <= idx < len(state.keys) or epoch < self.epoch:
                # Unknown/ended job, an index from a different job's
                # space, or a request sent under stale membership:
                # answer with a definitive miss so the requester falls
                # through to a local load instead of blocking out its
                # fetch timeout.
                self._send_node(state, requester, ("crep", job_id, req_id, None, -1, -1))
                return
            live = self.live
            candidates = [
                c for c in state.directory.lookup_and_record(idx, requester)
                if c != requester and c in live
            ]
            if not candidates:
                self._send_node(state, requester, ("crep", job_id, req_id, None, 0, -1))
            else:
                self._send_node(
                    state,
                    candidates[0],
                    ("cprobe", job_id, requester, idx, req_id,
                     tuple(candidates[1:]), 1, self.epoch),
                )
        elif kind == "cprobe":
            # Candidate step: serve from the host cache or forward.
            _, _, requester, idx, req_id, rest, hop, epoch = msg
            if epoch < self.epoch:
                # Probe from a previous membership epoch: droppable by
                # contract — answer the requester with a definitive miss.
                self._send_node(state, requester, ("crep", job_id, req_id, None, -1, -1))
                return
            payload = (
                state.pipeline.host_payload_view(state.keys[idx])
                if state is not None
                and state.pipeline is not None
                and 0 <= idx < len(state.keys)
                else None
            )
            if payload is not None:
                packed = self.transport.pack_payload(payload)
                with self._stats_lock:
                    state.stats.bytes_shipped += self.transport.wire_bytes(packed)
                self._send_node(
                    state, requester, ("crep", job_id, req_id, packed, hop, self.node_id)
                )
            elif rest:
                live = self.live
                chain = [c for c in rest if c in live]
                if chain:
                    self._send_node(
                        state,
                        chain[0],
                        ("cprobe", job_id, requester, idx, req_id,
                         tuple(chain[1:]), hop + 1, self.epoch),
                    )
                else:
                    self._send_node(
                        state, requester, ("crep", job_id, req_id, None, -1, -1)
                    )
            else:
                # Chain exhausted: the requester must load locally.
                self._send_node(state, requester, ("crep", job_id, req_id, None, -1, -1))
        elif kind == "crep":
            _, _, req_id, packed, hop, provider = msg
            pend = self._pop_pending(req_id)
            if pend is None:
                # The requester timed out (or its job stopped) and
                # already fell back to a local load: release any
                # out-of-band slot without paying for the payload copy.
                if packed is not None:
                    self.transport.release_payload(
                        packed, functools.partial(self._send_node, state)
                    )
                return
            wire = self.transport.wire_bytes(packed) if packed is not None else 0
            payload = (
                self.transport.unpack_payload(
                    packed, functools.partial(self._send_node, state)
                )
                if packed is not None
                else None
            )
            pend.resolve((payload, hop, provider, wire))
        elif kind == "sprobe":
            _, _, thief, req_id = msg
            block = (
                state.pipeline.steal_for_remote()
                if state is not None and state.pipeline is not None
                else None
            )
            self._send_coordinator(
                state, ("srep", job_id, self.node_id, thief, req_id, block)
            )
        elif kind == "sgrant":
            _, _, req_id, block = msg
            pend = self._pop_pending(req_id)
            if pend is not None:
                pend.resolve(block)
            elif block is not None:
                # The thief timed out waiting (or this is a recovery
                # re-injection, req_id -1); never lose a granted block.
                # The job tag guarantees the block belongs to this
                # job's index space — a grant for an ended job is
                # dropped instead, and a grant racing the job hand-out
                # is parked for :meth:`attach` to drain (checked and
                # buffered under the jobs lock so the runner's drain
                # cannot miss it).
                pipeline = None
                with self._jobs_lock:
                    st = self._jobs_state.get(job_id)
                    if st is not None and st.stopped.is_set():
                        pass  # job ended here: drop
                    elif st is not None and st.pipeline is not None:
                        pipeline = st.pipeline
                    elif job_id not in self._ended_jobs:
                        parked = self._early_grants.setdefault(job_id, [])
                        if len(parked) < self._ended_cap:
                            parked.append(block)
                if pipeline is not None:
                    pipeline.inject_block(block)
        else:
            raise ValueError(f"unknown cluster message {kind!r}")

    def _apply_stop(self, state: NodeJobState, abort: bool) -> None:
        """End one job: wake its blocked clients, stop its pipeline."""
        state.remote_abort = abort
        state.stopped.set()
        with self._pending_lock:
            mine = [p for p in self._pending.values() if p.job_id == state.job_id]
            for pend in mine:
                del self._pending[pend.req_id]
        for pend in mine:
            pend.resolve(None)
        if state.pipeline is not None:
            state.pipeline.request_stop(abort=abort)

    def ship_stats(self, state: NodeJobState, stats: NodeStats) -> None:
        """Send one job's final report: pipeline plus protocol counters."""
        self._count_send(state, ("stats",))
        with self._stats_lock:
            stats.merge(state.stats)
        self.transport.send_coordinator(("stats", self.node_id, state.job_id, stats))


# ----------------------------------------------------------------------
# Node process


def _format_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_node_job(
    comm: NodeCommServer,
    engine: NodeEngine,
    app: Application,
    store: FileStore,
    config: RocketConfig,
    cluster: ClusterConfig,
    job: Tuple,
) -> None:
    """Run one job to completion on this node (job-thread body).

    Several of these run concurrently against the shared engine; each
    owns its job's :class:`NodeJobState` and pipeline, so stopping or
    failing one job never disturbs a co-running one.
    """
    node_id = comm.node_id
    job_id, keys, pair_filter, initial_blocks, max_inflight = job
    # Elastic single-node sessions keep the remote planes enabled: a
    # node joining later must be fetchable/stealable-from immediately.
    multi = cluster.n_nodes > 1 or cluster.elastic
    state = comm.begin_job(job_id, keys, max_inflight=max_inflight)
    try:
        # Under profiling the job records into a node-local recorder
        # (pipeline stages and, via ``state.trace``, protocol spans);
        # its buffer ships to the coordinator with the final stats.
        state.trace = TraceRecorder(enabled=config.profiling)
        pipeline = NodePipeline(
            app,
            store,
            config,
            keys,
            pair_filter=pair_filter,
            emit_block=state.batcher.emit_block,
            node_id=node_id,
            rngs=RngFactory(config.seed + 7919 * (node_id + 1) + 104729 * job_id),
            trace=state.trace,
            job_id=job_id,
            expected_pairs=None,  # the coordinator decides when the run ends
            remote_fetch=(
                functools.partial(comm.remote_fetch, state)
                if (multi and cluster.distributed_cache)
                else None
            ),
            global_steal=functools.partial(comm.global_steal, state) if multi else None,
            initial_blocks=initial_blocks,
            engine=engine,
            max_inflight=max_inflight,
        )
        comm.attach(state, pipeline)
        if state.stopped.is_set():
            # The job was aborted while the hand-out was in flight.
            pipeline.request_stop(abort=state.remote_abort)
        pipeline.start()
        # Slightly above the coordinator's watchdog so the coordinator
        # reports the timeout first with full progress information.
        finished = pipeline.wait(config.watchdog_seconds + 30.0)
        state.batcher.flush()
        if pipeline.errors and not state.remote_abort:
            comm.send_job_error(state, _format_error(pipeline.errors[0]))
        elif not finished:
            comm.send_job_error(state, "node watchdog expired")
        pipeline.join(timeout=5.0)
        pipeline.close()  # engine-owned resources stay up
        comm.ship_stats(state, pipeline.stats())
    except BaseException:  # noqa: BLE001 - job-scoped last-resort report
        try:
            comm.send_job_error(state, traceback.format_exc())
        except Exception:
            pass
    finally:
        comm.end_job(state)


def _node_main(
    node_id: int,
    app: Application,
    store: FileStore,
    config: RocketConfig,
    cluster: ClusterConfig,
    fabric: TransportFabric,
    epoch: int = 0,
    live: Optional[Tuple[int, ...]] = None,
) -> None:
    """Entry point of one worker process (one simulated cluster node).

    Serves *concurrently active* jobs against one persistent
    :class:`~repro.runtime.pernode.NodeEngine`: each ``("job", ...)``
    message spawns a job thread running its own pipeline borrowed from
    the engine's devices and caches, so co-running and later jobs see
    the payloads earlier jobs loaded.  The process exits on
    ``("shutdown",)`` after the in-flight job threads drain.
    """
    transport = fabric.endpoint(node_id)
    try:
        comm = NodeCommServer(node_id, cluster, transport, epoch=epoch, live=live)
        engine = NodeEngine(
            config,
            node_id=node_id,
            device_prefix=f"n{node_id}.gpu",
            rngs=RngFactory(config.seed + 7919 * (node_id + 1)),
        )
        comm_thread = threading.Thread(target=comm.serve, name=f"comm{node_id}", daemon=True)
        comm_thread.start()
        job_threads: List[threading.Thread] = []
        while True:
            job = comm.next_job()
            if job is None:
                break
            thread = threading.Thread(
                target=_run_node_job,
                args=(comm, engine, app, store, config, cluster, job),
                name=f"n{node_id}.job{job[0]}",
                daemon=True,
            )
            thread.start()
            job_threads.append(thread)
            job_threads = [t for t in job_threads if t.is_alive()]
        for thread in job_threads:
            thread.join(timeout=config.watchdog_seconds + 60.0)
        engine.close()
        comm.finish()
        comm_thread.join(timeout=2.0)
        transport.close()
    except BaseException:  # noqa: BLE001 - last-resort report to the coordinator
        try:
            transport.send_coordinator(("error", node_id, None, traceback.format_exc()))
        except Exception:
            pass


# ----------------------------------------------------------------------
# Coordinator


class ClusterRocketRuntime(RocketBackend):
    """Run an all-pairs application across real OS processes.

    ``run(workload)`` (inherited) executes one workload through a
    one-shot session — spawn, run, tear down; :meth:`open_session`
    returns a
    :class:`ClusterSession` whose worker processes, transport fabric
    and cache levels persist across many submitted workloads.
    """

    name = "cluster"

    def __init__(
        self,
        app: Application,
        store: FileStore,
        config: RocketConfig = RocketConfig(),
        cluster: ClusterConfig = ClusterConfig(),
    ) -> None:
        self.app = app
        self.store = store
        self.config = config
        self.cluster = cluster
        if cluster.transport not in available_transports():
            raise ValueError(
                f"unknown transport {cluster.transport!r}; "
                f"available: {', '.join(available_transports())}"
            )
        if cluster.node_speed_factors is not None:
            for node, speeds in enumerate(cluster.node_speed_factors):
                if len(speeds) != config.n_devices:
                    raise ValueError(
                        f"node {node}: {len(speeds)} speed factors for "
                        f"{config.n_devices} devices"
                    )

    def _node_configs(self) -> List[RocketConfig]:
        """Per-node RocketConfigs (heterogeneous speed overrides applied)."""
        if self.cluster.node_speed_factors is None:
            return [self.config] * self.cluster.n_nodes
        return [
            dataclasses.replace(self.config, device_speed_factors=tuple(speeds))
            for speeds in self.cluster.node_speed_factors
        ]

    def open_session(
        self, *, policy="fifo", max_active: Optional[int] = None
    ) -> "ClusterSession":
        """Spawn the worker processes and return the live session."""
        return ClusterSession(self, policy=policy, max_active=max_active)


class _ClusterJob(SessionJob):
    """One active job's coordinator-side state.

    Owns everything the coordinator tracks per job — initial shares,
    steal bookkeeping, completion counts, per-node reports — so the
    single serve loop can interleave any number of jobs by routing each
    job-tagged message here.
    """

    def __init__(self, session: "ClusterSession", handle: RunHandle) -> None:
        cfg = session._runtime.config
        super().__init__(handle, cfg.watchdog_seconds)
        self.session = session
        workload = handle.workload
        self.keys = workload.keys
        self.pair_filter = workload.pair_filter
        self.total_pairs = workload.n_pairs
        self.n_items = workload.n_items

        self.node_speeds = session._node_speeds
        self.speed_aware = cfg.steal_policy is StealPolicy.SPEED
        #: Nodes this job is dispatched to: the live set at admission,
        #: grown by mid-job joins.  Dead/retired nodes stay members and
        #: move into ``forgiven_nodes`` so report accounting stays
        #: exact.
        self.participants: Set[int] = set(session._live)
        nodes = sorted(self.participants)
        blocks = workload.blocks()
        if self.speed_aware and len(nodes) > 1:
            # Speed-proportional initial partitioning: every node starts
            # with a share of the workload's block set matching its
            # aggregate speed instead of the first node holding
            # everything.
            node_shares = partition_blocks(
                blocks, [self.node_speeds[n] for n in nodes]
            )
        else:
            node_shares: List[List[PairBlock]] = [[] for _ in nodes]
            node_shares[0] = blocks
        self.shares: Dict[int, List[PairBlock]] = dict(zip(nodes, node_shares))

        # Accepted-pair counts per block, computed once and memoized by
        # block region: the workload seeds the map for its own blocks,
        # steal-time sub-blocks are swept at most once each.
        self._accepted_counts: Dict[Tuple[int, int, int, int], int] = {
            (b.row_lo, b.row_hi, b.col_lo, b.col_hi): c
            for b, c in zip(blocks, workload.block_counts())
        }
        self.selector = VictimSelector(
            session._topology, RngFactory(cfg.seed).get(f"cluster:steal:{self.job_id}")
        )
        self.pending_steals: Dict[Tuple[int, int], List[int]] = {}
        #: The victim each in-flight steal request is currently probing;
        #: a victim death advances the probe immediately instead of
        #: letting the thief wait out its steal timeout.
        self.probing: Dict[Tuple[int, int], int] = {}
        self.reports: Dict[int, NodeStats] = {}
        capacity = session._capacity
        # Estimated accepted pairs still owned by each node: the initial
        # share, plus/minus granted steals, minus streamed results.
        # Drives remaining-work victim ranking under the SPEED policy.
        self.assigned = [0] * capacity
        for n, share in self.shares.items():
            self.assigned[n] = sum(self.accepted_count(b) for b in share)
        self.completed_by = [0] * capacity
        #: Blocks each node is estimated to hold right now (initial
        #: share, moved by steal grants) — the recovery source when a
        #: node dies or retires mid-job.  Over-inclusion is safe (the
        #: dedupe filter drops re-executed pairs); under-inclusion
        #: would lose pairs, so blocks only leave a node's list when a
        #: grant provably moved them.
        self.owned: Dict[int, List[PairBlock]] = {
            n: list(share) for n, share in self.shares.items()
        }
        #: Coordinator-side exactly-once filter (elastic sessions only):
        #: recovery re-executes whole blocks, so duplicated results must
        #: not double-stream to the handle or double-count completion.
        self.done_pairs: Optional[Set[Tuple[int, int]]] = (
            set() if session._elastic else None
        )
        self.completed = 0
        #: The stop broadcast went out (all pairs in, failure or abort).
        self.stopped = False
        #: Set when the stop broadcast goes out: the job must collect
        #: its remaining stats reports before this wall-clock moment or
        #: the session is marked dead (a node that neither reports nor
        #: dies leaves the protocol state unknowable).
        self.report_deadline: Optional[float] = None
        #: Nodes that died after this job completed cleanly: their
        #: stats report is forgiven instead of failing the session.
        self.forgiven_nodes: Set[int] = set()

    # -- bookkeeping helpers ---------------------------------------------

    def accepted_count(self, block: PairBlock) -> int:
        """Pairs of ``block`` that survive the filter (all, if none).

        The filter sweep only pays off for the SPEED policy's
        remaining-work estimate; UNIFORM runs never read it, so they
        get the O(1) raw count.
        """
        if self.pair_filter is None or not self.speed_aware:
            return block.count
        region = (block.row_lo, block.row_hi, block.col_lo, block.col_hi)
        count = self._accepted_counts.get(region)
        if count is None:
            keys = self.keys
            count = sum(
                1 for i, j in block.pairs() if self.pair_filter(keys[i], keys[j])
            )
            self._accepted_counts[region] = count
        return count

    def reports_complete(self) -> bool:
        return all(
            i in self.reports or i in self.forgiven_nodes for i in self.participants
        )

    # -- protocol actions ------------------------------------------------

    def broadcast_stop(self, abort: bool) -> None:
        self.stopped = True
        if self.report_deadline is None:
            self.report_deadline = time.perf_counter() + 15.0
        for node in self.participants:
            try:
                self.session._fabric.send_node(node, ("stop", self.job_id, abort))
            except Exception:
                pass  # a crashed node's queue may already be broken

    def victim_order(self, thief: int) -> List[int]:
        """Remote-node probe order for a steal request.

        UNIFORM: the global VictimSelector tier (randomized,
        locality-aware).  SPEED: the same candidate set re-ranked by
        estimated remaining work, so the most-backlogged node is
        probed first instead of a uniformly random one.  Dead,
        retired and non-participating nodes are excluded at the
        selector so a thief's probe can never park on a victim that
        will not answer.
        """
        cfg = self.session._runtime.config
        topology = self.session._topology
        live = self.session._live
        excluded = frozenset(
            w
            for w, node in enumerate(topology.node_of)
            if node not in live
            or node not in self.participants
            or node in self.forgiven_nodes
        )
        order: List[int] = []
        for w in self.selector.candidates(thief * cfg.n_devices, exclude=excluded):
            node = topology.node_of[w]
            if node != thief and node not in order:
                order.append(node)
        if self.speed_aware:
            # Remaining *time*, not pairs: a slow node with half the
            # backlog of a fast one may still be the bigger straggler.
            order.sort(
                key=lambda v: (
                    max(0, self.assigned[v] - self.completed_by[v])
                    / self.node_speeds[v]
                ),
                reverse=True,
            )
        return order

    def grant(
        self, thief: int, req_id: int, block: Optional[PairBlock], count: int = 0
    ) -> None:
        if block is not None and thief not in self.session._live:
            # The thief died between its request and this grant: the
            # block would be stranded in a dead inbox.  Hand it to a
            # surviving node instead (the thief's own death handling
            # reclaims whatever it already held).
            self.reinject_block(block)
            return
        try:
            self.session._fabric.send_node(
                thief, ("sgrant", self.job_id, req_id, block)
            )
        except Exception:
            if block is not None:
                raise  # a lost granted block would strand its pairs
            return
        if block is not None:
            self.remote_steals += 1
            self.assigned[thief] += count
            self.owned.setdefault(thief, []).append(block)

    def advance_steal(self, key: Tuple[int, int]) -> None:
        thief, req_id = key
        victims = self.pending_steals[key]
        live = self.session._live
        while victims:
            victim = victims.pop(0)
            if victim not in live:
                continue  # died since the order was computed
            self.probing[key] = victim
            self.session._fabric.send_node(
                victim, ("sprobe", self.job_id, thief, req_id)
            )
            return
        del self.pending_steals[key]
        self.probing.pop(key, None)
        self.grant(thief, req_id, None)

    def record_results(self, block: Sequence[Tuple[int, int, Any]]) -> None:
        """Record one decoded ``("results", ...)`` block, once."""
        if self.done_pairs is not None:
            # Exactly-once: recovery re-executes whole blocks, so a
            # pair may be computed twice — only the first result
            # streams to the handle and counts toward completion.
            done = self.done_pairs
            fresh = []
            for triple in block:
                cell = (triple[0], triple[1])
                if cell not in done:
                    done.add(cell)
                    fresh.append(triple)
            block = fresh
        if not block:
            return
        self.handle._record_block(
            [(i, j) for i, j, _ in block], [value for _, _, value in block]
        )
        self.completed += len(block)
        if self.handle.accounting is not None:
            self.handle.accounting.pairs_completed += len(block)
        if self.completed == self.total_pairs and not self.stopped:
            self.broadcast_stop(False)

    def fail(self, text: str) -> None:
        if self.error is None:
            self.error = RuntimeError(f"cluster run failed: {text}")
        if not self.stopped:
            self.broadcast_stop(True)

    # -- elastic recovery ------------------------------------------------

    def _subtract_owned(self, node: int, block: PairBlock) -> None:
        """Remove ``block`` from ``node``'s ownership estimate.

        A steal grant ships an exact block the victim reported, which
        is either one of the blocks we track for it or a descendant
        produced by the victim's local quadtree splits.  Exact match
        pops the entry; otherwise we descend: split the containing
        tracked block the same way the quadtree does, drop the child
        matching the grant, keep the siblings.  If the region cannot
        be aligned we leave the tracked block alone — over-inclusion
        only costs duplicated (deduped) work on recovery, while
        removing too much would lose pairs.
        """
        owned = self.owned.get(node)
        if not owned:
            return
        region = (block.row_lo, block.row_hi, block.col_lo, block.col_hi)
        for k, b in enumerate(owned):
            if (b.row_lo, b.row_hi, b.col_lo, b.col_hi) == region:
                owned.pop(k)
                return
        # Quadtree descent from the containing tracked block.
        for k, b in enumerate(owned):
            if (
                b.row_lo <= block.row_lo
                and b.row_hi >= block.row_hi
                and b.col_lo <= block.col_lo
                and b.col_hi >= block.col_hi
            ):
                container = owned.pop(k)
                for _ in range(64):  # bound descent on misaligned regions
                    if (
                        container.row_lo,
                        container.row_hi,
                        container.col_lo,
                        container.col_hi,
                    ) == region:
                        return  # exact child found and dropped
                    if container.is_leaf():
                        owned.append(container)  # misaligned: keep whole
                        return
                    next_container = None
                    for child in container.split():
                        if (
                            child.row_lo <= block.row_lo
                            and child.row_hi >= block.row_hi
                            and child.col_lo <= block.col_lo
                            and child.col_hi >= block.col_hi
                        ):
                            next_container = child
                        else:
                            owned.append(child)
                    if next_container is None:
                        return  # grant straddles children: siblings kept
                    container = next_container
                owned.append(container)
                return

    def reinject_block(self, block: PairBlock, exclude: Set[int] = frozenset()) -> int:
        """Queue ``block`` onto a live participant via the late-grant path.

        Returns the target node, or -1 if no live participant is left
        (the caller fails the job).  Targets the least-loaded live
        node by the remaining-work estimate so recovery does not pile
        onto one survivor.
        """
        targets = [
            n
            for n in self.participants
            if n in self.session._live
            and n not in self.forgiven_nodes
            and n not in exclude
        ]
        if not targets:
            return -1
        target = min(targets, key=lambda n: self.assigned[n] - self.completed_by[n])
        count = self.accepted_count(block)
        # req_id -1: no pending on the node side — routes through the
        # same inject path as a late steal grant.
        self.session._fabric.send_node(target, ("sgrant", self.job_id, -1, block))
        self.assigned[target] += count
        self.owned.setdefault(target, []).append(block)
        return target

    def _block_remaining(self, block: PairBlock) -> bool:
        """True if any accepted pair of ``block`` lacks a recorded result."""
        done = self.done_pairs
        if done is None:
            return True
        keys, flt = self.keys, self.pair_filter
        for i, j in block.pairs():
            if flt is not None and not flt(keys[i], keys[j]):
                continue
            if (i, j) not in done:
                return True
        return False

    def recover_node(self, node: int, *, voluntary: bool = False) -> int:
        """Reclaim a dead/retiring node's unfinished blocks and re-enqueue.

        Returns the number of pairs re-injected.  The node is marked
        forgiven (its stats report is no longer awaited) and all steal
        probes parked on it are advanced immediately.
        """
        self.forgiven_nodes.add(node)
        blocks = self.owned.pop(node, [])
        reinjected_pairs = 0
        lost = False
        for block in blocks:
            if not self._block_remaining(block):
                continue  # every accepted pair already streamed back
            if self.reinject_block(block, exclude={node}) < 0:
                lost = True
                break
            reinjected_pairs += self.accepted_count(block)
        # Steal requests probing the dead victim would otherwise wait
        # out the watchdog; advance them to the next candidate now.
        for key, victim in list(self.probing.items()):
            if victim == node and key in self.pending_steals:
                self.advance_steal(key)
        if self.handle.accounting is not None:
            if not voluntary:
                self.handle.accounting.nodes_lost += 1
            self.handle.accounting.pairs_recovered += reinjected_pairs
        if lost:
            self.fail(f"node {node} died and no live node remains to take over")
        return reinjected_pairs


class ClusterSession(BackendSession):
    """A live multi-process execution context.

    Spawns one worker process per node plus the transport fabric
    *once*; the shared session driver then runs on the coordinator
    thread, and this class supplies the cluster's half: a submitted
    workload is dispatched as job-tagged protocol exchanges, the
    coordinator routes steal requests, result batches and stats
    reports between the nodes' messages, and the nodes interleave the
    active jobs' pair streams on their shared engines.  Between and
    during jobs the nodes keep their device/host caches (and the
    processes and kernel threads themselves) warm.  :meth:`close` ends
    the node processes and unlinks every shared resource; a node crash
    marks the whole session dead (submissions then fail fast) but never
    leaks processes or ``/dev/shm`` segments.
    """

    _process_name = "coordinator"

    def __init__(
        self,
        runtime: ClusterRocketRuntime,
        policy="fifo",
        max_active: Optional[int] = None,
    ) -> None:
        cfg, cl = runtime.config, runtime.cluster
        super().__init__(
            runtime, JobScheduler(coerce_policy(policy), max_active=max_active),
            "cluster.coordinator",
        )
        self._transport = cl.transport
        try:
            ctx = multiprocessing.get_context(cl.start_method)
        except ValueError as exc:
            raise RuntimeError(
                f"multiprocessing start method {cl.start_method!r} unavailable "
                f"on this platform"
            ) from exc
        self._ctx = ctx
        self._node_cfgs = runtime._node_configs()
        capacity = cl.capacity
        self._capacity = capacity
        self._elastic = cl.elastic
        # Slots beyond the initial node set (joinable under elastic
        # membership) run the base config at the base speed.
        self._node_speeds = [c.aggregate_speed for c in self._node_cfgs] + [
            cfg.aggregate_speed
        ] * (capacity - cl.n_nodes)
        self._topology = WorkerTopology.from_gpus_per_node(
            [cfg.n_devices] * capacity
        )
        #: Membership: monotonically-versioned epoch, the live node set,
        #: and the disjoint dead/retired sets.  Only the coordinator
        #: thread mutates these; nodes learn of changes via the
        #: ``("epoch", epoch, live)`` broadcast.
        self._epoch = 0
        self._live: Set[int] = set(range(cl.n_nodes))
        self._dead: Set[int] = set()
        self._retired: Set[int] = set()
        self._next_slot = cl.n_nodes
        #: Membership commands (add/retire) enqueued by user threads and
        #: executed on the coordinator thread, where all job state lives.
        self._control: "queue.Queue[Tuple]" = queue.Queue()
        self._fabric = create_fabric(cl.transport, ctx, cl)
        self._procs: List = [
            ctx.Process(
                target=_node_main,
                args=(
                    i, runtime.app, runtime.store, self._node_cfgs[i], cl,
                    self._fabric, 0, tuple(range(cl.n_nodes)),
                ),
                name=f"rocket-node{i}",
                daemon=True,
            )
            for i in range(cl.n_nodes)
        ]
        self._log.info(
            "session open: %d node processes, transport=%s", cl.n_nodes, cl.transport
        )
        try:
            for p in self._procs:
                p.start()
            self._thread.start()
        except BaseException:
            # Startup failed (e.g. an unpicklable app under the "spawn"
            # start method): the session object never reaches the
            # caller, so close() is unreachable — tear down the already
            # started processes and the fabric's shared segments here.
            for p in self._procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=2.0)
            self._fabric.shutdown()
            raise

    # ------------------------------------------------------------------

    def _prepare(self, workload: Workload) -> None:
        """Check, before anything is dispatched, that the job can ship.

        The workload's keys and pair filter ride on the job message: a
        lambda or closure predicate would otherwise only crash inside a
        worker process, far from the caller.
        """
        try:
            pickle.dumps((workload.keys, workload.pair_filter))
        except Exception as exc:
            raise ValueError(
                f"workload cannot be shipped to the cluster workers "
                f"({exc}); keys and pair filters must be picklable — "
                f"define filter predicates at module level, not as "
                f"lambdas or closures"
            ) from None

    def _teardown(self) -> None:
        """Stop the workers, join the processes, unlink shared state."""
        for node in range(self._next_slot):
            try:
                self._fabric.send_node(node, ("shutdown",))
            except Exception:
                pass  # a crashed node's queue may already be broken
        for p in self._procs:
            p.join(timeout=5.0)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=2.0)
        # Tears down queues and unlinks shared segments — runs on every
        # exit path, so a crashed node cannot leak /dev/shm entries.
        self._fabric.shutdown()

    # -- elastic membership ----------------------------------------------

    def _require_elastic(self) -> None:
        if not self._elastic:
            raise RuntimeError(
                "membership changes need ClusterConfig(elastic=True)"
            )
        self._check_open()

    def add_node(self) -> int:
        """Spawn a new worker and enroll it in the live session.

        The node joins active jobs with an empty initial share — the
        steal plane pulls work onto it — and registers in every job's
        candidate directories as cache state builds.  Returns the new
        node id.  Runs on the coordinator thread (all job state lives
        there); this call blocks until the join is effective.
        """
        return self._on_coordinator("add", None, True)

    def _on_coordinator(self, kind: str, node: Optional[int], drain: bool) -> int:
        """Run one membership command on the coordinator thread; block for it."""
        self._require_elastic()
        box: Dict[str, Any] = {}
        event = threading.Event()
        self._control.put((kind, node, drain, box, event))
        if not event.wait(timeout=60.0):
            raise RuntimeError(f"{kind}_node timed out waiting for the coordinator")
        if "error" in box:
            raise box["error"]
        return box["result"]

    def retire_node(self, node: Optional[int] = None, *, drain: bool = True) -> int:
        """Remove a worker from the live session without losing pairs.

        The node's unfinished blocks are re-injected onto the surviving
        nodes (results it already streamed are kept; any overlap is
        deduplicated), membership is re-announced under a new epoch,
        and the worker process is shut down and joined.  ``node=None``
        retires the highest-numbered live node.  ``drain=False`` skips
        waiting for the worker process to exit.
        """
        node = self._on_coordinator("retire", node, drain)
        proc = self._procs[node]
        proc.join(timeout=15.0 if drain else 0.1)
        if proc.is_alive() and drain:
            proc.terminate()
            proc.join(timeout=2.0)
        self._fabric.release_node_segment(node)
        return node

    def _bump_epoch(self) -> None:
        """Advance membership and announce it to every live node."""
        self._epoch += 1
        live = tuple(sorted(self._live))
        for node in live:
            try:
                self._fabric.send_node(node, ("epoch", self._epoch, live))
            except Exception:
                pass  # a dying node's queue may already be broken

    def _do_control(self, cmd: Tuple) -> None:
        """Execute one membership command on the coordinator thread."""
        kind, node, drain, box, event = cmd
        try:
            if kind == "add":
                box["result"] = self._do_add_node()
            else:
                box["result"] = self._do_retire_node(node, drain)
        except BaseException as exc:  # noqa: BLE001 - delivered to caller
            box["error"] = exc
        finally:
            event.set()

    def _do_add_node(self) -> int:
        runtime = self._runtime
        cl = runtime.cluster
        if self._next_slot >= self._capacity:
            raise RuntimeError(
                f"cluster is at capacity ({self._capacity} node slots); "
                f"raise ClusterConfig(max_nodes=...)"
            )
        node = self._next_slot
        self._next_slot += 1
        live = tuple(sorted(self._live | {node}))
        proc = self._ctx.Process(
            target=_node_main,
            args=(
                node, runtime.app, runtime.store, runtime.config, cl,
                self._fabric, self._epoch + 1, live,
            ),
            name=f"rocket-node{node}",
            daemon=True,
        )
        proc.start()
        self._procs.append(proc)  # index == node id, always
        self._live.add(node)
        self._bump_epoch()
        # Enroll into jobs already in flight: an empty share makes the
        # node a steal target/thief and a cache peer immediately.
        for job in self._active.values():
            if job.stopped:
                continue
            job.participants.add(node)
            packed = self._fabric.pack_job_payload(
                (job.keys, job.pair_filter, [])
            )
            self._fabric.send_node(
                node, ("job", job.job_id, packed, job.handle.max_inflight)
            )
        self._log.info("node joined", node=node, epoch=self._epoch)
        return node

    def _do_retire_node(self, node: Optional[int], drain: bool) -> int:
        if node is None:
            node = max(self._live)
        if node not in self._live:
            raise RuntimeError(f"node {node} is not a live cluster member")
        if len(self._live) == 1:
            raise RuntimeError("cannot retire the last live node")
        self._live.discard(node)
        self._retired.add(node)
        for job in list(self._active.values()):
            if node not in job.participants or node in job.forgiven_nodes:
                continue
            if node in job.reports:
                continue  # already finished its part
            job.recover_node(node, voluntary=True)
            try:
                self._fabric.send_node(node, ("stop", job.job_id, True))
            except Exception:
                pass
        self._bump_epoch()
        try:
            self._fabric.send_node(node, ("shutdown",))
        except Exception:
            pass
        self._log.info("node retired", node=node, epoch=self._epoch)
        return node

    # ------------------------------------------------------------------

    def _pump(self) -> None:
        """One coordinator tick: membership, messages, process health."""
        # Membership commands from user threads run here, on the
        # coordinator thread, where all job state lives.
        while True:
            try:
                cmd = self._control.get_nowait()
            except queue.Empty:
                break
            self._do_control(cmd)
        # Pump the message queue (bounded burst per tick).
        fabric = self._fabric
        msg = fabric.recv_coordinator(self._runtime.cluster.poll_interval)
        saw_message = msg is not None
        drained = 0
        while msg is not None:
            try:
                self._dispatch(msg)
            except BaseException as exc:  # noqa: BLE001 - must survive
                self._mark_fatal(f"coordinator dispatch failed: {exc!r}")
                break
            drained += 1
            if drained >= 256:
                break
            msg = fabric.recv_coordinator(0.001)
        # Process-death detection, only on idle ticks: in-flight
        # error/stats messages beat the generic crash report.
        if not saw_message and self._fatal is None:
            self._check_dead_nodes()

    def _start_job(self, handle: RunHandle) -> _ClusterJob:
        """Dispatch one admitted job's shares to every node."""
        job = _ClusterJob(self, handle)
        self._log.info("job dispatched", job_id=job.job_id)
        try:
            for node in sorted(job.participants):
                # Each node's spec goes through the fabric's dispatch
                # plane: inline on the queue transport, a shared-segment
                # descriptor on shm — the message stays tiny either way.
                packed = self._fabric.pack_job_payload(
                    (job.keys, job.pair_filter, job.shares.get(node, []))
                )
                self._fabric.send_node(
                    node, ("job", job.job_id, packed, handle.max_inflight)
                )
        except BaseException:
            # Partial dispatch: abort whatever did go out; the driver
            # fails the job with the error.
            job.broadcast_stop(True)
            raise
        return job

    def _dispatch(self, msg: Tuple) -> None:
        """Route one job-tagged coordinator message."""
        kind = msg[0]
        if kind == "results":
            _, node, job_id, block = msg
            block = self._fabric.decode_result_block(block)
            job = self._active.get(job_id)
            if job is None:
                return  # stragglers of a finalized job
            job.completed_by[node] += len(block)
            job.record_results(block)
        elif kind == "sreq":
            _, job_id, thief, req_id = msg
            job = self._active.get(job_id)
            if job is None or job.stopped:
                try:
                    self._fabric.send_node(thief, ("sgrant", job_id, req_id, None))
                except Exception:
                    pass
            else:
                job.pending_steals[(thief, req_id)] = job.victim_order(thief)
                job.advance_steal((thief, req_id))
        elif kind == "srep":
            _, job_id, victim, thief, req_id, block = msg
            job = self._active.get(job_id)
            if job is None:
                return  # the job is gone; its nodes were stopped already
            key = (thief, req_id)
            if job.stopped and key not in job.pending_steals:
                return  # the job ended while this probe was in flight
            if block is not None:
                moved = job.accepted_count(block)
                job.assigned[victim] = max(0, job.assigned[victim] - moved)
                job.pending_steals.pop(key, None)
                job.probing.pop(key, None)
                # The grant provably moved this region off the victim:
                # keep the recovery ownership map exact.
                job._subtract_owned(victim, block)
                job.grant(thief, req_id, block, moved)
            elif key in job.pending_steals:
                job.advance_steal(key)
        elif kind == "error":
            _, node, job_id, text = msg
            if job_id is None:
                # Process-level failure: no job framing survives it.
                self._mark_fatal(f"node {node}: {text}")
                return
            job = self._active.get(job_id)
            if job is not None:
                job.fail(f"node {node}: {text}")
        elif kind == "stats":
            _, node, job_id, report = msg
            job = self._active.get(job_id)
            if job is not None:
                job.reports[node] = report
        elif kind == "pfree":
            # A node finished reading a job dispatch payload; return the
            # coordinator-segment slot to the fabric's pool.
            self._fabric.handle_free(msg)
        else:
            raise AssertionError(f"unknown coordinator message {kind!r}")

    def _stop_job(self, job: _ClusterJob) -> None:
        if not job.stopped:
            job.broadcast_stop(True)

    def _job_ended(self, job: _ClusterJob) -> bool:
        """Ended: stopped, and every node still owing a report sent it."""
        if not job.stopped:
            return False
        if job.reports_complete():
            return True
        if time.perf_counter() > job.report_deadline:
            missing = sorted(
                i
                for i in job.participants
                if i not in job.reports and i not in job.forgiven_nodes
            )
            self._mark_fatal(
                f"nodes {missing} never reported after job {job.job_id} ended"
            )
        return False

    def _collect(self, job: _ClusterJob) -> List[NodeStats]:
        return [job.reports[i] for i in sorted(job.reports)]

    def _check_dead_nodes(self) -> None:
        """Handle worker-process death: forgive clean jobs, else fatal.

        Elastic sessions instead evict the dead node from membership
        and re-enqueue its unfinished blocks (:meth:`_recover_dead_node`)
        — only losing the *last* node is fatal.
        """
        if self._elastic:
            self._check_dead_nodes_elastic()
            return
        dead = [
            (i, p) for i, p in enumerate(self._procs) if not p.is_alive()
        ]
        if not dead:
            return
        # Give any in-flight error/stats messages priority over the
        # generic crash report.
        self._drain_late_messages()
        for i, p in dead:
            for job in list(self._active.values()):
                if i in job.reports or i in job.forgiven_nodes:
                    continue
                if job.stopped and job.error is None and job.completed == job.total_pairs:
                    # All pairs are in: a node that died after the stop
                    # broadcast only costs its stats report.
                    job.forgiven_nodes.add(i)
                else:
                    self._mark_fatal(
                        f"node {i} died unexpectedly (exit code {p.exitcode}) "
                        f"with {job.completed}/{job.total_pairs} pairs of "
                        f"job {job.job_id} completed"
                    )
                    return
            # Forgiven on every job: reclaim the dead node's payload
            # segments now instead of holding them until session close.
            self._fabric.release_node_segment(i)
        if not self._active and self._fatal is None:
            # No job was running: the session still cannot execute
            # future jobs with a node missing.
            i, p = dead[0]
            self._mark_fatal(
                f"node {i} died unexpectedly (exit code {p.exitcode})"
            )

    def _drain_late_messages(self) -> None:
        """Pump straggler messages before acting on a process death."""
        for _ in range(256):
            late = self._fabric.recv_coordinator(0.001)
            if late is None:
                break
            try:
                self._dispatch(late)
            except BaseException:
                break

    def _check_dead_nodes_elastic(self) -> None:
        """Elastic death handling: evict, recover blocks, re-announce."""
        dead = [
            (i, self._procs[i])
            for i in sorted(self._live)
            if not self._procs[i].is_alive()
        ]
        if not dead:
            return
        # In-flight results beat the crash report: anything the dead
        # node streamed before dying shrinks the recovery set.
        self._drain_late_messages()
        for i, p in dead:
            self._log.warning(
                "node %d died (exit code %s): recovering", i, p.exitcode
            )
            self._live.discard(i)
            self._dead.add(i)
            for job in list(self._active.values()):
                if (
                    i not in job.participants
                    or i in job.reports
                    or i in job.forgiven_nodes
                ):
                    continue
                if (
                    (job.stopped and job.error is None and job.completed == job.total_pairs)
                    or job.stopping
                    or job.error is not None
                ):
                    # Nothing left to recover — only its report is owed.
                    job.forgiven_nodes.add(i)
                    continue
                recovered = job.recover_node(i)
                self._log.info(
                    "job %d: re-injected %d pairs owned by dead node %d",
                    job.job_id, recovered, i,
                )
            self._fabric.release_node_segment(i)
        if not self._live:
            self._mark_fatal("all cluster nodes died")
            return
        self._bump_epoch()
        for job in list(self._active.values()):
            if job.stopped or job.error is not None:
                continue
            if not any(
                n in self._live and n not in job.forgiven_nodes
                for n in job.participants
            ):
                job.fail("every node running this job died")
