"""The per-node protocol endpoint: distributed cache and global steals.

:class:`NodeCommServer` is one node's half of every cross-node exchange
(see the package docstring for the protocol); :class:`NodeJobState` is
what it keeps per active job.
"""

from __future__ import annotations

import functools
import queue
import threading
import traceback
from collections import deque
from typing import Any, Deque, Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cache.distributed import CandidateDirectory, HopStats, mediator_of_live
from repro.runtime.cluster.config import _KIND_OF, ClusterConfig
from repro.runtime.pernode import NodePipeline
from repro.runtime.stats import NodeStats
from repro.runtime.transport import ResultBatcher, Transport
from repro.scheduling.quadtree import PairBlock
from repro.util.trace import TraceRecorder

__all__ = ["NodeCommServer", "NodeJobState"]


class _Pending:
    """One in-flight request a worker thread is blocked on."""

    def __init__(self, req_id: int, kind: str, job_id: int) -> None:
        self.req_id = req_id
        self.kind = kind  # "fetch" | "steal"
        self.job_id = job_id
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
        pack_result_block=None,
    ) -> None:
        self.job_id = job_id
        self.keys = list(keys)
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
            job_id=job_id,
            pack=pack_result_block,
        )

    def emit_block(self, pairs: Sequence[Tuple[int, int]], values: Sequence[Any]) -> None:
        """The pipeline's result hook: batch, but ship at once when the node has nothing queued.

        With the deques empty no later launch of this node is sure to
        fill the batch, so holding it would make the coordinator wait
        on a result that is already computed.
        """
        pipeline = self.pipeline
        idle = pipeline is None or not pipeline.has_queued_work()
        self.batcher.emit_block(pairs, values, flush=idle)


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

    def begin_job(self, job_id: int, keys: Sequence[Hashable]) -> NodeJobState:
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
        """Inbox loop (comm thread body); returns once it handled ``("shutdown",)``.

        It blocks on the inbox alone: every wait on the node side ends
        on a message, so there is no tick to wait out.
        """
        while True:
            msg = self.transport.recv(None)
            try:
                self.handle(msg)
            except BaseException:  # noqa: BLE001 - must not kill the comm thread
                self.transport.send_coordinator(
                    ("error", self.node_id, None, traceback.format_exc())
                )
            if msg[0] == "shutdown":
                return

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
        if pend.result is None:  # woken by stop or a membership change
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
        """Request one of this job's blocks from a remote node.

        The job's partial result batch ships first: a node asking for
        work has nothing queued, so nothing it holds will fill the batch.
        """
        if state.stopped.is_set():
            return None
        state.batcher.flush()
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
                # Departed nodes can no longer serve: drop them from
                # every active job's candidate directory so mediator
                # answers stop pointing requesters at them, and resolve
                # every fetch in flight with a definitive miss — the
                # requester cannot tell whether its mediator or any
                # candidate along the chain was one of them, and a probe
                # parked on a dead node would run out the fetch timeout.
                for state in self.active_jobs():
                    for node in gone:
                        state.directory.evict_node(node)
                with self._pending_lock:
                    doomed = [p for p in self._pending.values() if p.kind == "fetch"]
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
