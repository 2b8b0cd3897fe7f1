"""The per-node protocol endpoint: distributed cache and global steals.

:class:`NodeCommServer` is one node's half of every cross-node exchange
(see the package docstring for the protocol); :class:`NodeJobState` is
what it keeps per active job.

A job exists on a node from the moment the comm thread reads its
``("job", ...)`` hand-out: the handler registers the job's state and
starts its pipeline before it reads the next message.  The coordinator's
messages to a node arrive in order, so every later message for the job
— a stop, a steal or recovery grant, a cache probe — finds it.  The
node's main thread is the driver that retires finished jobs
(:func:`repro.runtime.cluster.node._drive`).
"""

from __future__ import annotations

import functools
import threading
import time
import traceback
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

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
    job can never touch another's state.  A registered state always
    has its pipeline: both are made by the one hand-out handler.
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
        #: Set by the hand-out handler before any message of the job
        #: is read.
        self.pipeline: NodePipeline
        #: When the hand-out was read (the node watchdog counts from it).
        self.started = time.monotonic()
        self.stopped = threading.Event()
        self.batcher = ResultBatcher(
            send_coordinator,
            node_id,
            cluster.result_batch,
            job_id=job_id,
            pack=pack_result_block,
        )

    @property
    def trace(self) -> TraceRecorder:
        """The job's per-process recorder: its pipeline's, which ships it."""
        return self.pipeline.trace

    def ship_if_idle(self) -> None:
        """Ship the partial result batch once the node has nothing queued and nothing in flight.

        Called after each launch is counted complete.  While work is
        queued or a launch is in flight, a later launch adds to the
        batch and ships it when it completes; deciding when a launch
        emits would let two launches that emit side by side both hold.
        A steal request ships the batch too
        (:meth:`NodeCommServer.global_steal`).
        """
        pipeline = self.pipeline
        if pipeline.in_flight() == 0 and not pipeline.has_queued_work():
            self.batcher.flush()


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

    The server outlives every job and serves many at once.  A
    ``("job", ...)`` hand-out registers the job and starts the pipeline
    ``make_pipeline(comm, state, pair_filter, blocks, max_inflight)``
    builds for it, on the comm thread, so the job exists before the
    next message is read; a hand-out that cannot be built is reported
    as that job's error, with an empty stats report.  The node's driver
    (:attr:`wake`, :meth:`end_job`) retires jobs; ``("stop", job_id,
    abort)`` ends exactly one job; ``("shutdown",)`` aborts what is
    still running and ends the process.  Messages for a job the node
    does not hold (never received, failed to build, or already ended)
    are answered with a miss (cache and steal probes) or dropped after
    releasing any out-of-band payload slot they carry — one job's
    stragglers can neither stall a peer nor leak into another job's
    accounting.
    """

    def __init__(
        self,
        node_id: int,
        cluster: ClusterConfig,
        transport: Transport,
        make_pipeline: Callable[..., NodePipeline],
        epoch: int = 0,
        live: Optional[Sequence[int]] = None,
    ) -> None:
        self.node_id = node_id
        self.cluster = cluster
        self.transport = transport
        self._make_pipeline = make_pipeline
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
        self._pending: Dict[int, _Pending] = {}
        self._pending_lock = threading.Lock()
        self._next_id = 0
        #: Set when a job starts, a pipeline finishes (its ``on_done``)
        #: or shutdown arrives: the node's driver waits on it.
        self.wake = threading.Event()
        #: True once ``("shutdown",)`` was read.
        self.shut_down = False

    # -- wiring ----------------------------------------------------------

    def _job_state(self, job_id: int) -> Optional[NodeJobState]:
        with self._jobs_lock:
            return self._jobs_state.get(job_id)

    def active_jobs(self) -> List[NodeJobState]:
        with self._jobs_lock:
            return list(self._jobs_state.values())

    def _begin_job(self, job_id: int, packed: Any, max_inflight: Optional[int]) -> None:
        """Register one hand-out's job and start its pipeline (comm thread).

        Any failure before the job is registered is that job's: it is
        reported with an empty stats report, so the coordinator ends
        the job at once, and the node keeps serving.
        """
        try:
            # The spec travels out-of-band (or inline, per the fabric)
            # and unpacks on this side.
            keys, pair_filter, blocks = self.transport.unpack_job_payload(packed)
            state = NodeJobState(
                job_id,
                keys,
                self.cluster,
                self.node_id,
                functools.partial(self._send_coordinator_for, job_id),
                # Result blocks leave through the transport's packer, so
                # a zero-copy transport ships descriptors instead of
                # pickled triple tuples.
                pack_result_block=self.transport.pack_result_block,
            )
            state.pipeline = self._make_pipeline(self, state, pair_filter, blocks, max_inflight)
        except BaseException:  # noqa: BLE001 - the job's failure, not the node's
            self.transport.send_coordinator(
                ("error", self.node_id, job_id, traceback.format_exc())
            )
            self.transport.send_coordinator(
                ("stats", self.node_id, job_id, NodeStats(node_id=self.node_id))
            )
            return
        with self._jobs_lock:
            self._jobs_state[job_id] = state
        state.pipeline.start()
        self.wake.set()  # the driver arms the job's watchdog

    def end_job(self, state: NodeJobState) -> None:
        """Retire the finished job's state (the engine stays warm)."""
        state.stopped.set()
        with self._jobs_lock:
            self._jobs_state.pop(state.job_id, None)

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
        work may wait a steal timeout for it, and the coordinator's
        view of the job's progress should not wait with it.
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
            _, job_id, packed, max_inflight = msg
            self._begin_job(job_id, packed, max_inflight)
            return
        if kind == "shutdown":
            # The coordinator stopped every job it still counts on; what
            # is left here has nobody waiting for it.
            self.shut_down = True
            for state in self.active_jobs():
                self._apply_stop(state, True)
            self.wake.set()
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
                if state is not None and 0 <= idx < len(state.keys)
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
            block = state.pipeline.steal_for_remote() if state is not None else None
            self._send_coordinator(
                state, ("srep", job_id, self.node_id, thief, req_id, block)
            )
        elif kind == "sgrant":
            _, _, req_id, block = msg
            pend = self._pop_pending(req_id)
            if pend is not None:
                pend.resolve(block)
            elif block is not None and state is not None and not state.stopped.is_set():
                # The thief timed out waiting (or this is a recovery
                # re-injection, req_id -1); never lose a granted block.
                # The job tag guarantees the block belongs to this
                # job's index space — a grant for a job this node does
                # not hold, or has stopped, is dropped instead.
                state.pipeline.inject_block(block)
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
        state.pipeline.request_stop(abort=abort)

    def ship_stats(self, state: NodeJobState, stats: NodeStats) -> None:
        """Send one job's final report: pipeline plus protocol counters."""
        self._count_send(state, ("stats",))
        with self._stats_lock:
            stats.merge(state.stats)
        self.transport.send_coordinator(("stats", self.node_id, state.job_id, stats))
