"""The coordinator: the live ``ClusterSession``."""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import queue
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.core.scheduler import JobScheduler, coerce_policy
from repro.core.session import RunHandle
from repro.core.workload import Workload
from repro.runtime.backend import BackendSession
from repro.runtime.cluster.job import _ClusterJob
from repro.runtime.cluster.node import _node_main
from repro.runtime.localrocket import RocketConfig
from repro.runtime.stats import NodeStats
from repro.runtime.transport import CHANNEL_ERRORS, create_fabric
from repro.scheduling.workstealing import WorkerTopology

if TYPE_CHECKING:
    from repro.core.rocket import Rocket

__all__ = ["ClusterSession"]


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
    processes and kernel threads themselves) warm.

    Membership is live: :meth:`add_node` / :meth:`retire_node` grow and
    shrink the node set while jobs run, and a node that dies is evicted
    the same way — its unfinished blocks are re-injected onto the
    survivors and the new membership is announced
    (:meth:`_check_dead_nodes`).  Only losing the last live node marks
    the session dead (its jobs fail, submissions then fail fast).
    :meth:`close` ends the node processes and unlinks every shared
    resource; no exit path leaks processes or ``/dev/shm`` segments.
    """

    backend = "cluster"
    _process_name = "coordinator"

    def __init__(
        self,
        rocket: "Rocket",
        cfg: RocketConfig,
        *,
        policy="fifo",
        max_active: Optional[int] = None,
    ) -> None:
        cl = rocket.cluster
        super().__init__(
            rocket, cfg, JobScheduler(coerce_policy(policy), max_active=max_active),
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
        # Per-node configs: a heterogeneous node mix overrides each
        # node's device speed factors.
        node_cfgs = [cfg] * cl.n_nodes
        if cl.node_speed_factors is not None:
            node_cfgs = [
                dataclasses.replace(cfg, device_speed_factors=tuple(speeds))
                for speeds in cl.node_speed_factors
            ]
        capacity = cl.capacity
        self._capacity = capacity
        # Slots beyond the initial node set (filled by ``add_node``)
        # run the base config at the base speed.
        self._node_speeds = [c.aggregate_speed for c in node_cfgs] + [
            cfg.aggregate_speed
        ] * (capacity - cl.n_nodes)
        self._topology = WorkerTopology.from_gpus_per_node(
            [cfg.n_devices] * capacity
        )
        #: Membership: monotonically-versioned epoch, the live node set,
        #: and the nodes that died (with their exit codes).  Only the
        #: coordinator thread mutates these; nodes learn of changes via
        #: the ``("epoch", epoch, live)`` broadcast.
        self._epoch = 0
        self._live: Set[int] = set(range(cl.n_nodes))
        self._dead: Dict[int, Optional[int]] = {}
        self._next_slot = cl.n_nodes
        #: Membership commands (add/retire) enqueued by user threads and
        #: executed on the coordinator thread, where all job state lives.
        self._control: "queue.Queue[Tuple]" = queue.Queue()
        self._fabric = create_fabric(cl.transport, ctx, cl)
        self._procs: List = [
            ctx.Process(
                target=_node_main,
                args=(
                    i, rocket.app, rocket.store, node_cfgs[i], cl,
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

        The workload's keys ride on the job message (its accepted pairs
        travel as a :class:`~repro.core.workload.PairSet` of codes): an
        unpicklable key would otherwise only crash inside a worker
        process, far from the caller.
        """
        try:
            pickle.dumps(workload.keys)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ValueError(
                f"workload cannot be shipped to the cluster workers "
                f"({exc}); keys must be picklable"
            ) from None

    def _teardown(self) -> None:
        """Stop the workers, join the processes, unlink shared state."""
        for node in range(self._next_slot):
            self._tell(node, ("shutdown",))
        for p in self._procs:
            p.join(timeout=5.0)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=2.0)
        # Tears down queues and unlinks shared segments — runs on every
        # exit path, so a crashed node cannot leak /dev/shm entries.
        self._fabric.shutdown()

    # -- membership ------------------------------------------------------

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
        self._check_open()
        box: Dict[str, Any] = {}
        event = threading.Event()
        self._control.put((kind, node, drain, box, event))
        self._notify()
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
            self._tell(node, ("epoch", self._epoch, live))

    def _tell(self, node: int, msg: Tuple) -> None:
        """Best-effort send: nothing is lost if ``node`` never hears it.

        For stop/shutdown/epoch notices and empty steal grants, whose
        recipient may be dead and whose channel may already be torn
        down.  Messages carrying state (job hand-outs, granted blocks)
        go through ``self._fabric.send_node`` and raise.
        """
        try:
            self._fabric.send_node(node, msg)
        except CHANNEL_ERRORS:
            pass

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
        rocket = self._rocket
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
                node, rocket.app, rocket.store, self._config, rocket.cluster,
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
                (job.keys, job.accepted, [])
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
        for job in list(self._active.values()):
            if node not in job.participants or node in job.forgiven_nodes:
                continue
            if node in job.reports:
                continue  # already finished its part
            job.recover_node(node, voluntary=True)
            self._tell(node, ("stop", job.job_id, True))
        self._bump_epoch()
        self._tell(node, ("shutdown",))
        self._log.info("node retired", node=node, epoch=self._epoch)
        return node

    # ------------------------------------------------------------------

    def _notify(self) -> None:
        try:
            self._fabric.wake_coordinator()
        except CHANNEL_ERRORS:
            pass  # torn down by close(): the driver has exited already

    def _pump(self) -> None:
        """One coordinator tick: membership, messages, process health.

        The inbox wait ends on the next node message or :meth:`_notify`;
        only an idle ``poll_interval`` runs it out, and that idle tick
        is when node processes are checked for death.
        """
        # Membership commands from user threads run here, on the
        # coordinator thread, where all job state lives.
        while True:
            try:
                cmd = self._control.get_nowait()
            except queue.Empty:
                break
            self._do_control(cmd)
        # Process-death detection, only on idle ticks: in-flight
        # error/stats messages beat the generic crash report.
        idle = not self._drain(self._rocket.cluster.poll_interval)
        if idle and self._fatal is None:
            self._check_dead_nodes()

    def _drain(self, timeout: float) -> bool:
        """Dispatch a bounded burst of messages; False if none came in ``timeout``."""
        fabric = self._fabric
        msg = fabric.recv_coordinator(timeout)
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
        return saw_message

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
                    (job.keys, job.accepted, job.shares.get(node, []))
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
        if kind == "wake":
            return  # :meth:`_notify`: ending the inbox wait was the point
        if kind == "results":
            _, node, job_id, block = msg
            i, j, values = self._fabric.decode_result_block(block)
            job = self._active.get(job_id)
            if job is None:
                return  # stragglers of a finalized job
            job.completed_by[node] += len(values)
            job.record_results(i, j, values)
        elif kind == "sreq":
            _, job_id, thief, req_id = msg
            job = self._active.get(job_id)
            if job is None or job.stopped:
                self._tell(thief, ("sgrant", job_id, req_id, None))
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
        """Handle worker-process death: evict, re-inject, re-announce.

        A node found dead leaves the live set.  Every active job it
        served either forgives it — the job's stop broadcast already
        went out (all pairs in, failed, or being stopped), so the node
        only owed its stats report — or re-injects its unfinished
        blocks onto the surviving nodes.  Its payload segment is
        unlinked now instead of at session close, and the survivors
        learn the new membership under a new epoch.  With or without a
        job running, only losing the *last* live node is fatal: the
        session dies with one error naming every dead node, which is
        what its unfinished and queued jobs then fail with.
        """
        dead = [i for i in sorted(self._live) if not self._procs[i].is_alive()]
        if not dead:
            return
        # In-flight messages beat the crash report: results the dead
        # node streamed before dying shrink the recovery set, its error
        # or stats report settles the job it belongs to.
        self._drain(0.001)
        for i in dead:
            self._live.discard(i)
            self._dead[i] = self._procs[i].exitcode
            self._log.warning("node %d died (exit code %s)", i, self._dead[i])
        for i in dead:
            for job in list(self._active.values()):
                if (
                    i not in job.participants
                    or i in job.reports
                    or i in job.forgiven_nodes
                ):
                    continue
                if job.stopped:
                    job.forgiven_nodes.add(i)
                elif self._live:
                    recovered = job.recover_node(i)
                    self._log.info(
                        "job %d: re-injected %d pairs owned by dead node %d",
                        job.job_id, recovered, i,
                    )
            self._fabric.release_node_segment(i)
        if self._live:
            self._bump_epoch()
        else:
            self._mark_fatal(
                "no live node remains: "
                + ", ".join(
                    f"node {i} died (exit code {code})"
                    for i, code in sorted(self._dead.items())
                )
            )
