"""The worker process: one simulated cluster node serving many jobs.

Two threads run a node's jobs.  The comm thread reads the inbox; a
``("job", ...)`` hand-out makes the job exist there and then — its
state registered, its pipeline built by :func:`_build_pipeline` and
started — so every later message for it finds it.  The main thread is
the node's driver (:func:`_drive`), like the local session's: a
finished pipeline wakes it, and it retires each job that is done —
flushes the job's results, reports its error, joins and closes the
pipeline, ships the stats report and ends the job — and stops any job
that outlives the node watchdog.
"""

from __future__ import annotations

import functools
import threading
import time
import traceback
from typing import Optional, Sequence, Tuple

from repro.core.api import Application
from repro.data.filestore import FileStore
from repro.runtime.cluster.comm import NodeCommServer, NodeJobState
from repro.runtime.cluster.config import ClusterConfig
from repro.runtime.localrocket import RocketConfig
from repro.runtime.pernode import NodeEngine, NodePipeline
from repro.runtime.stats import NodeStats
from repro.runtime.transport import CHANNEL_ERRORS, TransportFabric
from repro.scheduling.quadtree import PairBlock
from repro.util.rng import RngFactory
from repro.util.trace import TraceRecorder


def _format_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _build_pipeline(
    app: Application,
    store: FileStore,
    config: RocketConfig,
    cluster: ClusterConfig,
    engine: NodeEngine,
    comm: NodeCommServer,
    state: NodeJobState,
    pair_filter,
    initial_blocks: Sequence[PairBlock],
    max_inflight: Optional[int],
) -> NodePipeline:
    """The node's pipeline factory: one job's pipeline on the shared engine."""
    node_id = comm.node_id
    job_id = state.job_id
    return NodePipeline(
        app,
        store,
        config,
        state.keys,
        pair_filter=pair_filter,
        emit_block=state.batcher.emit_block,
        node_id=node_id,
        rngs=RngFactory(config.seed + 7919 * (node_id + 1) + 104729 * job_id),
        # Under profiling the job records into a node-local recorder
        # (pipeline stages and, via ``state.trace``, protocol spans);
        # its buffer ships to the coordinator with the final stats.
        trace=TraceRecorder(enabled=config.profiling),
        job_id=job_id,
        expected_pairs=None,  # the coordinator decides when the run ends
        # Both remote planes stay wired on a one-node session too (a
        # node joining later must find this one fetchable and
        # stealable-from); ``remote_fetch`` returns at once while the
        # live set has no peer.
        remote_fetch=(
            functools.partial(comm.remote_fetch, state)
            if cluster.distributed_cache
            else None
        ),
        global_steal=functools.partial(comm.global_steal, state),
        on_done=comm.wake.set,
        on_launch_done=state.ship_if_idle,
        initial_blocks=initial_blocks,
        engine=engine,
        max_inflight=max_inflight,
    )


def _retire(comm: NodeCommServer, state: NodeJobState, finished: bool) -> None:
    """End one job on this node; its stats report always ships.

    ``finished`` is False when the node watchdog expired: the job is
    aborted and reported as failed.  The coordinator waits for every
    node's report before it resolves a job, so a failure here still
    sends one — an empty report if the pipeline produced none.
    """
    pipeline = state.pipeline
    stats: Optional[NodeStats] = None
    try:
        if not finished:
            pipeline.request_stop(abort=True)
        state.batcher.flush()
        if pipeline.errors and not state.remote_abort:
            comm.send_job_error(state, _format_error(pipeline.errors[0]))
        elif not finished:
            comm.send_job_error(state, "node watchdog expired")
        pipeline.join(timeout=5.0)
        pipeline.close()  # engine-owned resources stay up
        stats = pipeline.stats()
    except BaseException:  # noqa: BLE001 - job-scoped last-resort report
        comm.send_job_error(state, traceback.format_exc())
    finally:
        try:
            comm.ship_stats(state, stats if stats is not None else NodeStats(node_id=comm.node_id))
        finally:
            comm.end_job(state)


def _drive(comm: NodeCommServer, watchdog: float) -> None:
    """The node's driver (main-thread body): retire jobs until shutdown.

    It sleeps on ``comm.wake`` until the nearest job's watchdog
    deadline, so a finished job is retired at once and nothing ticks.
    """
    while True:
        comm.wake.clear()  # before the scan: a later wake-up is not lost
        now = time.monotonic()
        nearest: Optional[float] = None
        for state in comm.active_jobs():
            deadline = state.started + watchdog
            finished = state.pipeline.wait(0)
            if finished or now >= deadline:
                _retire(comm, state, finished)
            else:
                nearest = deadline if nearest is None else min(nearest, deadline)
        if comm.shut_down and not comm.active_jobs():
            return
        comm.wake.wait(None if nearest is None else max(0.0, nearest - time.monotonic()))


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
    :class:`~repro.runtime.pernode.NodeEngine`: each job runs its own
    pipeline borrowed from the engine's devices and caches, so
    co-running and later jobs see the payloads earlier jobs loaded.
    The process exits on ``("shutdown",)`` once the driver has retired
    every job.
    """
    transport = fabric.endpoint(node_id)
    try:
        engine = NodeEngine(
            config,
            node_id=node_id,
            device_prefix=f"n{node_id}.gpu",
        )
        comm = NodeCommServer(
            node_id, cluster, transport,
            functools.partial(_build_pipeline, app, store, config, cluster, engine),
            epoch=epoch, live=live,
        )
        comm_thread = threading.Thread(target=comm.serve, name=f"comm{node_id}", daemon=True)
        comm_thread.start()
        # Slightly above the coordinator's watchdog so the coordinator
        # reports the timeout first with full progress information.
        _drive(comm, config.watchdog_seconds + 30.0)
        engine.close()
        comm_thread.join(timeout=2.0)  # it returned on the shutdown message
        transport.close()
    except BaseException:  # noqa: BLE001 - last-resort report to the coordinator
        try:
            transport.send_coordinator(("error", node_id, None, traceback.format_exc()))
        except CHANNEL_ERRORS:
            pass  # the coordinator is gone too: nobody left to tell
