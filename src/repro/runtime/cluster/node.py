"""The worker process: one simulated cluster node serving many jobs."""

from __future__ import annotations

import functools
import threading
import traceback
from typing import List, Optional, Tuple

from repro.core.api import Application
from repro.data.filestore import FileStore
from repro.runtime.cluster.comm import NodeCommServer
from repro.runtime.cluster.config import ClusterConfig
from repro.runtime.localrocket import RocketConfig
from repro.runtime.pernode import NodeEngine, NodePipeline
from repro.runtime.transport import CHANNEL_ERRORS, TransportFabric
from repro.util.rng import RngFactory
from repro.util.trace import TraceRecorder


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
    state = comm.begin_job(job_id, keys)
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
            emit_block=state.emit_block,
            node_id=node_id,
            rngs=RngFactory(config.seed + 7919 * (node_id + 1) + 104729 * job_id),
            trace=state.trace,
            job_id=job_id,
            expected_pairs=None,  # the coordinator decides when the run ends
            # Both remote planes stay wired on a one-node session too (a
            # node joining later must find this one fetchable and
            # stealable-from); ``remote_fetch`` returns at once while
            # the live set has no peer.
            remote_fetch=(
                functools.partial(comm.remote_fetch, state)
                if cluster.distributed_cache
                else None
            ),
            global_steal=functools.partial(comm.global_steal, state),
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
        except CHANNEL_ERRORS:
            pass  # the coordinator is gone too: nobody left to tell
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
        comm_thread.join(timeout=2.0)  # it returned on the shutdown message
        transport.close()
    except BaseException:  # noqa: BLE001 - last-resort report to the coordinator
        try:
            transport.send_coordinator(("error", node_id, None, traceback.format_exc()))
        except CHANNEL_ERRORS:
            pass  # the coordinator is gone too: nobody left to tell
