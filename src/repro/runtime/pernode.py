"""The per-node execution pipeline shared by the local and cluster runtimes.

:class:`NodePipeline` is one node's machinery, shared so that both the
single-process runtime (:class:`~repro.runtime.localrocket.LocalSession`)
and the multi-process cluster runtime run the *same* code for
everything that happens inside one node (paper Section 4.3):

- one worker thread per device runs the divide-and-conquer loop over
  the pair matrix with hierarchical random work-stealing; a block is
  sized by the job's *accepted* pairs (all of its pairs for a dense
  job), so it is a leaf once it holds at most ``grain`` of them (or
  cannot split), and a quadrant with none is dropped when its parent
  splits — a filtered job or a memo residual launches full leaves;
- a leaf's pairs are cut into *jobs* — one ``compare_block`` launch
  each: a batch of pairs for apps that define it, one pair (its base
  loop over ``compare``) otherwise — that run on a bounded job pool; a
  job pins its distinct items in the device cache (ascending index
  order), executes the comparison kernel on the owning device's serial
  kernel thread, copies the result D2H, post-processes on the CPU and
  emits, records and completes once for the whole batch;
- cache misses run the load pipeline on the job thread that missed the
  item: it reads the file from the store through the node's single I/O
  lane (a lock, so reads stay serialised per node), parses it, copies
  it H2D and pre-processes it on the device, then writes it back into
  the host cache ("data is always written to both the device and host
  cache").  Loads overlap across concurrent jobs, not across stage
  threads.

Admission and why it cannot deadlock
------------------------------------

The concurrent-job limit (paper Section 4.2) exists to protect the
device cache, so admission is denominated in what a job takes from it:
a job claims one unit per distinct item — one per device-cache pin it
will hold — out of ``device_cache_slots - 1`` units per device
(:class:`~repro.scheduling.throttle.ThreadAdmission`), with at most
``concurrent_jobs`` (a fixed 8) jobs in flight; the per-pair clamp
:func:`~repro.cache.policy.safe_job_limit` is the simulator's alone.  A
launch is cut by the cache's *capacity*, never by its momentary
occupancy: the worker claims the whole leaf whenever its distinct items
fit ``device_cache_slots - 1`` and waits, holding nothing, until that
many units are free.  Under cache pressure a device therefore runs one
whole leaf at a time and the overlap comes from the other device; a
leaf with more distinct items than the cache holds is cut into
capacity-sized launches (an 8 x 8 leaf on 12 slots runs as 24 + 24 + 16
pairs).  A job's ``max_inflight`` is
the same rule in pairs, on a per-pipeline admission claimed *before*
the device's (no running launch waits for it): a launch takes at most
``max_inflight`` pairs of its leaf and waits for that much room.

The bound is the whole deadlock argument.  Every slot that is
reader-pinned or in WRITE state is held by an admitted job that was
charged a unit for it, so *claimed units <= slots - 1* leaves at least
one slot that is neither: a ``reserve`` always finds a free or
evictable slot.  Slots in WRITE state always publish — the load
pipeline and the distributed fetch never wait on device-cache capacity
once their slot is reserved, and the host level needs no clamp because
host pins are only held across bounded H2D copies.  A job may therefore
hold pins while it waits for its next item: the only thing it can wait
for is another job's WRITE slot, which publishes.  A worker waiting
for admission holds no pin and no unit, so waiting for a whole leaf's
units adds no edge to that argument.  (A request larger than the limit
— a pair on a 2-slot cache — is admitted alone, holds at most one pin
while waiting and finds the second slot unpinned.)

What differs between the runtimes is injected as hooks:

- ``emit_block(i, j, values)`` — one finished launch as columns (int32
  pair indices, float64 values); local: write into the in-process
  :class:`~repro.core.result.ResultMatrix`; cluster: batch them for the
  coordinator;
- ``on_launch_done()`` — called after each launch is counted complete;
  cluster nodes ship their partial result batch there once nothing is
  queued and nothing is in flight (:meth:`NodePipeline.in_flight`);
- ``remote_fetch(idx)`` — the third (distributed) cache level,
  consulted after a host-cache miss and before the load pipeline;
  ``None`` (the local runtime) skips straight to loading;
- ``global_steal()`` — called when the local deques are all empty;
  cluster nodes use it to steal :class:`~repro.scheduling.quadtree.PairBlock`
  subtrees from remote nodes through the coordinator;
- ``on_done()`` — called once the run's done event is set; the local
  session wakes its serve loop with it, so a finished job is retired
  at once instead of at the next tick.

Idle workers block on a condition variable (``work_cond``) that is
notified whenever tasks are pushed, a job completes, or the run ends —
there is no sleep-polling loop.

Everything that should *outlive* one run — the virtual devices, both
cache levels, the job pool, the I/O lane and job admission — lives in a
:class:`NodeEngine`.  A pipeline either borrows a caller-owned engine
(how sessions keep caches warm across jobs: the second job's lookups
hit the payloads the first one loaded) or creates a private one that
it tears down in :meth:`NodePipeline.close` (the one-shot ``run()``
path).  Per-run statistics against a shared engine are *deltas*:
cumulative device/cache counters are snapshotted at pipeline
construction and subtracted in :meth:`NodePipeline.stats`.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.slots import CacheCounters, Slot, SlotCache, SlotState
from repro.core.api import Application
from repro.core.result import real_column
from repro.core.workload import PairSet, pair_counter
from repro.data.filestore import FileStore
from repro.model.perfmodel import StageCalibration
from repro.runtime.devices import VirtualDevice
from repro.runtime.stats import NodeStats
from repro.scheduling.quadtree import PairBlock, partition_blocks
from repro.scheduling.throttle import ThreadAdmission
from repro.scheduling.workstealing import (
    StealOrder,
    StealPolicy,
    TaskDeque,
    VictimSelector,
    WorkerTopology,
)
from repro.util.rng import RngFactory
from repro.util.trace import TraceRecorder

__all__ = ["NodeEngine", "NodeStats", "NodePipeline"]

#: Backstop timeout for idle-worker condition waits: wake-ups are
#: notified explicitly, the timeout only guards against lost notifies.
_IDLE_WAIT = 0.05


class _RunAborted(RuntimeError):
    """The run's abort ended a job's wait for an item: a stop, not a failure."""


def _pin_needs(pairs: Sequence[Tuple[int, int]]) -> List[int]:
    """``needs[k]``: distinct items among the first ``k + 1`` pairs."""
    seen: set = set()
    needs = []
    for pair in pairs:
        seen.update(pair)
        needs.append(len(seen))
    return needs


class _DeviceState:
    """Cache, lock and admission for one device."""

    def __init__(self, device: VirtualDevice, cache: SlotCache, admission: ThreadAdmission) -> None:
        self.device = device
        self.cache = cache
        self.cond = threading.Condition()
        self.admission = admission
        #: Guards ``pairs_done``: the device state is engine-shared, so
        #: concurrently running jobs' pipelines increment it from under
        #: *different* per-pipeline counter locks.
        self.pairs_lock = threading.Lock()
        self.pairs_done = 0


class NodeEngine:
    """The persistent substrate of one Rocket node.

    Owns everything whose lifetime should span *jobs*, not runs: the
    virtual devices with their slot caches and admission throttles, the
    host-level slot cache, the I/O lane and the job thread pool (every
    stage of a load runs on the job thread that missed the item).
    A session creates one engine per node and runs every submitted
    workload against it, so a later job over overlapping keys finds the
    earlier job's pre-processed payloads already resident in the device
    and host caches instead of re-running the load pipeline.

    ``capacity_hint`` bounds the cache slot counts by the data-set size
    for one-shot runs (no point allocating 256 slots for 10 items);
    session engines pass ``None`` because future jobs may be larger.
    """

    def __init__(
        self,
        config,  # RocketConfig (kept untyped to avoid an import cycle)
        *,
        node_id: int = 0,
        device_prefix: str = "gpu",
        capacity_hint: Optional[int] = None,
    ) -> None:
        cfg = config
        self.config = cfg
        self.node_id = node_id

        speeds = cfg.device_speed_factors or (1.0,) * cfg.n_devices
        speed_aware = cfg.steal_policy is StealPolicy.SPEED
        cap = capacity_hint if capacity_hint is not None else max(
            cfg.device_cache_slots, cfg.host_cache_slots
        )
        dev_slots = max(2, min(cfg.device_cache_slots, cap))
        host_slots = max(2, min(cfg.host_cache_slots, cap))
        limit = min(cfg.concurrent_jobs, dev_slots - 1)
        self.speeds = speeds

        self.states: List[_DeviceState] = []
        for d in range(cfg.n_devices):
            device = VirtualDevice(f"{device_prefix}{d}", speed_factor=speeds[d])
            cache = SlotCache(dev_slots, name=f"device:{node_id}:{d}")
            # Admission counts device-cache pins: dev_slots - 1 units,
            # at most ``limit`` jobs (see the module docstring).
            # Cost-guided: a slow device may only commit a
            # speed-proportional backlog, so the run tail is never a
            # queue of jobs serialised on the slowest kernel thread.
            # Shrinking either bound preserves the deadlock argument.
            share = speeds[d] / max(speeds) if speed_aware else 1.0
            admission = ThreadAdmission(
                max(1, round((dev_slots - 1) * share)),
                max_jobs=max(1, round(limit * share)),
            )
            self.states.append(_DeviceState(device, cache, admission))

        self.host_cache = SlotCache(host_slots, name=f"host:{node_id}")
        self.host_cond = threading.Condition()

        #: The node's I/O lane: store reads are serialised per node.
        self.io_lock = threading.Lock()
        self.job_pool = ThreadPoolExecutor(
            max_workers=max(2, limit * cfg.n_devices), thread_name_prefix=f"job{node_id}"
        )
        #: Lazily created persistent item cache (``config.store_dir``);
        #: engine-owned so it spans jobs like the in-memory cache levels.
        self._persist = None
        self._persist_failed = False
        self._persist_lock = threading.Lock()
        self._closed = False

    def persistent_cache(self, app, store):
        """The shared :class:`~repro.store.itemcache.PersistentItemCache`.

        ``None`` when the config has no ``store_dir`` or its ``items``
        directory cannot be created (the pipeline then simply runs cold
        — the persistent level is an accelerator, never a dependency).  Bound
        to the first ``(app, store)`` pair seen: an engine executes one
        application, like its key-addressed slot caches.
        """
        if not getattr(self.config, "store_dir", None):
            return None
        with self._persist_lock:
            if self._persist is None and not self._persist_failed:
                try:
                    from repro.store.itemcache import PersistentItemCache

                    self._persist = PersistentItemCache(
                        self.config.store_dir, app, store
                    )
                except OSError:
                    self._persist_failed = True
            return self._persist

    def snapshot(self) -> Dict[str, Any]:
        """Cumulative counter baseline, so a pipeline can report deltas."""
        def counters_tuple(c: CacheCounters):
            return (c.hits, c.hits_while_writing, c.misses, c.evictions)

        out: Dict[str, Any] = {
            "host": counters_tuple(self.host_cache.counters),
            "devices": [],
        }
        for st in self.states:
            with st.pairs_lock:
                pairs_done = st.pairs_done
            out["devices"].append(
                (
                    counters_tuple(st.cache.counters),
                    st.device.kernel_seconds,
                    st.device.kernel_count,
                    st.device.h2d_bytes,
                    st.device.d2h_bytes,
                    pairs_done,
                )
            )
        return out

    def close(self) -> None:
        """Tear down the job pool and devices (idempotent; safe after errors)."""
        if self._closed:
            return
        self._closed = True
        self.job_pool.shutdown(wait=False)
        for st in self.states:
            st.device.shutdown()
        with self._persist_lock:
            if self._persist is not None:
                self._persist.close()  # flush the content-hash cache
                self._persist = None

    @property
    def closed(self) -> bool:
        return self._closed


class NodePipeline:
    """Workers, caches and the load pipeline of one Rocket node.

    Lifecycle: construct, :meth:`start`, :meth:`wait` for the done
    event (set internally when ``expected_pairs`` complete, or
    externally via :meth:`request_stop`), :meth:`join`, :meth:`close`.

    With ``engine=`` the pipeline runs one job against a caller-owned
    :class:`NodeEngine` (session mode: caches stay warm, ``close()``
    leaves the engine alone); without it a private engine is created
    and torn down with the pipeline (one-shot mode).
    """

    def __init__(
        self,
        app: Application,
        store: FileStore,
        config,  # RocketConfig (kept untyped to avoid an import cycle)
        keys: Sequence[Hashable],
        *,
        accepted: Optional[PairSet] = None,
        emit_block: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = None,
        emit_result: Optional[Callable[[int, int, Any], None]] = None,
        node_id: int = 0,
        device_prefix: str = "gpu",
        rngs: Optional[RngFactory] = None,
        trace: Optional[TraceRecorder] = None,
        expected_pairs: Optional[int] = None,
        remote_fetch: Optional[Callable[[int], Optional[np.ndarray]]] = None,
        global_steal: Optional[Callable[[], Optional[PairBlock]]] = None,
        on_done: Optional[Callable[[], None]] = None,
        on_launch_done: Optional[Callable[[], None]] = None,
        initial_blocks: Sequence[PairBlock] = (),
        engine: Optional[NodeEngine] = None,
        max_inflight: Optional[int] = None,
        job_id: Optional[int] = None,
    ) -> None:
        cfg = config
        self.app = app
        self.store = store
        self.config = cfg
        self.keys = list(keys)
        #: The job's accepted pairs (None: every pair of its blocks).
        self.accepted = accepted
        #: A block's size: its accepted pairs (the leaf, share and deque
        #: unit), memoized as a block is split off, queued, popped and tested.
        self._size = size = (
            pair_counter(None) if accepted is None
            else functools.lru_cache(maxsize=None)(accepted.count)
        )
        if emit_block is None:
            # The per-pair spelling survives only for bench/layers.py,
            # which builds bare pipelines with it; nothing in src/ does.
            if emit_result is None:
                raise ValueError("NodePipeline needs an emit_block= hook")

            def emit_block(i, j, values, _emit=emit_result):
                for a, b, value in zip(i.tolist(), j.tolist(), values.tolist()):
                    _emit(a, b, value)

        #: Called once per finished launch with its index and value columns.
        self.emit_block = emit_block
        self.node_id = node_id
        self.expected_pairs = expected_pairs
        self.remote_fetch = remote_fetch
        self.global_steal = global_steal
        #: Called after the done event is set (possibly more than once).
        self.on_done = on_done
        #: Called once per launch, after it is counted complete.
        self.on_launch_done = on_launch_done
        #: The job's ``max_inflight`` cap, one unit per in-flight pair;
        #: per pipeline, i.e. per node on the cluster backend.
        self._window = ThreadAdmission(max_inflight) if max_inflight is not None else None

        n = len(self.keys)
        rngs = rngs if rngs is not None else RngFactory(cfg.seed)
        self.trace = trace if trace is not None else TraceRecorder(enabled=cfg.profiling)
        #: Spans this pipeline records carry the owning job's id, so a
        #: shared recorder (FAIR sessions) stays attributable per job.
        self.job_id = job_id
        # Event times are relative to the recorder's origin — a shared
        # recorder keeps one clock across all pipelines feeding it.
        self._t_origin = self.trace.origin

        self._private_engine = engine is None
        if engine is None:
            engine = NodeEngine(
                cfg, node_id=node_id, device_prefix=device_prefix,
                capacity_hint=n,
            )
        self.engine = engine
        #: Persistent (disk) cache level; None unless cfg.store_dir is
        #: set — see NodeEngine.persistent_cache for the guarantees.
        self._persist = engine.persistent_cache(app, store)
        self.states = engine.states
        self.host_cache = engine.host_cache
        self.host_cond = engine.host_cond
        self._io_lock = engine.io_lock
        self._job_pool = engine.job_pool
        self._baseline = engine.snapshot()
        speeds = engine.speeds
        speed_aware = cfg.steal_policy is StealPolicy.SPEED

        topology = WorkerTopology.from_gpus_per_node([cfg.n_devices])
        deques = self.deques = [TaskDeque(d, size) for d in range(cfg.n_devices)]
        self._selector = VictimSelector(
            topology,
            rngs.get(f"steal:n{node_id}"),
            policy=cfg.steal_policy,
            speeds=speeds,
            # Over the deques, not ``self``: no pipeline <-> selector cycle
            # keeps a finished job's pipeline (and its engine) alive.
            work_of=lambda w: float(deques[w].pending_pairs),
        )
        if speed_aware:
            # Speed-proportional initial partitioning: each device
            # starts with a share of the pairs matching its speed
            # factor instead of a round-robin block hand-out.
            for d, share in enumerate(partition_blocks(initial_blocks, speeds, size=size)):
                self.deques[d].push_children(share)
        else:
            for i, block in enumerate(initial_blocks):
                self.deques[i % cfg.n_devices].push(block)
        self.sched_lock = threading.Lock()
        #: Idle workers wait here; notified on new tasks, job completion
        #: and shutdown (replaces the old sleep-polling loop).
        self.work_cond = threading.Condition()

        self.counters = {
            "loads": 0,
            "io_bytes": 0,
            "parse_seconds": 0.0,
            "local_steals": 0,
            "submitted": 0,
            "completed": 0,
            "launches": 0,
            "persist_hits": 0,
            "persist_misses": 0,
            "persist_stores": 0,
            "persist_bytes_read": 0,
            "persist_bytes_written": 0,
            # Device-cache pins this job currently holds.  Pins are
            # job-tagged via the owning pipeline so that cancelling one
            # job verifiably releases *its* pins while co-running jobs'
            # pinned slots stay protected from eviction.
            "held_pins": 0,
        }
        self.counters_lock = threading.Lock()
        #: Live per-stage cost measurements (guarded by counters_lock).
        self.calibration = StageCalibration()
        #: Apps overriding ``compare_block`` launch a grain-sized leaf (or
        #: its capacity cut); the others one pair, so a cancel ends fast.
        self._batched = app.supports_compare_block
        #: Accepted pairs at which a block is executed rather than split.
        self._leaf_pairs = cfg.grain if self._batched else cfg.leaf_size
        self._has_item_view = app.supports_item_view
        self._speeds = speeds
        self.done = threading.Event()
        self.aborted = threading.Event()
        self.errors: List[BaseException] = []
        self._threads: List[threading.Thread] = []
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Launch the per-device worker threads."""
        self._threads = [
            threading.Thread(
                target=self._worker, args=(d,),
                name=f"worker{self.node_id}.{d}", daemon=True,
            )
            for d in range(self.config.n_devices)
        ]
        for w in self._threads:
            w.start()

    def wait(self, timeout: Optional[float]) -> bool:
        """Block until the run completes or aborts; False on timeout."""
        return self.done.wait(timeout=timeout)

    def request_stop(self, abort: bool = False) -> None:
        """Externally end the run (cluster shutdown / abort) and wake waiters."""
        if abort:
            self.aborted.set()
        self._signal_done()

    def fail(self, exc: BaseException) -> None:
        """Record an error and abort the run."""
        with self.counters_lock:
            self.errors.append(exc)
        self.aborted.set()
        self._signal_done()

    def _signal_done(self) -> None:
        self.done.set()
        with self.work_cond:
            self.work_cond.notify_all()
        with self.host_cond:
            self.host_cond.notify_all()
        for st in self.states:
            with st.cond:
                st.cond.notify_all()
        if self.on_done is not None:
            self.on_done()

    def join(self, timeout: float = 10.0) -> None:
        """Join worker threads and drain in-flight pair jobs (after done).

        The job pool belongs to the (possibly shared) engine, so the
        pool itself is never shut down here; instead the pipeline waits
        until every admitted job has run its completion hook.  A shared
        engine must be fully quiescent before the next job starts — a
        straggler would otherwise hold admission units and emit into
        the wrong run.
        """
        for w in self._threads:
            w.join(timeout=timeout)
        deadline = time.monotonic() + timeout
        with self.work_cond:
            while time.monotonic() < deadline:
                with self.counters_lock:
                    drained = self.counters["completed"] >= self.counters["submitted"]
                if drained:
                    break
                self.work_cond.wait(timeout=0.05)

    def close(self) -> None:
        """Release the pipeline (idempotent; safe after errors).

        Tears down the job pool and devices only when this pipeline owns its
        engine; a session-owned engine stays warm for the next job.
        """
        if self._closed:
            return
        self._closed = True
        if self._private_engine:
            self.engine.close()

    # -- introspection ---------------------------------------------------

    @property
    def held_pins(self) -> int:
        """Device-cache pins this job's in-flight pairs currently hold.

        Zero once the pipeline is joined — a cancelled job must hand
        every pin back so its eviction protection dies with it, while
        co-running jobs' pins (tracked by *their* pipelines) survive.
        """
        with self.counters_lock:
            return self.counters["held_pins"]

    def _now(self) -> float:
        return time.perf_counter() - self._t_origin

    def stats(self) -> NodeStats:
        """This run's share of the node's counters (call after the run).

        Cache/device counters accumulate on the engine across jobs; the
        pipeline reports them relative to the baseline snapshotted at
        construction, so a session's second job shows *its own* hits —
        which is exactly where warm-cache reuse becomes measurable.
        """

        def counters_delta(c: CacheCounters, base) -> CacheCounters:
            return CacheCounters(
                hits=c.hits - base[0],
                hits_while_writing=c.hits_while_writing - base[1],
                misses=c.misses - base[2],
                evictions=c.evictions - base[3],
            )

        base_devices = self._baseline["devices"]
        device_counters = CacheCounters()
        kernel_seconds: Dict[str, float] = {}
        kernel_counts: Dict[str, int] = {}
        pairs_per_device: Dict[str, int] = {}
        h2d_bytes = d2h_bytes = 0
        for st, base in zip(self.states, base_devices):
            device_counters.merge(counters_delta(st.cache.counters, base[0]))
            kernel_seconds[st.device.name] = st.device.kernel_seconds - base[1]
            kernel_counts[st.device.name] = st.device.kernel_count - base[2]
            h2d_bytes += st.device.h2d_bytes - base[3]
            d2h_bytes += st.device.d2h_bytes - base[4]
            with st.pairs_lock:
                pairs_per_device[st.device.name] = st.pairs_done - base[5]
        with self.counters_lock:
            # Every pipeline counter named like a NodeStats field ships.
            counters = {
                k: v for k, v in self.counters.items() if k in NodeStats.__dataclass_fields__
            }
            calibration = StageCalibration()
            calibration.merge(self.calibration)
        return NodeStats(
            node_id=self.node_id,
            **counters,
            device_counters=device_counters,
            host_counters=counters_delta(self.host_cache.counters, self._baseline["host"]),
            kernel_seconds=kernel_seconds,
            kernel_counts=kernel_counts,
            pairs_per_device=pairs_per_device,
            h2d_bytes=h2d_bytes,
            d2h_bytes=d2h_bytes,
            aggregate_speed=float(sum(self._speeds)),
            calibration=calibration,
            pid=os.getpid(),
            trace_origin=self.trace.origin,
            trace_events=self.trace.events if self.trace.enabled else [],
        )

    # -- services for the cluster comm layer -----------------------------

    def host_payload_view(self, key: Hashable) -> Optional[np.ndarray]:
        """Read-only view of ``key``'s host-cache payload, or None.

        Called from the cluster comm thread to serve remote fetches; a
        slot still being written (or already evicted) is reported as
        absent — the request then falls through to the next candidate.

        The view is served under a pin (refreshing recency like a local
        hit) and stays valid after eviction: published payloads are
        never mutated in place and the view keeps the backing array
        alive, so no deep copy is needed — the transport copies the
        bytes exactly once, straight onto the wire or into a shared
        segment.
        """
        with self.host_cond:
            slot = self.host_cache.peek(key)
            if slot is None or slot.state is not SlotState.READ:
                return None
            self.host_cache.pin(slot)  # refresh recency like a local hit
            try:
                view = slot.payload.view()
                view.setflags(write=False)
            finally:
                self.host_cache.unpin(slot)
            return view

    def steal_for_remote(self) -> Optional[PairBlock]:
        """Give up one block (from the most-loaded deque) to a remote thief.

        A steal that leaves the node pays a coordinator round-trip, so
        it takes the top of the deque (``StealOrder.LARGEST``), the most
        work per request — unlike :meth:`_next_local_task`'s intra-node steal.
        """
        with self.sched_lock:
            victim = max(self.deques, key=lambda q: q.pending_pairs)
            return victim.steal(StealOrder.LARGEST)

    def has_queued_work(self) -> bool:
        """True while any of this node's deques holds a task."""
        with self.sched_lock:
            return any(self.deques)

    def in_flight(self) -> int:
        """Pairs claimed for a launch and not yet counted complete."""
        with self.counters_lock:
            return self.counters["submitted"] - self.counters["completed"]

    def inject_block(self, block: PairBlock) -> None:
        """Push an externally delivered block onto the least-loaded deque."""
        with self.sched_lock:
            target = min(self.deques, key=lambda q: q.pending_pairs)
            target.push(block)
        with self.work_cond:
            self.work_cond.notify_all()

    # -- cache machinery -------------------------------------------------

    def _acquire_device_item(self, st: _DeviceState, idx: int) -> Slot:
        """Return the device slot of item ``idx``, pinned once."""
        first = True
        while True:
            with st.cond:
                slot = st.cache.lookup(self.keys[idx], count=first)
                first = False
                if slot is not None and slot.state is SlotState.READ:
                    st.cache.pin(slot)
                    with self.counters_lock:
                        self.counters["held_pins"] += 1
                    return slot
                if slot is None:
                    wslot = st.cache.reserve(self.keys[idx])
                    if wslot is not None:
                        break
                st.cond.wait(timeout=1.0)
                if self.aborted.is_set():
                    raise _RunAborted("run aborted")
        try:
            self._fill_device(st, idx, wslot)
        except BaseException:
            with st.cond:
                st.cache.abandon(wslot)
                st.cond.notify_all()
            raise
        with self.counters_lock:
            self.counters["held_pins"] += 1
        return wslot  # published with one reader pin for us

    def _release_device_item(self, st: _DeviceState, slot: Slot) -> None:
        with st.cond:
            st.cache.unpin(slot)
            st.cond.notify_all()
        with self.counters_lock:
            self.counters["held_pins"] -= 1

    def _slot_view(self, slot: Slot) -> Any:
        """Kernel-ready view of a pinned slot's payload.

        Apps without :meth:`~repro.core.api.Application.item_view` get
        the raw :class:`~repro.core.buffers.DeviceBuffer` (preserving
        the device-ownership check in the kernel launch).  Apps with
        one get the derived view, computed once per residency and
        cached on the slot — e.g. the bio app unpacks its sparse CV
        here instead of inside every comparison.
        """
        if not self._has_item_view:
            return slot.payload
        view = slot.derived
        if view is None:
            # Benign race: concurrent pair jobs may both derive the
            # same (deterministic) view; last write wins.
            view = self.app.item_view(slot.key, slot.payload.data)
            slot.derived = view
        return view

    def _acquire_block_slots(
        self, st: _DeviceState, indices: Sequence[int]
    ) -> Dict[int, Slot]:
        """Pin every item of a job, one after the other; all or raise.

        Holding the earlier pins while waiting for the next item is safe
        under pin-denominated admission (module docstring): the wait can
        only be for another job's WRITE slot, never for capacity.  A
        failed acquisition (abort, load error) must not leak the pins
        already taken — a stuck pin would wedge eviction for every
        surviving job.
        """
        slots: Dict[int, Slot] = {}
        try:
            for idx in indices:
                slots[idx] = self._acquire_device_item(st, idx)
        except BaseException:
            for held in slots.values():
                self._release_device_item(st, held)
            raise
        return slots

    def _fill_device(self, st: _DeviceState, idx: int, wslot: Slot) -> None:
        """Fill a reserved device slot from host cache, disk, a peer, or a load.

        A host hit is one H2D copy.  On a host miss the host slot is
        reserved too, and every source ends in the same steps under one
        guard: the item reaches the device and host memory, then both
        slots publish.  Whatever raises before that abandons the host
        slot (the caller abandons the device slot), so no later job
        waits on a slot that nobody will publish.
        """
        key = self.keys[idx]
        host_payload: Optional[np.ndarray] = None
        host_wslot: Optional[Slot] = None
        first = True
        while True:
            with self.host_cond:
                slot = self.host_cache.lookup(key, count=first)
                first = False
                if slot is not None and slot.state is SlotState.READ:
                    self.host_cache.pin(slot)  # refresh recency
                    host_payload = slot.payload
                    self.host_cache.unpin(slot)
                    break
                if slot is None:
                    host_wslot = self.host_cache.reserve(key)
                    if host_wslot is not None:
                        break
                self.host_cond.wait(timeout=1.0)
                if self.aborted.is_set():
                    raise _RunAborted("run aborted")

        if host_payload is not None:
            dev_buf = st.device.h2d(host_payload)
            with st.cond:
                st.cache.publish(wslot, payload=dev_buf, initial_readers=1)
                st.cond.notify_all()
            return

        blob: Optional[bytes] = None
        try:
            # The persistent disk level comes before any peer round-trip:
            # it is node-local and serves the preprocessed payload as a
            # read-only mapping of its ``.npy`` file, skipping
            # io/parse/preprocess entirely.  A peer's host
            # cache serves the preprocessed item too; only a miss on both
            # runs the load pipeline.
            host_payload = self._persist_load(key)
            if host_payload is None and self.remote_fetch is not None:
                host_payload = self.remote_fetch(idx)
            if host_payload is not None:
                dev_item = st.device.h2d(host_payload)
            else:
                blob, dev_item = self._load(st, key)
                host_payload = st.device.d2h(dev_item)
        except BaseException:
            with self.host_cond:
                self.host_cache.abandon(host_wslot)
                self.host_cond.notify_all()
            raise
        with st.cond:
            st.cache.publish(wslot, payload=dev_item, initial_readers=1)
            st.cond.notify_all()
        with self.host_cond:
            self.host_cache.publish(host_wslot, payload=host_payload)
            self.host_cond.notify_all()

        # Write a freshly loaded item back to the persistent level so
        # the next session warm-starts.  Only a load writes: a persist
        # hit is there already, and a remote-fetch hit was written back
        # by the node that loaded it.
        if blob is not None and self._persist is not None:
            # ``store`` never raises: 0 means already present or not storable.
            written = self._persist.store(key, host_payload, blob=blob)
            if written:
                with self.counters_lock:
                    self.counters["persist_stores"] += 1
                    self.counters["persist_bytes_written"] += written

    def _persist_load(self, key: Hashable) -> Optional[np.ndarray]:
        """The persistent level's payload for ``key``, or None (counted)."""
        if self._persist is None:
            return None
        tracing = self.trace.enabled
        t0 = self._now() if tracing else 0.0
        payload = self._persist.load(key)  # None on any miss; never raises
        with self.counters_lock:
            if payload is None:
                self.counters["persist_misses"] += 1
            else:
                self.counters["persist_hits"] += 1
                self.counters["persist_bytes_read"] += int(payload.nbytes)
        if tracing and payload is not None:
            self.trace.record("IO", "persist", t0, self._now(), self.job_id)
        return payload

    def _load(self, st: _DeviceState, key: Hashable) -> "tuple[bytes, Any]":
        """The load pipeline l(i) on this job thread: the blob and the device item.

        The read is timed *inside* the I/O lane: calibration must not
        count time queued behind other loads (same reason
        run_kernel times on the device thread), while the trace
        keeps the caller span.
        """
        tracing = self.trace.enabled
        t0 = self._now() if tracing else 0.0
        with self._io_lock:
            t = time.perf_counter()
            blob = self.store.read(self.app.file_name(key))
            io_duration = time.perf_counter() - t
        if tracing:
            self.trace.record("IO", "io", t0, self._now(), self.job_id)

        t0 = self._now() if tracing else 0.0
        t = time.perf_counter()
        parsed = self.app.parse(key, blob)
        parse_duration = time.perf_counter() - t
        if tracing:
            self.trace.record("CPU", "parse", t0, self._now(), self.job_id)

        dev_parsed = st.device.h2d(parsed)
        t0 = self._now() if tracing else 0.0
        dev_item, pre_duration = st.device.run_kernel(self.app.preprocess, key, dev_parsed)
        if tracing:
            self.trace.record(st.device.name, "preprocess", t0, self._now(), self.job_id)

        with self.counters_lock:
            self.counters["loads"] += 1
            self.counters["io_bytes"] += len(blob)
            self.counters["parse_seconds"] += parse_duration
            self.calibration.record_io(len(blob), io_duration)
            self.calibration.record_parse(parse_duration)
            self.calibration.record_preprocess(pre_duration, st.device.speed_factor)
        return blob, dev_item

    # -- job execution ---------------------------------------------------

    def _execute_block(
        self, st: _DeviceState, pairs: Sequence[Tuple[int, int]]
    ) -> "tuple[np.ndarray, float, float]":
        """One ``compare_block`` launch: pin, compare, D2H, postprocess.

        Returns the post-processed values in ``pairs`` order as a
        float64 column plus the launch's on-device seconds and the
        post-processing seconds.  A value that is not a real number
        raises ``TypeError``, which fails the job.
        """
        keys = self.keys
        n = len(pairs)
        tracing = self.trace.enabled
        slots = self._acquire_block_slots(
            st, sorted({idx for pair in pairs for idx in pair})
        )
        try:
            views = {idx: self._slot_view(slot) for idx, slot in slots.items()}
            t0 = self._now() if tracing else 0.0
            raw, cmp_duration = st.device.run_kernel(
                self.app.compare_block,
                [keys[i] for (i, _) in pairs], [views[i] for (i, _) in pairs],
                [keys[j] for (_, j) in pairs], [views[j] for (_, j) in pairs],
            )
            if tracing:
                self.trace.record(st.device.name, "compare", t0, self._now(), self.job_id)
        finally:
            for slot in slots.values():
                self._release_device_item(st, slot)
        rows = st.device.d2h(raw)
        if len(rows) != n:
            raise RuntimeError(f"compare_block returned {len(rows)} rows for {n} pairs")
        postprocess = self.app.postprocess
        t0 = self._now()
        values = real_column(
            [postprocess(keys[i], keys[j], rows[k]) for k, (i, j) in enumerate(pairs)]
        )
        post_duration = self._now() - t0
        if tracing:
            self.trace.record("CPU", "postprocess", t0, t0 + post_duration, self.job_id)
        return values, cmp_duration, post_duration

    def _run_block(self, d: int, pairs: Sequence[Tuple[int, int]], units: int) -> None:
        """Job-pool body: run one claimed job and complete it once.

        Emission, the ``pairs_done`` / ``completed`` counters, the
        calibration and the device and window units are all settled
        once per job, with the job's pair count.
        """
        st = self.states[d]
        n = len(pairs)
        try:
            values, cmp_duration, post_duration = self._execute_block(st, pairs)
            # A job that limped past the kernel while the run was being
            # aborted (cancellation) must not publish its pairs: the
            # consumer of this run's results is already gone.
            if not self.aborted.is_set():
                index = np.fromiter(itertools.chain.from_iterable(pairs), np.int32, 2 * n)
                self.emit_block(index[0::2], index[1::2], values)
            with st.pairs_lock:
                st.pairs_done += n
            with self.counters_lock:
                self.calibration.record_compare(cmp_duration, st.device.speed_factor, n=n)
                self.calibration.record_postprocess(post_duration, n=n)
        except _RunAborted:
            # Woken out of a wait for another job's WRITE slot by the
            # abort.  Devices walking one Morton front load the same
            # items side by side, so this is the common way a cancelled
            # run's in-flight jobs end.
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            self.fail(exc)
        finally:
            st.admission.release(units)
            if self._window is not None:
                self._window.release(n)
            with self.counters_lock:
                self.counters["completed"] += n
                self.counters["launches"] += 1
                finished = (
                    self.expected_pairs is not None
                    and self.counters["completed"] >= self.expected_pairs
                )
            if self.on_launch_done is not None:
                self.on_launch_done()
            if finished:
                self._signal_done()
            else:
                with self.work_cond:
                    self.work_cond.notify_all()

    # -- worker loop -----------------------------------------------------

    def _claim_job(self, st: _DeviceState, needs: Sequence[int]) -> int:
        """Reserve the next job: how many pairs it gets (0: the run ended).

        ``needs[k]`` is the number of distinct items — device-cache pins
        — of the first ``k + 1`` candidate pairs.  Capacities alone fix
        the job's size: at most ``max_inflight`` pairs, then every pair
        whose items fit the device's admission *limit* — the whole leaf,
        or its capacity cut when the leaf has more distinct items than
        the cache holds.  It waits for that many window units, then for
        ``needs[count - 1]`` device units, and holds both until it
        completes.
        """
        window = self._window
        if window is not None:
            needs = needs[: st.admission.cut(needs[: window.limit])]
            if not self._acquire(window, (len(needs),)):
                return 0
        count = self._acquire(st.admission, needs)
        if count:
            with self.counters_lock:
                self.counters["submitted"] += count
        elif window is not None:
            window.release(len(needs))
        return count

    def _acquire(self, admission: ThreadAdmission, needs: Sequence[int]) -> int:
        """``admission.acquire(needs)``, given up (0) once the run ends."""
        count = 0
        while not count and not self.done.is_set():
            count = admission.acquire(needs, timeout=0.5)
        return count

    def _trim_steal(self, task: PairBlock, thief: int, victim: int) -> PairBlock:
        """Size a stolen block to the thief/victim speed ratio.

        Under the SPEED policy a slow thief keeps only one quadrant per
        split level (``VictimSelector.split_depth``) and returns the
        rest to the bottom of the victim's deque — the end the block
        was taken from, so the victim's Morton order is unchanged.
        Must be called under ``sched_lock``.
        """
        depth = self._selector.split_depth(thief, victim)
        for _ in range(depth):
            if self._is_leaf(task):
                break
            children = self._split(task)
            task = children[0]
            self.deques[victim].push_children(children[1:])
        return task

    def _next_local_task(self, d: int) -> Optional[PairBlock]:
        """Worker ``d``'s next task from this node: its own, else a steal.

        An intra-node steal takes the victim's *nearest* task — the
        bottom of its deque, the Morton successor of the leaf it is
        running — so the node's devices walk one front through the
        shared host cache.  A steal here costs a lock, not a message;
        the "most work per request" end is for steals that leave the
        node (:meth:`steal_for_remote`).
        """
        stolen = None
        with self.sched_lock:
            task = self.deques[d].pop()
            if task is None:
                for victim in self._selector.candidates(d):
                    stolen = self.deques[victim].steal(StealOrder.SMALLEST)
                    if stolen is not None:
                        task = self._trim_steal(stolen, d, victim)
                        break
        if stolen is not None:
            if task is not stolen:
                # Returned quadrants are fresh steal targets: wake idle
                # workers instead of letting them sit out a backoff.
                with self.work_cond:
                    self.work_cond.notify_all()
            with self.counters_lock:
                self.counters["local_steals"] += 1
        return task

    def _is_leaf(self, task: PairBlock) -> bool:
        """Run ``task`` whole: at most ``_leaf_pairs`` accepted pairs, or unsplittable."""
        return task.is_leaf(self._leaf_pairs, self._size(task))

    def _split(self, task: PairBlock) -> List[PairBlock]:
        """``task``'s quadrants that hold an accepted pair: the others are
        never queued, stolen or granted."""
        children = task.split()
        if self.accepted is None:
            return children
        return [child for child in children if self._size(child)]

    def _worker(self, d: int) -> None:
        st = self.states[d]
        idle_rounds = 0
        while not self.done.is_set():
            task = self._next_local_task(d)
            if task is None and self.global_steal is not None:
                task = self.global_steal()
            if task is None:
                if self.expected_pairs is not None:
                    with self.counters_lock:
                        if self.counters["submitted"] >= self.expected_pairs:
                            return
                # Exponential backoff caps the coordinator round-trips a
                # persistently idle node generates at run tail.  The
                # deques are checked again under the condition: a block
                # injected since the look above (a late grant, a FAIR
                # quantum) notified before this wait began.
                idle_rounds += 1
                with self.work_cond:
                    if self.done.is_set():
                        return
                    if not self.has_queued_work():
                        self.work_cond.wait(
                            timeout=min(0.5, _IDLE_WAIT * (1 << min(idle_rounds, 4)))
                        )
                continue
            idle_rounds = 0
            if self._is_leaf(task):
                if self.accepted is None:
                    pairs = list(task.pairs())
                else:
                    i, j = self.accepted.columns(task)
                    pairs = list(zip(i.tolist(), j.tolist()))
                # One job per admission grant: the whole leaf or its
                # capacity cut (one pair for apps without ``compare_block``).
                step = len(pairs) if self._batched else 1
                start = 0
                while start < len(pairs):
                    needs = _pin_needs(pairs[start : start + step])
                    count = self._claim_job(st, needs)
                    if not count:
                        return
                    self._job_pool.submit(
                        self._run_block, d, pairs[start : start + count], needs[count - 1]
                    )
                    start += count
            else:
                with self.sched_lock:
                    self.deques[d].push_children(self._split(task))
                with self.work_cond:
                    self.work_cond.notify_all()
