"""The complete Rocket runtime executing on simulated time.

:class:`RocketSim` wires together every mechanism of the paper's
Section 4 on top of the DES substrate:

- **multi-level caching** (Section 4.1): per-GPU device caches and
  per-node host caches (:class:`~repro.cache.slots.SlotCache` with
  READ/WRITE flags and reader pinning) plus the third-level distributed
  cache using the mediator/candidates protocol of Section 4.1.3;
- **locality-aware scheduling** (Section 4.2): quadrant
  divide-and-conquer over the pair matrix with per-GPU worker loops,
  hierarchical random work-stealing (same-node victims first, steal the
  largest task) and the concurrent-job limit for back-pressure;
- **asynchronous processing** (Section 4.3): every resource is its own
  simulated server (CPU pool, per-GPU kernel queue, per-direction copy
  engines, per-node I/O lane, NICs, shared storage), so comparisons,
  loads, transfers and I/O all overlap exactly as in Rocket.

A run produces a :class:`SimReport` carrying everything the paper's
evaluation plots: run time, the data-reuse factor ``R``, per-thread
busy times (Fig. 8/10), distributed-cache hop statistics (Fig. 11),
I/O usage (Fig. 12), per-GPU throughput series (Fig. 14), steal and
cache counters, and the modeled system efficiency.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.distributed import CandidateDirectory, HopStats, RequestOutcome, mediator_of
from repro.cache.policy import EvictionPolicy, safe_job_limit
from repro.cache.slots import CacheCounters, SlotCache, SlotState
from repro.model.perfmodel import system_efficiency, t_min
from repro.scheduling.quadtree import PairBlock
from repro.scheduling.throttle import SimAdmission
from repro.scheduling.workstealing import StealOrder, TaskDeque, VictimSelector
from repro.sim.cluster import ClusterSpec, SimCluster
from repro.sim.engine import Environment, Event, SimulationError, all_of
from repro.sim.node import SimGpu, SimNode
from repro.sim.workload import WorkloadInstance, WorkloadProfile
from repro.util.rng import RngFactory
from repro.util.rolling import ThroughputSeries
from repro.util.trace import TraceRecorder

__all__ = ["RocketSimConfig", "RocketSim", "SimReport", "run_simulation"]


@dataclass(frozen=True)
class RocketSimConfig:
    """Tunables of the simulated Rocket runtime.

    ``device_cache_slots`` / ``host_cache_slots`` default to "derive
    from device memory / configured host-cache bytes and the workload's
    slot size, capped at the item count", which reproduces the slot
    counts of Table 1.
    """

    device_cache_slots: Optional[int] = None
    host_cache_slots: Optional[int] = None
    #: Enable the third-level (cluster-wide) cache.
    distributed_cache: bool = True
    #: Maximum forwarding hops ``h`` of the distributed protocol.
    max_hops: int = 1
    #: Concurrent-job limit per GPU worker (clamped for deadlock safety).
    concurrent_jobs: int = 64
    #: Pairs per leaf task of the divide-and-conquer tree.
    leaf_size: int = 1
    #: Steal the largest (paper) or smallest (ablation) task.
    steal_order: StealOrder = StealOrder.LARGEST
    #: Same-node victims before remote ones (paper) or uniform (ablation).
    hierarchical_stealing: bool = True
    #: Section 7 extension: prefer remote victims whose task overlaps
    #: the thief's host cache ("remote tasks are chosen based on
    #: locally available data, thus enabling more reuse").
    cache_aware_stealing: bool = False
    #: How many non-empty remote victims a cache-aware thief inspects.
    cache_aware_candidates: int = 4
    #: Section 7 extension: persistent caches — start with host caches
    #: pre-filled (round-robin by the mediator mapping) as a previous
    #: run of the same data set would have left them.
    warm_host_caches: bool = False
    #: Slot eviction policy of device and host caches.
    eviction: EvictionPolicy = EvictionPolicy.LRU
    #: Record a full task trace (the paper's optional profiling flag).
    profiling: bool = False
    #: Record per-GPU completion timestamps for throughput plots.
    record_throughput: bool = False
    #: Rolling window for throughput series, seconds (Fig. 14 uses 60 s).
    throughput_window: float = 60.0
    seed: int = 0
    #: How long an idle worker sleeps before re-trying to steal.
    idle_backoff: float = 1e-3
    #: Hard wall on simulated time to turn bugs into errors, not hangs.
    max_sim_time: float = 1e8

    def __post_init__(self) -> None:
        if self.max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {self.max_hops}")
        if self.concurrent_jobs < 1:
            raise ValueError(f"concurrent_jobs must be >= 1, got {self.concurrent_jobs}")
        if self.leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {self.leaf_size}")
        if self.idle_backoff <= 0:
            raise ValueError("idle_backoff must be positive")


@dataclass
class SimReport:
    """Everything a simulated run measured (inputs for every figure)."""

    profile_name: str
    n_items: int
    n_pairs: int
    n_nodes: int
    n_gpus: int
    runtime: float
    total_loads: int
    per_node_loads: List[int]
    reuse_factor: float  # the paper's R
    efficiency: float  # eq. 5, against the modeled lower bound
    t_min_cluster: float
    gpu_busy: Dict[str, Dict[str, float]]  # lane -> {preprocess, compare}
    cpu_busy: Dict[str, float]  # per-node CPU-pool busy time
    io_busy: Dict[str, float]  # per-node I/O-lane busy time
    h2d_busy: Dict[str, float]
    d2h_busy: Dict[str, float]
    storage_bytes: int
    avg_io_usage: float  # bytes/s, Fig. 12 bottom row
    hop_stats: HopStats
    device_counters: CacheCounters
    host_counters: CacheCounters
    local_steals: int
    remote_steals: int
    failed_steal_rounds: int
    pairs_per_gpu: Dict[str, int]
    throughput: float  # pairs per second overall
    remote_fetch_bytes: int
    throughput_series: Dict[str, ThroughputSeries] = field(default_factory=dict)
    trace: Optional[TraceRecorder] = None

    def summary(self) -> str:
        """One-paragraph human-readable digest of the run."""
        lines = [
            f"{self.profile_name}: {self.n_pairs} pairs over {self.n_items} items "
            f"on {self.n_nodes} node(s) / {self.n_gpus} GPU(s)",
            f"  run time          {self.runtime:.2f} s "
            f"(T_min={self.t_min_cluster:.2f} s, efficiency {100 * self.efficiency:.1f}%)",
            f"  loads             {self.total_loads} (R = {self.reuse_factor:.2f})",
            f"  throughput        {self.throughput:.1f} pairs/s",
            f"  storage traffic   {self.storage_bytes / 1e6:.1f} MB "
            f"({self.avg_io_usage / 1e6:.2f} MB/s average)",
            f"  steals            {self.local_steals} local, {self.remote_steals} remote",
        ]
        if self.hop_stats.requests:
            pct = self.hop_stats.percentages()
            pretty = ", ".join(f"{k}: {v:.1f}%" for k, v in pct.items())
            lines.append(f"  distributed cache {pretty}")
        return "\n".join(lines)


class _GpuState:
    """Per-GPU runtime state: device cache, waiters, admission, worker."""

    def __init__(
        self,
        gpu: SimGpu,
        device_cache: SlotCache,
        admission: SimAdmission,
        worker_id: int,
    ) -> None:
        self.gpu = gpu
        self.device_cache = device_cache
        self.admission = admission
        self.worker_id = worker_id
        # item -> events of jobs waiting for an in-flight WRITE
        self.write_waiters: Dict[int, List[Event]] = defaultdict(list)
        # events of jobs waiting for any slot to become evictable
        self.slot_waiters: List[Event] = []


class _NodeState:
    """Per-node runtime state: host cache, waiters, mediator directory."""

    def __init__(self, node: SimNode, host_cache: SlotCache, directory: CandidateDirectory) -> None:
        self.node = node
        self.host_cache = host_cache
        self.directory = directory
        self.write_waiters: Dict[int, List[Event]] = defaultdict(list)
        self.slot_waiters: List[Event] = []


class RocketSim:
    """One all-pairs run of a workload on a simulated cluster."""

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        workload: WorkloadInstance,
        config: RocketSimConfig = RocketSimConfig(),
    ) -> None:
        self.env = Environment()
        self.cluster = SimCluster(self.env, cluster_spec)
        self.workload = workload
        self.profile: WorkloadProfile = workload.profile
        self.config = config
        self.rng = RngFactory(config.seed)
        self.trace = TraceRecorder(enabled=config.profiling)

        n = self.profile.n_items
        slot_size = self.profile.slot_size
        self._total_pairs = self.profile.n_pairs
        self._completed = 0
        self._done = self.env.event()

        # --- per-node state -------------------------------------------
        self.nodes: List[_NodeState] = []
        for node in self.cluster.nodes:
            host_slots = self._host_slots_for(node)
            cache = SlotCache(
                host_slots,
                slot_size,
                policy=config.eviction,
                name=f"host:n{node.index}",
                rng=self.rng.get(f"evict:host:{node.index}"),
            )
            directory = CandidateDirectory(config.max_hops)
            self.nodes.append(_NodeState(node, cache, directory))

        # --- per-GPU state (one work-stealing worker per GPU) ---------
        self.gpus: List[_GpuState] = []
        worker_id = 0
        for node_state in self.nodes:
            node = node_state.node
            host_slots = node_state.host_cache.n_slots
            for gpu in node.gpus:
                dev_slots = self._device_slots_for(gpu)
                limit = safe_job_limit(
                    config.concurrent_jobs, dev_slots, host_slots, gpus_per_node=node.n_gpus
                )
                cache = SlotCache(
                    dev_slots,
                    slot_size,
                    policy=config.eviction,
                    name=f"device:{gpu.lane}",
                    rng=self.rng.get(f"evict:dev:{worker_id}"),
                )
                self.gpus.append(
                    _GpuState(gpu, cache, SimAdmission(self.env, limit), worker_id)
                )
                worker_id += 1

        # --- scheduling -------------------------------------------------
        topology = cluster_spec.worker_topology()
        self.deques: List[TaskDeque] = [TaskDeque(w) for w in range(topology.n_workers)]
        self.selector = VictimSelector(
            topology, self.rng.get("steal"), hierarchical=config.hierarchical_stealing
        )
        self._node_of_worker = topology.node_of

        # --- statistics -------------------------------------------------
        self.hop_stats = HopStats(config.max_hops)
        self.local_steals = 0
        self.remote_steals = 0
        self.failed_steal_rounds = 0
        self.total_loads = 0
        self.remote_fetch_bytes = 0
        self.throughput_series: Dict[str, ThroughputSeries] = {}
        if config.record_throughput:
            for gs in self.gpus:
                self.throughput_series[gs.gpu.lane] = ThroughputSeries(config.throughput_window)

        self._started = False

    # ------------------------------------------------------------------
    # Configuration helpers
    # ------------------------------------------------------------------

    def _device_slots_for(self, gpu: SimGpu) -> int:
        if self.config.device_cache_slots is not None:
            slots = self.config.device_cache_slots
        else:
            slots = int(gpu.model.usable_cache_bytes() // max(self.profile.slot_size, 1.0))
            slots = min(slots, self.profile.n_items)
        if slots < 2:
            raise ValueError(
                f"device cache of {gpu.model.name} holds {slots} slot(s) of "
                f"{self.profile.slot_size / 1e6:.1f} MB; need at least 2"
            )
        return slots

    def _host_slots_for(self, node: SimNode) -> int:
        if self.config.host_cache_slots is not None:
            slots = self.config.host_cache_slots
        else:
            slots = int(node.spec.host_cache_bytes // max(self.profile.slot_size, 1.0))
            slots = min(slots, self.profile.n_items)
        if slots < 2:
            raise ValueError(
                f"host cache of node {node.index} holds {slots} slot(s); need at least 2"
            )
        return slots

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def run(self) -> SimReport:
        """Execute the workload to completion and return the report."""
        if self._started:
            raise SimulationError("RocketSim instances are single-use; build a new one")
        self._started = True
        if self._total_pairs == 0:
            raise ValueError("workload has no pairs")
        if self.config.warm_host_caches:
            self._prefill_host_caches()
        # The master node spawns the single root task (paper Section 4.2).
        self.deques[0].push(PairBlock.root(self.profile.n_items))
        for gs in self.gpus:
            self.env.process(self._worker(gs), name=f"worker:{gs.worker_id}")
        self.env.run(until=self._done)
        return self._build_report()

    # ------------------------------------------------------------------
    # Worker loop: divide-and-conquer + hierarchical work-stealing
    # ------------------------------------------------------------------

    def _worker(self, gs: _GpuState):
        env = self.env
        cfg = self.config
        deque_ = self.deques[gs.worker_id]
        backoff_rng = self.rng.get(f"backoff:{gs.worker_id}")
        while self._completed < self._total_pairs:
            if env.now > cfg.max_sim_time:
                raise SimulationError(
                    f"simulated time exceeded max_sim_time={cfg.max_sim_time}; "
                    "the run is livelocked or the workload is far too large"
                )
            task = deque_.pop()
            if task is None:
                task, remote = self._try_steal(gs.worker_id)
                if task is None:
                    self.failed_steal_rounds += 1
                    # Exponential-free jittered backoff keeps idle workers
                    # from hammering peers in lockstep.
                    yield env.timeout(cfg.idle_backoff * (0.5 + backoff_rng.random()))
                    continue
                if remote:
                    # A remote steal costs a request/response round trip.
                    yield self.cluster.control_message(0, 0)
                    yield self.cluster.control_message(0, 0)
            if task.is_leaf(cfg.leaf_size):
                for (i, j) in task.pairs():
                    # Back-pressure: stop submitting once the limit is hit.
                    yield gs.admission.acquire()
                    env.process(self._job(gs, i, j), name=f"job:{i},{j}")
            else:
                deque_.push_children(task.split())

    def _try_steal(self, worker: int) -> Tuple[Optional[PairBlock], bool]:
        if self.config.cache_aware_stealing:
            return self._try_steal_cache_aware(worker)
        for victim in self.selector.candidates(worker):
            task = self.deques[victim].steal(self.config.steal_order)
            if task is not None:
                remote = self.selector.is_remote(worker, victim)
                if remote:
                    self.remote_steals += 1
                else:
                    self.local_steals += 1
                return task, remote
        return None, False

    def _try_steal_cache_aware(self, worker: int) -> Tuple[Optional[PairBlock], bool]:
        """Section 7 extension: pick the remote victim with the best overlap.

        Local (same-node) victims are still preferred unconditionally —
        they share our host cache, so any of their tasks is 'local'
        data.  Among remote victims, up to ``cache_aware_candidates``
        non-empty deques are inspected and the one whose steal target
        overlaps our node's host cache the most wins.
        """
        order = self.config.steal_order
        my_cache = self.nodes[self._node_of_worker[worker]].host_cache
        best: Optional[int] = None
        best_score = -1.0
        inspected = 0
        for victim in self.selector.candidates(worker):
            if not self.selector.is_remote(worker, victim):
                task = self.deques[victim].steal(order)
                if task is not None:
                    self.local_steals += 1
                    return task, False
                continue
            target = self.deques[victim].peek_steal_target(order)
            if target is None:
                continue
            sample = target.sample_items()
            hits = sum(1 for item in sample if my_cache.peek(item) is not None)
            score = hits / len(sample) if sample else 0.0
            if score > best_score:
                best_score = score
                best = victim
            inspected += 1
            if inspected >= self.config.cache_aware_candidates:
                break
        if best is not None:
            task = self.deques[best].steal(order)
            if task is not None:  # races are impossible here, but be safe
                self.remote_steals += 1
                return task, True
        return None, False

    def _prefill_host_caches(self) -> None:
        """Warm start: distribute items over host caches as a previous
        run would have left them (item ``i`` on its mediator node)."""
        p = self.cluster.n_nodes
        for item in range(self.profile.n_items):
            ns = self.nodes[mediator_of(item, p)]
            slot = ns.host_cache.reserve(item)
            if slot is None:
                continue  # that node's cache is already full
            ns.host_cache.publish(slot)
            # Seed the mediator's candidate list so the first remote
            # request finds the holder immediately.
            ns.directory.lookup_and_record(item, ns.node.index)

    # ------------------------------------------------------------------
    # Job pipeline (paper Fig. 2): acquire both items, compare, post.
    # ------------------------------------------------------------------

    def _job(self, gs: _GpuState, i: int, j: int):
        env = self.env
        # Items are acquired sequentially (smaller index first): a job
        # stalled on its second item then holds at most one reader pin,
        # which is what makes the relaxed concurrent-job limit of
        # :func:`repro.cache.policy.safe_job_limit` deadlock-free.
        slot_i = yield env.process(self._acquire_device(gs, i), name=f"acq:{i}")
        slot_j = yield env.process(self._acquire_device(gs, j), name=f"acq:{j}")

        # Comparison kernel on this GPU.
        duration = gs.gpu.kernel_time(self.workload.compare_time())
        start, end = yield gs.gpu.compute.execute(duration)
        gs.gpu.compare_busy += end - start
        self.trace.record(gs.gpu.lane, "compare", start, end)

        self._unpin_device(gs, slot_i)
        self._unpin_device(gs, slot_j)

        # Result copy device-to-host.
        start, end = yield gs.gpu.d2h.transfer(self.profile.result_size)
        self.trace.record(f"GPU->CPU n{gs.gpu.node_index}.{gs.gpu.index}", "result", start, end)

        # Post-processing on the CPU (zero for all three applications,
        # but the pipeline stage exists per Fig. 2).
        post = self.workload.postprocess_time(i)
        if post > 0:
            yield self.nodes[gs.gpu.node_index].node.cpu.request()
            t0 = env.now
            yield env.timeout(post)
            self.nodes[gs.gpu.node_index].node.cpu.release()
            self.nodes[gs.gpu.node_index].node.cpu_busy += env.now - t0
            self.trace.record(f"CPU n{gs.gpu.node_index}", "postprocess", t0, env.now)

        gs.gpu.pairs_done += 1
        series = self.throughput_series.get(gs.gpu.lane)
        if series is not None:
            series.record(env.now)
        gs.admission.release()
        self._completed += 1
        if self._completed == self._total_pairs:
            self._done.succeed()

    # ------------------------------------------------------------------
    # First level: device cache (Section 4.1.1)
    # ------------------------------------------------------------------

    def _acquire_device(self, gs: _GpuState, item: int):
        """Process returning the device slot of ``item``, pinned once."""
        cache = gs.device_cache
        first_attempt = True
        while True:
            slot = cache.lookup(item) if first_attempt else cache.peek(item)
            if not first_attempt and slot is None:
                cache.counters.misses += 1  # retried miss still counts once more
            first_attempt = False
            if slot is not None and slot.state is SlotState.READ:
                cache.pin(slot)
                return slot
            if slot is not None:
                # WRITE in progress: park until the writer publishes; the
                # publisher pins the slot on our behalf (no eviction window).
                evt = self.env.event()
                gs.write_waiters[item].append(evt)
                slot = yield evt
                return slot
            wslot = cache.reserve(item)
            if wslot is not None:
                break
            # Nothing evictable: wait until some reader unpins, then retry.
            evt = self.env.event()
            gs.slot_waiters.append(evt)
            yield evt

        # We are the device-level writer: obtain the item from level 2/3
        # or by loading, then publish.  _fill_device publishes the slot
        # (handing pins to any queued waiters) and pins it once for us.
        yield self.env.process(self._fill_device(gs, item, wslot))
        return wslot

    def _unpin_device(self, gs: _GpuState, slot) -> None:
        gs.device_cache.unpin(slot)
        if not slot.pinned:
            self._wake_slot_waiters(gs.slot_waiters)

    @staticmethod
    def _wake_slot_waiters(waiters: List[Event]) -> None:
        if waiters:
            pending = list(waiters)
            waiters.clear()
            for evt in pending:
                evt.succeed()

    def _publish_device(self, gs: _GpuState, slot) -> None:
        """Publish a device slot, pinning it for the writer and all waiters."""
        waiters = gs.write_waiters.pop(slot.key, [])
        gs.device_cache.publish(slot, initial_readers=1 + len(waiters))
        for evt in waiters:
            evt.succeed(slot)

    def _publish_host(self, ns: _NodeState, slot, writer_keeps_pin: bool) -> None:
        waiters = ns.write_waiters.pop(slot.key, [])
        initial = len(waiters) + (1 if writer_keeps_pin else 0)
        ns.host_cache.publish(slot, initial_readers=initial)
        for evt in waiters:
            evt.succeed(slot)
        if initial == 0:
            # Freshly published but unpinned: it may already be evictable.
            self._wake_slot_waiters(ns.slot_waiters)

    # ------------------------------------------------------------------
    # Second level: host cache (Section 4.1.2), and the Fig. 4 flow
    # ------------------------------------------------------------------

    def _fill_device(self, gs: _GpuState, item: int, dev_slot):
        """Fill a reserved device slot from host cache / cluster / storage."""
        ns = self.nodes[gs.gpu.node_index]
        cache = ns.host_cache
        first_attempt = True
        host_slot = None
        host_writer = False
        while True:
            slot = cache.lookup(item) if first_attempt else cache.peek(item)
            if not first_attempt and slot is None:
                cache.counters.misses += 1
            first_attempt = False
            if slot is not None and slot.state is SlotState.READ:
                cache.pin(slot)
                host_slot = slot
                break
            if slot is not None:
                evt = self.env.event()
                ns.write_waiters[item].append(evt)
                host_slot = yield evt  # pinned for us by the publisher
                break
            host_slot = cache.reserve(item)
            if host_slot is not None:
                host_writer = True
                break
            evt = self.env.event()
            ns.slot_waiters.append(evt)
            yield evt

        if not host_writer:
            # Host hit: copy host slot -> device slot and publish.
            yield from self._h2d_and_publish(gs, ns, item, dev_slot, host_slot)
            return

        # Host miss: we own the host WRITE slot.  Try the distributed
        # cache first (Section 4.1.3), then fall back to a local load.
        fetched = False
        if self.config.distributed_cache and self.cluster.n_nodes > 1:
            outcome = yield self.env.process(self._distributed_fetch(ns, item))
            fetched = outcome.hit
        if fetched:
            # Remote data landed in our host slot: publish it (keeping a
            # pin for ourselves), then copy to the device.
            self._publish_host(ns, host_slot, writer_keeps_pin=True)
            yield from self._h2d_and_publish(gs, ns, item, dev_slot, host_slot)
            return

        # Full local load: storage -> parse -> H2D -> pre-process.  The
        # pipeline ends with the item on the GPU, so the device slot is
        # published first and the host copy is written back D2H
        # afterwards ("data is always written to both caches").
        yield from self._load_pipeline(gs, ns, item)
        self._publish_device(gs, dev_slot)
        self._wake_slot_waiters(gs.slot_waiters)
        start, end = yield gs.gpu.d2h.transfer(self.profile.slot_size)
        self.trace.record(f"GPU->CPU n{gs.gpu.node_index}.{gs.gpu.index}", "writeback", start, end)
        self._publish_host(ns, host_slot, writer_keeps_pin=False)

    def _h2d_and_publish(self, gs: _GpuState, ns: _NodeState, item: int, dev_slot, host_slot):
        start, end = yield gs.gpu.h2d.transfer(self.profile.slot_size)
        self.trace.record(f"CPU->GPU n{gs.gpu.node_index}.{gs.gpu.index}", "h2d", start, end)
        cache = ns.host_cache
        cache.unpin(host_slot)
        if not host_slot.pinned:
            self._wake_slot_waiters(ns.slot_waiters)
        self._publish_device(gs, dev_slot)

    # ------------------------------------------------------------------
    # Load pipeline l(i): I/O -> parse -> H2D -> pre-process
    # ------------------------------------------------------------------

    def _load_pipeline(self, gs: _GpuState, ns: _NodeState, item: int):
        env = self.env
        node = ns.node
        self.total_loads += 1
        node.loads += 1

        # Remote I/O through the node's single I/O lane and the shared
        # storage server: per-request latency overlaps across nodes,
        # bandwidth contends on the server's uplink.
        yield node.io.request()
        t0 = env.now
        if self.cluster.storage.latency > 0:
            yield env.timeout(self.cluster.storage.latency)
        yield self.cluster.storage.read(self.workload.file_size(item))
        node.io.release()
        node.io_busy += env.now - t0
        self.trace.record(f"IO n{node.index}", "io", t0, env.now)

        # Parse on the CPU pool.
        yield node.cpu.request()
        t0 = env.now
        yield env.timeout(self.workload.parse_time(item))
        node.cpu.release()
        node.cpu_busy += env.now - t0
        self.trace.record(f"CPU n{node.index}", "parse", t0, env.now)

        # Parsed data host -> device.
        start, end = yield gs.gpu.h2d.transfer(self.profile.slot_size)
        self.trace.record(f"CPU->GPU n{node.index}.{gs.gpu.index}", "h2d", start, end)

        # Pre-process kernel on this GPU (absent for microscopy).
        pre = self.workload.preprocess_time(item)
        if pre > 0:
            duration = gs.gpu.kernel_time(pre)
            start, end = yield gs.gpu.compute.execute(duration)
            gs.gpu.preprocess_busy += end - start
            self.trace.record(gs.gpu.lane, "preprocess", start, end)

    # ------------------------------------------------------------------
    # Third level: distributed cache protocol (Section 4.1.3)
    # ------------------------------------------------------------------

    def _distributed_fetch(self, ns: _NodeState, item: int):
        """Run the mediator/candidates protocol for ``item``.

        Returns a :class:`RequestOutcome`; on a hit the data transfer to
        this node has completed.
        """
        requester = ns.node.index
        mediator_idx = mediator_of(item, self.cluster.n_nodes)
        mediator = self.nodes[mediator_idx]
        messages = 1
        yield self.cluster.control_message(requester, mediator_idx)
        candidates = mediator.directory.lookup_and_record(item, requester)
        if not candidates:
            self.hop_stats.record_miss(had_candidates=False)
            messages += 1
            yield self.cluster.control_message(mediator_idx, requester)
            return RequestOutcome(item, hit=False, messages=messages)

        prev = mediator_idx
        for hop, cand_idx in enumerate(candidates, start=1):
            messages += 1
            yield self.cluster.control_message(prev, cand_idx)
            prev = cand_idx
            cand = self.nodes[cand_idx]
            if cand_idx == requester:
                # Our own host cache holds the item only as our WRITE
                # reservation; a candidate list may legitimately contain
                # the requester ("this does not affect correctness").
                continue
            slot = cand.host_cache.peek(item)
            if slot is not None and slot.state is SlotState.READ:
                cand.host_cache.pin(slot)
                yield self.cluster.transfer(cand_idx, requester, self.profile.slot_size)
                cand.host_cache.unpin(slot)
                if not slot.pinned:
                    self._wake_slot_waiters(cand.slot_waiters)
                self.remote_fetch_bytes += int(self.profile.slot_size)
                self.hop_stats.record_hit(hop)
                return RequestOutcome(item, hit=True, hop=hop, provider=cand_idx, messages=messages + 1)

        messages += 1
        yield self.cluster.control_message(prev, requester)
        self.hop_stats.record_miss()
        return RequestOutcome(item, hit=False, messages=messages)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _build_report(self) -> SimReport:
        runtime = self.env.now
        n = self.profile.n_items
        reuse = self.total_loads / n if n else 0.0
        agg_speed = self.cluster.spec.total_speed
        eff = system_efficiency(self.profile, runtime, agg_speed) if runtime > 0 else 0.0

        gpu_busy: Dict[str, Dict[str, float]] = {}
        h2d_busy: Dict[str, float] = {}
        d2h_busy: Dict[str, float] = {}
        pairs_per_gpu: Dict[str, int] = {}
        for gs in self.gpus:
            gpu = gs.gpu
            gpu_busy[gpu.lane] = {
                "preprocess": gpu.preprocess_busy,
                "compare": gpu.compare_busy,
            }
            h2d_busy[gpu.lane] = gpu.h2d.busy_time()
            d2h_busy[gpu.lane] = gpu.d2h.busy_time()
            pairs_per_gpu[gpu.lane] = gpu.pairs_done

        device_counters = CacheCounters()
        host_counters = CacheCounters()
        for gs in self.gpus:
            c = gs.device_cache.counters
            device_counters.hits += c.hits
            device_counters.hits_while_writing += c.hits_while_writing
            device_counters.misses += c.misses
            device_counters.evictions += c.evictions
        for ns in self.nodes:
            c = ns.host_cache.counters
            host_counters.hits += c.hits
            host_counters.hits_while_writing += c.hits_while_writing
            host_counters.misses += c.misses
            host_counters.evictions += c.evictions

        return SimReport(
            profile_name=self.profile.name,
            n_items=n,
            n_pairs=self._total_pairs,
            n_nodes=self.cluster.n_nodes,
            n_gpus=len(self.gpus),
            runtime=runtime,
            total_loads=self.total_loads,
            per_node_loads=[ns.node.loads for ns in self.nodes],
            reuse_factor=reuse,
            efficiency=eff,
            t_min_cluster=t_min(self.profile, speed=agg_speed),
            gpu_busy=gpu_busy,
            cpu_busy={f"n{ns.node.index}": ns.node.cpu_busy for ns in self.nodes},
            io_busy={f"n{ns.node.index}": ns.node.io_busy for ns in self.nodes},
            h2d_busy=h2d_busy,
            d2h_busy=d2h_busy,
            storage_bytes=self.cluster.storage.bytes_read,
            avg_io_usage=self.cluster.storage.average_usage(runtime),
            hop_stats=self.hop_stats,
            device_counters=device_counters,
            host_counters=host_counters,
            local_steals=self.local_steals,
            remote_steals=self.remote_steals,
            failed_steal_rounds=self.failed_steal_rounds,
            pairs_per_gpu=pairs_per_gpu,
            throughput=self._total_pairs / runtime if runtime > 0 else 0.0,
            remote_fetch_bytes=self.remote_fetch_bytes,
            throughput_series=self.throughput_series,
            trace=self.trace if self.config.profiling else None,
        )


def run_simulation(
    cluster_spec: ClusterSpec,
    profile: WorkloadProfile,
    config: RocketSimConfig = RocketSimConfig(),
    seed: int = 0,
) -> SimReport:
    """Convenience wrapper: instantiate the workload and run one simulation."""
    workload = profile.instantiate(seed=seed)
    return RocketSim(cluster_spec, workload, config).run()
