"""The one additive stats record every backend reports through.

A counter is born in a node — :class:`NodeStats`, filled by
:meth:`NodePipeline.stats <repro.runtime.pernode.NodePipeline.stats>`
and, on the cluster backend, by the node's comm server — and travels
unchanged to the session: :class:`RunStats` is the finished job's
runtime and workload size, the per-node list, and their field-wise sum.
:func:`fold_stats` is the only place a stats field gets a metric name.

Adding a counter therefore means: one field on :class:`NodeStats` (the
sum and every ``RunStats`` read pick it up by themselves) and one line
in :data:`NODE_METRICS` or :data:`NOT_EXPORTED`
(``tests/test_observability.py`` fails until it is in one of them).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional

from repro.cache.distributed import HopStats
from repro.cache.slots import CacheCounters
from repro.model.perfmodel import StageCalibration
from repro.obs.metrics import MetricsRegistry
from repro.util.trace import TraceEvent, TraceRecorder

__all__ = [
    "MESSAGE_KINDS",
    "NodeStats",
    "RunStats",
    "NODE_METRICS",
    "NOT_EXPORTED",
    "fold_stats",
]

#: Stats categories of the coordinator/protocol messages.
MESSAGE_KINDS = ("fetch", "grant", "result", "control")

#: Fields that say *whose* report this is instead of counting
#: something; the sum leaves them at their defaults.
_IDENTITY = frozenset({"node_id", "pid", "trace_origin", "trace_events"})


@dataclass
class NodeStats:
    """Measured behaviour of one node during one job (picklable).

    The pipeline counters come from ``NodePipeline.stats()``; the
    protocol counters (``hop_stats`` ... ``message_kinds``) are filled
    by the cluster node's comm server before the report ships and stay
    zero on the local backend.
    """

    node_id: int = -1
    loads: int = 0
    io_bytes: int = 0
    parse_seconds: float = 0.0
    local_steals: int = 0
    submitted: int = 0
    completed: int = 0
    #: Kernel launches (jobs run): ``completed / launches`` is the batch
    #: the kernel actually saw, whatever ``grain`` asked for.
    launches: int = 0
    device_counters: CacheCounters = field(default_factory=CacheCounters)
    host_counters: CacheCounters = field(default_factory=CacheCounters)
    kernel_seconds: Dict[str, float] = field(default_factory=dict)
    kernel_counts: Dict[str, int] = field(default_factory=dict)
    pairs_per_device: Dict[str, int] = field(default_factory=dict)
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    #: Sum of this node's device speed factors.
    aggregate_speed: float = 0.0
    #: Online-calibrated stage costs (reference-speed normalised).
    calibration: StageCalibration = field(default_factory=StageCalibration)
    #: OS pid of the recording process (distinguishes node processes in
    #: the merged multi-process profile).
    pid: int = 0
    #: Absolute ``perf_counter`` origin of the shipped trace buffer;
    #: the session rebases event times with it.
    trace_origin: float = 0.0
    #: The node-local trace buffer for this run (empty unless the run
    #: was profiled); rides to the coordinator in the ``stats`` message.
    trace_events: List[TraceEvent] = field(default_factory=list)
    #: Persistent item-cache traffic (zero unless the run's config has a
    #: ``store_dir``): hits skip the whole load pipeline, stores are
    #: freshly loaded payloads written back for future sessions.
    persist_hits: int = 0
    persist_misses: int = 0
    persist_stores: int = 0
    persist_bytes_read: int = 0
    persist_bytes_written: int = 0
    #: Distributed-cache outcomes of this node's remote fetches.
    hop_stats: HopStats = field(default_factory=lambda: HopStats(0))
    #: Payload bytes this node served to / received from its peers.
    bytes_shipped: int = 0
    bytes_received: int = 0
    #: Protocol messages this node sent, in total and by category.
    messages: int = 0
    message_kinds: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(MESSAGE_KINDS, 0)
    )

    def merge(self, other: "NodeStats") -> None:
        """Add ``other``'s counters to this record, field by field.

        Numbers add, dicts add key-wise, and the nested records
        (``CacheCounters``, ``HopStats``, ``StageCalibration``) fold
        through their own ``merge``.
        """
        for f in fields(self):
            if f.name in _IDENTITY:
                continue
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            elif hasattr(mine, "merge"):
                mine.merge(theirs)
            else:
                setattr(self, f.name, mine + theirs)

    @classmethod
    def total(cls, parts: Iterable["NodeStats"]) -> "NodeStats":
        """The field-wise sum of ``parts`` (a fresh record)."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total


@dataclass
class RunStats:
    """Measured behaviour of one finished job, on any backend.

    ``node_stats`` holds one :class:`NodeStats` per node that reported
    (exactly one on the local backend) and ``total`` their sum; every
    ``NodeStats`` counter also reads straight off the run —
    ``stats.loads``, ``stats.device_counters``, ``stats.hop_stats``,
    ``stats.messages``, ``stats.calibration`` — as the summed value.
    """

    runtime: float
    n_items: int
    n_pairs: int
    node_stats: List[NodeStats]
    #: Blocks the coordinator moved between nodes (0 on one node).
    remote_steals: int = 0
    #: Data plane between the nodes ("queue", "shm"); None in-process.
    transport: Optional[str] = None
    total: NodeStats = field(init=False)
    #: Calibrated-model runtime at the measured reuse factor R.
    predicted_runtime: float = field(init=False)
    #: Eq. 5 system efficiency against the calibrated lower bound.
    model_efficiency: float = field(init=False)

    def __post_init__(self) -> None:
        self.total = NodeStats.total(self.node_stats)
        model = self.total.calibration.model(
            n_items=self.n_items,
            aggregate_speed=self.total.aggregate_speed or 1.0,
            # Parsing runs on the job threads, so it spreads over the
            # box's cores — shared by every node process on it.
            cpu_cores=os.cpu_count() or 1,
        )
        self.predicted_runtime = model.predicted_runtime(max(1.0, self.reuse_factor))
        self.model_efficiency = model.efficiency(self.runtime) if self.runtime > 0 else 0.0

    def __getattr__(self, name: str):
        # Only reached for names the run itself does not define: the
        # NodeStats counters, read through to the per-node sum.
        if name != "total" and name in NodeStats.__dataclass_fields__:
            return getattr(self.total, name)
        raise AttributeError(f"{type(self).__name__!s} has no attribute {name!r}")

    @property
    def n_nodes(self) -> int:
        return len(self.node_stats)

    @property
    def reuse_factor(self) -> float:
        """R: loads per item (1.0 is the single-pass ideal)."""
        return self.total.loads / self.n_items

    @property
    def pairs_per_launch(self) -> float:
        """Mean pairs per kernel launch (0.0 for a job that launched none)."""
        return self.total.completed / self.total.launches if self.total.launches else 0.0

    @property
    def throughput(self) -> float:
        return self.n_pairs / self.runtime if self.runtime > 0 else 0.0

    @property
    def bytes_over_wire(self) -> int:
        """Payload bytes the nodes shipped to each other."""
        return self.total.bytes_shipped

    @property
    def trace(self) -> Optional[TraceRecorder]:
        """The job's pipeline spans as one recorder; None unless profiled."""
        buffers = [ns for ns in self.node_stats if ns.trace_events]
        if not buffers:
            return None
        origin = min(ns.trace_origin for ns in buffers)
        recorder = TraceRecorder(origin=origin)
        for ns in buffers:
            shift = ns.trace_origin - origin
            recorder.extend(
                TraceEvent(e.lane, e.label, e.start + shift, e.end + shift, e.job_id)
                for e in ns.trace_events
            )
        return recorder

    def summary(self) -> str:
        """Short human-readable digest."""
        t = self.total
        clustered = self.n_nodes > 1 or t.messages > 0
        text = f"{self.n_pairs} pairs / {self.n_items} items "
        if clustered:
            text += f"on {self.n_nodes} nodes "
        text += (
            f"in {self.runtime:.2f}s ({self.throughput:.1f} pairs/s); "
            f"loads={t.loads} (R={self.reuse_factor:.2f}); "
            f"device hit ratio {t.device_counters.hit_ratio():.1%}, "
            f"host hit ratio {t.host_counters.hit_ratio():.1%}; "
            f"steals={t.local_steals}; "
            f"launches={t.launches} ({self.pairs_per_launch:.1f} pairs each); "
        )
        if clustered:
            kinds = "/".join(f"{t.message_kinds.get(k, 0)} {k}" for k in MESSAGE_KINDS)
            text += (
                f"distributed cache: {t.hop_stats.total_hits}/{t.hop_stats.requests} "
                f"remote hits, {self.bytes_over_wire / 1e6:.2f} MB over wire "
                f"[{self.transport} transport], {t.messages} messages ({kinds}); "
                f"remote steals={self.remote_steals}; "
            )
        return text + (
            f"model: predicted {self.predicted_runtime:.2f}s vs measured "
            f"{self.runtime:.2f}s, system efficiency {self.model_efficiency:.1%} "
            f"(aggregate speed {t.aggregate_speed:.2f})"
        )


#: NodeStats field -> metric name.  A number becomes one counter, a dict
#: one counter per key, ``CacheCounters`` ``.hits/.misses/.evictions``
#: and ``HopStats`` ``.hits/.misses`` under the name.
NODE_METRICS = {
    "loads": "pipeline.loads",
    "io_bytes": "pipeline.io_bytes",
    "h2d_bytes": "pipeline.h2d_bytes",
    "d2h_bytes": "pipeline.d2h_bytes",
    "launches": "pipeline.launches",
    "device_counters": "cache.device",
    "host_counters": "cache.host",
    "persist_hits": "cache.persistent.hits",
    "persist_misses": "cache.persistent.misses",
    "persist_stores": "cache.persistent.stores",
    "persist_bytes_read": "cache.persistent.bytes_read",
    "persist_bytes_written": "cache.persistent.bytes_written",
    "hop_stats": "cache.distributed",
    "local_steals": "steal.local",
    "bytes_shipped": "transport.bytes",
    "messages": "transport.messages",
    "message_kinds": "transport.kind",
}

#: NodeStats fields that deliberately stay out of the registry:
#: identity, per-device detail, and what the calibrated model digests.
NOT_EXPORTED = _IDENTITY | {
    "parse_seconds",
    "submitted",
    "completed",
    "kernel_seconds",
    "kernel_counts",
    "pairs_per_device",
    "aggregate_speed",
    "calibration",
    "bytes_received",
}


def fold_stats(metrics: MetricsRegistry, stats: RunStats) -> None:
    """Fold one finished job's counters into a session registry."""
    metrics.inc("jobs.completed")
    metrics.observe("jobs.runtime_seconds", stats.runtime)
    metrics.inc("pairs.completed", stats.n_pairs)
    metrics.inc("steal.remote_grants", stats.remote_steals)
    if stats.total.launches:
        metrics.observe("pipeline.pairs_per_launch", stats.pairs_per_launch)
    for field_name, name in NODE_METRICS.items():
        value = getattr(stats.total, field_name)
        if isinstance(value, CacheCounters):
            value = {
                "hits": value.hits + value.hits_while_writing,
                "misses": value.misses,
                "evictions": value.evictions,
            }
        elif isinstance(value, HopStats):
            value = {
                "hits": value.total_hits,
                "misses": value.misses + value.no_candidates,
            }
        if isinstance(value, dict):
            for key, count in value.items():
                metrics.inc(f"{name}.{key}", count)
        else:
            metrics.inc(name, value)
