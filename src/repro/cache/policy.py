"""Eviction policies and cache-related admission clamping.

The paper's caches evict least-recently-used slots; FIFO and RANDOM are
provided as ablation baselines (see
``benchmarks/bench_ablations.py::test_ablation_eviction_policy``) to
quantify how much the LRU choice matters for all-pairs reuse.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["EvictionPolicy", "safe_job_limit"]


class EvictionPolicy(Enum):
    """Which unpinned slot a full cache sacrifices on a miss."""

    LRU = "lru"
    FIFO = "fifo"
    RANDOM = "random"


def safe_job_limit(requested: int, device_slots: int, host_slots: int, gpus_per_node: int = 1) -> int:
    """Clamp the concurrent-job limit so cache capacity cannot deadlock.

    Jobs acquire their two items *sequentially* (smaller index first),
    so a job stalled on a cache slot holds at most **one** reader pin.
    Slots in WRITE state always publish — the load pipeline and the
    distributed fetch never wait on cache capacity once their slot is
    reserved — so the only deadlock scenario is every device slot being
    reader-pinned by jobs that are all waiting for an eviction.  With at
    most one held pin per waiting job, ``limit <= device_slots - 1``
    guarantees an unpinned (hence evictable or in-flight) slot always
    exists, and the host level needs no clamp at all: host pins are only
    held across bounded H2D copies.

    This is the per-pair form (one job, two pins), and only the
    simulator uses it.  The threaded runtime generalises it to batches
    by counting pins instead of jobs — *claimed pins <= slots - 1* —
    and caps its job count directly; see :mod:`repro.runtime.pernode`.

    The sequential-acquisition argument (rather than the naive
    ``2 * limit < slots`` bound for concurrent acquisition) matters in
    practice: it admits roughly 4x more jobs in flight for the same
    cache size, which is what lets Rocket "anticipate first-level cache
    misses and acquire the necessary data before running out of work"
    (paper Section 4.3).
    """
    if requested < 1:
        raise ValueError(f"job limit must be >= 1, got {requested}")
    if device_slots < 2:
        raise ValueError(f"need >= 2 device cache slots, got {device_slots}")
    if host_slots < 2:
        raise ValueError(f"need >= 2 host cache slots, got {host_slots}")
    if gpus_per_node < 1:
        raise ValueError(f"gpus_per_node must be >= 1, got {gpus_per_node}")
    return max(1, min(requested, device_slots - 1))
