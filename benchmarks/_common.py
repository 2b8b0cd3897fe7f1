"""Shared setup for the benchmark/experiment harness.

Every ``bench_*`` module regenerates one of the paper's tables or
figures.  Experiments run at reduced scale (a Python DES cannot step
through 12.4 M pairs); the scaling follows the *faithful scaling law*
of :func:`repro.sim.workload.scaled_profile` — per-item load costs
shrink with ``n`` — and cache capacities shrink by the same factor, so
the cache-pressure regime and hence the figure *shapes* are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim.cluster import ClusterSpec
from repro.sim.rocketsim import RocketSimConfig, SimReport, run_simulation
from repro.sim.storage import StorageSpec
from repro.sim.workload import BIOINFORMATICS, FORENSICS, MICROSCOPY, WorkloadProfile, scaled_profile

__all__ = [
    "ScaledApp",
    "SCALED_APPS",
    "run_scaled",
    "scale_cluster",
    "print_block",
]


@dataclass(frozen=True)
class ScaledApp:
    """One application at benchmark scale, with matching cache slots.

    ``device_slots`` / ``host_slots`` are the paper's Table 1 slot
    counts multiplied by the same factor as the item count (minimum 2),
    keeping the fraction of the data set that fits in each cache level
    equal to the paper's.
    """

    name: str
    profile: WorkloadProfile
    device_slots: int
    host_slots: int
    #: n_items / paper n_items; per-request latencies scale with this too.
    scale: float = 1.0

    @classmethod
    def from_paper(
        cls, base: WorkloadProfile, n_items: int, paper_device_slots: int, paper_host_slots: int
    ) -> "ScaledApp":
        s = n_items / base.n_items
        # The device slot count is floored at 8: the concurrent-job limit
        # is bounded by device slots (deadlock safety), and with fewer
        # than ~8 in-flight jobs the runtime cannot hide load latency at
        # all — an artefact of slot-count discreteness at reduced scale,
        # not a property of the paper's configuration (81-291 slots).
        # Device-level copy overhead per miss is already scaled via the
        # workload's slot_size, so flooring only restores lookahead.
        return cls(
            name=base.name,
            profile=scaled_profile(base, n_items),
            device_slots=max(8, round(paper_device_slots * s)),
            host_slots=max(3, round(paper_host_slots * s)),
            scale=s,
        )


#: Benchmark-scale versions of the three applications.  Paper slot
#: counts (Table 1): forensics 291/1050, bioinformatics 81/280,
#: microscopy 256/256 (i.e. everything fits).
SCALED_APPS = {
    "forensics": ScaledApp.from_paper(FORENSICS, 96, 291, 1050),
    "bioinformatics": ScaledApp.from_paper(BIOINFORMATICS, 80, 81, 280),
    "microscopy": ScaledApp.from_paper(MICROSCOPY, 48, 256, 256),
}


def scale_cluster(spec: ClusterSpec, scale: float) -> ClusterSpec:
    """Scale the cluster's per-request latencies by the workload factor.

    Loads per *pair* are a factor ``1/s`` more frequent at reduced scale
    (R is scale-invariant but pair counts shrink as n^2 while loads
    shrink as n), so per-request costs — the storage server's handling
    latency and the control-message latency of the distributed-cache
    protocol — must shrink by ``s`` to keep their share of the total
    cost at the paper's value.  Bandwidths stay unscaled because the
    bytes per transfer are already scaled in the workload profile.
    """
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    return replace(
        spec,
        storage=StorageSpec(
            bandwidth=spec.storage.bandwidth, latency=spec.storage.latency * scale
        ),
        control_latency=spec.control_latency * scale,
    )


def run_scaled(
    app: ScaledApp,
    n_nodes: int = 1,
    gpu: str = "TitanX Maxwell",
    gpus_per_node: int = 1,
    seed: int = 1,
    **config_overrides,
) -> SimReport:
    """Run one simulated experiment for a scaled application."""
    cfg = dict(
        seed=seed,
        device_cache_slots=app.device_slots,
        host_cache_slots=app.host_slots,
    )
    cfg.update(config_overrides)
    spec = scale_cluster(
        ClusterSpec.homogeneous(n_nodes, gpu=gpu, gpus_per_node=gpus_per_node), app.scale
    )
    return run_simulation(spec, app.profile, RocketSimConfig(**cfg), seed=seed)


def print_block(title: str, body: str) -> None:
    """Uniform experiment output formatting."""
    bar = "=" * max(len(title), 8)
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
