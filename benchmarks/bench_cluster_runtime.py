"""Cluster-runtime scaling — real processes, not simulation.

Unlike the ``bench_fig*`` experiments (discrete-event simulation of the
paper's platforms), this benchmark exercises the *real* multi-process
runtime: a forensics all-pairs workload on synthetic PRNU data executed
on 1-4 worker processes with the distributed cache live, reporting
pairs/s per node count and the hop-outcome distribution of the
distributed-cache protocol (the real-runtime analogue of Fig. 11).

Absolute scaling is bounded by the host's core count — the point of
the experiment is that the cross-process mechanisms (mediator fetches,
payload shipping, global steals) work and their costs are visible.

Run:  python -m pytest benchmarks/bench_cluster_runtime.py -q -s
"""

import numpy as np
import pytest

from repro.apps import ForensicsApplication
from repro.core.rocket import Rocket
from repro.data.filestore import InMemoryStore
from repro.data.synthetic import make_forensics_dataset
from repro.runtime.cluster import ClusterConfig
from repro.runtime.localrocket import RocketConfig
from repro.util.tables import format_table

from _common import print_block, write_bench_json

N_IMAGES = 12
CONFIG = dict(
    n_devices=1,
    device_cache_slots=8,
    host_cache_slots=16,
    leaf_size=2,
    seed=7,
    watchdog_seconds=300.0,
)


def make_workload():
    store = InMemoryStore()
    dataset = make_forensics_dataset(store, n_images=N_IMAGES, image_shape=(64, 64), seed=7)
    return ForensicsApplication(), store, dataset.keys


def test_cluster_scaling_pairs_per_second(once):
    """Throughput and wire traffic for 1-4 real worker processes."""
    app, store, keys = make_workload()

    local = Rocket(app, store, RocketConfig(**CONFIG))
    baseline = local.run(keys)

    rows = [[
        "local (threads)", 1,
        f"{local.last_stats.throughput:8.1f}", local.last_stats.loads, "-", "-", "-",
    ]]
    runs = {}

    def run_all():
        for n_nodes in (1, 2, 3, 4):
            rocket = Rocket(
                app, store, RocketConfig(**CONFIG),
                backend="cluster",
                cluster=ClusterConfig(n_nodes=n_nodes, fetch_timeout=30.0, steal_timeout=5.0),
            )
            runs[n_nodes] = (rocket.run(keys), rocket.last_stats)

    once(run_all)

    for n_nodes, (results, stats) in sorted(runs.items()):
        # Cross-backend determinism: the cluster results must be
        # bit-identical to the threaded baseline.
        for a, b, v in baseline.items():
            assert results.get(a, b) == v
        rows.append([
            "cluster (processes)", n_nodes,
            f"{stats.throughput:8.1f}", stats.loads,
            f"{stats.hop_stats.total_hits}/{stats.hop_stats.requests}",
            f"{stats.bytes_over_wire / 1e6:.2f} MB",
            stats.remote_steals,
        ])

    print_block(
        "Cluster runtime scaling (real processes)",
        format_table(
            ["backend", "nodes", "pairs/s", "loads", "remote hits", "over wire", "steals"],
            rows,
            title=f"forensics, {N_IMAGES} items, {baseline.n_pairs} pairs",
        ),
    )

    write_bench_json(
        "cluster_runtime",
        {
            "local_pairs_per_second": local.last_stats.throughput,
            "cluster": {
                str(n_nodes): {
                    "pairs_per_second": stats.throughput,
                    "loads": stats.loads,
                    "remote_hits": stats.hop_stats.total_hits,
                    "remote_requests": stats.hop_stats.requests,
                    "bytes_over_wire": stats.bytes_over_wire,
                    "remote_steals": stats.remote_steals,
                }
                for n_nodes, (_, stats) in sorted(runs.items())
            },
        },
    )

    multi = runs[4][1]
    assert multi.hop_stats.requests > 0
    assert multi.hop_stats.total_hits >= 1  # payloads really crossed processes


def test_cluster_hop_distribution(once):
    """Hop-outcome histogram of the live protocol (Fig. 11 analogue)."""
    app, store, keys = make_workload()
    rocket = Rocket(
        app, store, RocketConfig(**CONFIG),
        backend="cluster",
        cluster=ClusterConfig(n_nodes=4, max_hops=3, fetch_timeout=30.0, steal_timeout=5.0),
    )
    once(rocket.run, keys)
    stats = rocket.last_stats
    pct = stats.hop_stats.percentages()
    print_block(
        "Distributed-cache outcomes (4 nodes, h=3, real transport)",
        format_table(
            ["outcome", "percent of requests"],
            [[k, f"{v:.1f}%"] for k, v in pct.items()],
            title=f"{stats.hop_stats.requests} requests, "
            f"{stats.bytes_over_wire / 1e6:.2f} MB shipped, {stats.messages} messages",
        ),
    )
    assert stats.hop_stats.requests > 0
    assert abs(sum(pct.values()) - 100.0) < 1e-6
