#!/usr/bin/env python3
"""Running Rocket on real worker processes with a live distributed cache.

The sibling ``cluster_simulation.py`` studies multi-node *timing* on the
discrete-event simulator; this example executes an actual forensics
workload across OS processes — one per simulated cluster node — with
the paper's cross-node mechanisms running over real IPC:

1. host-cache misses consult the item's *mediator*, which forwards the
   request along its candidate list; the first holder ships the
   pre-processed PRNU pattern back over the transport (Section 4.1.3);
2. idle nodes steal pair blocks from remote deques through the
   coordinator (the global work-stealing tier of Section 4.2);
3. partial results stream back and are assembled into one result
   matrix, bit-identical to a single-process run.

Run:  python examples/cluster_runtime.py
"""

from repro import ClusterConfig, Rocket, RocketConfig
from repro.apps import ForensicsApplication
from repro.data.filestore import InMemoryStore
from repro.data.synthetic import make_forensics_dataset

N_IMAGES = 10
CONFIG = RocketConfig(n_devices=1, device_cache_slots=8, host_cache_slots=12, seed=11)


def main() -> None:
    store = InMemoryStore()
    dataset = make_forensics_dataset(store, n_images=N_IMAGES, image_shape=(64, 64), seed=11)

    print("== threaded baseline (one process) ==")
    local = Rocket(ForensicsApplication(), store, CONFIG)
    baseline = local.run(dataset.keys)
    print(local.last_stats.summary())

    print("\n== cluster backend (2 worker processes, distributed cache live) ==")
    rocket = Rocket(
        ForensicsApplication(),
        store,
        CONFIG,
        backend="cluster",
        cluster=ClusterConfig(n_nodes=2, max_hops=2),
    )
    results = rocket.run(dataset.keys)
    stats = rocket.last_stats
    print(stats.summary())

    mismatches = sum(1 for a, b, v in baseline.items() if results.get(a, b) != v)
    print(f"\nresult parity vs threaded backend: {baseline.n_pairs - mismatches}"
          f"/{baseline.n_pairs} pairs identical")

    print("\ndistributed-cache outcomes over the real transport:")
    for outcome, pct in stats.hop_stats.percentages().items():
        print(f"  {outcome:<14} {pct:5.1f}%")
    for ns in stats.node_stats:
        pairs = sum(ns.pairs_per_device.values())
        print(f"node {ns.node_id}: {pairs} pairs, {ns.loads} loads, "
              f"host hit ratio {ns.host_counters.hit_ratio():.0%}")

    assert mismatches == 0, "cluster results diverged from the threaded backend"
    assert stats.hop_stats.requests > 0, "no distributed-cache requests were issued"
    verdict = "OK" if stats.hop_stats.total_hits >= 1 else "OK (no remote hits this run)"
    print(f"\n{verdict}: {stats.hop_stats.total_hits} payloads served from remote "
          f"host caches ({stats.bytes_over_wire / 1e6:.2f} MB over the wire), "
          f"{stats.remote_steals} blocks stolen across nodes.")


if __name__ == "__main__":
    main()
