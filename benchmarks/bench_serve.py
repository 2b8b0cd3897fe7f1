"""Rocket-as-a-service — concurrent served clients vs. cold one-shot runs.

The serving daemon's reason to exist: N users sharing one warm session
amortize process spawn, transport setup and the whole load pipeline,
where N independent one-shot runs each pay all of it from scratch.
This benchmark measures exactly that, end to end through the real
socket protocol, on the multi-process cluster backend:

- **cold**: N one-shot runs of a load-heavy workload, each on a fresh
  runtime (spawn + cold caches + full loads);
- **served**: the same N workloads submitted by N concurrent socket
  clients of one daemon whose session was warmed by a single priming
  job — jobs co-run under the FAIR scheduler against warm caches.

Aggregate throughput (total pairs / wall time) through the daemon must
be at least 2x the cold aggregate.

Run:  python -m pytest benchmarks/bench_serve.py -q -s
"""

import threading
import time

from repro.core.workload import AllPairs
from repro.serve import RocketServer, connect
from repro.util.tables import format_table

from _common import print_block, write_bench_json
from bench_session import CLUSTER, CONFIG, LoadHeavyApp, make_corpus, make_runtime

N_CLIENTS = 4


def test_served_clients_beat_cold_one_shots(once):
    """Aggregate served throughput >= 2x N cold one-shot runs."""
    store, keys = make_corpus()
    workload_pairs = AllPairs(keys).n_pairs
    measured = {}

    def run_both():
        # Cold: every "user" spawns their own runtime and pays the
        # full load pipeline — the pre-daemon workflow.
        t0 = time.perf_counter()
        cold_matrices = []
        for _ in range(N_CLIENTS):
            cold_matrices.append(make_runtime(store).run(AllPairs(keys)))
        measured["cold_s"] = time.perf_counter() - t0
        measured["cold_results"] = cold_matrices[0]

        # Served: one daemon, one warm session, N concurrent tenants.
        session = make_runtime(store).session(policy="fair")
        server = RocketServer(session, keys).start()
        try:
            with connect(server.address, tenant="primer") as primer:
                primer.run(AllPairs(keys))  # warm the caches once

            matrices = [None] * N_CLIENTS
            barrier = threading.Barrier(N_CLIENTS + 1)

            def client(idx):
                with connect(server.address, tenant=f"user{idx}") as c:
                    barrier.wait()
                    matrices[idx] = c.submit(AllPairs(keys)).result(timeout=300)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(N_CLIENTS)
            ]
            for t in threads:
                t.start()
            barrier.wait()
            t0 = time.perf_counter()
            for t in threads:
                t.join()
            measured["served_s"] = time.perf_counter() - t0
            measured["served_results"] = matrices
        finally:
            server.close()

    once(run_both)

    total_pairs = N_CLIENTS * workload_pairs
    cold_tput = total_pairs / measured["cold_s"]
    served_tput = total_pairs / measured["served_s"]
    speedup = served_tput / cold_tput
    rows = [
        [
            f"{N_CLIENTS} cold one-shot runs",
            f"{measured['cold_s']:.3f} s",
            f"{cold_tput:.0f} pairs/s",
        ],
        [
            f"{N_CLIENTS} served clients",
            f"{measured['served_s']:.3f} s",
            f"{served_tput:.0f} pairs/s",
        ],
    ]
    print_block(
        f"Rocket-as-a-service ({CLUSTER['n_nodes']} nodes, {len(keys)} items, "
        f"{N_CLIENTS} clients, {workload_pairs} pairs per job)",
        format_table(
            ["execution", "wall time", "aggregate throughput"],
            rows,
            title=f"served-vs-cold throughput {speedup:.2f}x",
        ),
    )

    write_bench_json(
        "serve",
        {
            "cold_s": measured["cold_s"],
            "served_s": measured["served_s"],
            "cold_pairs_per_s": cold_tput,
            "served_pairs_per_s": served_tput,
            "speedup": speedup,
            "n_clients": N_CLIENTS,
            "pairs_per_job": workload_pairs,
            "n_nodes": CLUSTER["n_nodes"],
            "n_devices": CONFIG["n_devices"],
        },
    )

    # Served results are value-identical to cold runs, for every client.
    expected = sorted(map(tuple, measured["cold_results"].items()))
    for matrix in measured["served_results"]:
        assert matrix is not None
        assert sorted(map(tuple, matrix.items())) == expected
    # The acceptance bar: >= 2x aggregate throughput through the daemon.
    assert speedup >= 2.0, (
        f"served clients only {speedup:.2f}x cold one-shot throughput"
    )
