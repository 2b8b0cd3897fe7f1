"""Session warm-cache reuse — back-to-back jobs vs. one-shot runs.

The paper shows end-to-end time dominated by data loading whenever the
reuse factor is low; everything Rocket gains comes from *not* re-running
the load pipeline.  One-shot ``Rocket.run()`` calls throw that state
away between calls: worker processes die, the transport fabric is
unlinked, and every cache level — device, host, distributed — starts
cold.  A session (``Rocket.session()``) keeps all of it
alive, so a second job over overlapping keys starts against warm
caches and an already-spawned cluster.

This benchmark measures exactly that on the real multi-process cluster
backend: a cold one-shot run vs. the same workload submitted as the
second job of a live session.  The workload is load-heavy (parse and
preprocess cost real time, the kernel is cheap), the regime where cache
reuse dominates — and asserts the warm job is at least 1.3x faster.

Run:  python -m pytest benchmarks/bench_session.py -q -s
"""

import time

import numpy as np

from repro.core.api import Application
from repro.core.rocket import Rocket
from repro.core.workload import AllPairs
from repro.data.filestore import InMemoryStore
from repro.runtime.cluster import ClusterConfig
from repro.runtime.localrocket import RocketConfig
from repro.util.tables import format_table

from _common import print_block, write_bench_json

N_ITEMS = 12
T_PARSE = 0.012  # seconds per item parse (CPU stage)
T_PREPROCESS = 0.008  # seconds per item preprocess (device stage)
N_NODES = 2
CONFIG = dict(
    n_devices=1,
    device_cache_slots=24,
    host_cache_slots=32,
    leaf_size=2,
    seed=13,
    watchdog_seconds=120.0,
)
CLUSTER = dict(n_nodes=N_NODES, fetch_timeout=20.0, steal_timeout=5.0, result_batch=16)


class LoadHeavyApp(Application):
    """Loads dominate: parse + preprocess sleep, compare is cheap."""

    def file_name(self, key):
        return f"{key}.bin"

    def parse(self, key, file_contents):
        time.sleep(T_PARSE)
        return np.frombuffer(file_contents, dtype=np.float64).copy()

    def preprocess(self, key, parsed):
        time.sleep(T_PREPROCESS)
        return parsed * 2.0

    def compare(self, key_a, a, key_b, b):
        return np.asarray(float(a.sum() * b.sum()))

    def postprocess(self, key_a, key_b, raw):
        return float(raw)


def make_corpus():
    store = InMemoryStore()
    keys = []
    for i in range(N_ITEMS):
        key = f"item{i:02d}"
        store.write(f"{key}.bin", np.full(256, float(i + 1)).tobytes())
        keys.append(key)
    return store, keys


def make_runtime(store):
    return Rocket(
        LoadHeavyApp(), store, RocketConfig(**CONFIG), backend="cluster",
        cluster=ClusterConfig(**CLUSTER)
    )


def test_session_warm_jobs_beat_cold_runs(once):
    """A warm session job >= 1.3x faster than a cold one-shot run."""
    store, keys = make_corpus()
    workload = AllPairs(keys)
    measured = {}

    def run_both():
        # Cold: a fresh one-shot run — process spawn, cold caches, full
        # load pipeline for every item.
        cold_runtime = make_runtime(store)
        t0 = time.perf_counter()
        cold_results = cold_runtime.run(workload)
        measured["cold_s"] = time.perf_counter() - t0
        measured["cold_loads"] = cold_runtime.last_stats.loads
        measured["cold_results"] = cold_results

        # Warm: the same workload as the second job of a live session.
        session = make_runtime(store).session()
        try:
            first = session.submit(workload)
            first.result()
            measured["first_loads"] = first.stats.loads
            t0 = time.perf_counter()
            second = session.submit(workload)
            warm_results = second.result()
            measured["warm_s"] = time.perf_counter() - t0
            measured["warm_loads"] = second.stats.loads
            measured["warm_hits"] = sum(
                ns.device_counters.hits + ns.host_counters.hits
                for ns in second.stats.node_stats
            )
            measured["warm_results"] = warm_results
        finally:
            session.close()

    once(run_both)

    speedup = measured["cold_s"] / measured["warm_s"]
    rows = [
        ["cold one-shot run", f"{measured['cold_s']:.3f} s", measured["cold_loads"], "-"],
        [
            "warm session job",
            f"{measured['warm_s']:.3f} s",
            measured["warm_loads"],
            measured["warm_hits"],
        ],
    ]
    print_block(
        f"Session reuse ({N_NODES} nodes, {N_ITEMS} items, "
        f"parse {1e3 * T_PARSE:.0f} ms + preprocess {1e3 * T_PREPROCESS:.0f} ms per load)",
        format_table(
            ["execution", "wall time", "loads", "warm cache hits"],
            rows,
            title=f"warm-vs-cold speedup {speedup:.2f}x",
        ),
    )

    write_bench_json(
        "session",
        {
            "cold_s": measured["cold_s"],
            "warm_s": measured["warm_s"],
            "speedup": speedup,
            "cold_loads": measured["cold_loads"],
            "first_loads": measured["first_loads"],
            "warm_loads": measured["warm_loads"],
            "warm_hits": measured["warm_hits"],
            "n_items": N_ITEMS,
            "n_nodes": N_NODES,
        },
    )

    # Identical results regardless of cache temperature.
    for a, b, v in measured["cold_results"].items():
        assert measured["warm_results"].get(a, b) == v
    # The second job really ran against warm caches.
    assert measured["warm_loads"] < measured["first_loads"]
    assert measured["warm_hits"] > 0
    # The acceptance bar: warm >= 1.3x cold on the cluster backend.
    assert speedup >= 1.3, f"warm session job only {speedup:.2f}x faster than cold run"
