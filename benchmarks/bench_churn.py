"""Membership-churn benchmark — node kill + join during a fixed workload.

Runs the same all-pairs workload on the real multi-process cluster
three ways:

1. **undisturbed** — 3 nodes, no churn (the baseline);
2. **kill** — 3 nodes, one SIGKILLed mid-job (fault recovery);
3. **churn** — 2 nodes, one joins then one is killed mid-job.

The acceptance floor is *bounded completion-time inflation*: losing a
third of the cluster mid-job may cost wall-clock (the survivors
re-execute the dead node's unfinished blocks), but it must stay within
``MAX_INFLATION``x of the undisturbed run — the difference between a
recovered job and an effectively restarted one — and every variant
must produce results value-identical to the baseline.

Run:  python -m pytest benchmarks/bench_churn.py -q -s
"""

import os
import signal
import time

import numpy as np

from repro.apps import ForensicsApplication
from repro.core.rocket import Rocket
from repro.core.workload import AllPairs
from repro.data.filestore import InMemoryStore
from repro.data.synthetic import make_forensics_dataset
from repro.runtime.cluster import ClusterConfig
from repro.runtime.localrocket import RocketConfig
from repro.util.tables import format_table

from _common import print_block, write_bench_json

N_IMAGES = 14
CONFIG = dict(
    n_devices=1,
    device_cache_slots=8,
    host_cache_slots=16,
    leaf_size=2,
    seed=7,
    watchdog_seconds=300.0,
)
#: Completion-time ceiling for the disturbed runs, as a multiple of the
#: undisturbed run.  Loose on purpose: CI machines are noisy and the
#: workload is seconds-scale, so this guards against recovery stalling
#: (timeouts, lost blocks), not against modest re-execution cost.
MAX_INFLATION = 6.0


def make_workload():
    store = InMemoryStore()
    dataset = make_forensics_dataset(
        store, n_images=N_IMAGES, image_shape=(512, 512), seed=7
    )
    return ForensicsApplication(), store, dataset.keys


def cluster_config(n_nodes):
    return ClusterConfig(n_nodes=n_nodes, fetch_timeout=30.0, steal_timeout=5.0)


def run_variant(app, store, keys, n_nodes, disturb=None):
    """One timed session run; ``disturb(session)`` fires mid-job."""
    rocket = Rocket(
        app, store, RocketConfig(**CONFIG), backend="cluster", cluster=cluster_config(n_nodes)
    )
    session = rocket.session()
    try:
        start = time.perf_counter()
        handle = session.submit(AllPairs(keys))
        if disturb is not None:
            time.sleep(0.25)
            disturb(session)
        results = handle.result()
        elapsed = time.perf_counter() - start
        return results, elapsed, handle.accounting
    finally:
        session.close()


def test_churn_bounded_inflation(once):
    app, store, keys = make_workload()

    runs = {}

    def run_all():
        runs["undisturbed"] = run_variant(app, store, keys, n_nodes=3)

        def kill_one(session):
            os.kill(session._procs[1].pid, signal.SIGKILL)

        runs["kill"] = run_variant(app, store, keys, n_nodes=3, disturb=kill_one)

        def join_then_kill(session):
            session.add_node()
            os.kill(session._procs[0].pid, signal.SIGKILL)

        runs["churn"] = run_variant(
            app, store, keys, n_nodes=2, disturb=join_then_kill
        )

    once(run_all)

    baseline_results, baseline_s, _ = runs["undisturbed"]
    rows = []
    report = {"n_images": N_IMAGES, "n_pairs": baseline_results.n_pairs}
    for variant, (results, elapsed, acct) in runs.items():
        # Value parity: churn may reorder and re-execute, never corrupt.
        assert results.is_complete()
        mismatches = sum(
            1
            for a, b, v in baseline_results.items()
            if results.get(a, b) != v
        )
        assert mismatches == 0, f"{variant}: {mismatches} mismatching pairs"
        inflation = elapsed / baseline_s if baseline_s > 0 else float("inf")
        rows.append([
            variant,
            f"{elapsed:6.2f} s",
            f"{inflation:4.2f}x",
            acct.nodes_lost,
            acct.pairs_recovered,
        ])
        report[variant] = {
            "seconds": elapsed,
            "inflation": inflation,
            "nodes_lost": acct.nodes_lost,
            "pairs_recovered": acct.pairs_recovered,
        }

    print_block(
        "Membership churn (real processes, live membership)",
        format_table(
            ["variant", "completion", "vs baseline", "nodes lost", "pairs recovered"],
            rows,
            title=f"forensics, {N_IMAGES} items, {baseline_results.n_pairs} pairs",
        ),
    )
    write_bench_json("churn", report)

    # The acceptance floor: recovery must stay a recovery, not a rerun
    # from scratch after a timeout cascade.
    for variant in ("kill", "churn"):
        inflation = report[variant]["inflation"]
        assert inflation <= MAX_INFLATION, (
            f"{variant} run inflated {inflation:.2f}x over undisturbed "
            f"(bound {MAX_INFLATION}x)"
        )
