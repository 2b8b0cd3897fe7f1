"""Persistent store warm start — a second session over an unchanged corpus.

The session benchmark (``bench_session.py``) measures reuse *within*
one process: a live session's caches survive between jobs.  The
persistent store (:mod:`repro.store`) extends that across processes —
preprocessed item payloads and memoized pair results land in a shared
``store_dir``, so a brand-new session over the same corpus skips the
load pipeline entirely and, when nothing changed, recomputes **zero**
pairs: the whole job is served out of the memo journal at submit time.

This benchmark runs the same load- and compare-heavy workload in two
back-to-back sessions sharing one store directory and asserts the
acceptance floors: the warm session is at least 5x faster end-to-end,
recomputes zero pairs, and its results are value-identical to the cold
run.

Run:  python -m pytest benchmarks/bench_store.py -q -s
"""

import shutil
import tempfile
import time

import numpy as np

from repro.core.api import Application
from repro.core.rocket import Rocket
from repro.core.workload import AllPairs
from repro.data.filestore import InMemoryStore
from repro.runtime.localrocket import RocketConfig
from repro.util.tables import format_table

from _common import print_block, write_bench_json

N_ITEMS = 10
T_PARSE = 0.004  # seconds per item parse (CPU stage)
T_PREPROCESS = 0.003  # seconds per item preprocess (device stage)
T_COMPARE = 0.003  # seconds per pair kernel
CONFIG = dict(
    n_devices=2,
    device_cache_slots=24,
    host_cache_slots=32,
    leaf_size=2,
    seed=17,
    watchdog_seconds=120.0,
)


class ExpensiveApp(Application):
    """Every stage costs real time, so stored state is worth real time."""

    def file_name(self, key):
        return f"{key}.bin"

    def parse(self, key, file_contents):
        time.sleep(T_PARSE)
        return np.frombuffer(file_contents, dtype=np.float64).copy()

    def preprocess(self, key, parsed):
        time.sleep(T_PREPROCESS)
        return parsed * 2.0

    def compare(self, key_a, a, key_b, b):
        time.sleep(T_COMPARE)
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


def run_session(store, keys, store_dir):
    """One fresh session (cold process state) against the shared store."""
    session = Rocket(
        ExpensiveApp(), store, RocketConfig(store_dir=store_dir, **CONFIG)
    ).session()
    try:
        t0 = time.perf_counter()
        results = session.submit(AllPairs(keys)).result()
        elapsed = time.perf_counter() - t0
        memo = session.metrics()["store"]["memo"]
        return elapsed, results, memo
    finally:
        session.close()


def test_warm_store_session_recomputes_nothing(once):
    """Second session over an unchanged corpus: >= 5x, zero recomputes."""
    store_dir = tempfile.mkdtemp(prefix="bench-store-")
    measured = {}

    def run_both():
        store, keys = make_corpus()
        measured["cold_s"], cold_results, cold_memo = run_session(
            store, keys, store_dir
        )
        measured["cold_memo"] = cold_memo
        measured["cold_results"] = cold_results

        # A brand-new store over the same bytes: nothing survives from
        # the first session except the store directory.
        store2, keys2 = make_corpus()
        measured["warm_s"], warm_results, warm_memo = run_session(
            store2, keys2, store_dir
        )
        measured["warm_memo"] = warm_memo
        measured["warm_results"] = warm_results

    try:
        once(run_both)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    cold_memo, warm_memo = measured["cold_memo"], measured["warm_memo"]
    recomputed = warm_memo["misses"]
    speedup = measured["cold_s"] / measured["warm_s"]
    rows = [
        [
            "cold session",
            f"{measured['cold_s']:.3f} s",
            cold_memo["misses"],
            cold_memo["hits"],
        ],
        [
            "warm session",
            f"{measured['warm_s']:.3f} s",
            recomputed,
            warm_memo["hits"],
        ],
    ]
    print_block(
        f"Persistent store warm start ({N_ITEMS} items, "
        f"{cold_memo['misses']} pairs, parse {1e3 * T_PARSE:.0f} ms + "
        f"preprocess {1e3 * T_PREPROCESS:.0f} ms + compare "
        f"{1e3 * T_COMPARE:.0f} ms)",
        format_table(
            ["execution", "wall time", "pairs computed", "memo hits"],
            rows,
            title=f"cross-session speedup {speedup:.2f}x",
        ),
    )

    write_bench_json(
        "store",
        {
            "cold_s": measured["cold_s"],
            "warm_s": measured["warm_s"],
            "speedup": speedup,
            "cold_pairs_computed": cold_memo["misses"],
            "warm_pairs_recomputed": recomputed,
            "warm_memo_hits": warm_memo["hits"],
            "warm_jobs_short_circuited": warm_memo["jobs_short_circuited"],
            "n_items": N_ITEMS,
        },
    )

    # Value-identical to the cold run, pair for pair.
    cold = {(a, b): v for a, b, v in measured["cold_results"].items()}
    warm = {(a, b): v for a, b, v in measured["warm_results"].items()}
    assert warm == cold
    # The acceptance bars: zero recomputed pairs, >= 5x end-to-end.
    assert recomputed == 0, f"warm session recomputed {recomputed} pairs"
    assert warm_memo["jobs_short_circuited"] == 1
    assert speedup >= 5.0, f"warm session only {speedup:.2f}x faster than cold"
