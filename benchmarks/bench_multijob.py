"""Multi-job fair sharing — small urgent job co-scheduled with a giant.

The scheduler redesign exists for exactly one scenario: a small
high-priority query submitted to a busy session.  Under the historical
FIFO policy it waits for the entire incumbent job — its latency is the
big job's runtime, no matter how few pairs it needs.  Under the FAIR
policy the scheduler multiplexes both jobs over the same live engine,
granting the small job its weighted share of device time, so it
finishes in roughly its own solo runtime while the big job continues
around it.

This benchmark runs both schedules over an identical compute-heavy
workload and asserts the two acceptance floors:

- the small job's submit-to-done latency improves >= 3x vs FIFO;
- total throughput (both jobs done) stays within 10% of serial — fair
  sharing must not burn the win on scheduler overhead.

Run:  python -m pytest benchmarks/bench_multijob.py -q -s
"""

import time

import numpy as np

from repro.core.api import Application
from repro.core.rocket import Rocket
from repro.core.workload import AllPairs
from repro.data.filestore import InMemoryStore
from repro.runtime.localrocket import RocketConfig
from repro.util.tables import format_table

from _common import print_block, write_bench_json

N_LARGE = 16  # 120 pairs
N_SMALL = 5  # 10 pairs
T_COMPARE = 0.004  # seconds per pair kernel: device-bound regime
CONFIG = dict(
    n_devices=1,
    device_cache_slots=24,
    host_cache_slots=32,
    leaf_size=2,
    seed=17,
    watchdog_seconds=120.0,
)

LATENCY_FLOOR = 3.0  # small-job latency win FAIR vs FIFO
THROUGHPUT_SLACK = 1.10  # total runtime FAIR <= 1.10x serial


class ComputeHeavyApp(Application):
    """The kernel dominates: compare sleeps, loads are cheap."""

    def file_name(self, key):
        return f"{key}.bin"

    def parse(self, key, file_contents):
        return np.frombuffer(file_contents, dtype=np.float64).copy()

    def preprocess(self, key, parsed):
        return parsed

    def compare(self, key_a, a, key_b, b):
        time.sleep(T_COMPARE)
        return np.asarray(float(a.sum() * b.sum()))

    def postprocess(self, key_a, key_b, raw):
        return float(raw)


def make_store(n):
    store = InMemoryStore()
    keys = []
    for i in range(n):
        key = f"item{i:02d}"
        store.write(f"{key}.bin", np.full(16, i + 1, dtype=np.float64).tobytes())
        keys.append(key)
    return store, keys


def run_schedule(policy, store, keys):
    """Submit large-then-small under ``policy``; returns the timings."""
    rocket = Rocket(ComputeHeavyApp(), store, RocketConfig(**CONFIG))
    session = rocket.session(policy=policy)
    try:
        t0 = time.perf_counter()
        large = session.submit(AllPairs(keys))
        small = session.submit(AllPairs(keys[:N_SMALL]), priority=8.0)
        small.result(timeout=120.0)
        small_latency = time.perf_counter() - t0
        large.result(timeout=120.0)
        total = time.perf_counter() - t0
    finally:
        session.close()
    return {
        "small_latency": small_latency,
        "total": total,
        "small_accounting": small.accounting,
    }


def test_fair_sharing_cuts_small_job_latency(once):
    store, keys = make_store(N_LARGE)

    def experiment():
        fifo = run_schedule("fifo", store, keys)
        fair = run_schedule("fair", store, keys)
        return fifo, fair

    fifo, fair = once(experiment)
    speedup = fifo["small_latency"] / fair["small_latency"]
    throughput_ratio = fair["total"] / fifo["total"]

    rows = [
        ["fifo (serial)", f"{fifo['small_latency']:.3f}", f"{fifo['total']:.3f}", "1.00x"],
        [
            "fair (co-scheduled)",
            f"{fair['small_latency']:.3f}",
            f"{fair['total']:.3f}",
            f"{speedup:.2f}x",
        ],
    ]
    body = "\n".join(
        [
            format_table(
                ["schedule", "small-job latency (s)", "both-jobs total (s)", "latency win"],
                rows,
            ),
            f"small job: {fair['small_accounting'].summary()}",
            f"total-runtime ratio fair/serial: {throughput_ratio:.2f} "
            f"(ceiling {THROUGHPUT_SLACK:.2f})",
        ]
    )
    print_block(
        "Multi-job scheduling: small high-priority job vs a large incumbent", body
    )

    write_bench_json(
        "multijob",
        {
            "fifo_small_latency_s": fifo["small_latency"],
            "fair_small_latency_s": fair["small_latency"],
            "fifo_total_s": fifo["total"],
            "fair_total_s": fair["total"],
            "latency_speedup": speedup,
            "throughput_ratio": throughput_ratio,
            "small_job": fair["small_accounting"].to_dict(),
        },
    )

    assert speedup >= LATENCY_FLOOR, (
        f"fair sharing must cut the small job's latency >= {LATENCY_FLOOR}x "
        f"vs FIFO, measured {speedup:.2f}x"
    )
    assert throughput_ratio <= THROUGHPUT_SLACK, (
        f"fair sharing may cost at most {(THROUGHPUT_SLACK - 1):.0%} total "
        f"throughput vs serial, measured {throughput_ratio:.2f}x"
    )
