"""Heterogeneous scheduling — uniform vs. speed-aware policy (Section 6.5).

Unlike the ``bench_fig*`` experiments (simulated time), this benchmark
exercises the *real* threaded runtime on a skewed two-device mix: a
reference-speed GPU next to one running at a quarter speed (the
``VirtualDevice`` pads kernel wall time accordingly).  The comparison
kernel sleeps a fixed interval, so the workload is kernel-bound and the
scheduling policy is the only variable:

- ``uniform`` — the paper's baseline: randomized victim selection,
  whole-block steals, equal job admission on every device.  The slow
  device keeps committing full batches of serialized kernel work, and
  the run tail waits on its backlog.
- ``speed`` — the heterogeneity-aware policy: speed-proportional
  initial partitioning, victims ranked by estimated remaining work,
  steal sizes and per-device job admission scaled by the speed ratio.

The run summaries also show the online-calibrated performance model's
predicted-vs-measured time and system efficiency (the paper's Table 2 /
Fig. 13 evaluation, live).

Run:  python -m pytest benchmarks/bench_hetero.py -q -s
"""

import time

import numpy as np

from repro.core.api import Application
from repro.core.rocket import Rocket
from repro.data.filestore import InMemoryStore
from repro.runtime.localrocket import RocketConfig
from repro.scheduling.workstealing import StealPolicy
from repro.util.tables import format_table

from _common import print_block, write_bench_json

N_ITEMS = 10
T_CMP = 0.012  # seconds per comparison kernel at reference speed
SPEEDS = (1.0, 0.25)  # the skewed device mix of the acceptance scenario
CONFIG = dict(
    n_devices=2,
    device_cache_slots=16,
    host_cache_slots=32,
    concurrent_jobs=8,
    leaf_size=2,
    seed=11,
    watchdog_seconds=120.0,
    device_speed_factors=SPEEDS,
)


class SleepCompareApp(Application):
    """Kernel-bound toy app: compare costs a fixed sleep, loads are free."""

    def file_name(self, key):
        return f"{key}.bin"

    def parse(self, key, file_contents):
        return np.frombuffer(file_contents, dtype=np.float64).copy()

    def preprocess(self, key, parsed):
        return parsed

    def compare(self, key_a, a, key_b, b):
        time.sleep(T_CMP)
        return np.asarray(float(a.sum() + b.sum()))

    def postprocess(self, key_a, key_b, raw):
        return float(raw)


def make_workload():
    store = InMemoryStore()
    keys = []
    for i in range(N_ITEMS):
        key = f"item{i:02d}"
        store.write(f"{key}.bin", np.full(4, float(i + 1)).tobytes())
        keys.append(key)
    return store, keys


def run_policy(store, keys, policy):
    rocket = Rocket(
        SleepCompareApp(), store, RocketConfig(steal_policy=policy, **CONFIG)
    )
    results = rocket.run(keys)
    assert results.is_complete()
    return rocket.last_stats


def test_speed_aware_beats_uniform_on_skewed_mix(once):
    """Speed-aware scheduling >= 1.3x faster on a (1.0, 0.25) device mix."""
    store, keys = make_workload()
    stats = {}

    def run_both():
        # Uniform first: any cache warm-up penalty lands on the baseline's
        # side of the comparison, not the policy under test.
        stats[StealPolicy.UNIFORM] = run_policy(store, keys, StealPolicy.UNIFORM)
        stats[StealPolicy.SPEED] = run_policy(store, keys, StealPolicy.SPEED)

    once(run_both)

    rows = []
    for policy, st in stats.items():
        rows.append([
            policy.value,
            f"{st.runtime:.3f} s",
            f"{st.predicted_runtime:.3f} s",
            f"{st.model_efficiency:.1%}",
            " / ".join(f"{d}:{c}" for d, c in sorted(st.pairs_per_device.items())),
            st.local_steals,
        ])
    speedup = stats[StealPolicy.UNIFORM].runtime / stats[StealPolicy.SPEED].runtime
    print_block(
        "Heterogeneous scheduling (2 devices, speeds 1.0 / 0.25)",
        format_table(
            ["policy", "measured", "predicted", "efficiency", "pairs per device", "steals"],
            rows,
            title=f"{len(keys)} items, {len(keys) * (len(keys) - 1) // 2} pairs, "
            f"t_cmp={1e3 * T_CMP:.0f} ms; speed-aware speedup {speedup:.2f}x",
        ),
    )

    write_bench_json(
        "hetero",
        {
            "speedup": speedup,
            "policies": {
                policy.value: {
                    "runtime_s": st.runtime,
                    "predicted_runtime_s": st.predicted_runtime,
                    "model_efficiency": st.model_efficiency,
                    "local_steals": st.local_steals,
                    "pairs_per_device": dict(st.pairs_per_device),
                }
                for policy, st in stats.items()
            },
        },
    )

    fast, slow = (f"gpu{d}" for d in range(2))
    sp = stats[StealPolicy.SPEED]
    # The fast device must carry the bulk of the pairs under the
    # speed-aware policy (its speed share is 80%).
    assert sp.pairs_per_device[fast] > sp.pairs_per_device[slow]
    # Online calibration measured the compare kernel and produced a
    # usable prediction for the run.
    assert sp.calibration.cmp_count == sp.n_pairs
    assert sp.predicted_runtime > 0
    assert 0 < sp.model_efficiency
    # The acceptance bar: >= 1.3x over uniform scheduling.
    assert speedup >= 1.3, f"speed-aware speedup only {speedup:.2f}x"
