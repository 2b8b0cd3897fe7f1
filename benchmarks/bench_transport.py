"""Data-plane shoot-out: queue vs shared-memory transport, batched results.

Runs the same all-pairs workload (deterministic synthetic app with
~256 KB pre-processed payloads, so the payload/descriptor ratio is
realistic) on the real multi-process cluster runtime under each
configuration of the data plane:

- ``queue`` transport, ``result_batch=1`` — PR 1 behaviour: every
  remote cache hit pickles the full payload through a pipe and every
  completed pair is its own coordinator message;
- ``queue`` transport, batched results;
- ``shm`` transport, batched results — payloads live in shared-memory
  segments, only ``(segment, offset, shape, dtype)`` descriptors and
  result blocks cross the wire.

Reported per configuration: wall-clock, pairs/s, remote hits, bytes
serialized over the message wire, total protocol messages, and the
per-kind message split — the direct evidence that the shm descriptors
cut serialized bytes per fetch and batching cuts result messages.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_transport.py -q -s
"""

import numpy as np

from repro.core.api import Application
from repro.core.rocket import Rocket
from repro.data.filestore import InMemoryStore
from repro.runtime.cluster import ClusterConfig
from repro.runtime.localrocket import RocketConfig
from repro.util.tables import format_table

from _common import print_block, write_bench_json

N_ITEMS = 12
PAYLOAD_FLOATS = 32768  # 256 KB pre-processed payload per item
N_NODES = 3
RESULT_BATCH = 32
CONFIG = dict(
    n_devices=1,
    device_cache_slots=8,
    host_cache_slots=16,
    leaf_size=2,
    seed=11,
    watchdog_seconds=300.0,
)

#: (label, ClusterConfig data-plane kwargs) per benchmarked configuration.
PLANS = [
    ("queue / per-pair", dict(transport="queue", result_batch=1)),
    (f"queue / batch={RESULT_BATCH}", dict(transport="queue", result_batch=RESULT_BATCH)),
    (f"shm   / batch={RESULT_BATCH}", dict(transport="shm", result_batch=RESULT_BATCH)),
]


class PayloadApp(Application):
    """Deterministic toy app with large pre-processed payloads."""

    def file_name(self, key):
        return f"{key}.bin"

    def parse(self, key, file_contents):
        return np.frombuffer(file_contents, dtype=np.float64).copy()

    def preprocess(self, key, parsed):
        return parsed * 0.5

    def compare(self, key_a, a, key_b, b):
        return np.asarray(float(a[:64].sum() * b[:64].sum()))

    def postprocess(self, key_a, key_b, raw):
        return float(raw)


def make_workload():
    store = InMemoryStore()
    keys = []
    for i in range(N_ITEMS):
        key = f"item{i:02d}"
        store.write(f"{key}.bin", np.full(PAYLOAD_FLOATS, float(i + 1)).tobytes())
        keys.append(key)
    return PayloadApp(), store, keys


def test_transport_shootout(once):
    """Bytes serialized and messages sent per data-plane configuration."""
    app, store, keys = make_workload()

    local = Rocket(app, store, RocketConfig(**CONFIG))
    baseline = local.run(keys)
    runs = {}

    def run_all():
        for label, plan in PLANS:
            rocket = Rocket(
                app, store, RocketConfig(**CONFIG),
                backend="cluster", cluster=ClusterConfig(
                    n_nodes=N_NODES, fetch_timeout=30.0, steal_timeout=5.0, **plan
                ),
            )
            runs[label] = (rocket.run(keys), rocket.last_stats)

    once(run_all)

    rows = []
    for label, _ in PLANS:
        results, stats = runs[label]
        # Cross-transport determinism: identical to the threaded baseline.
        for a, b, v in baseline.items():
            assert results.get(a, b) == v
        hits = stats.hop_stats.total_hits
        per_fetch = stats.bytes_over_wire / hits if hits else 0.0
        rows.append([
            label,
            f"{stats.runtime:6.2f}s",
            f"{stats.throughput:7.1f}",
            f"{hits}/{stats.hop_stats.requests}",
            f"{stats.bytes_over_wire / 1e3:9.1f} kB",
            f"{per_fetch / 1e3:8.2f} kB",
            stats.messages,
            "/".join(str(stats.message_kinds[k]) for k in ("fetch", "grant", "result", "control")),
        ])

    print_block(
        f"Transport shoot-out ({N_ITEMS} items x {PAYLOAD_FLOATS * 8 // 1024} kB payloads, "
        f"{N_NODES} nodes)",
        format_table(
            ["data plane", "wall", "pairs/s", "hits", "serialized", "per fetch",
             "msgs", "fetch/grant/result/ctl"],
            rows,
            title=f"{baseline.n_pairs} pairs; serialized = payload bytes on the message wire",
        ),
    )

    write_bench_json(
        "transport",
        {
            label: {
                "runtime_s": stats.runtime,
                "pairs_per_s": stats.throughput,
                "remote_hits": stats.hop_stats.total_hits,
                "remote_requests": stats.hop_stats.requests,
                "bytes_over_wire": stats.bytes_over_wire,
                "messages": stats.messages,
                "message_kinds": dict(stats.message_kinds),
            }
            for label, (_, stats) in runs.items()
        },
    )

    (_, per_pair), (_, batched), (_, shm) = (runs[label] for label, _ in PLANS)

    # Result batching: the batched runs ship far fewer result messages
    # than the per-pair baseline (which sends exactly one per pair).
    assert per_pair.message_kinds["result"] == per_pair.n_pairs
    assert batched.message_kinds["result"] < per_pair.message_kinds["result"] / 4
    assert shm.message_kinds["result"] < per_pair.message_kinds["result"] / 4

    # Zero-copy payloads: with remote hits on both sides, the shm run
    # serializes orders of magnitude fewer bytes per fetch than either
    # queue run pays for a single payload.
    payload_bytes = PAYLOAD_FLOATS * 8
    assert batched.hop_stats.total_hits >= 1
    assert batched.bytes_over_wire >= batched.hop_stats.total_hits * payload_bytes
    if shm.hop_stats.total_hits:
        assert shm.bytes_over_wire < shm.hop_stats.total_hits * 1024
        assert shm.bytes_over_wire < batched.bytes_over_wire
