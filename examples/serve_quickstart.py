#!/usr/bin/env python3
"""Rocket-as-a-service: share one warm session between many clients.

A :class:`~repro.serve.RocketServer` wraps a live session
(``Rocket(...).session()``) and serves it over a TCP socket; clients
:func:`~repro.serve.connect` and get a ``ServedSession`` that mirrors
the in-process API — ``submit`` / ``result`` / ``stream`` — plus the
serving extras: tenant identities with fair-share weights, and jobs
that **survive disconnects** (reattach by job id from any connection).

The daemon normally runs as ``python -m repro serve ...`` in its own
process; here it is embedded in-process on an ephemeral port so the
example is self-contained.

Run:  python examples/serve_quickstart.py
"""

import numpy as np

from repro import Application, Rocket, RocketConfig
from repro.core.workload import DeltaPairs
from repro.data import InMemoryStore
from repro.serve import RocketServer, TenantConfig, TenantDirectory, connect


class DotProduct(Application[str, float]):
    """Toy measure: the dot product of two stored vectors."""

    def file_name(self, key: str) -> str:
        return f"{key}.f64"

    def parse(self, key: str, file_contents: bytes) -> np.ndarray:
        return np.frombuffer(file_contents, dtype=np.float64).copy()

    def preprocess(self, key: str, parsed: np.ndarray) -> np.ndarray:
        return parsed / np.linalg.norm(parsed)

    def compare(self, key_a, item_a, key_b, item_b) -> np.ndarray:
        return np.asarray(float(item_a @ item_b))

    def postprocess(self, key_a, key_b, raw_result) -> float:
        return float(raw_result)


def main() -> None:
    rng = np.random.default_rng(7)
    store = InMemoryStore()
    keys = []
    for i in range(10):
        key = f"doc{i:02d}"
        store.write(f"{key}.f64", rng.standard_normal(64).tobytes())
        keys.append(key)

    # The daemon side: one warm FAIR session served on a socket.  The
    # tenant directory gives "analytics" a 3x fair-share weight over
    # walk-in tenants and caps everyone at 4 concurrently live jobs.
    session = Rocket(DotProduct(), store, RocketConfig(n_devices=2, seed=7)).session(
        policy="fair"
    )
    tenants = TenantDirectory(
        [TenantConfig("analytics", weight=3.0)],
        default=TenantConfig("default", max_active=4),
    )
    with RocketServer(session, keys, port=0, tenants=tenants) as server:
        print(f"daemon listening on {server.address} (backend={session.backend})")

        # Client 1: a weighted tenant runs all-pairs and streams.
        with connect(server.address, tenant="analytics") as client:
            print(f"tenant config from hello: {client.tenant}")
            handle = client.submit(client.keys(), priority=1.0)
            first = next(iter(handle.stream()))
            print(f"first streamed pair: {first[0]} vs {first[1]} = {first[2]:+.3f}")
            matrix = handle.result()
            print(f"all-pairs done: {matrix.expected_pairs} similarities")

        # Client 2 submits an incremental update ... and vanishes.
        with connect(server.address, tenant="ingest") as client:
            job_id = client.submit(DeltaPairs(keys[:8], keys[8:])).job_id
            print(f"ingest submitted {job_id}, then disconnected")

        # ... the job survives: a later connection of the same tenant
        # reattaches by id and collects the finished matrix.
        with connect(server.address, tenant="ingest") as client:
            revived = client.handle(job_id)
            delta = revived.result()
            print(f"reattached to {job_id}: {len(delta)} delta pairs computed")
            revived.ack()  # release the daemon's retained copy

            health = client.health()
            print(
                f"daemon health: {health['status']}, "
                f"{health['jobs']['retained']} retained job(s)"
            )

    assert matrix.is_complete() and delta.is_complete()
    assert len(delta) == DeltaPairs(keys[:8], keys[8:]).n_pairs
    print("daemon drained and closed — served round trip OK")


if __name__ == "__main__":
    main()
