#!/usr/bin/env python3
"""Profiling a cluster run into one merged Chrome/Perfetto trace.

Rocket's profiling flag (the paper's Fig. 6 / Fig. 8 instrumentation)
records per-resource task lanes in *every* process: the coordinator
traces scheduler admission and job lifetime, each node process traces
its IO/CPU/device pipeline stages and distributed-cache protocol
events.  Node buffers ride home on the existing stats messages and
``session.profile()`` merges them — rebased onto one session clock —
into a single trace where every OS process appears under its real pid.

The same trace is reachable three ways:

- ``session.profile().save(path)`` on a live session (this example);
- ``Rocket.run(keys, profile=path)`` for one-shot runs;
- ``rocket-repro run ... --profile path`` from the CLI.

Load the written JSON in https://ui.perfetto.dev or chrome://tracing.

Run:  python examples/profile_run.py
"""

import json
import os
import tempfile

from repro import ClusterConfig, Rocket, RocketConfig
from repro.apps import ForensicsApplication
from repro.data.filestore import InMemoryStore
from repro.data.synthetic import make_forensics_dataset
from repro.util.trace import lane_summary

N_IMAGES = 8
N_NODES = 2
CONFIG = RocketConfig(
    n_devices=1,
    device_cache_slots=8,
    host_cache_slots=12,
    seed=23,
    profiling=True,
)


def main() -> None:
    store = InMemoryStore()
    dataset = make_forensics_dataset(
        store, n_images=N_IMAGES, image_shape=(64, 64), seed=23
    )
    rocket = Rocket(
        ForensicsApplication(),
        store,
        CONFIG,
        backend="cluster",
        cluster=ClusterConfig(n_nodes=N_NODES),
    )

    out = os.environ.get("ROCKET_PROFILE_OUT") or os.path.join(
        tempfile.mkdtemp(prefix="rocket-profile-"), "profile.json"
    )

    with rocket.session() as session:
        handle = session.submit(dataset.keys)
        handle.result()
        job_id = handle.accounting.job_id

        snapshot = session.metrics()
        print("== session metrics (one job in) ==")
        print(json.dumps(snapshot["cache"], indent=2, sort_keys=True))

        trace = session.profile()
        trace.save(out)

    print(f"\n== merged profile: {trace.n_events} spans from "
          f"{len(trace.pids())} processes ==")
    for pid in trace.pids():
        events = trace.events_for_pid(pid)
        lanes = sorted({e.lane for e in events})
        print(f"  pid {pid:>7}  {trace.process_name(pid):<12} "
              f"{len(events):>4} spans on lanes {', '.join(lanes)}")

    # The file must be loadable and keep the per-process split intact.
    with open(out, encoding="utf-8") as fh:
        loaded = json.load(fh)
    span_pids = {e["pid"] for e in loaded["traceEvents"] if e["ph"] == "X"}
    assert span_pids == set(trace.pids()), "saved trace lost processes"
    assert len(span_pids) == N_NODES + 1, "expected coordinator + every node"
    assert any(
        e.get("args", {}).get("job_id") == job_id for e in loaded["traceEvents"]
    ), "spans lost their job-id tags"

    print("\n== coordinator lane summary ==")
    coord = [p for p in trace.pids() if trace.process_name(p) == "coordinator"][0]
    rec_like = _summary_of(trace.events_for_pid(coord))
    for lane, row in rec_like.items():
        print(f"  {lane:<12} busy {row['busy']:.3f}s over {int(row['tasks'])} tasks")

    print(f"\nOK: wrote {out} — open it in ui.perfetto.dev")


def _summary_of(events):
    """Lane summary over a plain event list (re-using the recorder's)."""
    from repro.util.trace import TraceRecorder

    rec = TraceRecorder()
    rec.extend(events)
    return lane_summary(rec)


if __name__ == "__main__":
    main()
