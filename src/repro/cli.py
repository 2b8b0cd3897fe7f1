"""Command-line interface: ``python -m repro <command>``.

Six subcommands cover the common entry points without writing code:

- ``run`` — run one of the three paper applications end-to-end on
  synthetic data on a selectable execution backend (``local`` threads
  or a real multi-process ``cluster``) and print the run stats
  (optionally saving the result matrix as JSON);
- ``serve`` — start the Rocket-as-a-service daemon: one warm session
  on the selected backend, served to socket clients until SIGTERM
  drains it (see :mod:`repro.serve`);
- ``submit`` — submit a workload to a running ``serve`` daemon and
  wait for the result (``--connect HOST:PORT``);
- ``simulate`` — run a workload profile on a simulated cluster and
  print the report (optionally dumping a Chrome trace of the run);
- ``profiles`` — print the Table 1 workload profiles;
- ``store`` — inspect (``stats``) or shrink (``gc``) a persistent
  cross-session store directory (see :mod:`repro.store`; enable one on
  a run with ``--store-dir``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.result import save_results
from repro.sim.cluster import ClusterSpec
from repro.sim.rocketsim import RocketSimConfig, run_simulation
from repro.sim.workload import PROFILES, scaled_profile
from repro.util.tables import format_table
from repro.util.trace import to_chrome_trace

__all__ = ["main", "build_parser", "add_run_arguments"]


def _add_dataset_arguments(p: argparse.ArgumentParser) -> None:
    """Flags selecting the synthetic data set and local device mix."""
    p.add_argument("app", choices=["forensics", "bioinformatics", "microscopy"])
    p.add_argument("--items", type=int, default=12, help="data set size")
    p.add_argument("--devices", type=int, default=2, help="virtual GPUs per node")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--device-speeds", metavar="S,S,...", default=None,
        help="comma-separated per-device speed factors (e.g. 1.0,0.25); "
        "for the cluster backend, nodes*devices values give a per-node mix",
    )
    p.add_argument(
        "--steal-policy", choices=["uniform", "speed"], default="uniform",
        help="uniform: the paper's randomized stealing; speed: "
        "heterogeneity-aware scheduling (speed-proportional partition, "
        "remaining-work victim ranking, speed-scaled steals)",
    )
    p.add_argument(
        "--log-json", action="store_true",
        help="emit structured runtime logs as JSON lines on stderr",
    )
    p.add_argument(
        "--store-dir", metavar="DIR", default=None,
        help="persistent cross-session store under DIR: preprocessed "
        "item payloads are reused on warm start and already-computed "
        "pairs are served without recomputation ('repro store stats' "
        "inspects it, 'repro store gc' shrinks it)",
    )


def _add_backend_arguments(p: argparse.ArgumentParser) -> None:
    """Flags selecting and configuring the execution backend."""
    p.add_argument(
        "--backend", choices=["local", "cluster"], default="local",
        help="execution backend (cluster = one worker process per node)",
    )
    p.add_argument("--nodes", type=int, default=2, help="cluster node count")
    p.add_argument(
        "--hops", type=int, default=2,
        help="distributed-cache forwarding bound h (cluster backend)",
    )
    p.add_argument(
        "--no-distributed-cache", action="store_true",
        help="disable the third cache level (cluster backend)",
    )
    p.add_argument(
        "--transport", choices=["queue", "shm"], default="queue",
        help="cluster data plane: pickled queues or zero-copy "
        "shared-memory descriptors",
    )
    p.add_argument(
        "--result-batch", type=int, default=64, metavar="N",
        help="pair results per coordinator message (cluster backend)",
    )
    p.add_argument(
        "--max-nodes", type=int, default=None, metavar="N",
        help="pre-allocated node-slot capacity for nodes joining a "
        "live session (cluster backend; default: nodes + 4)",
    )


def _add_shape_arguments(p: argparse.ArgumentParser, with_jobs_file: bool = True) -> None:
    """The --bipartite/--delta workload shape flags (one-of group)."""
    shape = p.add_mutually_exclusive_group()
    shape.add_argument(
        "--bipartite", type=int, default=None, metavar="N",
        help="bipartite workload: compare the first N items (the query "
        "set) against the remaining items (the reference corpus) "
        "instead of computing all pairs",
    )
    shape.add_argument(
        "--delta", type=int, default=None, metavar="N",
        help="delta workload: treat the last N items as newly added and "
        "compute only new-vs-old and new-vs-new pairs (incremental "
        "corpus growth)",
    )
    if with_jobs_file:
        shape.add_argument(
            "--jobs-file", metavar="PATH", default=None,
            help="run several jobs concurrently in one fair-sharing session: "
            "a JSON list of objects, each {'workload': 'all'|'bipartite'|"
            "'delta', 'n': N (split size, bipartite/delta only), "
            "'priority': W, 'max_inflight': M} — priorities are "
            "fair-share weights over the same synthetic data set",
        )


def add_run_arguments(p: argparse.ArgumentParser) -> None:
    """The full ``run`` flag set (data + shape + backend)."""
    _add_dataset_arguments(p)
    p.add_argument("--save", metavar="PATH", help="write the result matrix as JSON")
    _add_shape_arguments(p)
    p.add_argument(
        "--profile", metavar="PATH", default=None,
        help="profile the run and write the merged multi-process "
        "Chrome/Perfetto trace JSON to PATH (load it in "
        "chrome://tracing or ui.perfetto.dev)",
    )
    _add_backend_arguments(p)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rocket (SC 2020) reproduction - all-pairs computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a paper application on a selected backend")
    add_run_arguments(run)

    serve = sub.add_parser(
        "serve",
        help="start the serving daemon: one warm session, many socket clients",
    )
    _add_dataset_arguments(serve)
    _add_backend_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1", help="listen address")
    serve.add_argument(
        "--port", type=int, default=7070,
        help="listen port (0 = ephemeral, printed on startup)",
    )
    serve.add_argument(
        "--tenants", metavar="PATH", default=None,
        help="JSON tenant directory (weights + quotas); omitted = every "
        "tenant admitted at weight 1 with no quotas",
    )
    serve.add_argument(
        "--max-active", type=int, default=None, metavar="N",
        help="session-wide cap on concurrently active jobs",
    )
    serve.add_argument(
        "--result-ttl", type=float, default=900.0, metavar="SECONDS",
        help="how long finished, unacknowledged job results stay fetchable",
    )

    submit = sub.add_parser(
        "submit", help="submit a workload to a running serve daemon"
    )
    submit.add_argument(
        "--connect", metavar="HOST:PORT", required=True,
        help="address of the serving daemon",
    )
    submit.add_argument("--tenant", default="default", help="tenant identity")
    _add_shape_arguments(submit, with_jobs_file=False)
    submit.add_argument(
        "--priority", type=float, default=1.0, metavar="W",
        help="requested fair-share weight (multiplied by the tenant weight)",
    )
    submit.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="cap on this job's concurrently in-flight pair comparisons",
    )
    submit.add_argument("--save", metavar="PATH", help="write the result matrix as JSON")

    sim = sub.add_parser("simulate", help="run a workload on a simulated cluster")
    sim.add_argument("profile", choices=sorted(PROFILES))
    sim.add_argument("--items", type=int, default=96, help="scaled item count")
    sim.add_argument("--nodes", type=int, default=4)
    sim.add_argument("--gpus-per-node", type=int, default=1)
    sim.add_argument("--gpu", default="TitanX Maxwell")
    sim.add_argument("--device-slots", type=int, default=8)
    sim.add_argument("--host-slots", type=int, default=12)
    sim.add_argument("--no-distributed-cache", action="store_true")
    sim.add_argument("--hops", type=int, default=1)
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--trace", metavar="PATH", help="write a Chrome trace JSON")

    sub.add_parser("profiles", help="print the Table 1 workload profiles")

    store = sub.add_parser(
        "store", help="inspect or shrink a persistent store directory"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats", help="print size and count statistics for both store planes"
    )
    store_gc = store_sub.add_parser(
        "gc",
        help="delete oldest item payloads (then dead memo segments) "
        "until the directory fits a size budget",
    )
    for p in (store_stats, store_gc):
        p.add_argument("--store-dir", metavar="DIR", required=True)
        p.add_argument("--json", action="store_true", help="machine-readable output")
    store_gc.add_argument(
        "--max-bytes", type=int, required=True, metavar="N",
        help="target size budget for the store directory",
    )
    return parser


def _cmd_profiles() -> int:
    rows = []
    for prof in PROFILES.values():
        rows.append(
            [
                prof.name,
                prof.n_items,
                prof.n_pairs,
                f"{prof.slot_size / 1e6:.2f} MB",
                f"{1e3 * prof.t_parse[0]:.1f} ms",
                f"{1e3 * prof.t_preprocess[0]:.1f} ms",
                f"{1e3 * prof.t_compare[0]:.1f} ms",
                prof.compare_distribution,
            ]
        )
    print(
        format_table(
            ["profile", "items", "pairs", "slot", "parse", "preprocess", "compare", "dist"],
            rows,
            title="Workload profiles (paper Table 1)",
        )
    )
    return 0


def _make_demo_app(store, name: str, items: int, seed: int):
    """Synthesise a data set for one paper application; returns (app, keys)."""
    if name == "forensics":
        from repro.apps import ForensicsApplication
        from repro.data.synthetic import make_forensics_dataset

        dataset = make_forensics_dataset(store, n_images=items, seed=seed)
        return ForensicsApplication(), dataset.keys
    if name == "bioinformatics":
        from repro.apps import BioinformaticsApplication
        from repro.data.synthetic import make_bioinformatics_dataset

        dataset = make_bioinformatics_dataset(store, n_species=max(3, items), seed=seed)
        return BioinformaticsApplication(k=3), dataset.keys
    from repro.apps import MicroscopyApplication
    from repro.data.synthetic import make_microscopy_dataset

    dataset = make_microscopy_dataset(store, n_particles=items, seed=seed)
    return MicroscopyApplication(restarts=2), dataset.keys


def _parse_device_speeds(spec: Optional[str], devices: int, nodes: int):
    """Parse ``--device-speeds``: per-device, or nodes*devices per-node.

    Returns ``(device_speeds, node_speed_factors)`` — exactly one is
    non-None when a spec is given.
    """
    if spec is None:
        return None, None
    try:
        values = tuple(float(v) for v in spec.split(","))
    except ValueError:
        raise SystemExit(f"--device-speeds expects comma-separated floats, got {spec!r}")
    if any(not 0 < v <= 1.0 for v in values):
        raise SystemExit(
            f"--device-speeds values must be in (0, 1] (1.0 = reference GPU), got {spec!r}"
        )
    if len(values) == devices:
        return values, None
    if nodes > 1 and len(values) == nodes * devices:
        per_node = tuple(
            values[i * devices:(i + 1) * devices] for i in range(nodes)
        )
        return None, per_node
    raise SystemExit(
        f"--device-speeds needs {devices} values (per device) or "
        f"{nodes * devices} (per node x device), got {len(values)}"
    )


def _make_workload(keys, bipartite: Optional[int], delta: Optional[int]):
    """Build the run's workload from the CLI shape flags."""
    from repro.core.workload import AllPairs, Bipartite, DeltaPairs

    if bipartite is not None:
        if not 1 <= bipartite < len(keys):
            raise SystemExit(
                f"--bipartite needs a query-set size in [1, {len(keys) - 1}], "
                f"got {bipartite}"
            )
        return Bipartite(keys[:bipartite], keys[bipartite:])
    if delta is not None:
        if not 1 <= delta < len(keys):
            raise SystemExit(
                f"--delta needs a new-batch size in [1, {len(keys) - 1}], got {delta}"
            )
        return DeltaPairs(keys[:-delta], keys[-delta:])
    return AllPairs(keys)


def _load_jobs_file(path: str, keys) -> List[dict]:
    """Parse and validate a ``--jobs-file`` JSON job list."""
    with open(path, "r", encoding="utf-8") as fh:
        specs = json.load(fh)
    if not isinstance(specs, list) or not specs:
        raise SystemExit(f"--jobs-file {path!r} must hold a non-empty JSON list")
    jobs = []
    for idx, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise SystemExit(f"--jobs-file entry {idx} must be a JSON object")
        shape = spec.get("workload", "all")
        n = spec.get("n")
        if shape not in ("all", "bipartite", "delta"):
            raise SystemExit(
                f"--jobs-file entry {idx}: unknown workload {shape!r} "
                f"(expected all / bipartite / delta)"
            )
        if shape != "all" and not isinstance(n, int):
            raise SystemExit(f"--jobs-file entry {idx}: {shape} needs an integer 'n'")
        try:
            # Same construction + split-size validation as the
            # --bipartite/--delta flags.
            workload = _make_workload(
                keys,
                n if shape == "bipartite" else None,
                n if shape == "delta" else None,
            )
        except SystemExit as exc:
            raise SystemExit(f"--jobs-file entry {idx}: {exc}") from None
        priority = float(spec.get("priority", 1.0))
        max_inflight = spec.get("max_inflight")
        if max_inflight is not None:
            max_inflight = int(max_inflight)
        jobs.append(
            {"workload": workload, "priority": priority, "max_inflight": max_inflight}
        )
    return jobs


def _run_jobs_file(
    rocket, path: str, keys, save: Optional[str], profile: Optional[str] = None
) -> int:
    """Submit every --jobs-file job to one fair-sharing session."""
    with rocket.session(policy="fair") as session:
        handles = [
            session.submit(
                job["workload"],
                priority=job["priority"],
                max_inflight=job["max_inflight"],
            )
            for job in _load_jobs_file(path, keys)
        ]
        for idx, handle in enumerate(handles):
            results = handle.result()
            print(f"job {idx}: {handle.workload.describe()}")
            print(f"  {handle.accounting.summary()}")
            if save:
                target = f"{save}.job{idx}.json"
                save_results(results, target)
                print(f"  results written to {target}")
        if profile:
            session.profile().save(profile)
            print(f"profile trace written to {profile}")
    return 0


def _build_runtime(args: argparse.Namespace, profiling: bool = False):
    """Shared ``run``/``serve`` setup: synthetic data + backend config.

    Returns ``(app, store, keys, config, backend, cluster)`` ready for
    the ``Rocket`` constructor (``cluster`` is None on the local
    backend).
    """
    from repro.data.filestore import InMemoryStore
    from repro.runtime.localrocket import RocketConfig
    from repro.scheduling.workstealing import StealPolicy

    backend = args.backend
    nodes = args.nodes if backend == "cluster" else 1
    device_speeds, node_speeds = _parse_device_speeds(
        args.device_speeds, args.devices, nodes
    )
    if args.log_json:
        from repro.obs.log import configure_logging

        configure_logging(json_lines=True)

    store = InMemoryStore()
    app, keys = _make_demo_app(store, args.app, args.items, args.seed)
    config = RocketConfig(
        n_devices=args.devices,
        seed=args.seed,
        device_speed_factors=device_speeds,
        steal_policy=StealPolicy(args.steal_policy),
        profiling=profiling,
        store_dir=args.store_dir,
    )

    cluster = None
    if backend == "cluster":
        from repro.runtime.cluster import ClusterConfig

        cluster = ClusterConfig(
            n_nodes=args.nodes,
            max_hops=args.hops,
            distributed_cache=not args.no_distributed_cache,
            transport=args.transport,
            result_batch=args.result_batch,
            node_speed_factors=node_speeds,
            max_nodes=args.max_nodes,
        )
    return app, store, keys, config, backend, cluster


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.rocket import Rocket

    app, store, keys, config, backend, cluster = _build_runtime(
        args, profiling=bool(args.profile)
    )
    rocket = Rocket(app, store, config, backend, cluster=cluster)
    if args.jobs_file:
        return _run_jobs_file(rocket, args.jobs_file, keys, args.save, args.profile)
    workload = _make_workload(keys, args.bipartite, args.delta)
    results = rocket.run(workload, profile=args.profile)
    if args.profile:
        print(f"profile trace written to {args.profile}")
    print(workload.describe())
    stats = rocket.last_stats
    if stats is not None:
        print(stats.summary())
    else:
        # Fully memoized run: every pair came out of --store-dir and
        # the backend never executed a job.
        print("all pairs served from the persistent store; nothing recomputed")
    sample = list(results.items())[:5]
    for a, b, v in sample:
        print(f"  {a} vs {b}: {v:+.4f}")
    if args.save:
        save_results(results, args.save)
        print(f"results written to {args.save}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Start the serving daemon and block until SIGTERM drains it."""
    from repro.core.rocket import Rocket
    from repro.serve import RocketServer, TenantDirectory

    app, store, keys, config, backend, cluster = _build_runtime(args)
    tenants = (
        TenantDirectory.from_file(args.tenants)
        if args.tenants
        else TenantDirectory.permissive()
    )
    session = Rocket(app, store, config, backend, cluster=cluster).session(
        policy="fair", max_active=args.max_active
    )
    try:
        server = RocketServer(
            session, keys,
            host=args.host, port=args.port,
            tenants=tenants, result_ttl=args.result_ttl,
        )
    except OSError as exc:
        session.close()
        print(f"cannot listen on {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    # Machine-parseable startup line: the SIGTERM drain test and shell
    # wrappers read the bound address (meaningful with --port 0).
    print(f"serving on {server.address}", flush=True)
    print(
        f"  backend={backend} items={args.items} app={args.app} "
        f"tenants={'directory' if args.tenants else 'permissive'}",
        flush=True,
    )
    server.serve_forever()
    print("daemon drained, exiting", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one workload to a running daemon and wait for the result."""
    from repro.serve import RemoteJobFailed, ServeConnectionError, connect

    try:
        client = connect(args.connect, tenant=args.tenant)
    except ServeConnectionError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    with client:
        keys = client.keys()
        workload = _make_workload(keys, args.bipartite, args.delta)
        try:
            handle = client.submit(
                workload, priority=args.priority, max_inflight=args.max_inflight
            )
            print(f"job {handle.job_id}: {workload.describe()} (tenant {args.tenant})")
            results = handle.result()
        except ServeConnectionError as exc:
            print(f"connection lost: {exc}", file=sys.stderr)
            return 3
        except RemoteJobFailed as exc:
            print(f"job failed on the daemon: {exc}", file=sys.stderr)
            return 1
        status = handle.status()
        print(f"  {status['pairs_done']}/{status['pairs_total']} pairs")
        for a, b, v in list(results.items())[:5]:
            print(f"  {a} vs {b}: {v:+.4f}")
        if args.save:
            save_results(results, args.save)
            print(f"results written to {args.save}")
        handle.ack()
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Inspect or garbage-collect a persistent store directory."""
    from repro.store import RocketStore

    store = RocketStore(args.store_dir)
    try:
        if args.store_command == "gc":
            try:
                report = store.gc(args.max_bytes)
            except ValueError as exc:
                raise SystemExit(str(exc)) from None
            if args.json:
                print(json.dumps(report, sort_keys=True))
            else:
                print(
                    f"deleted {report['deleted_items']} item payloads and "
                    f"{report['deleted_segments']} memo segments "
                    f"({report['freed_bytes']} bytes freed)"
                )
            return 0
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, sort_keys=True))
        else:
            items, memo = stats["items"], stats["memo"]
            print(f"store {args.store_dir}")
            print(f"  items:  {items['count']} payloads, {items['bytes']} bytes")
            print(
                f"  memo:   {memo['records']} records in "
                f"{memo['segments']} segments, {memo['bytes']} bytes"
            )
            print(f"  hashes: {stats['hashes']['cached']} cached")
            print(f"  total:  {stats['total_bytes']} bytes")
        return 0
    finally:
        store.close()


def _cmd_simulate(args: argparse.Namespace) -> int:
    profile = scaled_profile(PROFILES[args.profile], args.items)
    spec = ClusterSpec.homogeneous(
        args.nodes, gpu=args.gpu, gpus_per_node=args.gpus_per_node
    )
    config = RocketSimConfig(
        seed=args.seed,
        device_cache_slots=args.device_slots,
        host_cache_slots=args.host_slots,
        distributed_cache=not args.no_distributed_cache,
        max_hops=args.hops,
        profiling=bool(args.trace),
    )
    report = run_simulation(spec, profile, config, seed=args.seed)
    print(report.summary())
    if args.trace:
        assert report.trace is not None
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": to_chrome_trace(report.trace)}, fh)
        print(f"Chrome trace written to {args.trace}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "profiles":
        return _cmd_profiles()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "store":
        return _cmd_store(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
