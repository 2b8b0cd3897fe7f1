"""The per-layer ladder: what each module costs, measured from outside.

Two kinds of number, both taken only in a ``--trace`` run:

- *in-situ*: deltas of the program's own counters (``session.metrics()``,
  ``handle.accounting``) and the harness's job timings over the traced
  timed region;
- *isolated*: the harness replays the workload's own inputs through one
  layer's exported functions, a fixed number of operations each.

A layer is named after the module it measures.  A probe imports only
package-exported names, inside the probe, and an ``ImportError`` /
``AttributeError`` / ``TypeError`` while it builds or runs turns its
metrics into ``unavailable`` instead of failing the run: a refactor
that renames an internal must not be able to brick the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from bench.harness import Tracer, blas_env_found, percentile
from bench.runner import Region, Unavailable
from bench.scenarios import JOB_TIMEOUT, Scenario, all_pairs
from bench.spec import OUT_DIR, ROOT

__all__ = ["collect", "probe"]

Values = Dict[str, Any]

#: Pair count and repeats of the isolated ``apps`` probes.
_APP_OPS = {"pairs": 64, "reps": 3}

#: The profiling on/off comparison costs two extra jobs; it is taken on
#: the one workload where per-pair runtime overhead is the whole bill.
_PROFILING_PROBE_ON = ("local-dispatch",)


def probe(out: Values, names: Sequence[str], build: Callable[[], Values]) -> None:
    """Run one probe; a renamed or re-shaped internal degrades it."""
    try:
        values = build()
    except (ImportError, AttributeError, TypeError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        print(f"probe unavailable [{', '.join(names)}]: {reason}")
        values = {name: Unavailable(reason) for name in names}
    out.update(values)


def _per_op_us(fn: Callable[[], Any], ops: int, reps: int = 3) -> float:
    """Median over ``reps`` of the time of ``fn()``, per operation, in µs."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times) / ops * 1e6


def _delta(region: Region, path: str) -> float:
    """Growth of one of the program's counters over the traced segments."""

    def read(tree: Dict[str, Any]) -> float:
        node: Any = tree
        for part in path.split("."):
            node = node.get(part, 0) if isinstance(node, dict) else 0
        return float(node or 0)

    return sum(read(after) - read(before) for before, after in region.counter_spans)


def _share(num: float, den: float, what: str) -> Any:
    return num / den if den else Unavailable(f"no {what} in the traced region")


def _tmp_dir(tag: str) -> Path:
    path = OUT_DIR / "tmp" / f"{tag}-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# apps


def _apps(sc: Scenario) -> Values:
    app, store = sc.app, sc.store
    ops = _APP_OPS
    sample = sc.job_keys[:16]
    blobs = [store.read(app.file_name(k)) for k in sample]
    parsed = [app.parse(k, b) for k, b in zip(sample, blobs)]
    pairs = all_pairs(sc.job_keys)[: ops["pairs"]]

    from repro import AllPairs

    block, _count = max(
        AllPairs(sc.job_keys).grain_blocks(ops["pairs"]), key=lambda q: q[1]
    )
    keys = sc.job_keys
    views = {k: app.item_view(k, sc.items[k]) for k in keys}
    block_pairs = [(keys[i], keys[j]) for i, j in block.pairs()]
    keys_a = [a for a, _ in block_pairs]
    keys_b = [b for _, b in block_pairs]
    items_a = [views[a] for a in keys_a]
    items_b = [views[b] for b in keys_b]
    return {
        "apps.parse_us": _per_op_us(
            lambda: [app.parse(k, b) for k, b in zip(sample, blobs)], len(sample), ops["reps"]
        ),
        "apps.preprocess_us": _per_op_us(
            lambda: [app.preprocess(k, p) for k, p in zip(sample, parsed)], len(sample), ops["reps"]
        ),
        "apps.compare_us": _per_op_us(
            lambda: [app.compare(a, sc.items[a], b, sc.items[b]) for a, b in pairs],
            len(pairs), ops["reps"],
        ),
        "apps.compare_block_us_per_pair": _per_op_us(
            lambda: app.compare_block(keys_a, items_a, keys_b, items_b),
            len(block_pairs), ops["reps"],
        ),
        "apps.oracle_pairs_per_s": len(sc.ref) / sc.oracle_s,
    }


# ----------------------------------------------------------------------
# cache / scheduling / result: bare data structures


def _cache_isolated(sc: Scenario) -> Values:
    from repro.cache import SlotCache
    from repro.scheduling import iter_pairs_morton

    n = len(sc.job_keys)
    cfg = sc.config()
    order = [idx for pair in iter_pairs_morton(n, cfg.leaf_size) for idx in pair]
    cache = SlotCache(cfg.host_cache_slots)

    def replay() -> None:
        for idx in order:
            slot = cache.lookup(idx)
            if slot is None:
                slot = cache.reserve(idx)
                cache.publish(slot, payload=idx)
            cache.pin(slot)
            cache.unpin(slot)

    t0 = time.perf_counter()
    replay()
    elapsed = time.perf_counter() - t0
    return {
        "cache.slot_op_us": elapsed / len(order) * 1e6,
        # Exactly repeating: what one worker with this many host slots
        # would load.  The gap to the measured R is reuse lost to
        # concurrency (and, on a cluster, to partitioning).
        "cache.replay_loads_per_item": cache.counters.misses / n,
    }


def _cache_insitu(sc: Scenario, region: Region) -> Values:
    jobs = max(1, len(region.jobs))
    out: Values = {}
    for level in ("device", "host"):
        hits = _delta(region, f"cache.{level}.hits")
        misses = _delta(region, f"cache.{level}.misses")
        out[f"cache.{level}_hit_ratio"] = _share(hits, hits + misses, f"{level}-cache lookups")
    out["cache.loads_per_item"] = _delta(region, "pipeline.loads") / (len(sc.job_keys) * jobs)
    return out


def _scheduling_isolated(sc: Scenario) -> Values:
    from repro import AllPairs
    from repro.scheduling import TaskDeque

    keys = sc.job_keys
    n_pairs = len(all_pairs(keys))
    quanta = [block for block, _ in AllPairs(keys).grain_blocks(16)]

    def deque_ops() -> None:
        deque = TaskDeque(0)
        for block in quanta:
            deque.push(block)
        while len(deque):
            deque.pop()
            deque.steal()

    return {
        # A fresh workload each time: the decomposition is memoized per instance.
        "scheduling.decompose_us_per_kpair": _per_op_us(
            lambda: AllPairs(keys).grain_blocks(16), n_pairs / 1000.0
        ),
        "scheduling.deque_op_us": _per_op_us(deque_ops, 2 * len(quanta)),
    }


def _result_isolated(sc: Scenario) -> Values:
    from repro import ResultMatrix

    pairs = all_pairs(sc.job_keys)
    values = [sc.ref[p] for p in pairs]

    def record() -> None:
        matrix = ResultMatrix(sc.job_keys)
        for (a, b), v in zip(pairs, values):
            matrix.set(a, b, v)
        list(matrix.items())

    return {"result.record_us_per_pair": _per_op_us(record, len(pairs))}


# ----------------------------------------------------------------------
# pernode: the workload's job with no session and no scheduler around it


def _pernode(sc: Scenario) -> Values:
    from repro.runtime import NodeEngine, NodePipeline

    cfg = sc.config()
    engine = NodeEngine(cfg)
    job = sc.job_workload()

    def run_once() -> None:
        delivered: List[Any] = []
        pipeline = NodePipeline(
            sc.app, sc.store, cfg, job.keys,
            emit_result=lambda i, j, value: delivered.append(value),
            expected_pairs=job.n_pairs, initial_blocks=job.blocks(), engine=engine,
        )
        pipeline.start()
        finished = pipeline.wait(timeout=JOB_TIMEOUT)
        pipeline.join()
        pipeline.close()
        if not finished or pipeline.errors or len(delivered) != job.n_pairs:
            raise RuntimeError(f"bare pipeline delivered {len(delivered)}/{job.n_pairs} pairs")

    try:
        run_once()  # warm the engine's caches
        reps = max(1, min(10, 600 // job.n_pairs))
        t0 = time.perf_counter()
        for _ in range(reps):
            run_once()
        elapsed = time.perf_counter() - t0
    finally:
        engine.close()
    return {"pernode.pairs_per_s": reps * job.n_pairs / elapsed}


# ----------------------------------------------------------------------
# session / cluster: open, close, and the same job on other substrates


def _timed_jobs(session, job, seconds: float) -> float:
    """pairs/s of ``job`` resubmitted on ``session`` for about ``seconds``."""
    session.submit(job).result(timeout=JOB_TIMEOUT)  # warm-up, discarded
    pairs, t0 = 0, time.perf_counter()
    while True:
        session.submit(job).result(timeout=JOB_TIMEOUT)
        pairs += job.n_pairs
        elapsed = time.perf_counter() - t0
        if elapsed > seconds:
            return pairs / elapsed


def _session_open_close(sc: Scenario) -> Values:
    from repro import Rocket

    t0 = time.perf_counter()
    session = Rocket(
        sc.app, sc.store, sc.config(), backend=sc.wdef.backend, **sc.wdef.backend_options
    ).session()
    t1 = time.perf_counter()
    session.close()
    return {"session.open_s": t1 - t0, "session.close_s": time.perf_counter() - t1}


def _cluster_one_node(sc: Scenario, seconds: float) -> Values:
    from repro import Rocket

    t0 = time.perf_counter()
    session = Rocket(sc.app, sc.store, sc.config(), backend="cluster", n_nodes=1).session()
    open_s = time.perf_counter() - t0
    try:
        rate = _timed_jobs(session, sc.job_workload(), seconds)
    finally:
        t0 = time.perf_counter()
        session.close()
        close_s = time.perf_counter() - t0
    return {
        "cluster.open_s": open_s,
        "cluster.close_s": close_s,
        "cluster.one_node_pairs_per_s": rate,
    }


def _default_env(sc: Scenario, seconds: float) -> Values:
    """The workload's own loop in a subprocess whose BLAS pools are left alone.

    Tells how much of the measured throughput the pinning buys, and
    would show a later fix of the oversubscription inside the program.
    """
    env = dict(os.environ)
    for name, value in blas_env_found().items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    proc = subprocess.run(
        [
            sys.executable, "-m", "bench.default_env", "--workload", sc.wdef.name,
            "--seed", str(sc.seed), "--smoke", str(int(sc.smoke)), "--seconds", str(seconds),
        ],
        env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=170,
    )
    if proc.returncode != 0:
        reason = Unavailable(f"default-environment run exited {proc.returncode}")
        return {"harness.default_env_pairs_per_s": reason}
    rate = json.loads(proc.stdout.splitlines()[-1])["pairs_per_s"]
    return {"harness.default_env_pairs_per_s": rate}


def _cluster_insitu(region: Region) -> Values:
    hits = _delta(region, "cache.distributed.hits")
    misses = _delta(region, "cache.distributed.misses")
    cpu = region.cpu_own + region.cpu_children
    queued = [j.accounting["queued_seconds"] for j in region.jobs if j.accounting]
    return {
        "cluster.remote_hit_ratio": _share(hits, hits + misses, "distributed-cache requests"),
        "cluster.queued_s_p50": median(queued) if queued else Unavailable("no job accounting"),
        "cluster.coordinator_cpu_share": region.cpu_own / cpu,
        "cluster.node_cpu_s_per_kpair": region.cpu_children / (region.pairs / 1000.0),
    }


# ----------------------------------------------------------------------
# transport


def _transport_insitu(region: Region) -> Values:
    kpairs = region.pairs / 1000.0
    return {
        "transport.msgs_per_kpair": _delta(region, "transport.messages") / kpairs,
        "transport.bytes_per_kpair": _delta(region, "transport.bytes") / kpairs,
        "transport.fetch_msgs_per_kpair": _delta(region, "transport.kind.fetch") / kpairs,
        "transport.result_msgs_per_kpair": _delta(region, "transport.kind.result") / kpairs,
        "transport.grant_msgs_per_kpair": _delta(region, "transport.kind.grant") / kpairs,
    }


def _transport_isolated(sc: Scenario) -> Values:
    import multiprocessing

    from repro import ClusterConfig
    from repro.runtime.transport import create_fabric

    cluster = ClusterConfig(n_nodes=2)
    fabric = create_fabric(
        cluster.transport, multiprocessing.get_context(cluster.start_method), cluster
    )
    try:
        sender, receiver = fabric.endpoint(0), fabric.endpoint(1)
        item = np.asarray(sc.items[sc.job_keys[0]])

        def roundtrip() -> None:
            sender.send_node(1, ("crep", sender.pack_payload(item)))
            message = receiver.recv(timeout=10.0)
            receiver.unpack_payload(message[1], receiver.send_node)

        pairs = all_pairs(sc.job_keys)[:64]
        block = tuple((i, i + 1, sc.ref[p]) for i, p in enumerate(pairs))

        def ship_results() -> None:
            sender.send_coordinator(("results", 0, 0, sender.pack_result_block(block)))
            message = fabric.recv_coordinator(timeout=10.0)
            fabric.decode_result_block(message[3])

        return {
            "transport.payload_roundtrip_us": _per_op_us(
                lambda: [roundtrip() for _ in range(50)], 50
            ),
            "transport.result_block_us_per_pair": _per_op_us(
                lambda: [ship_results() for _ in range(50)], 50 * len(block)
            ),
        }
    finally:
        fabric.shutdown()


# ----------------------------------------------------------------------
# scheduler (core.scheduler)


def _scheduler_isolated(sc: Scenario) -> Values:
    from repro import AllPairs, JobScheduler, RunHandle, SchedulingPolicy

    def hand_out() -> int:
        scheduler = JobScheduler(SchedulingPolicy.FAIR, decompose=True)
        handles = [
            RunHandle(AllPairs(sc.job_keys), priority=priority) for priority in (1.0, 8.0)
        ]
        for handle in handles:
            scheduler.submit(handle)
        scheduler.admit()
        grants = 0
        while True:
            grant = scheduler.next_grant()
            if grant is None:
                break
            handle, _block, count = grant
            scheduler.on_completed(handle, count)
            grants += 1
        for handle in handles:
            scheduler.finish(handle)
        return grants

    return {"scheduler.grant_us": _per_op_us(hand_out, hand_out())}


def _scheduler_insitu(sc: Scenario, region: Region) -> Values:
    accounted = [j.accounting for j in region.jobs if j.accounting]
    if not accounted:
        reason = Unavailable("jobs of this workload carry no accounting")
        return {"scheduler.grant_latency_s_p50": reason, "scheduler.blocks_per_job": reason}
    out: Values = {
        "scheduler.grant_latency_s_p50": median([a["queued_seconds"] for a in accounted]),
        "scheduler.blocks_per_job": sum(a["blocks_granted"] for a in accounted) / len(accounted),
    }
    if sc.wdef.kind == "serve":
        out["scheduler.query_queued_s_p50"] = median(
            [j.accounting["queued_seconds"] for j in region.measured if j.accounting]
        )
    return out


# ----------------------------------------------------------------------
# serve


def _serve_codecs(sc: Scenario) -> Values:
    from repro import ResultMatrix
    from repro.serve import protocol

    job = sc.job_workload()
    matrix = ResultMatrix(job.keys, expected_pairs=job.n_pairs)
    pairs = list(job.pairs())
    for a, b in pairs:
        matrix.set(a, b, sc.ref[(a, b) if a <= b else (b, a)])
    return {
        "serve.workload_codec_us": _per_op_us(
            lambda: protocol.workload_from_wire(
                json.loads(json.dumps(protocol.workload_to_wire(job)))
            ),
            1,
        ),
        "serve.matrix_codec_us_per_pair": _per_op_us(
            lambda: protocol.matrix_from_wire(
                json.loads(json.dumps(protocol.matrix_to_wire(matrix)))
            ),
            len(pairs),
        ),
    }


def _serve_spans(sc: Scenario, region: Region) -> Values:
    from repro.serve import connect

    def connect_once() -> float:
        t0 = time.perf_counter()
        connect(sc.address, tenant="probe").close()
        return time.perf_counter() - t0

    queries = region.measured
    return {
        "serve.connect_ms": median([connect_once() for _ in range(5)]) * 1e3,
        "serve.health_rtt_us": _per_op_us(lambda: [sc.client.health() for _ in range(50)], 50),
        "serve.submit_ms_p50": median([j.submit_s for j in queries]) * 1e3,
        "serve.result_ms_p50": median([j.seconds - j.submit_s for j in queries]) * 1e3,
        "serve.query_s_p90": percentile([j.seconds for j in queries], 0.9),
    }


def _serve_overhead(sc: Scenario, region: Region) -> Values:
    """Socket query latency minus the same query on an in-process FAIR session.

    Same corpus, same background job at the same priority, same queries;
    what is left is the protocol, the daemon's threads and the second
    process.  The daemon's own background tenant is stopped first.
    """
    from repro import AllPairs, Bipartite, Rocket

    session = Rocket(sc.app, sc.store, sc.config()).session(policy="fair")
    stop = threading.Event()

    def background() -> None:
        while not stop.is_set():
            handle = session.submit(AllPairs(sc.corpus), priority=sc.BATCH_PRIORITY)
            while not handle.wait(timeout=0.25):
                if stop.is_set():
                    handle.cancel()
                    return

    try:
        session.submit(AllPairs(sc.corpus)).result(timeout=JOB_TIMEOUT)
        thread = threading.Thread(target=background, name="bench-inprocess-batch")
        thread.start()
        time.sleep(0.2)
        latencies = []
        for query in [j.expected[0][0] for j in region.measured[:30]]:
            t0 = time.perf_counter()
            session.submit(
                Bipartite([query], sc.corpus), priority=sc.QUERY_PRIORITY
            ).result(timeout=JOB_TIMEOUT)
            latencies.append(time.perf_counter() - t0)
        stop.set()
        thread.join(timeout=JOB_TIMEOUT)
    finally:
        stop.set()
        session.close()
    socket_p50 = median([j.seconds for j in region.measured])
    return {"serve.overhead_ms_p50": (socket_p50 - median(latencies)) * 1e3}


# ----------------------------------------------------------------------
# store


def _store_isolated(sc: Scenario) -> Values:
    from repro.store import PersistentItemCache, ResultMemoStore, hash_bytes

    app, store, keys = sc.app, sc.store, sc.job_keys[:32]
    blobs = {k: store.read(app.file_name(k)) for k in keys}
    hashes = {k: hash_bytes(b) for k, b in blobs.items()}
    pairs = all_pairs(sc.job_keys)[:4000]
    hashes.update({k: hashes.get(k, "0" * 40) for pair in pairs for k in pair})
    fingerprint = app.fingerprint()
    root = _tmp_dir("store-probe")
    try:
        memo = ResultMemoStore(root)
        t0 = time.perf_counter()
        for a, b in pairs:
            memo.append(fingerprint, a, b, hashes[a], hashes[b], sc.ref[(a, b)])
        append_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for a, b in pairs:
            memo.lookup(fingerprint, a, b, hashes[a], hashes[b])
        lookup_s = time.perf_counter() - t0
        memo.close()
        t0 = time.perf_counter()
        ResultMemoStore(root).close()  # a fresh reader folds the whole journal in
        refresh_s = time.perf_counter() - t0

        items = PersistentItemCache(root, app, store)
        t0 = time.perf_counter()
        for k in keys:
            items.store(k, sc.items[k], blobs[k])
        store_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for k in keys:
            np.asarray(items.load(k)).sum()  # touch the mmap: the read is lazy
        load_s = time.perf_counter() - t0
        items.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "store.hash_us_per_item": _per_op_us(
            lambda: [hash_bytes(b) for b in blobs.values()], len(blobs)
        ),
        "store.memo_append_us": append_s / len(pairs) * 1e6,
        "store.memo_lookup_us": lookup_s / len(pairs) * 1e6,
        "store.memo_refresh_ms": refresh_s * 1e3,
        "store.item_store_us": store_s / len(keys) * 1e6,
        "store.item_load_us": load_s / len(keys) * 1e6,
    }


def _store_insitu(sc: Scenario, region: Region) -> Values:
    by_label: Dict[str, List[Any]] = {}
    for job in region.jobs:
        by_label.setdefault(job.label.split("-")[0], []).append(job)
    edits = by_label["edit"]
    total = sum(len(j.expected) for j in edits)
    # A job served entirely from the memo never reaches the backend:
    # no stats, nothing computed.
    computed = sum(j.stats.n_pairs if j.stats is not None else 0 for j in edits)
    appended = sum(j.stats.n_pairs if j.stats is not None else 0 for j in region.jobs)
    stats = sc.store_stats  # one entry per traced round
    cold = median([j.seconds for j in by_label["cold"]])
    t0 = time.perf_counter()
    sc.one_shot(None)
    no_store = time.perf_counter() - t0
    return {
        "store.cold_fill_s": cold,
        "store.verbatim_s": median([j.seconds for j in by_label["verbatim"]]),
        "store.edit_cycle_s_p50": median([j.seconds for j in edits]),
        "store.memo_hit_ratio": 1.0 - computed / total,
        "store.journal_bytes_per_pair": sum(s["memo"]["bytes"] for s in stats) / appended,
        "store.item_bytes_per_item": sum(s["items"]["bytes"] for s in stats)
        / sum(s["items"]["count"] for s in stats),
        "store.cold_overhead_share": 1.0 - no_store / cold,
    }


# ----------------------------------------------------------------------
# obs


def _profiling_overhead(sc: Scenario) -> Values:
    from repro import Rocket

    rates = {}
    for profiling in (False, True):
        session = Rocket(sc.app, sc.store, sc.config(profiling=profiling)).session()
        try:
            rates[profiling] = _timed_jobs(session, sc.job_workload(), 0.0)
        finally:
            session.close()
    return {"obs.profiling_overhead_share": 1.0 - rates[True] / rates[False]}


# ----------------------------------------------------------------------


def collect(sc: Scenario, region: Region, untraced: Region, tracer: Tracer) -> Values:
    """Every per-layer metric this workload can produce, by name.

    ``region`` is the traced segments merged, ``untraced`` the segment
    that ran with spans off; ``sc`` is still set up (the last segment's
    session, daemon or store directory is live).
    """
    out: Values = {}
    kind, backend = sc.wdef.kind, sc.wdef.backend
    probe_s = 0.3 if sc.smoke else 2.0

    def run(names: Sequence[str], build: Callable[[], Values]) -> None:
        with tracer.span(f"probe:{names[0].split('.')[0]}"):
            probe(out, names, build)

    if kind == "serve":
        # Spans against the live daemon first, then silence its background
        # tenant so the in-process comparison has the machine to itself.
        run(["serve.connect_ms", "serve.health_rtt_us", "serve.submit_ms_p50",
             "serve.result_ms_p50", "serve.query_s_p90"], lambda: _serve_spans(sc, region))
        sc.stop_background()
        run(["serve.overhead_ms_p50"], lambda: _serve_overhead(sc, region))
    if kind == "store":
        run(["store.cold_fill_s", "store.verbatim_s", "store.edit_cycle_s_p50",
             "store.memo_hit_ratio", "store.journal_bytes_per_pair",
             "store.item_bytes_per_item", "store.cold_overhead_share"],
            lambda: _store_insitu(sc, region))
    else:
        out.update(_cache_insitu(sc, region))
        jobs = max(1, len(region.jobs))
        out["scheduling.local_steals_per_job"] = _delta(region, "steal.local") / jobs
        out["scheduling.remote_steals_per_job"] = _delta(region, "steal.remote_grants") / jobs
        out["pernode.h2d_bytes_per_pair"] = _delta(region, "pipeline.h2d_bytes") / region.pairs
        out["pernode.d2h_bytes_per_pair"] = _delta(region, "pipeline.d2h_bytes") / region.pairs
        out["session.submit_us"] = median([j.submit_s for j in region.measured]) * 1e6
        out["session.first_result_s_p50"] = median([j.first_result_s for j in region.measured])
    out.update(_scheduler_insitu(sc, region))
    if backend == "cluster":
        out.update(_cluster_insitu(region))
        out.update(_transport_insitu(region))
        run(["cluster.open_s", "cluster.close_s", "cluster.one_node_pairs_per_s"],
            lambda: _cluster_one_node(sc, probe_s))

    run(["apps.parse_us", "apps.preprocess_us", "apps.compare_us",
         "apps.compare_block_us_per_pair", "apps.oracle_pairs_per_s"], lambda: _apps(sc))
    run(["cache.slot_op_us", "cache.replay_loads_per_item"], lambda: _cache_isolated(sc))
    run(["scheduling.decompose_us_per_kpair", "scheduling.deque_op_us"],
        lambda: _scheduling_isolated(sc))
    run(["result.record_us_per_pair"], lambda: _result_isolated(sc))
    run(["pernode.pairs_per_s"], lambda: _pernode(sc))
    run(["session.open_s", "session.close_s"], lambda: _session_open_close(sc))
    run(["transport.payload_roundtrip_us", "transport.result_block_us_per_pair"],
        lambda: _transport_isolated(sc))
    run(["scheduler.grant_us"], lambda: _scheduler_isolated(sc))
    run(["serve.workload_codec_us", "serve.matrix_codec_us_per_pair"], lambda: _serve_codecs(sc))
    run(["store.hash_us_per_item", "store.memo_append_us", "store.memo_lookup_us",
         "store.memo_refresh_ms", "store.item_store_us", "store.item_load_us"],
        lambda: _store_isolated(sc))
    if sc.wdef.name in _PROFILING_PROBE_ON:
        run(["obs.profiling_overhead_share"], lambda: _profiling_overhead(sc))
    run(["harness.default_env_pairs_per_s"], lambda: _default_env(sc, probe_s))

    # -- derived: the ladder's rungs against each other --------------------
    nodes = sc.wdef.backend_options.get("n_nodes", 1)
    pernode = out.get("pernode.pairs_per_s")
    block_us = out.get("apps.compare_block_us_per_pair")
    if isinstance(pernode, float) and isinstance(block_us, float):
        out["pernode.overhead_us_per_pair"] = sc.config().n_devices * 1e6 / pernode - block_us
    if isinstance(pernode, float) and kind != "store":
        # The bare pipeline is one node; a cluster session has `nodes` of them.
        # (Not on the store workload: memoized pairs are delivered, not computed.)
        out["session.overhead_share"] = 1.0 - region.pairs_per_s / (pernode * nodes)
    load_us = [out.get("apps.parse_us"), out.get("apps.preprocess_us")]
    if isinstance(block_us, float) and all(isinstance(v, float) for v in load_us):
        loads = _delta(region, "pipeline.loads")
        out["model.floor_share"] = (
            (region.pairs * block_us + loads * sum(load_us)) * 1e-6 / (region.wall * sc.devices)
        )
    out["harness.trace_overhead_share"] = 1.0 - region.pairs_per_s / untraced.pairs_per_s
    out["harness.dataset_s"] = sc.dataset_s
    out["harness.oracle_s"] = sc.oracle_s
    return out
