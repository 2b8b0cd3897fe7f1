"""Tests for the observability layer: tracing, metrics, structured logs.

Four layers:

- :class:`TraceRecorder` unit tests: the ``by_label`` lane summary,
  thread safety under concurrent recording, the ``max_events`` bound
  with its drop counter, and the disabled path recording nothing and
  allocating no per-event objects;
- :class:`ProfileTrace` merge tests: multi-process Chrome output with
  real pid/tid mapping and metadata records, offset rebasing;
- end-to-end profiled runs: a cluster session produces one merged
  trace with spans from the coordinator *and every node process*
  (distinct pids, job-id-tagged), and ``Rocket.run(profile=...)``
  writes a loadable Perfetto JSON even when the configured backend has
  profiling off;
- ``session.metrics()`` consistency with :class:`RunStats` on every
  backend, the field-generic checks that no ``NodeStats`` counter is
  half-threaded, and the JSON-lines structured log format.
"""

import dataclasses
import io
import json
import logging
import os
import threading
import tracemalloc

import pytest

from repro.cache.distributed import HopStats
from repro.cache.slots import CacheCounters
from repro.core.rocket import Rocket
from repro.core.workload import AllPairs
from repro.model.perfmodel import StageCalibration
from repro.obs import MetricsRegistry, configure_logging, get_logger
from repro.runtime.cluster import ClusterConfig
from repro.runtime.localrocket import RocketConfig
from repro.runtime.stats import (
    NODE_METRICS,
    NOT_EXPORTED,
    NodeStats,
    RunStats,
    fold_stats,
)
from repro.util.trace import (
    ProfileTrace,
    TraceEvent,
    TraceRecorder,
    lane_summary,
    to_chrome_trace,
)

from tests.test_cluster_runtime import SumApp, make_store

CFG = dict(
    n_devices=1,
    device_cache_slots=32,
    host_cache_slots=64,
    seed=7,
    watchdog_seconds=120.0,
)


# ----------------------------------------------------------------------
# TraceRecorder unit tests


class TestTraceRecorder:
    def test_lane_summary_by_label(self):
        rec = TraceRecorder()
        rec.record("GPU0", "preprocess", 0.0, 1.0)
        rec.record("GPU0", "compare", 1.0, 4.0)
        rec.record("GPU0", "compare", 4.0, 5.0)
        rec.record("CPU", "parse", 0.0, 2.0)
        summary = lane_summary(rec)
        gpu = summary["GPU0"]
        assert gpu["busy"] == pytest.approx(5.0)
        assert gpu["tasks"] == 3
        assert gpu["utilization"] == pytest.approx(1.0)
        assert gpu["by_label"] == pytest.approx({"preprocess": 1.0, "compare": 4.0})
        assert summary["CPU"]["by_label"] == pytest.approx({"parse": 2.0})

    def test_concurrent_recording_is_thread_safe(self):
        rec = TraceRecorder()
        n_threads, n_each = 8, 500

        def work(tid):
            for i in range(n_each):
                rec.record(f"lane{tid}", "task", float(i), float(i) + 0.5, job_id=tid)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(rec) == n_threads * n_each
        assert rec.dropped == 0
        assert len(rec.lanes()) == n_threads

    def test_max_events_bound_counts_drops(self):
        rec = TraceRecorder(max_events=10)
        for i in range(25):
            rec.record("L", "t", float(i), float(i + 1))
        assert len(rec) == 10
        assert rec.dropped == 15
        rec.clear()
        assert len(rec) == 0 and rec.dropped == 0

    def test_extend_respects_bound(self):
        rec = TraceRecorder(max_events=3)
        rec.extend(TraceEvent("L", "t", float(i), float(i + 1)) for i in range(5))
        assert len(rec) == 3
        assert rec.dropped == 2

    def test_disabled_recorder_records_nothing(self):
        rec = TraceRecorder(enabled=False)
        rec.record("L", "t", 0.0, 1.0)
        rec.extend([TraceEvent("L", "t", 0.0, 1.0)])
        assert len(rec) == 0
        assert rec.dropped == 0

    def test_disabled_path_allocates_no_event_objects(self):
        """The paper's default (profiling off) must stay near-zero-cost."""
        rec = TraceRecorder(enabled=False)
        rec.record("L", "t", 0.0, 1.0)  # warm up the code path
        tracemalloc.start()
        try:
            for _ in range(10_000):
                rec.record("GPU0", "compare", 0.0, 1.0, job_id=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rec) == 0
        # 10k TraceEvents would be megabytes; the disabled path returns
        # before constructing anything, so the peak stays trivial.
        assert peak < 64 * 1024

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_events=0)
        with pytest.raises(ValueError):
            TraceEvent("L", "t", 2.0, 1.0)


# ----------------------------------------------------------------------
# Chrome / Perfetto output


class TestProfileTrace:
    def test_single_recorder_chrome_events(self):
        rec = TraceRecorder()
        rec.record("GPU0", "compare", 0.5, 1.5, job_id=7)
        events = to_chrome_trace(rec, pid=42)
        assert len(events) == 1
        (e,) = events
        assert e["ph"] == "X" and e["pid"] == 42
        assert e["ts"] == pytest.approx(0.5e6)
        assert e["dur"] == pytest.approx(1.0e6)
        assert e["args"] == {"lane": "GPU0", "job_id": 7}

    def test_merge_rebases_and_names_processes(self, tmp_path):
        trace = ProfileTrace()
        trace.add_process(
            "coordinator", [TraceEvent("scheduler", "run", 0.0, 2.0)], pid=100
        )
        trace.add_process(
            "node0",
            [TraceEvent("gpu0", "compare", 0.0, 1.0, job_id=1)],
            pid=200,
            offset=0.5,
        )
        assert trace.pids() == [100, 200]
        assert trace.process_name(200) == "node0"
        # Rebasing shifted the node event onto the session clock.
        (node_event,) = trace.events_for_pid(200)
        assert node_event.start == pytest.approx(0.5)
        assert node_event.end == pytest.approx(1.5)

        chrome = trace.to_chrome()
        meta = [e for e in chrome if e["ph"] == "M"]
        spans = [e for e in chrome if e["ph"] == "X"]
        names = {
            (e["pid"], e["args"]["name"]) for e in meta if e["name"] == "process_name"
        }
        assert names == {(100, "coordinator"), (200, "node0")}
        assert {e["pid"] for e in spans} == {100, 200}

        path = trace.save(str(tmp_path / "trace.json"))
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert len(loaded["traceEvents"]) == len(chrome)


# ----------------------------------------------------------------------
# End-to-end profiled runs


class TestProfiledRuns:
    def test_local_disabled_run_records_nothing(self):
        store, keys = make_store(6)
        rocket = Rocket(SumApp(), store, RocketConfig(**CFG))
        rocket.run(keys)
        assert rocket.last_stats.trace is None
        session = rocket.session()
        try:
            session.submit(AllPairs(keys)).result()
            assert session.profile().n_events == 0
        finally:
            session.close()

    def test_local_profiled_session_traces_jobs(self):
        store, keys = make_store(6)
        rocket = Rocket(
            SumApp(), store, RocketConfig(profiling=True, **CFG)
        )
        session = rocket.session()
        try:
            handle = session.submit(AllPairs(keys))
            handle.result()
            job_id = handle.accounting.job_id
            trace = session.profile()
        finally:
            session.close()
        assert trace.pids() == [os.getpid()]
        events = trace.events_for_pid(os.getpid())
        lanes = {e.lane for e in events}
        assert "scheduler" in lanes
        assert any(lane.startswith("gpu") for lane in lanes)
        labels = {e.label for e in events}
        assert {"compare", "queued", "run"} <= labels
        assert any(e.job_id == job_id for e in events)

    def test_cluster_profiled_run_merges_all_processes(self, tmp_path):
        """The tentpole acceptance: one trace, spans from every process."""
        n_nodes = 2
        store, keys = make_store(8)
        rocket = Rocket(
            SumApp(),
            store,
            RocketConfig(profiling=True, **CFG),
            backend="cluster",
            cluster=ClusterConfig(n_nodes=n_nodes, fetch_timeout=20.0, steal_timeout=5.0),
        )
        session = rocket.session()
        try:
            handle = session.submit(AllPairs(keys))
            handle.result()
            job_id = handle.accounting.job_id
            trace = session.profile()
        finally:
            session.close()

        # Coordinator plus every node process, under distinct real pids.
        pids = trace.pids()
        assert len(pids) == n_nodes + 1
        assert os.getpid() in pids
        names = {trace.process_name(pid) for pid in pids}
        assert names == {"coordinator"} | {f"node{i}" for i in range(n_nodes)}

        # Every node contributed job-tagged pipeline spans.
        for pid in pids:
            events = trace.events_for_pid(pid)
            assert events, f"no spans from pid {pid}"
            assert any(e.job_id == job_id for e in events)
        node_pids = [p for p in pids if p != os.getpid()]
        for pid in node_pids:
            assert any(e.label == "compare" for e in trace.events_for_pid(pid))

        # Node events were rebased onto the session clock: nothing may
        # end before the session started or start absurdly late.
        assert all(e.start >= 0.0 for pid in pids for e in trace.events_for_pid(pid))

        # The saved file is loadable and keeps the per-process split.
        path = trace.save(str(tmp_path / "cluster_trace.json"))
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        span_pids = {e["pid"] for e in loaded["traceEvents"] if e["ph"] == "X"}
        assert span_pids == set(pids)

    def test_rocket_run_profile_writes_trace(self, tmp_path):
        """``Rocket.run(profile=...)`` works even with profiling off."""
        store, keys = make_store(6)
        rocket = Rocket(SumApp(), store, RocketConfig(**CFG))
        out = str(tmp_path / "run_trace.json")
        baseline = rocket.run(keys)
        results = rocket.run(keys, profile=out)
        for a, b, v in baseline.items():
            assert results.get(a, b) == v
        with open(out, encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded["traceEvents"], "profiled run produced an empty trace"
        # The temporary profiling backend reported its stats back.
        assert rocket.last_stats is not None


# ----------------------------------------------------------------------
# Metrics


class TestMetricsRegistry:
    def test_nested_snapshot_and_kinds(self):
        m = MetricsRegistry()
        m.inc("cache.device.hits", 3)
        m.inc("cache.device.hits")
        m.set_gauge("scheduler.queue_depth", 2)
        for v in (0.1, 0.2, 0.3):
            m.observe("jobs.runtime_seconds", v)
        snap = m.snapshot()
        assert snap["cache"]["device"]["hits"] == 4
        assert snap["scheduler"]["queue_depth"] == 2
        hist = snap["jobs"]["runtime_seconds"]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(0.6)
        assert hist["min"] == pytest.approx(0.1)
        assert hist["max"] == pytest.approx(0.3)
        assert 0.1 <= hist["p50"] <= 0.3
        json.dumps(snap)  # must be plain data throughout

    def test_kind_conflicts_and_bad_values(self):
        m = MetricsRegistry()
        m.counter("a.b")
        with pytest.raises(TypeError):
            m.gauge("a.b")
        with pytest.raises(ValueError):
            m.inc("a.b", -1)
        m.inc("a.b.c")  # prefix collision surfaces at snapshot time
        with pytest.raises(ValueError):
            m.snapshot()

    @pytest.mark.parametrize("backend", ["local", "cluster-1", "cluster-2"])
    def test_session_metrics_match_run_stats(self, backend):
        """Every backend reports the same metric tree, equal to the stats."""
        stats, snap, job_id = _run_one_job(backend)

        # One job ran: each folded counter equals the stats field the
        # fold table names for it — on every backend alike.
        assert snap["jobs"]["completed"] == 1
        assert snap["jobs"]["runtime_seconds"]["count"] == 1
        assert snap["pairs"]["completed"] == stats.n_pairs
        assert snap["steal"]["remote_grants"] == stats.remote_steals
        assert snap["scheduler"]["blocks_granted"] == snap["jobs"]["recent"][0]["blocks_granted"]
        for field_name, name in NODE_METRICS.items():
            node = snap
            for part in name.split("."):
                node = node[part]
            assert node == _as_metric(getattr(stats, field_name)), (backend, name)
        assert stats.loads == sum(ns.loads for ns in stats.node_stats)

        recent = snap["jobs"]["recent"]
        assert len(recent) == 1
        assert recent[0]["job_id"] == job_id
        assert recent[0]["pairs_completed"] == stats.n_pairs
        json.dumps(snap)

    def test_every_backend_reports_the_same_metric_keys(self):
        def keys(tree, prefix=""):
            out = set()
            for k, v in tree.items():
                if isinstance(v, dict) and k not in ("runtime_seconds", "grant_latency_seconds"):
                    out |= keys(v, f"{prefix}{k}.")
                else:
                    out.add(prefix + k)
            return out

        snaps = {b: _run_one_job(b)[1] for b in ("local", "cluster-1", "cluster-2")}
        for b, snap in snaps.items():
            snap["jobs"]["recent"] = len(snap["jobs"]["recent"])
            snap["cache"] = {k: snap["cache"][k] for k in ("device", "host", "persistent")}
        subtrees = ("jobs", "pairs", "scheduler", "pipeline", "cache", "steal")
        reference = {t: keys(snaps["local"][t]) for t in subtrees}
        for b, snap in snaps.items():
            assert {t: keys(snap[t]) for t in subtrees} == reference, b


def _as_metric(value):
    """What the fold writes for one stats value (a number or a subtree)."""
    if isinstance(value, CacheCounters):
        return {
            "hits": value.hits + value.hits_while_writing,
            "misses": value.misses,
            "evictions": value.evictions,
        }
    if isinstance(value, HopStats):
        return {"hits": value.total_hits, "misses": value.misses + value.no_candidates}
    return value


def _run_one_job(backend):
    """One AllPairs job on ``backend``; returns (stats, metrics, job_id)."""
    store, keys = make_store(8)
    if backend == "local":
        rocket = Rocket(SumApp(), store, RocketConfig(**CFG))
    else:
        rocket = Rocket(
            SumApp(), store, RocketConfig(**CFG),
            backend="cluster", cluster=ClusterConfig(
                n_nodes=int(backend[-1]), fetch_timeout=20.0, steal_timeout=5.0
            ),
        )
    with rocket.session() as session:
        handle = session.submit(AllPairs(keys))
        handle.result()
        return handle.stats, session.metrics(), handle.accounting.job_id


# ----------------------------------------------------------------------
# The stats record: nothing half-threaded


class TestStatsRecord:
    @staticmethod
    def _filled(seed):
        """A NodeStats whose every field holds a distinct non-zero value."""
        values = {}
        for k, f in enumerate(dataclasses.fields(NodeStats), start=seed):
            default = getattr(NodeStats(), f.name)
            if isinstance(default, bool) or f.name in ("trace_events",):
                continue
            if isinstance(default, (int, float)):
                values[f.name] = type(default)(k)
            elif isinstance(default, dict):
                values[f.name] = {"x": k, f"only{seed}": 1}
            elif isinstance(default, CacheCounters):
                values[f.name] = CacheCounters(k, k + 1, k + 2, k + 3)
            elif isinstance(default, HopStats):
                values[f.name] = HopStats(2, [k, k + 1], misses=k + 2, no_candidates=k + 3)
            elif isinstance(default, StageCalibration):
                cal = StageCalibration()
                cal.cmp_seconds, cal.cmp_count = float(k), k
                values[f.name] = cal
            else:  # a new field type: teach this test (and the merge) about it
                raise AssertionError(f"unhandled NodeStats field type: {f.name}")
        return NodeStats(**values)

    def test_every_counter_field_is_summed(self):
        a, b = self._filled(1), self._filled(100)
        total = NodeStats.total([a, b])
        identity = {"node_id", "pid", "trace_origin", "trace_events"}
        for f in dataclasses.fields(NodeStats):
            va, vb, vt = (getattr(x, f.name) for x in (a, b, total))
            if f.name in identity:
                assert vt == getattr(NodeStats(), f.name), f.name
            elif isinstance(va, (int, float)):
                assert vt == va + vb, f.name
            elif isinstance(va, dict):
                assert vt == {"x": va["x"] + vb["x"], "only1": 1, "only100": 1} | {
                    k: 0 for k in getattr(NodeStats(), f.name)
                }, f.name
            elif isinstance(va, CacheCounters):
                assert dataclasses.astuple(vt) == tuple(
                    x + y for x, y in zip(dataclasses.astuple(va), dataclasses.astuple(vb))
                ), f.name
            elif isinstance(va, HopStats):
                assert vt.hits_at_hop == [x + y for x, y in zip(va.hits_at_hop, vb.hits_at_hop)]
                assert vt.misses == va.misses + vb.misses
                assert vt.no_candidates == va.no_candidates + vb.no_candidates
            else:
                assert vt.cmp_count == va.cmp_count + vb.cmp_count, f.name
        # The sum is a fresh record: the parts are untouched.
        assert a.loads == self._filled(1).loads and a.kernel_counts == self._filled(1).kernel_counts

    def test_every_field_is_exported_or_deliberately_not(self):
        names = {f.name for f in dataclasses.fields(NodeStats)}
        assert set(NODE_METRICS) | NOT_EXPORTED == names
        assert not set(NODE_METRICS) & NOT_EXPORTED

    def test_fold_reaches_the_registry_for_every_exported_field(self):
        node = self._filled(1)
        stats = RunStats(runtime=1.0, n_items=4, n_pairs=6, node_stats=[node])
        registry = MetricsRegistry()
        fold_stats(registry, stats)
        snap = registry.snapshot()
        for field_name, name in NODE_METRICS.items():
            tree = snap
            for part in name.split("."):
                tree = tree[part]
            expected = _as_metric(getattr(node, field_name))
            if isinstance(expected, dict):  # one counter per key
                assert {k: tree[k] for k in expected} == expected, name
            else:
                assert tree == expected, name
        # Reads on the run go through to the sum.
        assert stats.loads == node.loads and stats.hop_stats.total_hits == node.hop_stats.total_hits
        assert stats.bytes_over_wire == node.bytes_shipped


# ----------------------------------------------------------------------
# Structured logging


class TestStructuredLogging:
    @pytest.fixture(autouse=True)
    def _reset_rocket_logging(self):
        yield
        root = logging.getLogger("rocket")
        for handler in list(root.handlers):
            root.removeHandler(handler)
        root.setLevel(logging.NOTSET)
        root.propagate = True

    def test_json_lines_format(self):
        stream = io.StringIO()
        configure_logging(json_lines=True, level=logging.DEBUG, stream=stream)
        log = get_logger("cluster.coordinator", node=1)
        log.info("job started", job_id=3)
        log.warning("job failed: %s", "boom", job_id=4)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert lines[0] == {
            "ts": lines[0]["ts"],
            "level": "INFO",
            "component": "cluster.coordinator",
            "msg": "job started",
            "job_id": 3,
            "node": 1,
        }
        assert lines[1]["level"] == "WARNING"
        assert lines[1]["msg"] == "job failed: boom"
        assert lines[1]["job_id"] == 4

    def test_text_format_carries_context(self):
        stream = io.StringIO()
        configure_logging(json_lines=False, level=logging.INFO, stream=stream)
        get_logger("session.local").info("session open", job_id=9)
        line = stream.getvalue().strip()
        assert "session.local" in line
        assert "session open" in line
        assert "job_id=9" in line

    def test_library_is_silent_by_default(self, capsys):
        store, keys = make_store(4)
        rocket = Rocket(SumApp(), store, RocketConfig(**CFG))
        rocket.run(keys)
        captured = capsys.readouterr()
        assert "session open" not in captured.err
        assert "session open" not in captured.out

    def test_configured_session_emits_lifecycle_events(self):
        stream = io.StringIO()
        configure_logging(json_lines=True, level=logging.INFO, stream=stream)
        store, keys = make_store(4)
        rocket = Rocket(SumApp(), store, RocketConfig(**CFG))
        rocket.run(keys)
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        messages = [r["msg"] for r in records]
        assert "session open" in messages
        assert "job done" in messages
        assert "session closed" in messages
        done = next(r for r in records if r["msg"] == "job done")
        assert done["component"] == "session.local"
        assert "job_id" in done
