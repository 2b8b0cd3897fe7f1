"""Tests for Rocket-as-a-service (:mod:`repro.serve`).

Six layers:

- wire protocol units: framing (round trip, clean vs mid-frame EOF,
  corrupted lengths), the workload codec for all four shapes (with
  ``FilteredPairs`` predicate parity and pickling), the result codec,
  and typed errors crossing the wire;
- tenant directory resolution: JSON loading, allow-list mode, the
  default template, validation;
- job registry: replayable stream cursors, ack/TTL retention, tenant
  isolation of job ids;
- end-to-end serving on a real socket: result **and** stream parity
  with in-process execution for every workload shape under two
  concurrent tenants, reconnect-by-job-id after a client disconnect,
  quota admission, 3:1 weighted fair sharing, failure/cancel
  propagation, graceful drain;
- the ``SessionClosed`` close-race contract on both backends;
- the CLI surface: ``serve`` + ``submit`` subprocess round trip with
  SIGTERM drain, and clean exit codes on connection refused.
"""

import json
import pickle
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.session import RunHandle, RunState, SessionClosed
from repro.core.workload import AllPairs, Bipartite, DeltaPairs, FilteredPairs
from repro.serve import (
    ProtocolError,
    QuotaExceeded,
    RemoteJobFailed,
    RocketServer,
    ServeConnectionError,
    ServeError,
    ServerDraining,
    TenantConfig,
    TenantDirectory,
    UnknownJob,
    UnknownTenant,
    connect,
)
from repro.serve import protocol
from repro.serve.registry import JobRegistry

from tests.test_cli_and_io import MALFORMED_RESULT_DOCS, result_doc
from tests.test_cluster_runtime import SumApp, cols, make_store
from tests.test_multijob import SlowApp, make_rocket


def make_server(
    backend="local", n_items=10, app=None, tenants=None, config=None, **server_kw
):
    """A served session on an ephemeral port; caller closes the server.

    ``config`` overrides ``RocketConfig`` fields of the served session.
    """
    store, keys = make_store(n_items)
    rocket = make_rocket(backend, store, app=app, **(config or {}))
    session = rocket.session(policy="fair")
    server = RocketServer(session, keys, tenants=tenants, **server_kw).start()
    return server, store, keys


def reference_results(store, keys, workload, app=None):
    """The in-process ground truth for a served workload."""
    session = make_rocket("local", store, app=app).session()
    try:
        return session.submit(workload).result()
    finally:
        session.close()


# ----------------------------------------------------------------------
# Protocol units


class TestFraming:
    def pair(self):
        a, b = socket.socketpair()
        return a, b

    def test_round_trip(self):
        a, b = self.pair()
        try:
            message = {"op": "hello", "tenant": "t", "n": [1, 2.5, "x"]}
            protocol.send_message(a, message)
            assert protocol.recv_message(b) == message
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = self.pair()
        a.close()
        try:
            assert protocol.recv_message(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = self.pair()
        try:
            a.sendall(struct.pack(">I", 100) + b'{"tru')
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                protocol.recv_message(b)
        finally:
            b.close()

    def test_corrupt_length_rejected_without_allocating(self):
        a, b = self.pair()
        try:
            a.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="exceeds"):
                protocol.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_non_object_payload_rejected(self):
        a, b = self.pair()
        try:
            payload = json.dumps([1, 2, 3]).encode()
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolError, match="objects"):
                protocol.recv_message(b)
        finally:
            a.close()
            b.close()


class TestWorkloadCodec:
    KEYS = [f"k{i:02d}" for i in range(8)]

    def round_trip(self, workload):
        rebuilt = protocol.workload_from_wire(
            json.loads(json.dumps(protocol.workload_to_wire(workload)))
        )
        assert rebuilt.n_pairs == workload.n_pairs
        assert sorted(map(tuple, rebuilt.pairs())) == sorted(
            map(tuple, workload.pairs())
        )
        return rebuilt

    def test_all_pairs(self):
        self.round_trip(AllPairs(self.KEYS))

    def test_bipartite(self):
        self.round_trip(Bipartite(self.KEYS[:3], self.KEYS[3:]))

    def test_delta(self):
        self.round_trip(DeltaPairs(self.KEYS[:6], self.KEYS[6:]))

    def test_filtered_predicate_parity(self):
        # The wire form evaluates the predicate client-side; the
        # rebuilt workload must hold exactly the same pair set.
        pred = lambda a, b: (int(a[-2:]) + int(b[-2:])) % 3 != 0
        workload = FilteredPairs(self.KEYS, pred)
        rebuilt = self.round_trip(workload)
        assert rebuilt.keys == workload.keys
        assert np.array_equal(rebuilt.accepted.codes, workload.accepted.codes)

    def test_rebuilt_filter_is_picklable(self):
        # The cluster backend ships a job's pair set to worker
        # processes; a served FilteredPairs must survive pickling (the
        # original lambda would not).
        workload = FilteredPairs(self.KEYS, lambda a, b: a < b and a[-1] != "3")
        rebuilt = protocol.workload_from_wire(protocol.workload_to_wire(workload))
        clone = pickle.loads(pickle.dumps(rebuilt))
        assert np.array_equal(clone.accepted.codes, workload.accepted.codes)
        assert list(clone.pairs()) == list(workload.pairs())

    def filtered(self, pairs):
        return protocol.workload_from_wire(
            {"kind": "filtered", "keys": self.KEYS, "pairs": pairs}
        )

    @pytest.mark.parametrize(
        "bad, match",
        [
            (["k00", "nope"], "outside"),
            (["k03", "k03"], "itself"),
            (["k00", "k01", "k02"], "not a"),
            (["k00"], "not a"),
            ("k00k01", "not a"),
            ([["k00"], "k01"], "outside"),
        ],
    )
    def test_malformed_filtered_pair_rejected_at_decode(self, bad, match):
        # Dropping such a row would let the job report complete
        # without a pair the client asked for.
        with pytest.raises(ProtocolError, match=match):
            self.filtered([["k00", "k01"], bad])

    def test_empty_filtered_pairs_rejected_at_decode(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            self.filtered([])

    def test_reversed_filtered_pair_is_normalised(self):
        rebuilt = self.filtered([["k05", "k02"], ["k01", "k07"], ["k02", "k05"]])
        assert rebuilt.n_pairs == 2
        assert sorted(rebuilt.pairs()) == [("k01", "k07"), ("k02", "k05")]

    def test_non_scalar_keys_rejected(self):
        with pytest.raises(ProtocolError, match="scalar"):
            protocol.workload_to_wire(AllPairs([("tuple", "key"), ("x", "y")]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown workload kind"):
            protocol.workload_from_wire({"kind": "mystery"})


class TestResultAndErrorCodec:
    def test_matrix_round_trip(self):
        workload = AllPairs(["a", "b", "c"])
        matrix = workload.make_result()
        matrix.set("a", "b", 1.5)
        matrix.set("a", "c", -2.0)
        matrix.set("b", "c", 0.25)
        rebuilt = protocol.matrix_from_wire(
            json.loads(json.dumps(protocol.matrix_to_wire(matrix)))
        )
        assert sorted(map(tuple, rebuilt.items())) == sorted(map(tuple, matrix.items()))
        assert rebuilt.is_complete()

    @pytest.mark.parametrize("case", sorted(MALFORMED_RESULT_DOCS))
    def test_malformed_matrix_document_is_a_protocol_error(self, case):
        with pytest.raises(ProtocolError, match="malformed result document"):
            protocol.matrix_from_wire(json.loads(json.dumps(result_doc(case))))

    @pytest.mark.parametrize(
        "exc_type",
        [ProtocolError, UnknownTenant, UnknownJob, QuotaExceeded, ServerDraining],
    )
    def test_errors_round_trip_typed(self, exc_type):
        response = protocol.error_response(exc_type("weights exhausted"))
        with pytest.raises(exc_type, match="weights exhausted"):
            protocol.raise_error_response(response)

    def test_unknown_code_degrades_to_serve_error(self):
        with pytest.raises(ServeError):
            protocol.raise_error_response({"ok": False, "error": "??", "message": "m"})


# ----------------------------------------------------------------------
# Tenants


class TestTenantDirectory:
    DOC = {
        "tenants": [
            {"name": "alice", "weight": 3.0, "max_active": 4},
            {"name": "bob", "max_pending_pairs": 2000},
        ],
        "allow_unknown": False,
    }

    def test_from_dict_and_resolution(self):
        directory = TenantDirectory.from_dict(self.DOC)
        alice = directory.resolve("alice")
        assert alice.weight == 3.0 and alice.max_active == 4
        assert directory.resolve("bob").max_pending_pairs == 2000
        with pytest.raises(UnknownTenant, match="allow-list"):
            directory.resolve("mallory")

    def test_permissive_default_template(self):
        directory = TenantDirectory.from_dict(
            {"default": {"weight": 0.5, "max_active": 2}}
        )
        anon = directory.resolve("walk-in")
        assert anon.name == "walk-in"
        assert anon.weight == 0.5 and anon.max_active == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="weight"):
            TenantConfig("t", weight=0.0)
        with pytest.raises(ValueError, match="max_active"):
            TenantConfig("t", max_active=0)
        with pytest.raises(ValueError, match="duplicate"):
            TenantDirectory([TenantConfig("a"), TenantConfig("a")])
        with pytest.raises(ValueError, match="unknown tenant config keys"):
            TenantDirectory.from_dict({"tenant": []})

    def test_from_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(self.DOC))
        assert TenantDirectory.from_file(path).resolve("alice").weight == 3.0


# ----------------------------------------------------------------------
# Registry


def finished_handle(keys, values):
    """A handle driven to DONE through the backend hooks."""
    handle = RunHandle(AllPairs(keys))
    handle._mark_running(None)
    handle._record_block(*cols(list(values), list(values.values())))
    handle._finish(RunState.DONE)
    return handle


class TestJobRegistry:
    KEYS = ["a", "b", "c"]

    def test_stream_log_replays_from_any_cursor(self):
        registry = JobRegistry()
        record = registry.register(
            "t", finished_handle(self.KEYS, {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0})
        )
        assert record.wait_drained(timeout=10.0)
        full, drained = record.read_triples(0, 100)
        assert drained and len(full) == 3
        tail, drained = record.read_triples(2, 100)
        assert drained and tail == full[2:]
        # Replays do not consume: a second reader sees the same log.
        again, _ = record.read_triples(0, 100)
        assert again == full

    def test_tenant_isolation_and_unknown_ids(self):
        registry = JobRegistry()
        record = registry.register("alice", finished_handle(self.KEYS, {(0, 1): 1.0}))
        assert registry.get("alice", record.job_id) is record
        # Another tenant's id and a bogus id fail identically.
        with pytest.raises(UnknownJob):
            registry.get("bob", record.job_id)
        with pytest.raises(UnknownJob):
            registry.get("alice", "j-999999")

    def test_ack_and_ttl_purge(self):
        registry = JobRegistry(result_ttl=100.0)
        record = registry.register("t", finished_handle(self.KEYS, {(0, 1): 1.0}))
        assert record.wait_drained(timeout=10.0)
        keep = registry.register("t", finished_handle(self.KEYS, {(0, 1): 1.0}))
        assert keep.wait_drained(timeout=10.0)
        assert registry.ack("t", record.job_id) is True
        with pytest.raises(UnknownJob):
            registry.get("t", record.job_id)
        # TTL expiry drops the unacked record too, eventually.
        assert registry.purge_expired(now=keep.finished_at + 99.0) == 0
        assert registry.purge_expired(now=keep.finished_at + 101.0) == 1
        with pytest.raises(UnknownJob):
            registry.get("t", keep.job_id)


# ----------------------------------------------------------------------
# End-to-end serving


WORKLOAD_SHAPES = [
    ("all", lambda keys: AllPairs(keys)),
    ("bipartite", lambda keys: Bipartite(keys[:4], keys[4:])),
    ("delta", lambda keys: DeltaPairs(keys[:7], keys[7:])),
    (
        "filtered",
        lambda keys: FilteredPairs(
            keys, lambda a, b: (int(a[-2:]) + int(b[-2:])) % 3 != 0
        ),
    ),
]


class TestServedParity:
    @pytest.mark.parametrize("shape,build", WORKLOAD_SHAPES)
    def test_result_and_stream_parity_under_two_tenants(self, shape, build):
        """Acceptance: served ``result()`` and ``stream()`` are
        value-identical to in-process execution, with two tenants
        submitting concurrently."""
        server, store, keys = make_server()
        try:
            workload = build(keys)
            expected = sorted(
                map(tuple, reference_results(store, keys, build(keys)).items())
            )
            outcome = {}

            def tenant_run(name):
                with connect(server.address, tenant=name) as client:
                    handle = client.submit(build(keys))
                    matrix = handle.result(timeout=60)
                    streamed = sorted(map(tuple, client.handle(handle.job_id).stream()))
                    outcome[name] = (sorted(map(tuple, matrix.items())), streamed)

            threads = [
                threading.Thread(target=tenant_run, args=(name,))
                for name in ("alice", "bob")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=90)
            assert set(outcome) == {"alice", "bob"}
            for name in ("alice", "bob"):
                result_items, streamed = outcome[name]
                assert result_items == expected, f"{shape} result parity ({name})"
                assert streamed == expected, f"{shape} stream parity ({name})"
        finally:
            server.close()

    def test_plain_key_list_submits_all_pairs(self):
        server, store, keys = make_server(n_items=6)
        try:
            with connect(server.address) as client:
                assert client.keys() == keys
                matrix = client.run(keys)
                assert matrix.is_complete()
                assert matrix.expected_pairs == AllPairs(keys).n_pairs
        finally:
            server.close()

    def test_a_second_client_repeating_a_job_loads_nothing(self):
        """The daemon's session stays warm across clients: the repeat is served from its caches."""
        server, store, keys = make_server(n_items=8)
        try:
            with connect(server.address, tenant="alice") as first:
                expected = sorted(map(tuple, first.run(AllPairs(keys)).items()))
                assert first.metrics()["session"]["pipeline"]["loads"] == 8
            with connect(server.address, tenant="bob") as second:
                matrix = second.run(AllPairs(keys))
                snapshot = second.metrics()["session"]
            assert sorted(map(tuple, matrix.items())) == expected
            assert snapshot["jobs"]["completed"] == 2
            assert snapshot["pipeline"]["loads"] == 8  # none by the second job
        finally:
            server.close()

    @pytest.mark.slow
    def test_cluster_backend_served_parity(self):
        """The daemon serves a multi-process cluster session unchanged —
        including a FilteredPairs predicate, which must cross the wire
        as a picklable pair set to reach the worker processes."""
        server, store, keys = make_server(backend="cluster")
        try:
            pred = lambda a, b: (int(a[-2:]) + int(b[-2:])) % 3 != 0
            expected = sorted(
                map(
                    tuple,
                    reference_results(store, keys, FilteredPairs(keys, pred)).items(),
                )
            )
            with connect(server.address) as client:
                matrix = client.submit(FilteredPairs(keys, pred)).result(timeout=120)
            assert sorted(map(tuple, matrix.items())) == expected
        finally:
            server.close()


class TestReconnect:
    def test_disconnect_after_submit_then_reconnect_by_job_id(self):
        """Acceptance: a client that drops after submitting can
        reconnect and fetch the finished ResultMatrix by job id."""
        server, store, keys = make_server(app=SlowApp())
        try:
            client = connect(server.address, tenant="roamer")
            handle = client.submit(AllPairs(keys))
            job_id = handle.job_id
            client.close()  # disconnect mid-run; the job keeps going

            with connect(server.address, tenant="roamer") as again:
                revived = again.handle(job_id)
                matrix = revived.result(timeout=60)
                assert matrix.is_complete()
                expected = reference_results(store, keys, AllPairs(keys))
                assert sorted(map(tuple, matrix.items())) == sorted(
                    map(tuple, expected.items())
                )
                # The replayable stream survives the reconnect too.
                assert len(list(revived.stream())) == matrix.expected_pairs
                assert revived.ack() is True
                with pytest.raises(UnknownJob):
                    again.handle(job_id)
        finally:
            server.close()

    def test_other_tenants_cannot_reach_the_job(self):
        server, store, keys = make_server(n_items=6)
        try:
            with connect(server.address, tenant="alice") as alice:
                job_id = alice.submit(AllPairs(keys)).job_id
                with connect(server.address, tenant="bob") as bob:
                    with pytest.raises(UnknownJob):
                        bob.handle(job_id)
        finally:
            server.close()


class TestTenantScheduling:
    def directory(self):
        return TenantDirectory(
            [
                TenantConfig("heavy", weight=3.0),
                TenantConfig("light", weight=1.0),
                TenantConfig("capped", max_active=1, max_pending_pairs=50),
            ]
        )

    def test_effective_priority_is_weight_times_priority(self):
        server, store, keys = make_server(n_items=6, tenants=self.directory())
        try:
            with connect(server.address, tenant="heavy") as client:
                assert client.tenant["weight"] == 3.0
                response = client._request(
                    {
                        "op": "submit",
                        "workload": protocol.workload_to_wire(AllPairs(keys)),
                        "priority": 2.0,
                    }
                )
                assert response["effective_priority"] == pytest.approx(6.0)
        finally:
            server.close()

    def test_weighted_tenants_share_3_to_1(self):
        """Behavioral acceptance: equal submissions from a weight-3 and
        a weight-1 tenant, read from the scheduler's grant log.  When
        the heavy job's last quantum is granted, the light job has been
        granted a third of its pairs — within one session window, what
        the heavy job may hold before the light one is admitted."""
        grain = 8  # 66 pairs in 28 quanta; the window is 1 device x 8 pairs
        store, keys = make_store(12)
        session = make_rocket("local", store, app=SlowApp(), grain=grain).session(
            policy="fair"
        )
        server = RocketServer(session, keys, tenants=self.directory()).start()
        workload = AllPairs(keys)
        assert len(workload.grain_blocks(grain)) >= 8
        scheduler = session._scheduler
        grants = []
        next_grant = scheduler.next_grant

        def logged_next_grant():
            grant = next_grant()
            if grant is not None:
                grants.append((grant[0], grant[2]))
            return grant

        scheduler.next_grant = logged_next_grant
        try:
            with connect(server.address, tenant="heavy") as heavy, connect(
                server.address, tenant="light"
            ) as light:
                # Same workload, same requested priority: only the
                # tenant weight differs.
                h_heavy = heavy.submit(workload)
                h_light = light.submit(workload)
                assert h_heavy.result(timeout=90).is_complete()
                assert h_light.result(timeout=90).is_complete()
            heavy_handle = server._registry.get("heavy", h_heavy.job_id).handle
        finally:
            server.close()
        granted = {True: 0, False: 0}
        for handle, count in grants:
            granted[handle is heavy_handle] += count
            if granted[True] == workload.n_pairs:
                break
        assert granted[False] == pytest.approx(workload.n_pairs / 3, abs=grain)

    def test_max_active_quota_rejects_at_admission(self):
        server, store, keys = make_server(app=SlowApp(), tenants=self.directory())
        try:
            with connect(server.address, tenant="capped") as client:
                first = client.submit(AllPairs(keys[:8]))
                with pytest.raises(QuotaExceeded, match="max_active"):
                    client.submit(AllPairs(keys[:4]))
                first.result(timeout=60)
                # The quota frees up once the job finishes.
                client.submit(AllPairs(keys[:4])).result(timeout=60)
        finally:
            server.close()

    def test_pending_pairs_quota(self):
        server, store, keys = make_server(app=SlowApp(), tenants=self.directory())
        try:
            with connect(server.address, tenant="capped") as client:
                # 9 keys = 36 pairs, within the 50-pair budget; a
                # second 36-pair job would exceed it — but max_active=1
                # fires first, so submit a single over-budget workload.
                with pytest.raises(QuotaExceeded, match="max_pending_pairs"):
                    client.submit(AllPairs(keys + [k + "x" for k in keys]))
        finally:
            server.close()


class TestFailureAndCancel:
    def test_remote_failure_is_typed(self):
        class BadApp(SumApp):
            def parse(self, key, file_contents):
                raise ValueError("corrupt item")

        server, store, keys = make_server(n_items=4, app=BadApp())
        try:
            with connect(server.address) as client:
                handle = client.submit(AllPairs(keys))
                with pytest.raises(RemoteJobFailed, match="corrupt item"):
                    handle.result(timeout=60)
        finally:
            server.close()

    def test_cancel_served_job(self):
        server, store, keys = make_server(app=SlowApp())
        try:
            with connect(server.address) as client:
                handle = client.submit(AllPairs(keys))
                assert handle.cancel() is True
                assert handle.wait(timeout=60)
                with pytest.raises(RuntimeError, match="cancelled"):
                    handle.result(timeout=10)
        finally:
            server.close()

    def test_unknown_verbs_and_missing_hello(self):
        server, store, keys = make_server(n_items=4)
        try:
            raw = socket.create_connection((server.host, server.port), timeout=10)
            try:
                protocol.send_message(raw, {"op": "status", "job": "j-000000"})
                response = protocol.recv_message(raw)
                assert response["ok"] is False and response["error"] == "protocol"
                protocol.send_message(raw, {"op": "hello", "tenant": "t"})
                assert protocol.recv_message(raw)["ok"] is True
                protocol.send_message(raw, {"op": "frobnicate"})
                response = protocol.recv_message(raw)
                assert response["error"] == "protocol"
            finally:
                raw.close()
        finally:
            server.close()


    @pytest.mark.parametrize(
        "op, field, value",
        [
            ("submit", "priority", "high"),
            ("submit", "priority", None),
            ("submit", "max_inflight", "many"),
            ("submit", "max_inflight", 0),
            ("wait", "timeout", "soon"),
            ("result", "timeout", [1]),
            ("stream", "cursor", "start"),
            ("stream", "cursor", -1),
            ("stream", "wait", {}),
        ],
    )
    def test_a_malformed_numeric_field_is_a_protocol_error(self, op, field, value):
        """The client's mistake, answered as one: not counted as a daemon fault."""
        server, store, keys = make_server(n_items=4)
        try:
            with connect(server.address) as client:
                job = client.submit(AllPairs(keys)).job_id
                request = {"op": op, field: value}
                if op == "submit":
                    request["workload"] = protocol.workload_to_wire(AllPairs(keys))
                else:
                    request["job"] = job
                with pytest.raises(ProtocolError, match=field):
                    client._request(request)
                serve = client.metrics()["serve"]["serve"]
                assert "internal" not in serve.get("errors", {})
        finally:
            server.close()


class TestDrain:
    def test_drain_resolves_queued_handles_then_rejects_submits(self):
        """Acceptance: SIGTERM-style drain lets queued jobs finish and
        their waiting clients collect results."""
        server, store, keys = make_server(app=SlowApp())
        try:
            with connect(server.address, tenant="t") as client:
                running = client.submit(AllPairs(keys))
                queued = client.submit(AllPairs(keys[:6]))
                server.request_drain()
                with pytest.raises(ServerDraining):
                    client.submit(AllPairs(keys[:4]))
                closer = threading.Thread(target=server.close)
                closer.start()
                # Both pre-drain jobs resolve with full results while
                # the daemon shuts down around them.
                assert running.result(timeout=90).is_complete()
                assert queued.result(timeout=90).is_complete()
                closer.join(timeout=90)
                assert not closer.is_alive()
        finally:
            server.close()

    def test_an_unread_result_holds_the_drain_only_until_the_timeout(self):
        server, store, keys = make_server(n_items=4, drain_timeout=0.5)
        try:
            with connect(server.address) as client:
                handle = client.submit(AllPairs(keys))
                assert handle.wait(timeout=60)
                started = time.monotonic()
                server.close()
                assert 0.4 < time.monotonic() - started < 5.0
        finally:
            server.close()

    def test_health_reports_drain_state(self):
        server, store, keys = make_server(n_items=4)
        try:
            with connect(server.address) as client:
                assert client.health()["status"] == "serving"
                server.request_drain()
                assert client.health()["status"] == "draining"
        finally:
            server.close()

    def test_metrics_verb_merges_session_and_serve(self):
        server, store, keys = make_server(n_items=6)
        try:
            with connect(server.address) as client:
                client.run(keys)
                snapshot = client.metrics()
                assert "session" in snapshot and "serve" in snapshot
                serve = snapshot["serve"]["serve"]
                assert serve["jobs"]["submitted"] == 1
                assert serve["requests"] >= 2
        finally:
            server.close()


# ----------------------------------------------------------------------
# SessionClosed close-race contract (both backends)


class TestSessionClosedContract:
    @pytest.mark.parametrize("backend", ["local", "cluster"])
    def test_double_close_raises(self, backend):
        store, keys = make_store(4)
        session = make_rocket(backend, store).session()
        session.close()
        with pytest.raises(SessionClosed):
            session.close()

    @pytest.mark.parametrize("backend", ["local", "cluster"])
    def test_close_while_submitting_is_loud_not_racy(self, backend):
        """Submissions racing a concurrent close() either succeed with a
        resolvable handle or raise SessionClosed — never anything else,
        and never a hung handle."""
        store, keys = make_store(6)
        session = make_rocket(backend, store, app=SlowApp()).session(policy="fair")
        outcomes = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    outcomes.append(("ok", session.submit(AllPairs(keys[:4]))))
                except SessionClosed:
                    outcomes.append(("closed", None))
                    return
                except BaseException as exc:  # pragma: no cover - the bug
                    outcomes.append(("unexpected", exc))
                    return

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        session.close()
        stop.set()
        for t in threads:
            t.join(timeout=60)
        with pytest.raises(SessionClosed):
            session.submit(AllPairs(keys))
        kinds = [kind for kind, _ in outcomes]
        assert "unexpected" not in kinds, outcomes
        # Every accepted handle still resolves (DONE or CANCELLED by
        # the teardown) — no submission may hang in QUEUED forever.
        for kind, handle in outcomes:
            if kind == "ok":
                assert handle.wait(timeout=60)

    def test_context_manager_tolerates_early_close(self):
        store, keys = make_store(4)
        with make_rocket("local", store).session() as session:
            session.submit(AllPairs(keys)).result()
            session.close()  # early close inside the block must not raise on exit


# ----------------------------------------------------------------------
# CLI


CLI_ENV = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"}

ROOT = Path(__file__).resolve().parents[1]

#: A daemon process over ``argv[1]`` items whose keys are padded to
#: ``argv[2]`` characters, so a result document can outgrow the socket
#: buffers.  With ``argv[3] == "1"`` a helper thread sends SIGTERM to
#: itself once ``serve_forever`` installed its handler.
DAEMON_SCRIPT = """
import signal, sys, threading, time
import numpy as np
from repro.data.filestore import InMemoryStore
from repro.serve import RocketServer
from tests.test_cluster_runtime import SumApp
from tests.test_multijob import make_rocket

n_items, key_chars, self_signal = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1"
store, keys = InMemoryStore(), []
for i in range(n_items):
    key = f"item{i:02d}".ljust(key_chars, "x")
    store.write(f"{key}.bin", np.full(8, float(i + 1)).tobytes())
    keys.append(key)
server = RocketServer(make_rocket("local", store).session(policy="fair"), keys)
print(f"serving on {server.address}", flush=True)

def kill_from_this_thread():
    while signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
        time.sleep(0.01)
    time.sleep(0.5)  # the main thread is parked in serve_forever by now
    signal.pthread_kill(threading.get_ident(), signal.SIGTERM)

if self_signal:
    threading.Thread(target=kill_from_this_thread, daemon=True).start()
server.serve_forever()
print("daemon drained, exiting", flush=True)
"""


def spawn_daemon(n_items=4, key_chars=0, self_signal=False):
    """Start :data:`DAEMON_SCRIPT`; returns the process and its address."""
    daemon = subprocess.Popen(
        [sys.executable, "-c", DAEMON_SCRIPT, str(n_items), str(key_chars),
         "1" if self_signal else "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, cwd=ROOT,
        env=dict(CLI_ENV, PYTHONPATH=str(ROOT / "src")),
    )
    line = daemon.stdout.readline()
    assert "serving on " in line, line
    return daemon, line.strip().rsplit(" ", 1)[-1]


class TestDaemonShutdown:
    def test_sigterm_delivered_to_another_thread_drains(self):
        daemon, _ = spawn_daemon(self_signal=True)
        try:
            out, _ = daemon.communicate(timeout=10)
            assert daemon.returncode == 0, out
            assert "daemon drained, exiting" in out
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate(timeout=30)

    def test_a_result_read_after_sigterm_arrives_whole(self):
        """The daemon waits for a response it is still sending: a client
        that collects a large result only after the SIGTERM gets it
        whole instead of a cut frame."""
        daemon, address = spawn_daemon(n_items=12, key_chars=1 << 20)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            # A small receive buffer: the 12 MiB document cannot sit in
            # the socket buffers, the daemon's send has to wait for us.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            host, port = address.rsplit(":", 1)
            sock.connect((host, int(port)))
            sock.settimeout(60)

            def request(message):
                protocol.send_message(sock, message)
                return protocol.recv_message(sock)

            assert request({"op": "hello", "tenant": "t"})["ok"]
            keys = [f"item{i:02d}".ljust(1 << 20, "x") for i in range(12)]
            job = request(
                {"op": "submit", "workload": protocol.workload_to_wire(AllPairs(keys))}
            )["job"]
            while request({"op": "wait", "job": job})["state"] != "done":
                pass
            protocol.send_message(sock, {"op": "result", "job": job})
            time.sleep(0.5)  # the daemon is now blocked sending the document
            daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(timeout=2.0)  # enough for a daemon that does not wait to exit
            except subprocess.TimeoutExpired:
                pass
            response = protocol.recv_message(sock)
            matrix = protocol.matrix_from_wire(response["result"])
            assert matrix.is_complete() and matrix.keys == keys
            sock.close()
            out, _ = daemon.communicate(timeout=60)
            assert daemon.returncode == 0, out
        finally:
            sock.close()
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate(timeout=30)


class TestServeCli:
    def test_submit_command_in_process(self, tmp_path, capsys):
        """The ``submit`` subcommand end-to-end against a live daemon."""
        from repro.cli import main

        server, store, keys = make_server(n_items=6)
        try:
            out_path = tmp_path / "results.json"
            rc = main(
                [
                    "submit", "--connect", server.address, "--tenant", "cli",
                    "--bipartite", "2", "--priority", "2.0",
                    "--save", str(out_path),
                ]
            )
            out = capsys.readouterr().out
            assert rc == 0
            assert "bipartite" in out and "8/8 pairs" in out
            assert json.loads(out_path.read_text())["format"] == "rocket-results"
        finally:
            server.close()

    def test_serve_command_in_process(self, monkeypatch, capsys):
        """``serve`` builds the daemon from run/backend flags and prints
        the machine-parseable address line before blocking."""
        import repro.cli as cli
        from repro.serve.daemon import RocketServer as Server

        drained = {}

        def fake_serve_forever(self, install_signals=None):
            drained["address"] = self.address
            self.close()

        monkeypatch.setattr(Server, "serve_forever", fake_serve_forever)
        rc = cli.main(
            ["serve", "forensics", "--items", "4", "--port", "0",
             "--result-ttl", "60"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert f"serving on {drained['address']}" in out
        assert "daemon drained, exiting" in out

    def test_submit_connection_refused_exits_3(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "--connect", "127.0.0.1:1"],
            env=CLI_ENV, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert "cannot connect" in proc.stderr

    def test_serve_submit_sigterm_drain_round_trip(self):
        """The daemon serves a CLI submit, then exits 0 on SIGTERM."""
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "forensics",
                "--items", "8", "--port", "0",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=CLI_ENV,
        )
        try:
            line = daemon.stdout.readline()
            assert "serving on " in line, line
            address = line.strip().rsplit(" ", 1)[-1]

            submit = subprocess.run(
                [
                    sys.executable, "-m", "repro", "submit",
                    "--connect", address, "--tenant", "cli", "--delta", "2",
                ],
                env=CLI_ENV, capture_output=True, text=True, timeout=180,
            )
            assert submit.returncode == 0, submit.stdout + submit.stderr
            assert "13/13 pairs" in submit.stdout

            # A job left running through the drain still resolves: the
            # client library talks to the draining daemon directly.
            with connect(address, tenant="cli") as client:
                handle = client.submit(AllPairs(client.keys()))
                daemon.send_signal(signal.SIGTERM)
                assert handle.result(timeout=120).is_complete()

            out, _ = daemon.communicate(timeout=120)
            assert daemon.returncode == 0, out
            assert "daemon drained, exiting" in out
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate(timeout=30)

    @staticmethod
    def _spawn_bio_daemon():
        """``repro serve bioinformatics`` on an ephemeral port."""
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "bioinformatics",
                "--items", "8", "--port", "0",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=CLI_ENV,
        )
        line = daemon.stdout.readline()
        assert "serving on " in line, line
        return daemon, line.strip().rsplit(" ", 1)[-1]

    def test_a_finished_job_read_after_sigterm_is_delivered(self):
        """A job that finished before the SIGTERM holds the drain until
        its still-connected client reads the result."""
        daemon, address = self._spawn_bio_daemon()
        try:
            with connect(address, tenant="cli") as client:
                handle = client.submit(AllPairs(client.keys()))
                assert handle.wait(timeout=120)
                daemon.send_signal(signal.SIGTERM)
                time.sleep(0.5)  # a daemon that does not wait has exited by now
                assert handle.result(timeout=60).is_complete()
            out, _ = daemon.communicate(timeout=60)
            assert daemon.returncode == 0, out
            assert "daemon drained, exiting" in out
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate(timeout=30)

    def test_a_client_gone_unread_does_not_hold_the_drain(self):
        daemon, address = self._spawn_bio_daemon()
        try:
            with connect(address, tenant="cli") as client:
                assert client.submit(AllPairs(client.keys())).wait(timeout=120)
            started = time.monotonic()
            daemon.send_signal(signal.SIGTERM)
            out, _ = daemon.communicate(timeout=60)
            assert time.monotonic() - started < 2.0
            assert daemon.returncode == 0, out
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate(timeout=30)
