"""Unit tests for the pluggable data plane.

Covers the pieces below the cluster protocol: the
:class:`~repro.core.buffers.BufferPool` allocator, the shared-memory
payload plane (descriptor round-trips, slot release, inline fallback,
segment lifecycle), the :class:`~repro.runtime.transport.ResultBatcher`,
and the transport-name lookup — all in-process, no worker processes.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.buffers import BufferPool
from repro.runtime.cluster import ClusterConfig
from repro.runtime.transport import (
    QueueFabric,
    ResultBatcher,
    ShmDescriptor,
    create_fabric,
)
from repro.runtime.transport.shm import SharedMemoryFabric

from tests.test_cluster_runtime import cols, triples


# ----------------------------------------------------------------------
# BufferPool


class TestBufferPool:
    def test_alloc_free_roundtrip(self):
        pool = BufferPool(1024, alignment=64)
        off = pool.alloc(100)
        assert off == 0
        assert pool.used_bytes == 128  # rounded to alignment
        pool.free(off)
        assert pool.used_bytes == 0
        assert pool.free_bytes == 1024

    def test_offsets_are_aligned_and_disjoint(self):
        pool = BufferPool(4096, alignment=64)
        offsets = [pool.alloc(65) for _ in range(8)]
        assert all(off is not None and off % 64 == 0 for off in offsets)
        assert len(set(offsets)) == 8
        # 65 bytes rounds to 128: blocks must not overlap.
        assert sorted(offsets) == [i * 128 for i in range(8)]

    def test_zero_byte_alloc_keeps_alignment(self):
        pool = BufferPool(1024, alignment=64)
        a = pool.alloc(0)
        b = pool.alloc(100)
        assert a == 0 and b == 64  # empty block still occupies one unit
        assert b % 64 == 0

    def test_exhaustion_returns_none_not_error(self):
        pool = BufferPool(256)
        assert pool.alloc(256) == 0
        assert pool.alloc(1) is None
        assert pool.alloc_failures == 1

    def test_free_coalesces_neighbours(self):
        pool = BufferPool(3 * 64)
        a, b, c = pool.alloc(64), pool.alloc(64), pool.alloc(64)
        # Free in an order that needs both next- and prev-coalescing.
        pool.free(b)
        pool.free(a)
        pool.free(c)
        assert pool.free_bytes == 3 * 64
        assert pool.alloc(3 * 64) == 0  # one contiguous block again

    def test_double_free_raises(self):
        pool = BufferPool(256)
        off = pool.alloc(10)
        pool.free(off)
        with pytest.raises(ValueError, match="not allocated"):
            pool.free(off)

    def test_high_water_tracks_peak(self):
        pool = BufferPool(1024)
        a = pool.alloc(128)
        b = pool.alloc(128)
        pool.free(a)
        pool.free(b)
        assert pool.high_water == 256
        assert pool.alloc_count == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BufferPool(0)
        with pytest.raises(ValueError):
            BufferPool(128, alignment=48)
        pool = BufferPool(128)
        with pytest.raises(ValueError):
            pool.alloc(-1)


# ----------------------------------------------------------------------
# Shared-memory payload plane (in-process: two endpoints, one fabric)


def make_shm_fabric(n_nodes=2, segment_bytes=65536):
    ctx = multiprocessing.get_context("fork")
    cluster = ClusterConfig(
        n_nodes=n_nodes, transport="shm", shm_segment_bytes=segment_bytes
    )
    return SharedMemoryFabric(ctx, cluster)


class TestSharedMemoryPayloadPlane:
    def test_descriptor_roundtrip_between_endpoints(self):
        fabric = make_shm_fabric()
        try:
            provider = fabric.endpoint(0)
            requester = fabric.endpoint(1)
            payload = np.arange(512, dtype=np.float64).reshape(32, 16)

            packed = provider.pack_payload(payload)
            assert isinstance(packed, ShmDescriptor)
            assert packed.owner == 0 and packed.shape == (32, 16)
            # The wire carries a descriptor, not the 4 KB payload.
            assert provider.wire_bytes(packed) < 512
            assert len(provider.pool) == 1

            sent = []
            got = requester.unpack_payload(packed, lambda n, m: sent.append((n, m)))
            assert np.array_equal(got, payload)
            assert got.flags.owndata  # a private copy, safe after slot reuse

            # The requester released the slot back to the owner.
            assert sent == [(0, ("pfree", packed.offset))]
            provider.handle_free(sent[0][1])
            assert len(provider.pool) == 0
            provider.close()
            requester.close()
        finally:
            fabric.shutdown()

    def test_release_payload_frees_without_copying(self):
        fabric = make_shm_fabric()
        try:
            provider = fabric.endpoint(0)
            requester = fabric.endpoint(1)
            packed = provider.pack_payload(np.ones(256))
            sent = []
            requester.release_payload(packed, lambda n, m: sent.append((n, m)))
            assert sent == [(0, ("pfree", packed.offset))]
            provider.handle_free(sent[0][1])
            assert len(provider.pool) == 0
            # Inline payloads release as a no-op.
            requester.release_payload(np.ones(4), lambda n, m: sent.append((n, m)))
            assert len(sent) == 1
            provider.close()
            requester.close()
        finally:
            fabric.shutdown()

    def test_self_unpack_frees_directly(self):
        fabric = make_shm_fabric()
        try:
            ep = fabric.endpoint(0)
            packed = ep.pack_payload(np.ones(16))
            sent = []
            got = ep.unpack_payload(packed, lambda n, m: sent.append((n, m)))
            assert np.array_equal(got, np.ones(16))
            assert sent == []  # own segment: freed without a message
            assert len(ep.pool) == 0
            ep.close()
        finally:
            fabric.shutdown()

    def test_pool_exhaustion_falls_back_to_inline(self):
        fabric = make_shm_fabric(segment_bytes=65536)
        try:
            ep = fabric.endpoint(0)
            big = np.zeros(65536, dtype=np.uint8)  # fills the whole segment
            first = ep.pack_payload(big)
            assert isinstance(first, ShmDescriptor)
            second = ep.pack_payload(np.ones(8))
            assert isinstance(second, np.ndarray)  # inline fallback
            assert ep.wire_bytes(second) == second.nbytes
            # Inline payloads unpack as themselves, no release message.
            sent = []
            assert ep.unpack_payload(second, lambda n, m: sent.append(m)) is second
            assert sent == []
            ep.close()
        finally:
            fabric.shutdown()

    @pytest.mark.parametrize("exhausted", [False, True], ids=["segment", "inline"])
    def test_result_block_columns_round_trip_bit_identically(self, exhausted):
        fabric = make_shm_fabric(segment_bytes=65536)
        try:
            ep = fabric.endpoint(0)
            if exhausted:
                ep.pack_payload(np.zeros(65536, dtype=np.uint8))  # fills the segment
            values = [0.1, -0.0, float("inf"), 1e-310, 2.0 ** 52 + 1, float("nan")]
            pairs = [(0, 1), (0, 70000), (5, 9), (8, 3), (2, 4), (1, 6)]
            packed = ep.pack_result_block(*cols(pairs, values))
            assert isinstance(packed, ShmDescriptor) != exhausted
            i, j, got = fabric.decode_result_block(packed)
            assert (i.dtype, j.dtype, got.dtype) == (np.int32, np.int32, np.float64)
            assert list(zip(i.tolist(), j.tolist())) == pairs
            assert got.tobytes() == np.array(values).tobytes()
            ep.close()
        finally:
            fabric.shutdown()

    def test_object_dtype_ships_inline(self):
        fabric = make_shm_fabric()
        try:
            ep = fabric.endpoint(0)
            arr = np.array([{"a": 1}, None], dtype=object)
            assert ep.pack_payload(arr) is arr
            ep.close()
        finally:
            fabric.shutdown()

    def test_read_only_views_pack_fine(self):
        fabric = make_shm_fabric()
        try:
            ep = fabric.endpoint(0)
            base = np.arange(64, dtype=np.float32)
            view = base.view()
            view.setflags(write=False)  # what host_payload_view serves
            packed = ep.pack_payload(view)
            assert isinstance(packed, ShmDescriptor)
            got = ep.unpack_payload(packed, lambda n, m: None)
            assert np.array_equal(got, base)
            ep.close()
        finally:
            fabric.shutdown()

    def test_shutdown_unlinks_segments_idempotently(self):
        from multiprocessing import shared_memory

        fabric = make_shm_fabric()
        names = list(fabric.segment_names)
        fabric.shutdown()
        fabric.shutdown()  # idempotent
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


def linked_segments(fabric):
    """The fabric's segments still present in /dev/shm."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("/dev/shm not available on this platform")
    names = [*fabric.segment_names, fabric.coord_segment_name]
    return [name for name in names if os.path.exists(f"/dev/shm/{name}")]


class TestTeardownNeverRaises:
    """Teardown tolerates exactly the errors a segment or queue can raise."""

    def test_double_shutdown_of_either_fabric(self):
        queue_fabric = QueueFabric(multiprocessing.get_context("fork"), ClusterConfig(n_nodes=2))
        queue_fabric.shutdown()
        queue_fabric.shutdown()
        shm_fabric = make_shm_fabric()
        shm_fabric.endpoint(0).close()
        shm_fabric.shutdown()
        shm_fabric.shutdown()
        assert linked_segments(shm_fabric) == []

    def test_release_after_the_segment_was_unlinked_elsewhere(self):
        from multiprocessing import shared_memory

        fabric = make_shm_fabric()
        try:
            shared_memory.SharedMemory(name=fabric.segment_names[1]).unlink()
            fabric.release_node_segment(1)  # FileNotFoundError, tolerated
            fabric.release_node_segment(1)
            assert fabric.segment_names[1] not in linked_segments(fabric)
        finally:
            fabric.shutdown()
        assert linked_segments(fabric) == []

    def test_shutdown_while_a_view_into_a_segment_is_alive(self):
        fabric = make_shm_fabric()
        endpoint = fabric.endpoint(0)
        owned = fabric._owned[0]
        # Live slices keep the mappings exported: close() raises BufferError.
        node_view = endpoint._own.buf[0:8]
        coord_view = owned.buf[0:8]
        endpoint.close()
        fabric.shutdown()
        assert linked_segments(fabric) == []  # unlinked all the same
        node_view[0] = 1  # the mappings outlive the names
        coord_view[0] = 1
        del node_view, coord_view
        endpoint._own.close()
        owned.close()


# ----------------------------------------------------------------------
# Result batching


class TestResultBatcher:
    def test_full_batches_ship_immediately(self):
        out = []
        batcher = ResultBatcher(out.append, node_id=3, batch_size=4, job_id=7)
        for k in range(9):
            batcher.emit_block(*cols([(k, k + 1)], [float(k)]))
        assert len(out) == 2  # two full batches, one pair still buffered
        kind, node, job_id, block = out[0]
        assert kind == "results" and node == 3 and job_id == 7 and len(block[2]) == 4
        assert triples(block)[0] == (0, 1, 0.0)
        batcher.flush()
        assert len(out) == 3 and len(out[2][3][2]) == 1
        assert batcher.results_sent == 9 and batcher.batches_sent == 3

    def test_partial_batch_ships_only_on_request(self):
        out = []
        batcher = ResultBatcher(out.append, node_id=0, batch_size=100, job_id=0)
        batcher.emit_block(*cols([(0, 1)], [1.0]))
        assert out == []  # no timer: a partial batch waits for an event
        batcher.emit_block(*cols([(0, 2)], [2.0]))
        assert out == []
        batcher.flush()
        ((_, _, _, block),) = out
        assert triples(block) == [(0, 1, 1.0), (0, 2, 2.0)]
        assert [column.dtype for column in block] == [np.int32, np.int32, np.float64]

    def test_batch_size_one_matches_legacy_granularity(self):
        out = []
        batcher = ResultBatcher(out.append, node_id=0, batch_size=1, job_id=0)
        batcher.emit_block(*cols([(1, 2)], [0.5]))
        batcher.emit_block(*cols([(3, 4)], [0.7]))
        assert [len(b[3][2]) for b in out] == [1, 1]

    def test_flush_on_empty_buffer_sends_nothing(self):
        out = []
        batcher = ResultBatcher(out.append, node_id=0, batch_size=2, job_id=0)
        batcher.flush()
        batcher.emit_block(*cols([], []))
        batcher.flush()
        assert out == []

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            ResultBatcher(lambda m: None, node_id=0, batch_size=0, job_id=0)


# ----------------------------------------------------------------------
# Registry / config plumbing


class TestTransportRegistry:
    def test_builtin_transports_registered(self):
        ctx = multiprocessing.get_context("fork")
        for name, fabric_type in (("queue", QueueFabric), ("shm", SharedMemoryFabric)):
            fabric = create_fabric(name, ctx, ClusterConfig(n_nodes=1, transport=name))
            try:
                assert type(fabric) is fabric_type
            finally:
                fabric.shutdown()

    def test_unknown_transport_raises_with_choices(self):
        # Rejected when the config is built, long before any fabric.
        with pytest.raises(ValueError, match="unknown transport 'carrier-pigeon'") as exc:
            ClusterConfig(transport="carrier-pigeon")
        assert "available: queue, shm" in str(exc.value)

    def test_cluster_config_validates_data_plane_fields(self):
        with pytest.raises(ValueError, match="result_batch"):
            ClusterConfig(result_batch=0)
        with pytest.raises(ValueError, match="shm_segment_bytes"):
            ClusterConfig(shm_segment_bytes=1024)

    def test_queue_fabric_endpoint_roundtrip(self):
        ctx = multiprocessing.get_context("fork")
        fabric = QueueFabric(ctx, ClusterConfig(n_nodes=2))
        try:
            ep = fabric.endpoint(1)
            fabric.send_node(1, ("stop", False))
            assert ep.recv(timeout=2.0) == ("stop", False)
            ep.send_coordinator(("error", 1, "x"))
            assert fabric.recv_coordinator(timeout=2.0) == ("error", 1, "x")
            assert fabric.recv_coordinator(timeout=0.01) is None
        finally:
            fabric.shutdown()

    def test_a_sender_stuck_holding_its_write_lock_silences_only_itself(self):
        # What a node SIGKILLed mid-send leaves behind: its queue's
        # cross-process write lock, held forever.
        fabric = QueueFabric(multiprocessing.get_context("fork"), ClusterConfig(n_nodes=3))
        try:
            stuck = fabric.inboxes[1]._queues[0]._wlock  # node 0 -> node 1
            stuck.acquire()
            fabric.endpoint(0).send_node(1, ("from", 0))
            fabric.endpoint(2).send_node(1, ("from", 2))
            fabric.send_node(1, ("from", "coordinator"))
            receiver = fabric.endpoint(1)
            got = {receiver.recv(timeout=5.0), receiver.recv(timeout=5.0)}
            assert got == {("from", 2), ("from", "coordinator")}
            assert receiver.recv(timeout=0.1) is None
            stuck.release()
            assert receiver.recv(timeout=5.0) == ("from", 0)
        finally:
            fabric.shutdown()
