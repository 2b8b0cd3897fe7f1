"""Zero-copy payload plane over ``multiprocessing.shared_memory``.

With the queue transport, every remote cache hit pickles the full
pre-processed NumPy array through a pipe: provider copy → pickle →
pipe write → pipe read → unpickle.  Here the payload plane is replaced
by shared segments:

- the coordinator creates one fixed-size segment *per node* before the
  workers start (so the parent owns every name and can unlink them all
  at teardown, even after a node crash — no leaked ``/dev/shm``
  entries);
- a provider serving a remote fetch allocates a slot from the
  :class:`~repro.core.buffers.BufferPool` over *its own* segment,
  writes the payload with one memcpy, and ships a tiny
  :class:`ShmDescriptor` ``(segment, offset, shape, dtype)`` instead of
  the array — the message wire carries ~100 bytes regardless of
  payload size;
- the requester maps the provider's segment (attached once, cached),
  copies the payload out, and returns the slot with a ``("pfree", ...)``
  message to the owner.  A reply that lands after the requester timed
  out is freed the same way, so abandoned slots only live until the
  next drain.

When a pool is exhausted the provider falls back to inline shipping
(the queue behaviour), trading bytes for progress — allocation failure
is never an error.  Segment ownership stays with the coordinator
throughout; Python's ``resource_tracker`` (shared by all workers)
remains a last-resort safety net if the coordinator itself is killed.
"""

from __future__ import annotations

import pickle
import uuid
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.buffers import BufferPool
from repro.runtime.transport.base import CHANNEL_ERRORS, Transport
from repro.runtime.transport.queues import QueueFabric, QueueTransport

__all__ = ["ShmDescriptor", "SharedMemoryTransport", "SharedMemoryFabric"]

#: What closing or unlinking a segment raises at teardown, tolerated so
#: one stubborn segment cannot keep the others mapped or linked:
#: ``BufferError`` from ``close()`` while a view into the segment is
#: still alive, ``FileNotFoundError`` from ``unlink()`` once the name is
#: gone from ``/dev/shm``.
_SEGMENT_TEARDOWN_ERRORS = (OSError, BufferError)


@dataclass(frozen=True)
class ShmDescriptor:
    """Out-of-band payload handle: where the bytes live, not the bytes.

    ``owner`` is the node whose segment (and pool slot) holds the
    payload; the receiver's release message goes back to it.
    """

    owner: int
    segment: str
    offset: int
    nbytes: int
    dtype: str
    shape: Tuple[int, ...]


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership.

    On 3.9-3.12 attaching re-registers the segment with the
    ``resource_tracker`` (bpo-39959), but workers share the
    coordinator's tracker process (inherited under ``fork``, passed via
    ``--tracker-fd`` under ``spawn``), so the re-registration is a
    set-add no-op and the coordinator's unlink unregisters exactly
    once.  Unregistering here would *remove* the coordinator's own
    registration and break the tracker's crash safety net, so we
    deliberately leave tracking alone.
    """
    return shared_memory.SharedMemory(name=name)


def _close_and_unlink(seg: shared_memory.SharedMemory) -> None:
    """Unmap and unlink an owned segment; the unlink runs even if the unmap fails."""
    try:
        seg.close()
    except _SEGMENT_TEARDOWN_ERRORS:
        pass
    try:
        seg.unlink()
    except _SEGMENT_TEARDOWN_ERRORS:
        pass


class SharedMemoryTransport(QueueTransport):
    """Queue messaging + shared-memory payload plane for one node."""

    def __init__(
        self,
        node_id: int,
        inboxes,
        coordinator,
        segment_names: List[str],
        segment_bytes: int,
    ) -> None:
        super().__init__(node_id, inboxes, coordinator)
        self._segment_names = list(segment_names)
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._own = self._attach_segment(self._segment_names[node_id])
        self.pool = BufferPool(segment_bytes)

    def _attach_segment(self, name: str) -> shared_memory.SharedMemory:
        seg = self._segments.get(name)
        if seg is None:
            seg = self._segments[name] = _attach(name)
        return seg

    # -- payload plane ---------------------------------------------------

    def pack_payload(self, arr: np.ndarray) -> Any:
        """Write ``arr`` into this node's segment; descriptor or fallback."""
        if arr.dtype.hasobject:
            return arr  # not byte-addressable; ship inline
        src = np.ascontiguousarray(arr)
        offset = self.pool.alloc(src.nbytes)
        if offset is None:
            return arr  # pool exhausted; ship inline
        dst = np.ndarray(src.shape, dtype=src.dtype, buffer=self._own.buf, offset=offset)
        dst[...] = src
        return ShmDescriptor(
            owner=self.node_id,
            segment=self._own.name,
            offset=offset,
            nbytes=int(src.nbytes),
            dtype=src.dtype.str,
            shape=tuple(src.shape),
        )

    def unpack_payload(
        self, packed: Any, send_node: Callable[[int, Tuple], None]
    ) -> Optional[np.ndarray]:
        """Copy the payload out of the owner's segment and release the slot."""
        if not isinstance(packed, ShmDescriptor):
            return packed
        try:
            seg = self._attach_segment(packed.segment)
        except FileNotFoundError:
            # The owner's segment was unlinked (the node left the
            # cluster between its reply and our read): a clean miss —
            # the caller falls back to a local load.
            return None
        view = np.ndarray(
            packed.shape,
            dtype=np.dtype(packed.dtype),
            buffer=seg.buf,
            offset=packed.offset,
        )
        arr = view.copy()
        self.release_payload(packed, send_node)
        return arr

    def release_payload(
        self, packed: Any, send_node: Callable[[int, Tuple], None]
    ) -> None:
        """Return a descriptor's slot to its owner without copying."""
        if not isinstance(packed, ShmDescriptor):
            return
        if packed.owner == self.node_id:
            self.pool.free(packed.offset)
        else:
            send_node(packed.owner, ("pfree", packed.offset))

    def wire_bytes(self, packed: Any) -> int:
        if isinstance(packed, ShmDescriptor):
            return len(pickle.dumps(packed, protocol=pickle.HIGHEST_PROTOCOL))
        return super().wire_bytes(packed)

    def handle_free(self, msg: Tuple) -> None:
        """A receiver finished copying: return the slot to our pool."""
        _, offset = msg
        try:
            self.pool.free(offset)
        except ValueError:
            pass  # duplicate/late release after a drain; slot already reclaimed

    # -- result / dispatch planes ------------------------------------------

    def pack_result_block(self, i: np.ndarray, j: np.ndarray, values: np.ndarray) -> Any:
        """Ship a result block as one ``(n, 3)`` float64 segment write.

        Pair indices are exact in float64 (they are far below 2**53)
        and the float64 values round-trip bit-identically, so the
        coordinator reconstructs the same columns.  When the pool is
        exhausted ``pack_payload`` returns the array itself, which
        travels inline and decodes the same way.
        """
        return self.pack_payload(np.column_stack((i, j, values)))

    def unpack_job_payload(self, packed: Any) -> Any:
        """Unpickle a job spec from the coordinator's segment.

        The slot is released with a ``("pfree", offset)`` message to
        the coordinator (descriptor owner ``-1``), mirroring the
        node-to-node payload release path.
        """
        if not isinstance(packed, ShmDescriptor):
            return packed
        seg = self._attach_segment(packed.segment)
        blob = bytes(seg.buf[packed.offset : packed.offset + packed.nbytes])
        self.send_coordinator(("pfree", packed.offset))
        return pickle.loads(blob)

    def close(self) -> None:
        """Unmap attached segments (never unlinks; the coordinator owns them)."""
        for seg in self._segments.values():
            try:
                seg.close()
            except _SEGMENT_TEARDOWN_ERRORS:
                pass
        self._segments.clear()


class SharedMemoryFabric(QueueFabric):
    """Queue fabric plus one owned shared segment per node.

    Segments are created (and named) by the coordinator before the
    workers start and unlinked unconditionally in :meth:`shutdown`,
    which runs in the coordinator's ``finally`` — the crash of any
    worker therefore cannot leak ``/dev/shm`` entries.
    """

    name = "shm"
    #: ``/dev/shm`` name prefix of every segment this transport creates.
    SEGMENT_PREFIX = "rocketshm"

    def __init__(self, ctx, cluster) -> None:
        super().__init__(ctx, cluster)
        self.segment_bytes = cluster.shm_segment_bytes
        token = uuid.uuid4().hex[:8]
        self._owned: List[shared_memory.SharedMemory] = []
        self._seg_by_name: Dict[str, shared_memory.SharedMemory] = {}
        self.segment_names: List[str] = []
        try:
            # One segment per *slot* (see QueueFabric: sessions
            # pre-allocate room for nodes joining later).
            for i in range(getattr(cluster, "capacity", cluster.n_nodes)):
                seg = shared_memory.SharedMemory(
                    name=f"{self.SEGMENT_PREFIX}_{token}_n{i}",
                    create=True,
                    size=self.segment_bytes,
                )
                self._owned.append(seg)
                self._seg_by_name[seg.name] = seg
                self.segment_names.append(seg.name)
            # One extra coordinator-owned segment carries job dispatch
            # payloads (keys, filter, blocks) the other way: nodes read
            # the pickled spec out and release the slot with a pfree.
            coord = shared_memory.SharedMemory(
                name=f"{self.SEGMENT_PREFIX}_{token}_coord",
                create=True,
                size=self.segment_bytes,
            )
            self._owned.append(coord)
            self._seg_by_name[coord.name] = coord
            self.coord_segment_name = coord.name
            self._coord_pool: Optional[BufferPool] = BufferPool(self.segment_bytes)
        except BaseException:
            self.shutdown()
            raise

    def endpoint(self, node_id: int) -> SharedMemoryTransport:
        return SharedMemoryTransport(
            node_id, self.inboxes, self.coordinator, self.segment_names, self.segment_bytes
        )

    # -- result / dispatch planes ------------------------------------------

    def _owned_segment(self, name: str) -> Optional[shared_memory.SharedMemory]:
        return self._seg_by_name.get(name)

    def pack_job_payload(self, spec: Any) -> Any:
        """Pickle one node's job spec into the coordinator segment."""
        pool = self._coord_pool
        coord = self._seg_by_name.get(getattr(self, "coord_segment_name", ""))
        if pool is None or coord is None:
            return spec
        blob = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        offset = pool.alloc(len(blob))
        if offset is None:
            return spec  # pool exhausted; ship inline
        coord.buf[offset : offset + len(blob)] = blob
        return ShmDescriptor(
            owner=-1,  # the coordinator, not a node
            segment=coord.name,
            offset=offset,
            nbytes=len(blob),
            dtype="|u1",
            shape=(len(blob),),
        )

    def decode_result_block(self, block: Any) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialise a result block shipped through a node's segment."""
        if isinstance(block, ShmDescriptor):
            seg = self._owned_segment(block.segment)
            if seg is None:
                # The owning node's segment was already released (it
                # left the cluster); the straggler block's pairs are
                # recovered through re-injection, so drop it.
                block = np.empty((0, 3), dtype=np.float64)
            else:
                view = np.ndarray(
                    block.shape, dtype=np.dtype(block.dtype), buffer=seg.buf, offset=block.offset
                )
                rows = view.copy()
                try:
                    self.send_node(block.owner, ("pfree", block.offset))
                except CHANNEL_ERRORS:
                    pass  # fabric shutting down; the node's pool dies with it
                block = rows
        return (
            block[:, 0].astype(np.int32),
            block[:, 1].astype(np.int32),
            np.ascontiguousarray(block[:, 2]),
        )

    def handle_free(self, msg: Tuple) -> None:
        """A node finished reading a job payload: reclaim the slot."""
        _, offset = msg
        pool = self._coord_pool
        if pool is None:
            return
        try:
            pool.free(offset)
        except ValueError:
            pass  # duplicate/late release; slot already reclaimed

    def release_node_segment(self, node: int) -> None:
        """Unlink a departed node's segment now, not at session close.

        A SIGKILLed worker never unmaps anything itself; dropping the
        coordinator's handle here removes the ``/dev/shm`` entry as
        soon as the death is handled.  Survivors holding descriptors
        into the segment see a clean miss (``unpack_payload`` treats
        the vanished name as payload-gone).  Idempotent.
        """
        if not 0 <= node < len(self.segment_names):
            return
        seg = self._seg_by_name.pop(self.segment_names[node], None)
        if seg is None:
            return  # already released
        try:
            self._owned.remove(seg)
        except ValueError:
            pass
        _close_and_unlink(seg)

    def shutdown(self) -> None:
        super().shutdown()
        owned, self._owned = self._owned, []
        self._seg_by_name = {}
        self._coord_pool = None
        for seg in owned:
            _close_and_unlink(seg)

    # Worker processes receive the fabric through ``Process`` args; under
    # ``spawn`` that pickles it, and owned handles must stay with the
    # coordinator (workers re-attach by name).
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_owned"] = []
        state["_seg_by_name"] = {}
        state["_coord_pool"] = None
        return state
