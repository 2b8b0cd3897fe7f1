"""The transport abstraction of the cluster data plane.

The multi-process runtime separates *what* the protocols say (the
mediator/steal/result messages handled by
:class:`~repro.runtime.cluster.NodeCommServer`) from *how bytes move
between processes*.  The latter is this module's job, split into two
interfaces so the wire format is swappable and benchmarkable (the
pluggable-runner pattern of pipeline frameworks):

- :class:`TransportFabric` — the coordinator-side object.  It owns the
  shared communication resources (queues, shared-memory segments), is
  created before the worker processes fork/spawn, hands each worker its
  endpoint via :meth:`TransportFabric.endpoint`, and tears everything
  down — including unlinking shared segments after a node crash — in
  :meth:`TransportFabric.shutdown`;

- :class:`Transport` — one node's endpoint: point-to-point messaging
  (``send_node`` / ``send_coordinator`` / ``recv``) plus the *payload
  plane* hooks (``pack_payload`` / ``unpack_payload`` / ``wire_bytes``)
  that decide whether a cache payload travels inline (pickled through
  the message, the queue transport) or out-of-band (a shared-memory
  descriptor, the zero-copy transport).

The base class implements the inline payload plane, so a transport
that only cares about messaging (tests, the queue transport) overrides
nothing else.  The two concrete fabrics are picked by name —
``ClusterConfig(transport="shm")``, ``run --transport shm`` — through
:func:`repro.runtime.transport.create_fabric`.

:class:`ResultBatcher` lives here too: it turns the per-job
``emit_block`` stream of :class:`~repro.runtime.pernode.NodePipeline`
into flushed ``("results", node, block)`` messages, dropping
coordinator traffic from O(pairs) to O(pairs / batch) on any transport.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

__all__ = [
    "CHANNEL_ERRORS",
    "Transport",
    "TransportFabric",
    "ResultBatcher",
]


#: What a send into a torn-down channel raises: ``ValueError`` from a
#: closed ``multiprocessing`` queue, ``OSError`` from a broken pipe.
#: Best-effort senders (stop and shutdown notices, last-resort error
#: reports) tolerate exactly these.
CHANNEL_ERRORS = (OSError, ValueError)


class Transport(ABC):
    """One node's endpoint of the cluster data plane.

    Messaging is abstract; the payload plane defaults to *inline*
    shipping (the payload array rides in the message and is pickled by
    whatever carries the message).  Zero-copy transports override the
    three payload hooks and :meth:`handle_free`.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    # -- messaging -------------------------------------------------------

    @abstractmethod
    def send_node(self, node: int, msg: Tuple) -> None:
        """Deliver ``msg`` to node ``node``'s inbox."""

    @abstractmethod
    def send_coordinator(self, msg: Tuple) -> None:
        """Deliver ``msg`` to the coordinator."""

    @abstractmethod
    def recv(self, timeout: Optional[float]) -> Optional[Tuple]:
        """Next message for this node, or None after ``timeout`` seconds
        (``None``: wait for one)."""

    # -- payload plane ---------------------------------------------------

    def pack_payload(self, arr: np.ndarray) -> Any:
        """Prepare a cache payload for shipping inside a message.

        Returns either the array itself (inline) or a small descriptor
        whose bytes live out-of-band; the result must be picklable.
        """
        return arr

    def unpack_payload(
        self, packed: Any, send_node: Callable[[int, Tuple], None]
    ) -> Optional[np.ndarray]:
        """Materialise a packed payload on the receiving node.

        ``send_node`` lets descriptor transports send their release
        message through the caller (so protocol accounting sees it).
        """
        return packed

    def release_payload(
        self, packed: Any, send_node: Callable[[int, Tuple], None]
    ) -> None:
        """Discard a packed payload without materialising it.

        Used for replies that arrive after the requester gave up: a
        descriptor transport frees the out-of-band slot (no payload
        copy); inline payloads need nothing.
        """

    def wire_bytes(self, packed: Any) -> int:
        """Bytes this packed payload puts on the message wire."""
        if isinstance(packed, np.ndarray):
            return int(packed.nbytes)
        return 0

    def handle_free(self, msg: Tuple) -> None:
        """Process a payload-slot release message (descriptor transports)."""

    # -- result / dispatch planes ------------------------------------------

    def pack_result_block(self, i: np.ndarray, j: np.ndarray, values: np.ndarray) -> Any:
        """Prepare one result block for the ``("results", ...)`` message.

        Default: the int32 index columns and the float64 value column
        travel inline (three buffers in the pickle).  Zero-copy
        transports may return a descriptor whose bytes live in a shared
        segment; the coordinator materialises it through
        :meth:`TransportFabric.decode_result_block`.
        """
        return i, j, values

    def unpack_job_payload(self, packed: Any) -> Any:
        """Materialise a job spec packed by
        :meth:`TransportFabric.pack_job_payload` (identity by default).
        """
        return packed

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release endpoint-local resources (called at node shutdown)."""


class TransportFabric(ABC):
    """Coordinator-side owner of one run's communication resources.

    Created in the coordinator *before* the worker processes start so
    every shared resource (queue, segment) has a single owner that can
    clean up deterministically — even when workers crash.
    """

    @abstractmethod
    def endpoint(self, node_id: int) -> Transport:
        """Build node ``node_id``'s endpoint (called inside the worker)."""

    @abstractmethod
    def send_node(self, node: int, msg: Tuple) -> None:
        """Coordinator-to-node message (steal probes, grants, stop).

        Raises when delivery fails so messages carrying state (steal
        grants) are never dropped silently; best-effort callers catch
        :data:`CHANNEL_ERRORS`.
        """

    @abstractmethod
    def recv_coordinator(self, timeout: float) -> Optional[Tuple]:
        """Next node-to-coordinator message, or None after ``timeout``."""

    @abstractmethod
    def wake_coordinator(self) -> None:
        """End a pending :meth:`recv_coordinator` wait now.

        Posts a no-op ``("wake",)`` message to the coordinator inbox
        (callable from any coordinator-process thread), so the driver
        acts on a submit, cancel, close or membership change at once
        instead of at its next poll timeout.
        """

    @abstractmethod
    def shutdown(self) -> None:
        """Tear down all shared resources (idempotent; crash-safe)."""

    # -- result / dispatch planes ------------------------------------------

    def pack_job_payload(self, spec: Any) -> Any:
        """Prepare one node's job hand-out ``(keys, accepted, blocks)``.

        ``accepted`` is the job's :class:`~repro.core.workload.PairSet`
        (None: every pair of the blocks) — index codes, never code.

        Default: the spec rides inline in the ``("job", ...)`` message.
        Zero-copy fabrics may pickle it into a coordinator-owned shared
        segment and return a descriptor; the node materialises it with
        :meth:`Transport.unpack_job_payload` and releases the slot with
        a ``("pfree", offset)`` message routed back here through
        :meth:`handle_free`.
        """
        return spec

    def decode_result_block(self, block: Any) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialise a result block packed by :meth:`Transport.pack_result_block`
        as its ``(i, j, values)`` columns (identity by default).
        """
        return block

    def handle_free(self, msg: Tuple) -> None:
        """Release a coordinator-owned payload slot (descriptor fabrics)."""

    def release_node_segment(self, node: int) -> None:
        """Unlink shared resources reserved for ``node`` (idempotent).

        Called when a node leaves the cluster — crash, retirement —
        so its out-of-band buffers (e.g. ``/dev/shm`` segments) are
        reclaimed immediately instead of at session close.  Queue-style
        fabrics hold nothing per-node out of band and keep the no-op.
        """


# ----------------------------------------------------------------------
# Result batching


class ResultBatcher:
    """Coalesce pair results into flushed ``("results", ...)`` blocks.

    ``emit_block`` is called from the pipeline's job threads, once per
    finished kernel launch with its ``(i, j, values)`` columns, and
    ships from the emitting thread when the batch is full (whole — a
    shipped block may exceed ``batch_size`` by up to one launch).  The
    node calls :meth:`flush` once a launch leaves it with nothing queued
    and nothing in flight, before it asks for remote work and at job
    end, so a result is never held while its node waits: a partial
    batch leaves on an event, not on a timer.  A shipped block is three
    columns — int32 ``i``, int32 ``j``, float64 values — never one
    Python object per pair.  ``batch_size=1`` reproduces the old
    one-message-per-pair behaviour exactly.
    """

    def __init__(
        self,
        send: Callable[[Tuple], None],
        node_id: int,
        batch_size: int,
        *,
        job_id: int,
        pack: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], Any]] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._send = send
        #: Optional transport hook (``Transport.pack_result_block``):
        #: lets a zero-copy transport ship the block as a shared-memory
        #: descriptor instead of pickling its columns through the pipe.
        self._pack = pack
        self.node_id = node_id
        #: Batches go out as ``("results", node, job_id, block)`` so a
        #: coordinator serving several concurrent jobs can route them.
        self.job_id = job_id
        self.batch_size = batch_size
        self._lock = threading.Lock()
        #: Buffered launches' ``(i, j, values)`` columns, and their pairs.
        self._buf: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pending = 0
        self.batches_sent = 0
        self.results_sent = 0

    def emit_block(self, i: np.ndarray, j: np.ndarray, values: np.ndarray) -> None:
        """Queue one finished launch under one lock; ships when full."""
        with self._lock:
            self._buf.append((i, j, values))
            self._pending += len(values)
            full = self._pending >= self.batch_size
            block = self._take_locked() if full else None
        if block is not None:
            self._ship(block)

    def flush(self) -> None:
        """Ship whatever is buffered (before a steal request, at job end)."""
        with self._lock:
            block = self._take_locked()
        if block is not None:
            self._ship(block)

    def _take_locked(self) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The buffered launches as one block of columns (None: nothing buffered)."""
        if not self._pending:
            return None
        parts, self._buf, self._pending = self._buf, [], 0
        return tuple(np.concatenate(column) for column in zip(*parts))

    def _ship(self, block: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        self.batches_sent += 1
        self.results_sent += len(block[2])
        payload: Any = block if self._pack is None else self._pack(*block)
        self._send(("results", self.node_id, self.job_id, payload))
