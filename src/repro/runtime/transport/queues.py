"""The baseline transport: everything rides in ``multiprocessing`` queues.

Every receiver (each node, and the coordinator) has one inbox, made of
one queue per sender (pipes underneath) and read as one.  Payload
arrays travel *inline*: the provider puts the NumPy array straight into
the reply message and the queue's feeder thread pickles the whole thing
through the pipe — simple, portable, and exactly what PR 1 shipped.
The zero-copy shared-memory transport
(:mod:`repro.runtime.transport.shm`) reuses this messaging layer and
replaces only the payload plane.
"""

from __future__ import annotations

import selectors
from typing import Optional, Sequence, Tuple

from repro.runtime.transport.base import CHANNEL_ERRORS, Transport, TransportFabric

__all__ = ["QueueTransport", "QueueFabric"]


class _Inbox:
    """One receiver's inbox: a queue per sender, read as one.

    A ``multiprocessing`` queue serialises its writers with a lock
    shared between processes, and a writer SIGKILLed while it holds that
    lock wedges the queue for every other writer: one dead node would
    silence a peer, or the whole coordinator.  With a queue per sender a
    dead sender can only wedge its own channel.  Per-sender order is
    FIFO; nothing in the protocols orders messages of different senders.
    """

    def __init__(self, ctx, n_senders: int) -> None:
        self._queues = [ctx.Queue() for _ in range(n_senders)]
        self._turn = 0
        #: Watches the queues' read ends; built by the reading process.
        self._selector: Optional[selectors.BaseSelector] = None

    def __getstate__(self):
        # A selector belongs to the process that reads (spawn pickles
        # the fabric into every node process).
        return {**self.__dict__, "_selector": None}

    def put(self, sender: int, msg: Tuple) -> None:
        self._queues[sender].put(msg)

    def get(self, timeout: Optional[float]) -> Optional[Tuple]:
        """The next message from any sender; None after ``timeout`` (None: wait)."""
        if self._selector is None:
            self._selector = selectors.DefaultSelector()
            for idx, q in enumerate(self._queues):
                # ``_reader`` is the queue's pipe end, the one thing a
                # selector can watch.
                self._selector.register(q._reader, selectors.EVENT_READ, idx)
        ready = [key.data for key, _ in self._selector.select(timeout)]
        if not ready:
            return None
        # Start one sender further on each call, so a busy sender cannot
        # starve the others.  This process is each queue's only reader:
        # a ready queue has a message under way, and ``get()`` waits for
        # nothing but its remaining bytes.
        n = len(self._queues)
        self._turn = (self._turn + 1) % n
        idx = min(ready, key=lambda i: (i - self._turn) % n)
        return self._queues[idx].get()

    def close(self) -> None:
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        for q in self._queues:
            try:
                q.cancel_join_thread()
                q.close()
            except CHANNEL_ERRORS:
                pass


class QueueTransport(Transport):
    """Point-to-point messaging over per-node inboxes.

    Inherits the inline payload plane from :class:`Transport`:
    ``pack_payload`` is the identity and ``wire_bytes`` is the array
    size.
    """

    def __init__(self, node_id: int, inboxes: Sequence[_Inbox], coordinator: _Inbox) -> None:
        super().__init__(node_id)
        self._inboxes = list(inboxes)
        self._coordinator = coordinator

    def send_node(self, node: int, msg: Tuple) -> None:
        self._inboxes[node].put(self.node_id, msg)

    def send_coordinator(self, msg: Tuple) -> None:
        self._coordinator.put(self.node_id, msg)

    def recv(self, timeout: Optional[float]) -> Optional[Tuple]:
        return self._inboxes[self.node_id].get(timeout)


class QueueFabric(TransportFabric):
    """Owns the per-node inboxes and the coordinator inbox of one run."""

    name = "queue"

    def __init__(self, ctx, cluster) -> None:
        self.n_nodes = cluster.n_nodes
        # One inbox per *slot*, not per initial node: mp queues cannot
        # be created after the workers fork, so a session pre-allocates
        # the inboxes that later add_node() calls use.  Senders are the
        # node slots plus the coordinator, which sends as index
        # ``capacity``.
        capacity = getattr(cluster, "capacity", cluster.n_nodes)
        self._sender = capacity
        self.inboxes = [_Inbox(ctx, capacity + 1) for _ in range(capacity)]
        self.coordinator = _Inbox(ctx, capacity + 1)

    def endpoint(self, node_id: int) -> QueueTransport:
        return QueueTransport(node_id, self.inboxes, self.coordinator)

    def send_node(self, node: int, msg: Tuple) -> None:
        # Raises if the queue is broken: a lost steal grant would
        # otherwise strand its block silently (best-effort callers like
        # the stop broadcast catch per-node failures themselves).
        self.inboxes[node].put(self._sender, msg)

    def recv_coordinator(self, timeout: float) -> Optional[Tuple]:
        return self.coordinator.get(timeout)

    def wake_coordinator(self) -> None:
        self.coordinator.put(self._sender, ("wake",))

    def shutdown(self) -> None:
        for inbox in [*self.inboxes, self.coordinator]:
            inbox.close()
