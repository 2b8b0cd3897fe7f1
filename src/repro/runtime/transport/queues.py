"""The baseline transport: everything rides in ``multiprocessing`` queues.

One inbox queue per node plus one coordinator queue (pipes
underneath).  Payload arrays travel *inline*: the provider puts the
NumPy array straight into the reply message and the queue's feeder
thread pickles the whole thing through the pipe — simple, portable,
and exactly what PR 1 shipped.  The zero-copy shared-memory transport
(:mod:`repro.runtime.transport.shm`) reuses this messaging layer and
replaces only the payload plane.
"""

from __future__ import annotations

import queue
from typing import Any, Optional, Sequence, Tuple

from repro.runtime.transport.base import Transport, TransportFabric

__all__ = ["QueueTransport", "QueueFabric"]


class QueueTransport(Transport):
    """Point-to-point messaging over per-node inbox queues.

    Works with ``multiprocessing`` queues in the real runtime and with
    any object exposing ``put`` / ``get(timeout=)`` in tests.  Inherits
    the inline payload plane from :class:`Transport`: ``pack_payload``
    is the identity and ``wire_bytes`` is the array size.
    """

    def __init__(self, node_id: int, inboxes: Sequence[Any], coordinator: Any) -> None:
        super().__init__(node_id)
        self._inboxes = list(inboxes)
        self._coordinator = coordinator

    def send_node(self, node: int, msg: Tuple) -> None:
        self._inboxes[node].put(msg)

    def send_coordinator(self, msg: Tuple) -> None:
        self._coordinator.put(msg)

    def recv(self, timeout: float) -> Optional[Tuple]:
        try:
            return self._inboxes[self.node_id].get(timeout=timeout)
        except queue.Empty:
            return None


class QueueFabric(TransportFabric):
    """Owns the per-node inboxes and the coordinator queue of one run."""

    name = "queue"

    def __init__(self, ctx, cluster) -> None:
        self.n_nodes = cluster.n_nodes
        # One inbox per *slot*, not per initial node: mp queues cannot
        # be created after the workers fork, so a session pre-allocates
        # the inboxes that later add_node() calls use.
        capacity = getattr(cluster, "capacity", cluster.n_nodes)
        self.inboxes = [ctx.Queue() for _ in range(capacity)]
        self.coordinator = ctx.Queue()

    def endpoint(self, node_id: int) -> QueueTransport:
        return QueueTransport(node_id, self.inboxes, self.coordinator)

    def send_node(self, node: int, msg: Tuple) -> None:
        # Raises if the queue is broken: a lost steal grant would
        # otherwise strand its block silently (best-effort callers like
        # the stop broadcast catch per-node failures themselves).
        self.inboxes[node].put(msg)

    def recv_coordinator(self, timeout: float) -> Optional[Tuple]:
        try:
            return self.coordinator.get(timeout=timeout)
        except queue.Empty:
            return None

    def shutdown(self) -> None:
        for q in [*self.inboxes, self.coordinator]:
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:
                pass
