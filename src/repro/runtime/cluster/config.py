"""``ClusterConfig`` and the message-tag table of the cluster protocol."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.runtime.transport import FABRICS

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of the multi-process runtime."""

    n_nodes: int = 2
    #: Enable the third (distributed) cache level.
    distributed_cache: bool = True
    #: ``h`` — candidate-chain length a request may be forwarded along.
    max_hops: int = 2
    #: How long a worker waits for a distributed-cache reply before
    #: falling through to a local load.
    fetch_timeout: float = 30.0
    #: How long a worker waits for a global-steal grant before retrying.
    steal_timeout: float = 10.0
    #: How long the coordinator waits on an idle inbox before it checks
    #: the node processes for death and the jobs for their watchdog.
    #: It bounds nothing else: submit, cancel, close, membership changes
    #: and every node message wake the coordinator at once, and nodes
    #: ship results on events, not on a timer.
    poll_interval: float = 0.05
    #: ``multiprocessing`` start method; ``fork`` shares the app/store
    #: objects with the children, ``spawn`` requires them picklable.
    start_method: str = "fork"
    #: Data-plane implementation (see :mod:`repro.runtime.transport`):
    #: ``"queue"`` pickles payloads inline, ``"shm"`` ships shared-memory
    #: descriptors.
    transport: str = "queue"
    #: Pair results per ``("results", ...)`` coordinator message;
    #: 1 reproduces the old one-message-per-pair behaviour.
    result_batch: int = 64
    #: Per-node shared-segment size for the ``"shm"`` transport.  The
    #: segment is sparse until written, so generous defaults cost
    #: nothing on Linux.
    shm_segment_bytes: int = 32 * 1024 * 1024
    #: Heterogeneous node mixes: per-node device speed-factor tuples
    #: (outer length ``n_nodes``, inner length the RocketConfig's
    #: ``n_devices``), overriding the shared RocketConfig's
    #: ``device_speed_factors`` on each node.  ``None`` — every node
    #: runs the RocketConfig as given.
    node_speed_factors: Optional[Tuple[Tuple[float, ...], ...]] = None
    #: Upper bound on node slots ever used (initial nodes plus every
    #: ``ClusterSession.add_node()``).  The transport fabric
    #: pre-allocates this many inboxes/segments, since
    #: ``multiprocessing`` queues cannot be created after the workers
    #: fork.  ``None`` — ``n_nodes + 4``.
    max_nodes: Optional[int] = None

    @property
    def capacity(self) -> int:
        """Resolved node-slot capacity of the transport fabric."""
        return self.max_nodes if self.max_nodes is not None else self.n_nodes + 4

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.max_nodes is not None and self.max_nodes < self.n_nodes:
            raise ValueError(
                f"max_nodes must be >= n_nodes, got {self.max_nodes} < {self.n_nodes}"
            )
        if self.max_hops < 1:
            raise ValueError(f"max_hops (h) must be >= 1, got {self.max_hops}")
        if self.fetch_timeout <= 0 or self.steal_timeout <= 0 or self.poll_interval <= 0:
            raise ValueError("timeouts must be positive")
        if self.transport not in FABRICS:
            raise ValueError(
                f"unknown transport {self.transport!r}; available: {', '.join(FABRICS)}"
            )
        if self.result_batch < 1:
            raise ValueError(f"result_batch must be >= 1, got {self.result_batch}")
        if self.shm_segment_bytes < 65536:
            raise ValueError(
                f"shm_segment_bytes must be >= 65536, got {self.shm_segment_bytes}"
            )
        if self.node_speed_factors is not None:
            if len(self.node_speed_factors) != self.n_nodes:
                raise ValueError(
                    f"{len(self.node_speed_factors)} speed-factor tuples for "
                    f"{self.n_nodes} nodes"
                )
            for node, speeds in enumerate(self.node_speed_factors):
                if not speeds or any(not 0 < s <= 1.0 for s in speeds):
                    raise ValueError(
                        f"node {node} speed factors must be in (0, 1], got {speeds}"
                    )


#: Message tag -> stats category (:data:`MESSAGE_KINDS`).  ``fetch``
#: covers the distributed cache (including shm slot releases), ``grant``
#: the global-steal protocol, ``result`` the batched result blocks;
#: every other tag (stop/error/stats/job/epoch lifecycle) is ``control``.
_KIND_OF = {
    "creq": "fetch",
    "cprobe": "fetch",
    "crep": "fetch",
    "pfree": "fetch",
    "sreq": "grant",
    "sprobe": "grant",
    "srep": "grant",
    "sgrant": "grant",
    "results": "result",
}
