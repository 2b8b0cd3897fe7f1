"""The data plane of the multi-process cluster runtime.

- :mod:`repro.runtime.transport.base` — the :class:`Transport` /
  :class:`TransportFabric` interfaces and the :class:`ResultBatcher`
  that coalesces per-pair result messages;
- :mod:`repro.runtime.transport.queues` — the baseline transport:
  inline payloads pickled through ``multiprocessing`` queues;
- :mod:`repro.runtime.transport.shm` — the zero-copy transport:
  payloads in coordinator-owned ``multiprocessing.shared_memory``
  segments carved by a :class:`~repro.core.buffers.BufferPool`, with
  only ``(segment, offset, shape, dtype)`` descriptors on the wire.

Select with ``ClusterConfig(transport="queue"|"shm")``; the names map to
their fabrics in :data:`FABRICS`.
"""

from repro.runtime.transport.base import (
    CHANNEL_ERRORS,
    ResultBatcher,
    Transport,
    TransportFabric,
)
from repro.runtime.transport.queues import QueueFabric, QueueTransport
from repro.runtime.transport.shm import (
    SharedMemoryFabric,
    SharedMemoryTransport,
    ShmDescriptor,
)

__all__ = [
    "CHANNEL_ERRORS",
    "Transport",
    "TransportFabric",
    "ResultBatcher",
    "QueueTransport",
    "QueueFabric",
    "SharedMemoryTransport",
    "SharedMemoryFabric",
    "ShmDescriptor",
    "FABRICS",
    "create_fabric",
]

#: Transport name -> fabric class (``ClusterConfig.transport`` values).
FABRICS = {QueueFabric.name: QueueFabric, SharedMemoryFabric.name: SharedMemoryFabric}


def create_fabric(name: str, ctx, cluster) -> TransportFabric:
    """Instantiate transport ``name`` for one cluster run.

    ``ctx`` is the ``multiprocessing`` context, ``cluster`` the
    :class:`~repro.runtime.cluster.ClusterConfig` (node count, segment
    sizing, timeouts); ``ClusterConfig`` has already rejected a name
    missing from :data:`FABRICS`.
    """
    return FABRICS[name](ctx, cluster)
