"""Pluggable data plane of the multi-process cluster runtime.

- :mod:`repro.runtime.transport.base` — the :class:`Transport` /
  :class:`TransportFabric` interfaces, the name registry, and the
  :class:`ResultBatcher` that coalesces per-pair result messages;
- :mod:`repro.runtime.transport.queues` — the baseline transport:
  inline payloads pickled through ``multiprocessing`` queues;
- :mod:`repro.runtime.transport.shm` — the zero-copy transport:
  payloads in coordinator-owned ``multiprocessing.shared_memory``
  segments carved by a :class:`~repro.core.buffers.BufferPool`, with
  only ``(segment, offset, shape, dtype)`` descriptors on the wire.

Select with ``ClusterConfig(transport="queue"|"shm")``, or register
your own fabric under a new name with :func:`register_transport`.
"""

from repro.runtime.transport.base import (
    CHANNEL_ERRORS,
    ResultBatcher,
    Transport,
    TransportFabric,
    available_transports,
    create_fabric,
    register_transport,
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
    "available_transports",
    "create_fabric",
    "register_transport",
]

register_transport(QueueFabric.name, QueueFabric, overwrite=True)
register_transport(SharedMemoryFabric.name, SharedMemoryFabric, overwrite=True)
