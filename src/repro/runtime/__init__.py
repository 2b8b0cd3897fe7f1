"""The real Rocket runtimes executing actual application pipelines.

While :mod:`repro.sim` reproduces the paper's *cluster-scale timing
behaviour* on simulated time, this package executes *real application
pipelines* — NumPy kernels standing in for the CUDA kernels — with the
same architecture on actual OS threads and processes:

- :mod:`repro.runtime.devices` — virtual GPUs: a serial kernel queue
  per device (one executor thread each, like Rocket's per-GPU launch
  thread), explicit H2D/D2H transfers producing
  :class:`~repro.core.buffers.DeviceBuffer` handles, and optional
  speed factors for emulating heterogeneous devices;
- :mod:`repro.runtime.pernode` — the per-node pipeline both runtimes
  share: device and host slot caches (the same
  :class:`~repro.cache.slots.SlotCache` policy code the simulator uses)
  guarded by condition variables, per-device worker threads running
  divide-and-conquer with work-stealing, a load pipeline run on the job
  that misses the item (behind a single I/O lane), and concurrent-job
  admission control;
- :mod:`repro.runtime.localrocket` — the single-process configuration
  (:class:`LocalSession`; no third cache level; what the examples and
  application-correctness tests run on) and the shared
  :class:`RocketConfig`;
- :mod:`repro.runtime.cluster` — the multi-process configuration: one
  worker process per node, a live distributed cache level (mediator
  protocol over real IPC), global work stealing through the
  coordinator, and batched result streaming;
- :mod:`repro.runtime.transport` — the data plane of the
  cluster runtime: inline queue shipping (``"queue"``) or zero-copy
  shared-memory descriptors (``"shm"``);
- :mod:`repro.runtime.backend` — the session driver
  (:class:`BackendSession`, one job lifecycle) both sessions share:
  the one session type, what ``Rocket.session()`` returns and
  ``repro.RocketSession`` names;
- :mod:`repro.runtime.stats` — the one additive stats record
  (``NodeStats`` per node, ``RunStats`` per job) and its fold into the
  metrics registry.
"""

from repro.runtime.backend import BackendSession
from repro.runtime.cluster import ClusterConfig, ClusterSession
from repro.runtime.devices import VirtualDevice
from repro.runtime.localrocket import LocalSession
from repro.runtime.pernode import NodeEngine, NodePipeline
from repro.runtime.stats import NodeStats, RunStats
from repro.runtime.transport import Transport, TransportFabric

__all__ = [
    "VirtualDevice",
    "LocalSession",
    "RunStats",
    "NodeEngine",
    "NodePipeline",
    "NodeStats",
    "ClusterConfig",
    "ClusterSession",
    "BackendSession",
    "Transport",
    "TransportFabric",
]
