"""Rocket — efficient and scalable all-pairs computations (SC 2020), in Python.

A from-scratch reproduction of *"Rocket: Efficient and Scalable
All-Pairs Computations on Heterogeneous Platforms"* (Heldens et al.,
SC 2020).  The package provides:

- :mod:`repro.core` — the user-facing all-pairs programming interface
  (parse / preprocess / compare / postprocess) and the :class:`Rocket`
  entry point;
- :mod:`repro.cache` — the three-level software cache policy logic;
- :mod:`repro.scheduling` — divide-and-conquer decomposition and
  hierarchical random work-stealing;
- :mod:`repro.runtime` — the real runtimes executing NumPy pipelines
  on virtual devices: the threaded single-process backend and the
  multi-process *cluster* backend, which runs one worker process per
  node with a live distributed cache level (mediator-based peer
  fetches over real IPC) and global work stealing;
- :mod:`repro.sim` — a discrete-event simulation of heterogeneous GPU
  clusters running the full Rocket runtime on simulated time (the
  substrate for the paper's multi-node evaluation);
- :mod:`repro.model` — the analytical performance model (T_min, R,
  system efficiency);
- :mod:`repro.apps` — the paper's three applications (forensics,
  bioinformatics, microscopy), kernels implemented from scratch;
- :mod:`repro.data` — synthetic data sets with ground truth and the
  file-store abstraction.

Quickstart::

    from repro import Rocket, RocketConfig
    from repro.apps import ForensicsApplication
    from repro.data import InMemoryStore, make_forensics_dataset

    store = InMemoryStore()
    dataset = make_forensics_dataset(store, n_images=16, n_cameras=4, seed=7)
    rocket = Rocket(ForensicsApplication(), store, RocketConfig(n_devices=2))
    results = rocket.run(dataset.keys)
    print(results.get("img0000", "img0004"))

The same run on four real worker processes with the distributed cache
live (results are identical; only the substrate changes)::

    rocket = Rocket(ForensicsApplication(), store, backend="cluster", n_nodes=4)
    results = rocket.run(dataset.keys)
    print(rocket.last_stats.summary())  # includes the hop histogram totals
"""

from repro.core import (
    AllPairs,
    Application,
    Bipartite,
    DeltaPairs,
    DeviceBuffer,
    FilteredPairs,
    HostBuffer,
    JobAccounting,
    JobScheduler,
    ResultMatrix,
    Rocket,
    RocketConfig,
    RocketSession,
    RunHandle,
    RunState,
    SchedulingPolicy,
    SessionClosed,
    Workload,
)
from repro.obs import MetricsRegistry, configure_logging, get_logger
from repro.runtime import ClusterConfig, RunStats, VirtualDevice
from repro.util.trace import ProfileTrace

__version__ = "1.2.0"

__all__ = [
    "Application",
    "Rocket",
    "RocketConfig",
    "RocketSession",
    "RunHandle",
    "RunState",
    "SchedulingPolicy",
    "SessionClosed",
    "JobScheduler",
    "JobAccounting",
    "Workload",
    "AllPairs",
    "FilteredPairs",
    "Bipartite",
    "DeltaPairs",
    "ResultMatrix",
    "HostBuffer",
    "DeviceBuffer",
    "RunStats",
    "ClusterConfig",
    "VirtualDevice",
    "MetricsRegistry",
    "ProfileTrace",
    "configure_logging",
    "get_logger",
    "__version__",
]
