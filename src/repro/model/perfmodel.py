r"""The paper's analytical performance model (Section 6.1).

Given ``n`` items, the comparison pipeline runs ``C(n,2)`` times and the
load pipeline ``R*n`` times, where ``R >= 1`` is the *relative number of
loads* — the paper's central data-reuse metric.  With perfect overlap
the run time is the maximum of the per-resource totals:

.. math::

   T_{GPU} &= R n\, t_{pre} + \binom{n}{2} t_{cmp} \\
   T_{CPU} &= R n\, t_{parse} + \binom{n}{2} t_{post} \\
   T_{IO}  &\approx R n\, \overline{size} / BW

The lower bound ``T_min`` assumes infinite memory (R = 1), infinite I/O
bandwidth, and GPU-bound processing; *system efficiency* on ``p`` nodes
is ``(T_min / p) / T_measured``.

All stage times are expressed at a reference GPU speed (the TitanX
Maxwell the paper measured Table 1 on); ``speed`` arguments rescale them
for other devices, and ``aggregate_speed`` (the sum of per-GPU speed
factors) generalises ``p`` for heterogeneous platforms.

Online calibration
------------------

The model does not have to be fed Table 1 constants: the runtimes
measure their own stage costs as they execute and fold them into a
live model through :class:`StageCalibration`.  The entry points are

- ``record_preprocess(seconds, speed)`` / ``record_compare(seconds,
  speed, n=1)`` — one GPU kernel execution (a batched launch of ``n``
  comparisons records once); the measured wall time is normalised to
  the reference device by multiplying with the executing device's
  speed factor;
- ``record_parse(seconds)`` / ``record_postprocess(seconds, n=1)`` —
  CPU stage executions;
- ``record_io(nbytes, seconds)`` — one storage read (yields the
  measured file size and I/O bandwidth);
- ``profile(...)`` / ``model(...)`` — build a
  :class:`~repro.sim.workload.WorkloadProfile` or a ready
  :class:`PerformanceModel` from the accumulated means, against which
  ``predicted_runtime(R)`` and ``efficiency(measured)`` report the
  paper's predicted-vs-measured evaluation for the live run.

:meth:`StageCalibration.merge` combines the calibrations of several
nodes (the cluster coordinator aggregates per-node instances shipped
inside ``NodeStats``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # imported lazily to avoid a package-import cycle
    from repro.sim.workload import WorkloadProfile

__all__ = [
    "t_gpu",
    "t_cpu",
    "t_io",
    "t_min",
    "system_efficiency",
    "PerformanceModel",
    "StageCalibration",
]


def _n_pairs(n: int) -> int:
    return n * (n - 1) // 2


def t_gpu(profile: WorkloadProfile, reuse: float = 1.0, speed: float = 1.0) -> float:
    """Total GPU processing time (eq. 1): ``R n t_pre + C(n,2) t_cmp``."""
    _validate(reuse, speed)
    n = profile.n_items
    return (reuse * n * profile.t_preprocess[0] + _n_pairs(n) * profile.t_compare[0]) / speed


def t_cpu(profile: WorkloadProfile, reuse: float = 1.0, cores: int = 1) -> float:
    """Total CPU processing time (eq. 2): ``R n t_parse + C(n,2) t_post``.

    ``cores`` spreads the work over that many CPU cores (the paper's
    model uses one CPU; per-thread bars in Fig. 8 report the undivided
    total, which is ``cores=1``).
    """
    _validate(reuse, 1.0)
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    n = profile.n_items
    return (reuse * n * profile.t_parse[0] + _n_pairs(n) * profile.t_postprocess[0]) / cores


def t_io(profile: WorkloadProfile, bandwidth: float, reuse: float = 1.0) -> float:
    """Total I/O time (eq. 3): ``R n * avg_file_size / bandwidth``."""
    _validate(reuse, 1.0)
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    return reuse * profile.n_items * profile.file_size / bandwidth


def t_min(profile: WorkloadProfile, speed: float = 1.0) -> float:
    """Lower bound on run time (eq. 4): perfect reuse, GPU-bound.

    ``T_min = n t_pre + C(n,2) t_cmp`` at the given GPU speed.
    """
    return t_gpu(profile, reuse=1.0, speed=speed)


def system_efficiency(
    profile: WorkloadProfile,
    measured_runtime: float,
    aggregate_speed: float = 1.0,
) -> float:
    """Eq. 5: ``(T_min / p) / T`` generalised to heterogeneous platforms.

    ``aggregate_speed`` is the sum of the platform's GPU speed factors
    relative to the reference device; for ``p`` identical reference-speed
    single-GPU nodes it equals ``p``, recovering the paper's formula.
    """
    if measured_runtime <= 0:
        raise ValueError(f"measured_runtime must be positive, got {measured_runtime}")
    if aggregate_speed <= 0:
        raise ValueError(f"aggregate_speed must be positive, got {aggregate_speed}")
    return t_min(profile, speed=aggregate_speed) / measured_runtime


def _validate(reuse: float, speed: float) -> None:
    if reuse < 1.0:
        raise ValueError(f"R cannot be below 1 (each item loads at least once), got {reuse}")
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")


@dataclass(frozen=True)
class PerformanceModel:
    """Convenience bundle of the model for one (profile, platform) pair."""

    profile: WorkloadProfile
    aggregate_speed: float = 1.0
    cpu_cores: int = 16
    io_bandwidth: float = 2.0e9

    def __post_init__(self) -> None:
        if self.aggregate_speed <= 0:
            raise ValueError("aggregate_speed must be positive")

    def lower_bound(self) -> float:
        """``T_min`` for this platform."""
        return t_min(self.profile, speed=self.aggregate_speed)

    def predicted_runtime(self, reuse: float) -> float:
        """Max of the three resource totals for a given measured ``R``.

        The paper's "perfect overlap" assumption: the run takes as long
        as its most-loaded resource.
        """
        return max(
            t_gpu(self.profile, reuse, self.aggregate_speed),
            t_cpu(self.profile, reuse, self.cpu_cores),
            t_io(self.profile, self.io_bandwidth, reuse),
        )

    def efficiency(self, measured_runtime: float) -> float:
        """System efficiency of a measured run on this platform."""
        return system_efficiency(self.profile, measured_runtime, self.aggregate_speed)

    def bottleneck(self, reuse: float) -> str:
        """Which resource the model predicts to dominate ("gpu"/"cpu"/"io")."""
        totals = {
            "gpu": t_gpu(self.profile, reuse, self.aggregate_speed),
            "cpu": t_cpu(self.profile, reuse, self.cpu_cores),
            "io": t_io(self.profile, self.io_bandwidth, reuse),
        }
        return max(totals, key=totals.get)


@dataclass
class StageCalibration:
    """Measured per-stage costs accumulated while a run executes.

    Kernel times are recorded *normalised to the reference device*
    (wall time multiplied by the executing device's speed factor), so a
    mix of fast and slow GPUs contributes one consistent estimate of
    ``t_pre`` / ``t_cmp``.  Instances are picklable and mergeable —
    cluster nodes ship theirs to the coordinator inside ``NodeStats``.
    See the module docstring for the entry points.
    """

    pre_seconds: float = 0.0
    pre_count: int = 0
    cmp_seconds: float = 0.0
    cmp_count: int = 0
    parse_seconds: float = 0.0
    parse_count: int = 0
    post_seconds: float = 0.0
    post_count: int = 0
    io_seconds: float = 0.0
    io_bytes: int = 0
    io_count: int = 0

    # -- recording (called from the running pipeline) ------------------

    def record_preprocess(self, seconds: float, speed: float = 1.0) -> None:
        """One pre-process kernel: wall ``seconds`` on a ``speed`` device."""
        self.pre_seconds += seconds * speed
        self.pre_count += 1

    def record_compare(self, seconds: float, speed: float = 1.0, n: int = 1) -> None:
        """``n`` comparisons in wall ``seconds`` total on a ``speed`` device.

        A batched launch records once with its pair count, so ``t_cmp``
        stays a per-pair mean whatever the batch size.
        """
        self.cmp_seconds += seconds * speed
        self.cmp_count += n

    def record_parse(self, seconds: float) -> None:
        """One CPU parse stage."""
        self.parse_seconds += seconds
        self.parse_count += 1

    def record_postprocess(self, seconds: float, n: int = 1) -> None:
        """``n`` CPU post-process stages taking ``seconds`` in total."""
        self.post_seconds += seconds
        self.post_count += n

    def record_io(self, nbytes: int, seconds: float) -> None:
        """One storage read of ``nbytes`` taking ``seconds``."""
        self.io_bytes += int(nbytes)
        self.io_seconds += seconds
        self.io_count += 1

    def merge(self, other: "StageCalibration") -> None:
        """Fold another node's calibration into this one."""
        self.pre_seconds += other.pre_seconds
        self.pre_count += other.pre_count
        self.cmp_seconds += other.cmp_seconds
        self.cmp_count += other.cmp_count
        self.parse_seconds += other.parse_seconds
        self.parse_count += other.parse_count
        self.post_seconds += other.post_seconds
        self.post_count += other.post_count
        self.io_seconds += other.io_seconds
        self.io_bytes += other.io_bytes
        self.io_count += other.io_count

    # -- calibrated estimates ------------------------------------------

    @property
    def t_pre(self) -> float:
        """Mean pre-process kernel time at reference speed (0 if unmeasured)."""
        return self.pre_seconds / self.pre_count if self.pre_count else 0.0

    @property
    def t_cmp(self) -> float:
        """Mean comparison kernel time at reference speed (0 if unmeasured)."""
        return self.cmp_seconds / self.cmp_count if self.cmp_count else 0.0

    @property
    def t_parse(self) -> float:
        """Mean CPU parse time (0 if unmeasured)."""
        return self.parse_seconds / self.parse_count if self.parse_count else 0.0

    @property
    def t_post(self) -> float:
        """Mean CPU post-process time (0 if unmeasured)."""
        return self.post_seconds / self.post_count if self.post_count else 0.0

    @property
    def file_size(self) -> float:
        """Mean bytes per storage read (0 if unmeasured)."""
        return self.io_bytes / self.io_count if self.io_count else 0.0

    @property
    def io_bandwidth(self) -> Optional[float]:
        """Measured storage bandwidth, or None when nothing was read."""
        if self.io_seconds <= 0 or self.io_bytes <= 0:
            return None
        return self.io_bytes / self.io_seconds

    def profile(self, name: str, n_items: int) -> "WorkloadProfile":
        """Build a :class:`~repro.sim.workload.WorkloadProfile` from the means."""
        from repro.sim.workload import WorkloadProfile  # avoid an import cycle

        return WorkloadProfile(
            name=name,
            n_items=n_items,
            file_size=max(self.file_size, 1.0),
            slot_size=max(self.file_size, 1.0),
            result_size=0.0,
            t_parse=(self.t_parse, 0.0),
            t_preprocess=(self.t_pre, 0.0),
            t_compare=(self.t_cmp, 0.0),
            t_postprocess=(self.t_post, 0.0),
        )

    def model(
        self,
        n_items: int,
        aggregate_speed: float = 1.0,
        cpu_cores: int = 1,
        name: str = "calibrated",
    ) -> PerformanceModel:
        """A live :class:`PerformanceModel` for the measured workload."""
        bw = self.io_bandwidth
        return PerformanceModel(
            profile=self.profile(name, n_items),
            aggregate_speed=aggregate_speed,
            cpu_cores=cpu_cores,
            io_bandwidth=bw if bw is not None else 2.0e9,
        )
