"""Virtual GPUs executing NumPy kernels on dedicated threads.

A :class:`VirtualDevice` mirrors how Rocket drives one CUDA device:

- kernels are *serialised* per device — one executor thread plays the
  role of the GPU's in-order stream fed by Rocket's launch thread;
- data must be explicitly transferred: :meth:`h2d` copies a host array
  into a :class:`~repro.core.buffers.DeviceBuffer` owned by this
  device, :meth:`d2h` copies it back; kernels reject buffers owned by
  other devices (catching missing-transfer bugs);
- an optional ``speed_factor`` < 1 stretches kernel wall time, letting
  a single machine emulate the heterogeneous device mixes of the
  paper's Section 6.5.

NumPy releases the GIL inside its compute kernels, so several virtual
devices genuinely overlap on a multi-core host.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

import numpy as np

from repro.core.buffers import DeviceBuffer

__all__ = ["VirtualDevice"]


class VirtualDevice:
    """One virtual GPU: serial kernel queue plus explicit transfers."""

    def __init__(self, name: str, speed_factor: float = 1.0) -> None:
        if speed_factor <= 0:
            raise ValueError(f"speed_factor must be positive, got {speed_factor}")
        self.name = name
        self.speed_factor = float(speed_factor)
        # Kernels run on one dedicated thread per device, not inline on
        # the launching job thread under a stream lock.  Measured with
        # ``python3 -m bench run`` on a 2-core Xeon box, the inline
        # variant raised peak RSS on ``local-dispatch`` from 147-152 MB
        # to 163-168 MB (x1.11, 6/6 runs; the bound is 0.10) and on
        # ``serve-mixed`` x1.07 — kernel temporaries spread over every
        # job thread's malloc arena instead of one.  Keep this thread
        # unless new numbers say otherwise.
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"dev-{name}")
        self._closed = False
        self._lock = threading.Lock()
        # Counters for the run report.
        self.kernel_seconds = 0.0
        self.kernel_count = 0
        self.h2d_bytes = 0
        self.d2h_bytes = 0

    # -- transfers -------------------------------------------------------

    def h2d(self, array: np.ndarray) -> DeviceBuffer:
        """Copy a host array onto this device."""
        if not isinstance(array, np.ndarray):
            raise TypeError(f"h2d expects an ndarray, got {type(array).__name__}")
        buf = DeviceBuffer(np.array(array, copy=True), self.name)
        with self._lock:
            self.h2d_bytes += buf.nbytes
        return buf

    def d2h(self, buffer: DeviceBuffer) -> np.ndarray:
        """Copy a device buffer back to host memory."""
        buffer.check_device(self.name)
        with self._lock:
            self.d2h_bytes += buffer.nbytes
        return np.array(buffer.data, copy=True)

    # -- kernels ---------------------------------------------------------

    def run_kernel(
        self, fn: Callable[..., np.ndarray], *buffers_and_args: Any
    ) -> "tuple[DeviceBuffer, float]":
        """Execute ``fn`` on this device's kernel thread (blocking).

        :class:`DeviceBuffer` arguments — bare or inside a list/tuple
        argument (a compare launch passes each side's items as one
        list) — are ownership-checked and unwrapped to plain arrays
        before the call; the result array is wrapped as a buffer on
        this device.  With ``speed_factor`` < 1 the call is padded so
        the kernel appears proportionally slower.

        Returns the buffer and the kernel's *on-device* seconds: the
        execution (and padding) on the device thread, not the caller's
        wait in the kernel queue — which is what online calibration of
        ``t_pre`` / ``t_cmp`` must record.
        """
        if self._closed:
            raise RuntimeError(f"device {self.name!r} is shut down")
        return self._executor.submit(self._invoke, fn, buffers_and_args).result()

    def _unwrap(self, arg: Any) -> Any:
        if isinstance(arg, DeviceBuffer):
            arg.check_device(self.name)
            return arg.data
        if isinstance(arg, (list, tuple)) and any(
            isinstance(item, DeviceBuffer) for item in arg
        ):
            return [self._unwrap(item) for item in arg]
        return arg

    def _invoke(
        self, fn: Callable[..., np.ndarray], buffers_and_args: tuple
    ) -> "tuple[DeviceBuffer, float]":
        """Kernel-thread body of :meth:`run_kernel`."""
        args = [self._unwrap(arg) for arg in buffers_and_args]
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        if self.speed_factor < 1.0:
            pad = elapsed * (1.0 / self.speed_factor - 1.0)
            time.sleep(pad)
            elapsed += pad
        with self._lock:
            self.kernel_seconds += elapsed
            self.kernel_count += 1
        if not isinstance(result, np.ndarray):
            result = np.asarray(result)
        return DeviceBuffer(result, self.name), elapsed

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the kernel thread (idempotent)."""
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "VirtualDevice":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"VirtualDevice({self.name!r}, speed={self.speed_factor})"
