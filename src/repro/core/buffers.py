"""Host and device buffers mirroring the paper's Fig. 3 interface.

Real Rocket passes ``HostBuffer`` / ``DeviceBuffer`` handles to the user
callbacks so the runtime controls where data lives.  Our virtual
devices are NumPy-backed, but the same discipline is kept: a
:class:`DeviceBuffer` can only be produced by a
:class:`~repro.runtime.devices.VirtualDevice` transfer, and kernels
check that their operands live on the device that executes them.  This
catches the classic heterogeneous-programming bug — using host data in
a kernel without a transfer — in tests rather than in production.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

__all__ = ["HostBuffer", "DeviceBuffer", "BufferPool"]


@dataclass
class HostBuffer:
    """A buffer in (page-locked) host memory.

    Wraps either raw ``bytes`` (the file-content stage) or a NumPy array
    (any later stage).
    """

    data: Any

    @property
    def nbytes(self) -> int:
        """Size of the payload in bytes."""
        if isinstance(self.data, (bytes, bytearray, memoryview)):
            return len(self.data)
        if isinstance(self.data, np.ndarray):
            return int(self.data.nbytes)
        raise TypeError(f"unsupported host payload type {type(self.data).__name__}")


@dataclass
class DeviceBuffer:
    """A buffer resident on one virtual device.

    ``device_name`` records ownership; kernels verify it matches the
    executing device.
    """

    data: np.ndarray
    device_name: str

    def __post_init__(self) -> None:
        if not isinstance(self.data, np.ndarray):
            raise TypeError(f"device buffers hold ndarrays, got {type(self.data).__name__}")

    @property
    def nbytes(self) -> int:
        """Size of the payload in bytes."""
        return int(self.data.nbytes)

    def check_device(self, device_name: str) -> None:
        """Raise if this buffer does not live on ``device_name``."""
        if self.device_name != device_name:
            raise RuntimeError(
                f"device buffer lives on {self.device_name!r} but kernel runs on "
                f"{device_name!r}; a transfer is missing"
            )


class BufferPool:
    """First-fit block allocator over one fixed-size byte arena.

    The zero-copy transport carves payload slots out of a
    ``multiprocessing.shared_memory`` segment with this pool: the owning
    node allocates a slot, writes the payload, and ships only the
    ``(segment, offset, shape, dtype)`` descriptor; the receiver sends a
    release message back and the slot returns to the free list.  The
    pool manages *offsets only* — it never touches the arena memory —
    so it is equally usable over pinned host arenas or device heaps.

    Offsets are aligned (default 64 bytes, safe for every NumPy dtype
    and for cache-line-friendly copies).  Adjacent free blocks coalesce
    on :meth:`free`, so fragmentation cannot grow without bound under
    the transport's allocate/release traffic.  All methods are
    thread-safe.
    """

    def __init__(self, nbytes: int, alignment: int = 64) -> None:
        if nbytes <= 0:
            raise ValueError(f"pool size must be positive, got {nbytes}")
        if alignment < 1 or (alignment & (alignment - 1)) != 0:
            raise ValueError(f"alignment must be a power of two, got {alignment}")
        self.nbytes = int(nbytes)
        self.alignment = alignment
        self._lock = threading.Lock()
        #: Free blocks as offset -> size, kept coalesced.
        self._free: Dict[int, int] = {0: self.nbytes}
        #: Live allocations as offset -> reserved size.
        self._allocated: Dict[int, int] = {}
        self.alloc_count = 0
        self.alloc_failures = 0
        self.high_water = 0

    # -- introspection --------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently reserved by live allocations."""
        with self._lock:
            return sum(self._allocated.values())

    @property
    def free_bytes(self) -> int:
        """Bytes currently on the free list."""
        with self._lock:
            return sum(self._free.values())

    def __len__(self) -> int:
        """Number of live allocations."""
        with self._lock:
            return len(self._allocated)

    # -- operations -----------------------------------------------------

    def alloc(self, nbytes: int) -> Optional[int]:
        """Reserve ``nbytes`` and return the block offset, or None if full.

        A ``None`` return is not an error: the transport falls back to
        inline (pickled) shipping when the arena is exhausted.
        """
        if nbytes < 0:
            raise ValueError(f"cannot allocate {nbytes} bytes")
        a = self.alignment
        # Round up to at least one alignment unit: a sub-unit block
        # would misalign every allocation that follows it.
        size = max(a, (int(nbytes) + a - 1) // a * a)
        with self._lock:
            for off in sorted(self._free):
                block = self._free[off]
                if block < size:
                    continue
                del self._free[off]
                if block > size:
                    self._free[off + size] = block - size
                self._allocated[off] = size
                self.alloc_count += 1
                used = sum(self._allocated.values())
                if used > self.high_water:
                    self.high_water = used
                return off
            self.alloc_failures += 1
            return None

    def free(self, offset: int) -> None:
        """Return the block at ``offset`` to the pool (coalescing)."""
        with self._lock:
            size = self._allocated.pop(offset, None)
            if size is None:
                raise ValueError(f"free() of offset {offset} that is not allocated")
            # Coalesce with the following block...
            nxt = self._free.pop(offset + size, None)
            if nxt is not None:
                size += nxt
            # ...and with the preceding one.
            for prev_off, prev_size in self._free.items():
                if prev_off + prev_size == offset:
                    self._free[prev_off] = prev_size + size
                    break
            else:
                self._free[offset] = size
