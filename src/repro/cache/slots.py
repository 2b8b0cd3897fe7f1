"""Fixed-slot software caches with READ/WRITE flags (paper Section 4.1.1-2).

Both the per-GPU device cache and the per-node host cache manage "a
fixed number of fixed-sized slots", each holding one loaded item plus a
status flag:

- ``WRITE`` — one writer is filling the slot; jobs needing the item must
  wait until it is published;
- ``READ`` — the slot holds valid data; ``readers`` jobs are currently
  pinned on it and it cannot be evicted while ``readers > 0``.

:class:`SlotCache` implements lookup, reservation-with-eviction,
publishing, and pinning as a *synchronous* structure.  It never blocks:
when an operation cannot proceed (item being written, nothing evictable)
it reports that outcome and the embedding runtime decides how to wait
(simulation events in :mod:`repro.sim.rocketsim`, condition variables in
:mod:`repro.runtime`).  Recency is tracked with an ordered dict so all
operations are O(1) amortised; eviction skips pinned slots from the LRU
end onward.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Hashable, List, Optional

import numpy as np

from repro.cache.policy import EvictionPolicy

__all__ = ["SlotState", "Slot", "CacheCounters", "SlotCache"]


class SlotState(Enum):
    """Status flag of one cache slot."""

    WRITE = "write"
    READ = "read"


@dataclass
class Slot:
    """One cache slot: a buffer bound to an item key.

    ``payload`` carries the actual item data in the threaded runtime and
    stays ``None`` in the simulator (where only timing matters).
    """

    index: int
    key: Optional[Hashable] = None
    state: SlotState = SlotState.WRITE
    readers: int = 0
    payload: Any = None
    #: Kernel-ready view derived from ``payload`` (e.g. an unpacked
    #: sparse CV), computed lazily by the runtime on first use and valid
    #: for the payload's residency — cleared whenever the slot is freed
    #: or rebound, so a pinned reader never sees a stale view.
    derived: Any = None

    @property
    def pinned(self) -> bool:
        """True while the slot must not be evicted."""
        return self.state is SlotState.WRITE or self.readers > 0


@dataclass
class CacheCounters:
    """Hit/miss/eviction accounting for one cache level."""

    hits: int = 0
    hits_while_writing: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        """Total lookups."""
        return self.hits + self.hits_while_writing + self.misses

    def hit_ratio(self) -> float:
        """Fraction of lookups that found the item (including in-flight)."""
        total = self.requests
        return (self.hits + self.hits_while_writing) / total if total else 0.0

    def merge(self, other: "CacheCounters") -> None:
        """Add another cache's (or job's) counts to this one."""
        self.hits += other.hits
        self.hits_while_writing += other.hits_while_writing
        self.misses += other.misses
        self.evictions += other.evictions


class SlotCache:
    """A fixed number of fixed-size slots with LRU/FIFO/RANDOM eviction.

    The cache distinguishes three lookup outcomes, matching the flow
    diagram of the paper's Fig. 4:

    1. *hit (READ)* — data available; caller pins and proceeds;
    2. *hit (WRITE)* — another job is loading the item; caller waits;
    3. *miss* — caller reserves a slot (evicting if needed) and becomes
       the writer.
    """

    def __init__(
        self,
        n_slots: int,
        slot_size: float = 0.0,
        policy: EvictionPolicy = EvictionPolicy.LRU,
        name: str = "cache",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_slots < 1:
            raise ValueError(f"need at least one slot, got {n_slots}")
        self.n_slots = n_slots
        self.slot_size = slot_size
        self.policy = policy
        self.name = name
        self.counters = CacheCounters()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._by_key: Dict[Hashable, Slot] = {}
        # Recency order over *occupied* slots: oldest first.  For FIFO the
        # order is insertion order (never refreshed on use).
        self._order: "OrderedDict[Hashable, Slot]" = OrderedDict()
        self._free: List[Slot] = [Slot(index=i) for i in range(n_slots)]

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._by_key

    @property
    def capacity_bytes(self) -> float:
        """Total cache size in bytes (``n_slots * slot_size``)."""
        return self.n_slots * self.slot_size

    def keys(self) -> List[Hashable]:
        """Keys currently resident (any state)."""
        return list(self._by_key)

    def pinned_count(self) -> int:
        """Number of slots that cannot currently be evicted."""
        return sum(1 for s in self._by_key.values() if s.pinned)

    # -- core operations -------------------------------------------------

    def lookup(self, key: Hashable, *, count: bool = True) -> Optional[Slot]:
        """Return the slot for ``key`` or None; updates hit/miss counters.

        Does *not* pin; a caller that proceeds to read must call
        :meth:`pin` while still holding control (both runtimes are
        effectively single-threaded per cache operation, so this is
        race-free by construction).
        """
        slot = self._by_key.get(key)
        if count:
            if slot is None:
                self.counters.misses += 1
            elif slot.state is SlotState.WRITE:
                self.counters.hits_while_writing += 1
            else:
                self.counters.hits += 1
        return slot

    def peek(self, key: Hashable) -> Optional[Slot]:
        """Lookup without touching the counters (for remote probes)."""
        return self._by_key.get(key)

    def pin(self, slot: Slot) -> None:
        """Register a reader on a published slot and refresh recency."""
        if slot.state is not SlotState.READ:
            raise ValueError(f"cannot pin slot in state {slot.state}")
        slot.readers += 1
        self._touch(slot)

    def unpin(self, slot: Slot) -> None:
        """Drop one reader registration."""
        if slot.readers <= 0:
            raise ValueError("unpin without matching pin")
        slot.readers -= 1

    def reserve(self, key: Hashable) -> Optional[Slot]:
        """Claim a slot for writing ``key``; returns None if nothing is evictable.

        On success the slot is in WRITE state and bound to ``key``;
        the caller is the unique writer and must eventually
        :meth:`publish` (or :meth:`abandon`) it.
        """
        if key in self._by_key:
            raise ValueError(f"reserve() for resident key {key!r}; use lookup() first")
        slot = self._claim_slot()
        if slot is None:
            return None
        slot.key = key
        slot.state = SlotState.WRITE
        slot.readers = 0
        slot.payload = None
        slot.derived = None
        self._by_key[key] = slot
        self._order[key] = slot
        return slot

    def publish(self, slot: Slot, payload: Any = None, initial_readers: int = 0) -> None:
        """Flip a WRITE slot to READ, making the item visible.

        ``initial_readers`` lets the runtime atomically hand the slot to
        jobs that were queued on the write, so the slot cannot be evicted
        between publication and their wake-up.
        """
        if slot.state is not SlotState.WRITE:
            raise ValueError(f"publish() on slot in state {slot.state}")
        if initial_readers < 0:
            raise ValueError("initial_readers must be >= 0")
        slot.state = SlotState.READ
        slot.readers = initial_readers
        if payload is not None:
            slot.payload = payload
        self._touch(slot)

    def abandon(self, slot: Slot) -> None:
        """Give up a WRITE reservation (load failed); frees the slot."""
        if slot.state is not SlotState.WRITE:
            raise ValueError(f"abandon() on slot in state {slot.state}")
        self._remove(slot)

    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key`` if resident and unpinned; returns True if dropped."""
        slot = self._by_key.get(key)
        if slot is None or slot.pinned:
            return False
        self._remove(slot)
        return True

    # -- internals --------------------------------------------------------

    def _touch(self, slot: Slot) -> None:
        """Refresh recency (no-op for FIFO, which keeps insertion order)."""
        if self.policy is EvictionPolicy.FIFO:
            return
        if slot.key in self._order:
            self._order.move_to_end(slot.key)

    def _remove(self, slot: Slot) -> None:
        assert slot.key is not None
        del self._by_key[slot.key]
        del self._order[slot.key]
        slot.key = None
        slot.payload = None
        slot.derived = None
        slot.readers = 0
        slot.state = SlotState.WRITE
        self._free.append(slot)

    def _claim_slot(self) -> Optional[Slot]:
        if self._free:
            return self._free.pop()
        victim = self._pick_victim()
        if victim is None:
            return None
        self.counters.evictions += 1
        self._remove(victim)
        return self._free.pop()

    def _pick_victim(self) -> Optional[Slot]:
        if self.policy is EvictionPolicy.RANDOM:
            candidates = [s for s in self._by_key.values() if not s.pinned]
            if not candidates:
                return None
            return candidates[int(self._rng.integers(0, len(candidates)))]
        # LRU / FIFO: scan from the cold end, skipping pinned slots.
        for slot in self._order.values():
            if not slot.pinned:
                return slot
        return None
