"""Third-level (distributed) cache protocol state (paper Section 4.1.3).

After a local host-cache miss, a node may fetch the pre-processed item
from a *remote* host cache instead of re-loading it from storage.  The
paper's scheme avoids any central registry:

- item ``i`` is *mediated* by node ``i mod p`` (p = node count);
- the mediator keeps, per item, a list of the ``h`` nodes that most
  recently requested it — the best guesses for who holds it now;
- a request from node A goes to mediator B; B prepends A to the
  candidate list and forwards the request along candidates
  ``C1..Ch``; the first candidate holding the item sends the data to A
  directly; if all ``h`` candidates miss, A receives a failure and
  loads the item itself.

The cost is ``h + 2`` messages per request and O(candidates) state.

This module holds the *state machine* of the scheme (mediator mapping,
candidate bookkeeping, outcome accounting).  Message transport and
timing live in the runtimes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Sequence

__all__ = [
    "mediator_of",
    "mediator_of_live",
    "CandidateDirectory",
    "RequestOutcome",
    "HopStats",
]


def mediator_of(item: int, n_nodes: int) -> int:
    """Node responsible for mediating requests for ``item`` (``i mod p``)."""
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    if item < 0:
        raise ValueError(f"item ids are non-negative, got {item}")
    return item % n_nodes


def mediator_of_live(item: int, live_nodes: Sequence[int]) -> int:
    """Mediator for ``item`` over a live (non-contiguous) node set.

    The paper's ``i mod p`` assumes nodes ``0..p-1`` all exist; under
    live membership the node set may have holes (dead or retired
    ids) and extensions (joined ids), so the mapping becomes ``i mod
    |live|`` into the *sorted* live list.  Every node that agrees on
    the membership epoch derives the same mediator with no extra
    coordination — the property the modulo scheme was chosen for.
    """
    if not live_nodes:
        raise ValueError("need at least one live node")
    if item < 0:
        raise ValueError(f"item ids are non-negative, got {item}")
    ordered = sorted(live_nodes)
    return ordered[item % len(ordered)]


class CandidateDirectory:
    """Per-mediator bookkeeping: the recent requesters of each item.

    ``lookup_and_record(item, requester)`` implements the mediator's
    step: return the current candidate list (most recent first, at most
    ``h`` entries) and then prepend the requester, because "a node that
    requested an item in the past will eventually find the data and
    keep it for some time into the future".
    """

    def __init__(self, max_candidates: int) -> None:
        if max_candidates < 1:
            raise ValueError(f"max_candidates (h) must be >= 1, got {max_candidates}")
        self.max_candidates = max_candidates
        self._candidates: Dict[Hashable, Deque[int]] = {}

    def lookup_and_record(self, item: Hashable, requester: int) -> List[int]:
        """Return candidates for ``item`` (before recording ``requester``)."""
        dq = self._candidates.get(item)
        if dq is None:
            dq = deque(maxlen=self.max_candidates)
            self._candidates[item] = dq
        result = list(dq)
        # Prepend the requester; drop an older duplicate entry so the
        # list stays a set of *distinct* likely holders.
        if requester in dq:
            dq.remove(requester)
        dq.appendleft(requester)
        return result

    def peek(self, item: Hashable) -> List[int]:
        """Current candidate list without recording anything."""
        dq = self._candidates.get(item)
        return list(dq) if dq else []

    def evict_node(self, node: int) -> int:
        """Drop ``node`` from every candidate list (it left the cluster).

        A dead node can never serve a payload, so forwarding a probe to
        it would burn a hop (or, worse, a timeout).  Returns the number
        of entries removed.
        """
        removed = 0
        for dq in self._candidates.values():
            if node in dq:
                dq.remove(node)
                removed += 1
        return removed

    @property
    def tracked_items(self) -> int:
        """Number of items with at least one recorded requester."""
        return len(self._candidates)

    def memory_entries(self) -> int:
        """Total candidate entries stored (the scheme's whole footprint)."""
        return sum(len(dq) for dq in self._candidates.values())


@dataclass
class HopStats:
    """Outcome accounting for Fig. 11: hits per hop and misses."""

    max_hops: int
    hits_at_hop: List[int] = field(default_factory=list)
    misses: int = 0
    no_candidates: int = 0

    def __post_init__(self) -> None:
        if not self.hits_at_hop:
            self.hits_at_hop = [0] * self.max_hops

    @property
    def requests(self) -> int:
        """Total distributed-cache requests issued."""
        return sum(self.hits_at_hop) + self.misses + self.no_candidates

    @property
    def total_hits(self) -> int:
        """Requests satisfied by some remote host cache."""
        return sum(self.hits_at_hop)

    def record_hit(self, hop: int) -> None:
        """Record a hit at 1-based hop index ``hop``."""
        if not 1 <= hop <= self.max_hops:
            raise ValueError(f"hop must be in [1, {self.max_hops}], got {hop}")
        self.hits_at_hop[hop - 1] += 1

    def record_miss(self, had_candidates: bool = True) -> None:
        """Record a request that no candidate could serve."""
        if had_candidates:
            self.misses += 1
        else:
            self.no_candidates += 1

    def merge(self, other: "HopStats") -> None:
        """Add another node's outcomes (the longer chain sets the width)."""
        if other.max_hops > self.max_hops:
            self.hits_at_hop += [0] * (other.max_hops - self.max_hops)
            self.max_hops = other.max_hops
        for k, hits in enumerate(other.hits_at_hop):
            self.hits_at_hop[k] += hits
        self.misses += other.misses
        self.no_candidates += other.no_candidates

    def percentages(self) -> Dict[str, float]:
        """Fig. 11's series: percentage per hop plus the miss bucket.

        Requests that found an empty candidate list count as misses, as
        in the paper (they fall through to a local load).
        """
        total = self.requests
        if total == 0:
            return {f"hit at hop {k + 1}": 0.0 for k in range(self.max_hops)} | {"miss": 0.0}
        out = {
            f"hit at hop {k + 1}": 100.0 * self.hits_at_hop[k] / total
            for k in range(self.max_hops)
        }
        out["miss"] = 100.0 * (self.misses + self.no_candidates) / total
        return out


@dataclass
class RequestOutcome:
    """Result of one distributed-cache request (returned by runtimes)."""

    item: Hashable
    hit: bool
    hop: int = 0  # 1-based hop at which the hit occurred; 0 for misses
    provider: int = -1  # node that served the data; -1 for misses
    messages: int = 0  # protocol messages spent on this request
