"""Hierarchical random work-stealing (paper Section 4.2).

Each worker (one per GPU) owns a :class:`TaskDeque`:

- the owner pushes split children and pops from the *bottom* — i.e. it
  descends depth-first, always working on the task with the best data
  locality ("worker threads always prioritize local tasks at the lowest
  level in the tree");
- a thief that pays a *request* for its steal — another node, in the
  cluster runtime and the simulator — takes from the *top*, where the
  largest / highest-level task sits ("the task stolen is always at the
  highest level since it results in the most work per steal request");
- a thief on the victim's own node (the threaded runtime's device
  workers: one process, one shared host cache, a steal costs a lock)
  takes from the *bottom* instead — the victim's nearest task, the
  Morton successor of the leaf it is running — so the node's devices
  walk one front through the host cache instead of two far ends of the
  matrix that evict each other.

Victim selection is hierarchical: an idle worker first tries workers on
its own node (in random order), then random remote workers — stealing
locally keeps the host cache warm.  The end a node-leaving steal takes
and the hierarchy are ablatable via :class:`StealOrder` and the
``hierarchical`` flag.

Heterogeneous platforms (Section 6.5) additionally use the
speed-weighted :class:`StealPolicy`: victims are ranked by estimated
remaining *time* (pending pairs divided by device speed) instead of
shuffled uniformly, and a slow thief splits a stolen block
:func:`steal_split_depth` times — keeping one quadrant and returning
the rest to the end of the victim's deque it took the block from.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import (
    Callable,
    Collection,
    Deque,
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
)

import numpy as np

__all__ = [
    "TaskDeque",
    "StealOrder",
    "StealPolicy",
    "WorkerTopology",
    "VictimSelector",
    "steal_split_depth",
]

T = TypeVar("T")


class StealOrder(Enum):
    """Which end of the victim's deque a thief takes from."""

    LARGEST = "largest"  # top of the deque: the paper's choice
    SMALLEST = "smallest"  # bottom: the victim's nearest task


class StealPolicy(Enum):
    """How thieves pick victims and size their steals.

    ``UNIFORM`` is the paper's baseline: victims in (hierarchical)
    random order, every thief takes whole blocks.  ``SPEED`` is the
    heterogeneity-aware policy: victims ranked by estimated remaining
    time, steal sizes scaled by the thief/victim speed ratio, and
    initial work split proportionally to device speed.
    """

    UNIFORM = "uniform"
    SPEED = "speed"


def steal_split_depth(
    thief_speed: float, victim_speed: float, max_depth: int = 3
) -> int:
    """How many times a thief should split a stolen block before keeping it.

    A thief half as fast as its victim keeps roughly half the stolen
    pairs (one split), a quarter as fast two splits, and so on — the
    other quadrants go back to the victim.  Thieves at least as fast as
    the victim take the whole block (depth 0).
    """
    if thief_speed <= 0 or victim_speed <= 0:
        raise ValueError("speeds must be positive")
    ratio = victim_speed / thief_speed
    if ratio <= 1.0:
        return 0
    return min(max_depth, int(math.ceil(math.log2(ratio))))


class TaskDeque(Generic[T]):
    """Double-ended task queue for one worker.

    Not thread-safe by itself — the simulator is single-threaded and
    the threaded runtime wraps it in a lock.
    """

    def __init__(self, worker: int, size: Optional[Callable[[T], int]] = None) -> None:
        self.worker = worker
        self._tasks: Deque[T] = deque()
        self.pushes = 0
        self.pops = 0
        self.steals_suffered = 0
        #: What a task weighs: ``size(task)``, by default ``task.count``
        #: (1 for tasks without a ``count``).
        self._work = size if size is not None else self._count
        #: Summed weight of the queued tasks — the estimated remaining
        #: work speed-weighted victim ranking sorts on.
        self.pending_pairs = 0

    def __len__(self) -> int:
        return len(self._tasks)

    @staticmethod
    def _count(task: T) -> int:
        count = getattr(task, "count", 1)
        # Tasks without a pair count (str.count is a method!) weigh 1.
        return count if isinstance(count, int) else 1

    def push(self, task: T) -> None:
        """Owner pushes a task at the bottom."""
        self._tasks.append(task)
        self.pushes += 1
        self.pending_pairs += self._work(task)

    def push_children(self, children: Sequence[T]) -> None:
        """Push split children so the *first* child is popped next.

        Reversed push keeps the depth-first (Morton) traversal order,
        which is what yields the scheduler's data locality.
        """
        for child in reversed(children):
            self.push(child)

    def pop(self) -> Optional[T]:
        """Owner pops the most recently pushed task (bottom / deepest)."""
        if not self._tasks:
            return None
        self.pops += 1
        task = self._tasks.pop()
        self.pending_pairs -= self._work(task)
        return task

    def steal(self, order: StealOrder = StealOrder.LARGEST) -> Optional[T]:
        """A thief removes a task (top for LARGEST, bottom for SMALLEST)."""
        if not self._tasks:
            return None
        self.steals_suffered += 1
        task = self._tasks.popleft() if order is StealOrder.LARGEST else self._tasks.pop()
        self.pending_pairs -= self._work(task)
        return task

    def peek_steal_target(self, order: StealOrder = StealOrder.LARGEST) -> Optional[T]:
        """Look at the task a steal would take, without removing it.

        Cache-aware stealing (the paper's Section 7 extension) inspects
        prospective victims' tasks before committing to one.
        """
        if not self._tasks:
            return None
        return self._tasks[0] if order is StealOrder.LARGEST else self._tasks[-1]


@dataclass(frozen=True)
class WorkerTopology:
    """Placement of workers on nodes: ``node_of[w]`` is worker ``w``'s node."""

    node_of: tuple

    def __post_init__(self) -> None:
        if not self.node_of:
            raise ValueError("topology needs at least one worker")

    @classmethod
    def from_gpus_per_node(cls, gpus_per_node: Sequence[int]) -> "WorkerTopology":
        """Build a topology from GPU counts, one worker per GPU."""
        placement: List[int] = []
        for node, count in enumerate(gpus_per_node):
            if count < 0:
                raise ValueError(f"negative GPU count for node {node}")
            placement.extend([node] * count)
        if not placement:
            raise ValueError("topology needs at least one GPU")
        return cls(tuple(placement))

    @property
    def n_workers(self) -> int:
        """Total number of workers."""
        return len(self.node_of)

    @property
    def n_nodes(self) -> int:
        """Total number of nodes."""
        return max(self.node_of) + 1

    def peers_on_node(self, worker: int) -> List[int]:
        """Other workers on the same node as ``worker``."""
        node = self.node_of[worker]
        return [w for w, nd in enumerate(self.node_of) if nd == node and w != worker]

    def remote_workers(self, worker: int) -> List[int]:
        """Workers on different nodes than ``worker``."""
        node = self.node_of[worker]
        return [w for w, nd in enumerate(self.node_of) if nd != node]


class VictimSelector:
    """Victim ordering with node-first preference.

    ``candidates(worker)`` yields prospective victims: same-node peers
    first, then remote workers.  With ``hierarchical=False`` all other
    workers form one tier (the ablation baseline — plain random
    stealing without locality preference).

    Within each tier, ordering depends on the :class:`StealPolicy`:

    - ``UNIFORM`` — a fresh random shuffle per call (the paper's
      randomized stealing);
    - ``SPEED`` — victims ranked by estimated remaining *time*,
      ``work_of(victim) / speeds[victim]``, largest first, so thieves
      relieve the most-backlogged (relative to its speed) worker.
      Ties keep the random shuffle, preserving the randomized
      tie-break.  ``work_of`` defaults to a constant, which degrades
      to slowest-device-first.
    """

    def __init__(
        self,
        topology: WorkerTopology,
        rng: np.random.Generator,
        hierarchical: bool = True,
        policy: StealPolicy = StealPolicy.UNIFORM,
        speeds: Optional[Sequence[float]] = None,
        work_of: Optional[Callable[[int], float]] = None,
    ) -> None:
        if speeds is not None and len(speeds) != topology.n_workers:
            raise ValueError(
                f"{len(speeds)} speeds for {topology.n_workers} workers"
            )
        self.topology = topology
        self.hierarchical = hierarchical
        self.policy = policy
        self.speeds = tuple(speeds) if speeds is not None else (1.0,) * topology.n_workers
        self.work_of = work_of
        self._rng = rng
        # Pre-computed peer lists; shuffled copies are drawn per call.
        self._local: Dict[int, List[int]] = {
            w: topology.peers_on_node(w) for w in range(topology.n_workers)
        }
        self._remote: Dict[int, List[int]] = {
            w: topology.remote_workers(w) for w in range(topology.n_workers)
        }

    def _shuffled(self, items: List[int]) -> List[int]:
        out = list(items)
        self._rng.shuffle(out)
        return out

    def _ordered(self, items: List[int]) -> List[int]:
        out = self._shuffled(items)
        if self.policy is StealPolicy.SPEED:
            # Stable sort on the shuffle: equal scores stay random.
            out.sort(key=self.remaining_time_estimate, reverse=True)
        return out

    def remaining_time_estimate(self, worker: int) -> float:
        """Estimated time ``worker`` needs for its queued work."""
        work = self.work_of(worker) if self.work_of is not None else 1.0
        return work / self.speeds[worker]

    def candidates(
        self, worker: int, exclude: Collection[int] = ()
    ) -> Iterator[int]:
        """Yield steal victims for ``worker`` in preference order.

        ``exclude`` drops specific workers from every tier — a probe
        sent to a dead or departed victim can only time out, so the
        cluster coordinator passes the non-live set here.
        """
        if worker < 0 or worker >= self.topology.n_workers:
            raise ValueError(f"unknown worker {worker}")
        if exclude:
            keep = lambda tier: [w for w in tier if w not in exclude]  # noqa: E731
        else:
            keep = lambda tier: tier  # noqa: E731
        if self.hierarchical:
            yield from self._ordered(keep(self._local[worker]))
            yield from self._ordered(keep(self._remote[worker]))
        else:
            yield from self._ordered(keep(self._local[worker] + self._remote[worker]))

    def split_depth(self, thief: int, victim: int) -> int:
        """Split depth for a block ``thief`` steals from ``victim``.

        Zero under the UNIFORM policy (whole-block steals, the paper's
        baseline); under SPEED, :func:`steal_split_depth` of the two
        workers' speed factors.
        """
        if self.policy is not StealPolicy.SPEED:
            return 0
        return steal_split_depth(self.speeds[thief], self.speeds[victim])

    def is_remote(self, worker: int, victim: int) -> bool:
        """True when ``victim`` lives on a different node than ``worker``."""
        return self.topology.node_of[worker] != self.topology.node_of[victim]
