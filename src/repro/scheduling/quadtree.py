"""Divide-and-conquer decomposition of the all-pairs workload (Fig. 5).

The workload — all pairs ``(i, j)`` with ``0 <= i < j < n`` — is the
strict upper triangle of an ``n x n`` matrix.  A :class:`PairBlock`
denotes the intersection of a rectangular index block with that
triangle; splitting a block yields its four quadrants (empty quadrants,
i.e. those entirely on or below the diagonal, are dropped, as the paper
notes).  Recursing to single entries produces the task tree Rocket's
work-stealing scheduler operates on.

The recursion order (child 0 first) visits pairs in Morton/Z order,
which is what gives divide-and-conquer its locality: consecutive leaves
share row or column items, so consecutively executed jobs hit the
device cache.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["PairBlock", "iter_pairs_morton", "partition_blocks", "partition_pairs"]


@dataclass(frozen=True)
class PairBlock:
    """Pairs ``(i, j)`` with ``row_lo <= i < row_hi``, ``col_lo <= j < col_hi``, ``i < j``.

    Blocks are half-open on both axes.  ``depth`` records the split
    depth, used by the work-stealing statistics ("the task stolen is
    always at the highest level").
    """

    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int
    depth: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.row_lo <= self.row_hi and 0 <= self.col_lo <= self.col_hi):
            raise ValueError(f"malformed block {self!r}")

    @classmethod
    def root(cls, n_items: int) -> "PairBlock":
        """The whole workload for ``n_items`` items."""
        if n_items < 2:
            raise ValueError(f"need at least 2 items, got {n_items}")
        return cls(0, n_items, 0, n_items, depth=0)

    # -- size ----------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of pairs in this block (closed form, O(1)).

        For row ``i`` the admissible columns are
        ``[max(col_lo, i + 1), col_hi)``; summing that count over rows
        splits into a constant part (rows entirely left of the column
        range) and an arithmetic series (rows that cut into it).
        """
        r0, r1, c0, c1 = self.row_lo, self.row_hi, self.col_lo, self.col_hi
        if r0 >= r1 or c0 >= c1:
            return 0
        # Rows with i + 1 <= c0 contribute the full width (c1 - c0).
        full_hi = min(r1, c0)  # rows in [r0, full_hi) are "full"
        full_rows = max(0, full_hi - r0)
        total = full_rows * (c1 - c0)
        # Rows with c0 <= i + 1 < c1 contribute c1 - i - 1 each.
        part_lo = max(r0, c0)  # first row whose range is clipped
        part_hi = min(r1, c1 - 1)  # last clipped row is c1 - 2
        if part_hi > part_lo:
            # sum over i in [part_lo, part_hi) of (c1 - 1 - i)
            a = c1 - 1 - part_lo  # first term
            b = c1 - part_hi  # last term
            total += (a + b) * (part_hi - part_lo) // 2
        return total

    @property
    def is_empty(self) -> bool:
        """True when the block contains no pairs."""
        return self.count == 0

    def is_leaf(self, leaf_size: int = 1, count: Optional[int] = None) -> bool:
        """True when the block should be executed rather than split.

        ``count`` is the block's size when that is not :attr:`count` —
        its accepted pairs, for a workload that narrows its blocks.
        """
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        if (self.count if count is None else count) <= leaf_size:
            return True
        return (self.row_hi - self.row_lo) <= 1 and (self.col_hi - self.col_lo) <= 1

    # -- structure -------------------------------------------------------

    def split(self) -> List["PairBlock"]:
        """The non-empty quadrants of this block (2-4 children).

        Axes of length 1 are not split.  Children are ordered
        upper-left, upper-right, lower-left, lower-right, which makes
        depth-first traversal a Morton-order walk.
        """
        r0, r1, c0, c1 = self.row_lo, self.row_hi, self.col_lo, self.col_hi
        row_cuts = [r0, (r0 + r1) // 2, r1] if r1 - r0 > 1 else [r0, r1]
        col_cuts = [c0, (c0 + c1) // 2, c1] if c1 - c0 > 1 else [c0, c1]
        children: List[PairBlock] = []
        for ri in range(len(row_cuts) - 1):
            for ci in range(len(col_cuts) - 1):
                child = PairBlock(
                    row_cuts[ri], row_cuts[ri + 1],
                    col_cuts[ci], col_cuts[ci + 1],
                    depth=self.depth + 1,
                )
                if not child.is_empty:
                    children.append(child)
        return children

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate the pairs of this block in row-major order."""
        for i in range(self.row_lo, self.row_hi):
            j_start = max(self.col_lo, i + 1)
            for j in range(j_start, self.col_hi):
                yield (i, j)

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The pairs of :meth:`pairs`, in its order, as int32 ``(i, j)`` columns."""
        rows = np.arange(self.row_lo, self.row_hi, dtype=np.int64)
        first = np.maximum(self.col_lo, rows + 1)
        widths = np.maximum(self.col_hi - first, 0)
        i = np.repeat(rows, widths)
        # Within a row, j counts up from that row's first column.
        row_start = np.cumsum(widths) - widths
        j = np.arange(len(i)) - np.repeat(row_start - first, widths)
        return i.astype(np.int32), j.astype(np.int32)

    def items(self) -> List[int]:
        """Distinct item indices any pair of this block touches."""
        if self.is_empty:
            return []
        rows = range(self.row_lo, min(self.row_hi, self.col_hi - 1))
        cols = range(max(self.col_lo, self.row_lo + 1), self.col_hi)
        return sorted(set(rows) | set(cols))

    def sample_items(self, k: int = 8) -> List[int]:
        """Up to ``k`` representative item indices of this block, O(k).

        Used by cache-aware stealing to estimate how much of a victim
        task's data a thief already caches, without enumerating the
        whole block.  Samples are striped evenly over both axes.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self.is_empty:
            return []
        out: List[int] = []
        half = max(1, k // 2)
        row_hi = min(self.row_hi, self.col_hi - 1)
        col_lo = max(self.col_lo, self.row_lo + 1)
        for lo, hi in ((self.row_lo, row_hi), (col_lo, self.col_hi)):
            span = hi - lo
            if span <= 0:
                continue
            step = max(1, span // half)
            out.extend(range(lo, hi, step)[:half])
        return sorted(set(out))[:k]

    def __repr__(self) -> str:
        return (
            f"PairBlock(rows=[{self.row_lo},{self.row_hi}), "
            f"cols=[{self.col_lo},{self.col_hi}), depth={self.depth}, count={self.count})"
        )


def partition_blocks(
    blocks: Sequence[PairBlock],
    weights: Sequence[float],
    granularity: int = 8,
    size: Callable[[PairBlock], int] = attrgetter("count"),
) -> List[List[PairBlock]]:
    """Split ``blocks`` into per-worker shares proportional to ``weights``.

    The heterogeneity-aware initial partition (paper Section 6.5): a
    worker of speed ``w_i`` should start with ``w_i / sum(w)`` of the
    pairs rather than an equal share, so slow devices do not begin the
    run holding work they cannot finish.  The block pool is refined by
    repeatedly splitting the largest block until there are at least
    ``granularity`` blocks per share (or blocks stop being splittable),
    then blocks are assigned largest-first to the share with the
    biggest remaining deficit (LPT scheduling against weighted
    targets).  Deterministic: equal deficits break toward the lower
    index.  ``size`` weighs a block — its accepted pairs for a workload
    that narrows its blocks; a block of size 0 is dropped.
    """
    if not weights:
        raise ValueError("need at least one weight")
    if any(w <= 0 for w in weights):
        raise ValueError(f"weights must be positive, got {tuple(weights)}")
    if granularity < 1:
        raise ValueError(f"granularity must be >= 1, got {granularity}")
    k = len(weights)
    shares: List[List[PairBlock]] = [[] for _ in range(k)]
    # A heap keyed by -size (seq breaks ties deterministically).
    heap: List[Tuple[int, int, PairBlock]] = []
    for b in blocks:
        count = size(b)
        if count:
            heap.append((-count, len(heap), b))
    if not heap or k == 1:
        shares[0].extend(b for _, _, b in heap)
        return shares

    heapq.heapify(heap)
    seq = len(heap)
    target = granularity * k
    while len(heap) < target:
        neg, _, big = heapq.heappop(heap)
        if big.is_leaf():
            heapq.heappush(heap, (neg, seq, big))
            break  # largest block is atomic: no further refinement possible
        for child in big.split():
            count = size(child)
            if count:
                heapq.heappush(heap, (-count, seq, child))
                seq += 1

    refined = sorted(heap, key=lambda entry: entry[0])  # largest first
    scale = -sum(neg for neg, _, _ in refined) / sum(weights)
    deficit = [w * scale for w in weights]
    for neg, _, b in refined:
        best = max(range(k), key=lambda i: (deficit[i], -i))
        shares[best].append(b)
        deficit[best] += neg
    return shares


def partition_pairs(
    n_items: int, weights: Sequence[float], granularity: int = 8
) -> List[List[PairBlock]]:
    """Speed-proportional shares of the whole ``n_items`` workload."""
    return partition_blocks([PairBlock.root(n_items)], weights, granularity)


def iter_pairs_morton(n_items: int, leaf_size: int = 1) -> Iterator[Tuple[int, int]]:
    """All pairs of ``n_items`` in the depth-first (Morton) D&C order.

    This is the order a single worker with no thieves would execute the
    workload in; the locality-ablation benchmark compares it against
    plain row-major order.
    """
    stack = [PairBlock.root(n_items)]
    while stack:
        block = stack.pop()
        if block.is_leaf(leaf_size):
            yield from block.pairs()
        else:
            stack.extend(reversed(block.split()))
