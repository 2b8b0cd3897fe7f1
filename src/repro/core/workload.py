"""First-class workload descriptions for the session/job execution API.

The paper's interface ends at "call Rocket's main class with an input
array of Key elements" — the workload is implicitly *all pairs* of that
array.  Production corpora need more shapes than the full triangle, so
a :class:`Workload` makes the pair set itself a first-class object that
every execution backend understands:

- :class:`AllPairs` — the paper's workload, ``C(n, 2)`` pairs;
- :class:`FilteredPairs` — all pairs restricted by a user predicate;
- :class:`Bipartite` — compare a query set against a reference corpus
  without computing reference-internal (or query-internal) pairs;
- :class:`DeltaPairs` — incremental corpus growth: only ``new x old``
  and ``new x new`` pairs, mergeable into a prior run's matrix via
  :meth:`~repro.core.result.ResultMatrix.merge`.

Each workload knows three things the runtimes need:

1. its **index space** (:attr:`Workload.keys` — the ordered union key
   list; pairs are index pairs ``i < j`` into it),
2. its **pair-block decomposition** (:meth:`Workload.blocks` — a list
   of :class:`~repro.scheduling.quadtree.PairBlock` regions the
   quadtree partitioner splits and the work-stealing scheduler
   executes; a ``PairBlock`` is a rectangle intersected with the strict
   upper triangle, which expresses all four shapes exactly), and
3. its **result shape** (:meth:`Workload.make_result` — a
   :class:`~repro.core.result.ResultMatrix` whose ``expected_pairs``
   equals the workload's accepted pair count, so ``is_complete()`` is
   meaningful for partial triangles).

``as_workload`` lets the entry points take a plain key list where a
workload is expected (the paper's interface: all pairs).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Callable,
    Generic,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.core.result import ResultMatrix
from repro.scheduling.quadtree import PairBlock

__all__ = [
    "Workload",
    "AllPairs",
    "FilteredPairs",
    "PairSetFilter",
    "Bipartite",
    "DeltaPairs",
    "as_workload",
]

K = TypeVar("K", bound=Hashable)

PairFilter = Callable[[K, K], bool]


def _check_keys(keys: Sequence[K], what: str) -> List[K]:
    keys = list(keys)
    if not keys:
        raise ValueError(f"{what} must not be empty")
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate keys in {what}")
    return keys


def accepted_columns(
    keys: Sequence[K], pair_filter: Optional[PairFilter], i: np.ndarray, j: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(i, j)`` index columns narrowed to the pairs ``pair_filter`` accepts."""
    if pair_filter is None or not len(i):
        return i, j
    key = keys.__getitem__
    accepted = map(pair_filter, map(key, i.tolist()), map(key, j.tolist()))
    keep = np.fromiter(accepted, bool, len(i))
    return i[keep], j[keep]


class Workload(ABC, Generic[K]):
    """A set of key pairs to compare, with its scheduling decomposition.

    Subclasses fix :attr:`keys` (the ordered index space) in their
    constructor and implement :meth:`blocks`; everything else — pair
    counting, per-block accepted counts, iteration, result shaping —
    derives from the blocks plus the optional :attr:`pair_filter`.
    """

    #: Short scheme name used in summaries ("all-pairs", "bipartite", ...).
    kind: str = "?"

    keys: List[K]

    def __init__(self) -> None:
        self._block_counts: Optional[List[int]] = None
        self._grain_cache: Optional[Tuple[int, List[Tuple[PairBlock, int]]]] = None

    # -- shape -----------------------------------------------------------

    @abstractmethod
    def blocks(self) -> List[PairBlock]:
        """The pair-block decomposition handed to the partitioner.

        Blocks are disjoint and together cover exactly the workload's
        pair set (before filtering).  Fresh objects each call: callers
        split them destructively into task trees.
        """

    @property
    def pair_filter(self) -> Optional[PairFilter]:
        """Optional predicate restricting the blocks' pairs (or None)."""
        return None

    @property
    def n_items(self) -> int:
        """Size of the index space."""
        return len(self.keys)

    @property
    def n_pairs(self) -> int:
        """Number of *accepted* pairs (filter applied)."""
        return sum(self.block_counts())

    def block_counts(self) -> List[int]:
        """Accepted pairs per block, computed once and cached.

        With a filter this is an O(pairs) sweep; schedulers that size
        partitions by accepted counts (the SPEED policy) reuse these
        numbers instead of re-evaluating the predicate per block.
        """
        if self._block_counts is None:
            flt = self.pair_filter
            keys = self.keys
            counts = []
            for block in self.blocks():
                if flt is None:
                    counts.append(block.count)
                else:
                    counts.append(
                        sum(1 for i, j in block.pairs() if flt(keys[i], keys[j]))
                    )
            if sum(counts) == 0:
                raise ValueError("pair_filter rejected every pair")
            self._block_counts = counts
        return list(self._block_counts)

    def grain_blocks(self, grain: int) -> List[Tuple[PairBlock, int]]:
        """Split the decomposition into hand-out quanta for fair sharing.

        Returns ``(block, accepted_pairs)`` tuples, each block holding
        at most ``grain`` raw pairs (or being unsplittable), in
        depth-first Morton order so consecutively granted quanta keep
        the cache locality of the divide-and-conquer walk.  Quanta
        whose pairs are all filter-rejected are dropped — granting them
        would occupy scheduler bookkeeping without producing work.

        This is the granularity at which the multi-job scheduler
        interleaves jobs: one quantum is the unit of device time a job
        is granted per scheduling decision.

        Memoized per grain, and the sweep *seeds* the per-block
        accepted counts: calling this before :attr:`n_pairs` /
        :meth:`make_result` means a filtered workload's predicate runs
        over each pair exactly once for the whole submission, not once
        per consumer.
        """
        if grain < 1:
            raise ValueError(f"grain must be >= 1, got {grain}")
        if self._grain_cache is not None and self._grain_cache[0] == grain:
            return list(self._grain_cache[1])
        flt = self.pair_filter
        keys = self.keys
        out: List[Tuple[PairBlock, int]] = []
        top_counts: List[int] = []
        for top in self.blocks():
            accepted_total = 0
            stack = [top]
            while stack:
                block = stack.pop()
                if block.count > grain and not block.is_leaf():
                    stack.extend(reversed(block.split()))
                    continue
                if flt is None:
                    accepted = block.count
                else:
                    accepted = sum(
                        1 for i, j in block.pairs() if flt(keys[i], keys[j])
                    )
                accepted_total += accepted
                if accepted:
                    out.append((block, accepted))
            top_counts.append(accepted_total)
        if sum(top_counts) == 0:
            raise ValueError("pair_filter rejected every pair")
        if self._block_counts is None:
            self._block_counts = top_counts
        self._grain_cache = (grain, list(out))
        return out

    def pair_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The accepted pairs as int32 ``(i, j)`` index columns, block by block."""
        columns = [block.columns() for block in self.blocks()]
        i = np.concatenate([c[0] for c in columns]) if columns else np.empty(0, np.int32)
        j = np.concatenate([c[1] for c in columns]) if columns else np.empty(0, np.int32)
        return accepted_columns(self.keys, self.pair_filter, i, j)

    def pairs(self) -> Iterator[Tuple[K, K]]:
        """Iterate the accepted ``(key_a, key_b)`` pairs, block by block."""
        i, j = self.pair_columns()
        key = self.keys.__getitem__
        return zip(map(key, i.tolist()), map(key, j.tolist()))

    def make_result(self) -> ResultMatrix:
        """An empty result matrix shaped for this workload."""
        return ResultMatrix(self.keys, expected_pairs=self.n_pairs)

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"{self.kind}: {self.n_pairs} pairs over {self.n_items} items"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


class AllPairs(Workload[K]):
    """The paper's workload: every unordered pair of ``keys``."""

    kind = "all-pairs"

    def __init__(self, keys: Sequence[K]) -> None:
        super().__init__()
        self.keys = _check_keys(keys, "keys")
        if len(self.keys) < 2:
            raise ValueError(f"an all-pairs workload needs at least 2 keys, got {len(self.keys)}")

    def blocks(self) -> List[PairBlock]:
        return [PairBlock.root(len(self.keys))]


class FilteredPairs(AllPairs[K]):
    """All pairs of ``keys`` restricted by ``predicate(key_a, key_b)``.

    Paper Section 7's "user-defined heuristics to reduce the number of
    pairs".  Rejected pairs are skipped without being loaded or
    compared; the result matrix expects only the accepted pairs.

    The cluster backend ships the predicate to its worker processes, so
    it must be picklable — a module-level function, not a lambda or
    closure; the session validates this at submit time.
    """

    kind = "filtered-pairs"

    def __init__(self, keys: Sequence[K], predicate: PairFilter) -> None:
        super().__init__(keys)
        if not callable(predicate):
            raise TypeError(f"predicate must be callable, got {type(predicate).__name__}")
        self._predicate = predicate

    @property
    def pair_filter(self) -> Optional[PairFilter]:
        return self._predicate


class PairSetFilter:
    """Picklable pair predicate accepting an explicit unordered-pair set.

    What a :class:`FilteredPairs` predicate becomes once it has been
    evaluated: the serving protocol ships a client's (arbitrary,
    unserializable) callable as its accepted ``(key_a, key_b)`` pairs,
    and the memo store narrows a job to the pairs it could not serve.
    A module-level class, so the cluster backend can ship it to its
    worker processes like any user pair filter.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs) -> None:
        self._pairs = frozenset(tuple(p) for p in pairs)

    def __call__(self, a, b) -> bool:
        return (a, b) in self._pairs or (b, a) in self._pairs

    def __reduce__(self):
        # Sorted (by repr: keys need not be mutually comparable) so equal
        # filters pickle to equal bytes whatever the set's hash order.
        return (PairSetFilter, (sorted(self._pairs, key=repr),))


class Bipartite(Workload[K]):
    """Cross-corpus comparison: every ``keys_a`` x ``keys_b`` pair.

    Compares a query set against a reference corpus without computing
    reference-internal or query-internal pairs — ``len(a) * len(b)``
    pairs instead of ``C(len(a) + len(b), 2)``.  The index space is
    ``keys_a + keys_b`` and the single pair block is the rectangle
    ``rows in [0, n_a) x cols in [n_a, n_a + n_b)``, which lies
    entirely above the diagonal, so the quadtree scheduler needs no
    special casing.
    """

    kind = "bipartite"

    def __init__(self, keys_a: Sequence[K], keys_b: Sequence[K]) -> None:
        super().__init__()
        self.keys_a = _check_keys(keys_a, "keys_a")
        self.keys_b = _check_keys(keys_b, "keys_b")
        overlap = set(self.keys_a) & set(self.keys_b)
        if overlap:
            raise ValueError(
                f"keys_a and keys_b must be disjoint; both contain {sorted(map(str, overlap))[:3]}"
            )
        self.keys = self.keys_a + self.keys_b

    def blocks(self) -> List[PairBlock]:
        n_a = len(self.keys_a)
        return [PairBlock(0, n_a, n_a, n_a + len(self.keys_b))]


class DeltaPairs(Workload[K]):
    """Incremental corpus growth: only the pairs a new batch adds.

    After an :class:`AllPairs` run over ``prior_keys``, appending
    ``new_keys`` to the corpus only requires ``new x old`` and
    ``new x new`` comparisons — this workload is exactly that set.
    Merging its result into the prior matrix
    (``prior.merge(delta_result)``) yields the full all-pairs matrix of
    the grown corpus without recomputing the prior triangle.

    The index space is ``prior_keys + new_keys``; the blocks are the
    ``old-rows x new-cols`` rectangle plus the strict upper triangle of
    the new batch.
    """

    kind = "delta-pairs"

    def __init__(self, prior_keys: Sequence[K], new_keys: Sequence[K]) -> None:
        super().__init__()
        self.prior_keys = _check_keys(prior_keys, "prior_keys")
        self.new_keys = _check_keys(new_keys, "new_keys")
        overlap = set(self.prior_keys) & set(self.new_keys)
        if overlap:
            raise ValueError(
                f"prior_keys and new_keys must be disjoint; both contain "
                f"{sorted(map(str, overlap))[:3]}"
            )
        self.keys = self.prior_keys + self.new_keys

    def blocks(self) -> List[PairBlock]:
        n_old = len(self.prior_keys)
        n = n_old + len(self.new_keys)
        blocks = [PairBlock(0, n_old, n_old, n)]  # old x new
        if len(self.new_keys) >= 2:
            blocks.append(PairBlock(n_old, n, n_old, n))  # new x new triangle
        return blocks


def as_workload(keys_or_workload) -> Workload:
    """A :class:`Workload` unchanged; a plain key sequence as :class:`AllPairs`."""
    if isinstance(keys_or_workload, Workload):
        return keys_or_workload
    return AllPairs(keys_or_workload)
