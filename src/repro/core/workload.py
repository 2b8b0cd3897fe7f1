"""First-class workload descriptions for the session/job execution API.

The paper's interface ends at "call Rocket's main class with an input
array of Key elements" — the workload is implicitly *all pairs* of that
array.  Production corpora need more shapes than the full triangle, so
a :class:`Workload` makes the pair set itself a first-class object that
every execution backend understands:

- :class:`AllPairs` — the paper's workload, ``C(n, 2)`` pairs;
- :class:`FilteredPairs` — all pairs restricted by a user predicate;
- :class:`PairSubset` — a workload narrowed to explicit index pairs;
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
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
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

from repro.scheduling.quadtree import PairBlock

if TYPE_CHECKING:  # the matrix module numbers its cells with a PairSet
    from repro.core.result import ResultMatrix

__all__ = [
    "Workload",
    "AllPairs",
    "FilteredPairs",
    "PairSet",
    "PairSubset",
    "pair_counter",
    "Bipartite",
    "DeltaPairs",
    "as_workload",
]

K = TypeVar("K", bound=Hashable)


def _check_keys(keys: Sequence[K], what: str) -> List[K]:
    keys = list(keys)
    if not keys:
        raise ValueError(f"{what} must not be empty")
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate keys in {what}")
    return keys


class PairSet:
    """An explicit set of accepted pairs over an ``n``-item index space.

    Stored as the sorted ``int64`` codes ``i * n + j`` (``i < j``), so a
    block's pairs are one code range per block row: counting and
    selecting cost one ``np.searchsorted`` over the rows, never a call
    per pair.  Picklable as plain arrays — this is what travels to the
    cluster's worker processes in place of a predicate.  The position of
    a pair's code is its number: a :class:`~repro.core.result.ResultMatrix`
    indexes its cells by :meth:`rank`.
    """

    __slots__ = ("n", "codes")

    def __init__(self, n: int, i: np.ndarray, j: np.ndarray) -> None:
        self.n = n
        codes = np.asarray(i, np.int64) * n
        codes += j
        codes.sort()
        # Sort plus a neighbour mask: np.unique costs seconds at millions.
        keep = np.ones(len(codes), dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=keep[1:])
        self.codes = codes if keep.all() else codes[keep]

    def __len__(self) -> int:
        return len(self.codes)

    def rank(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Position in :attr:`codes` of each pair ``(i[k], j[k])`` (``i < j``), -1 if absent.

        The indices must lie in ``[0, n)``: an index outside would alias
        another pair's code.
        """
        query = np.multiply(i, self.n, dtype=np.int64)
        query += j
        if not len(self.codes):
            return np.full(len(query), -1, dtype=np.intp)
        rank = self.codes.searchsorted(query)
        found = self.codes.take(rank, mode="clip")
        # A bytes comparison: the all-present case costs no reduction.
        if found.tobytes() != query.tobytes():
            rank[found != query] = -1
        return rank

    def _row_ranges(self, block: PairBlock) -> Tuple[np.ndarray, np.ndarray]:
        """Per block row, the ``[lo, hi)`` slice of :attr:`codes` it holds."""
        rows = np.arange(block.row_lo, block.row_hi, dtype=np.int64)
        base = rows * self.n
        lo = np.searchsorted(self.codes, base + np.maximum(block.col_lo, rows + 1))
        hi = np.searchsorted(self.codes, base + block.col_hi)
        return lo, np.maximum(lo, hi)

    def count(self, block: PairBlock) -> int:
        """Accepted pairs inside ``block``."""
        lo, hi = self._row_ranges(block)
        return int((hi - lo).sum())

    def columns(self, block: PairBlock) -> Tuple[np.ndarray, np.ndarray]:
        """The accepted pairs of ``block`` as int32 ``(i, j)`` columns, row-major."""
        lo, hi = self._row_ranges(block)
        widths = hi - lo
        # Concatenate the row slices: position k of row r reads lo[r] + k.
        starts = np.cumsum(widths) - widths
        idx = np.arange(int(widths.sum())) + np.repeat(lo - starts, widths)
        i, j = np.divmod(self.codes[idx], self.n)
        return i.astype(np.int32), j.astype(np.int32)


def pair_counter(accepted: Optional[PairSet]) -> Callable[[PairBlock], int]:
    """What sizes a block: its ``accepted`` pairs, or all of its pairs when None.

    The one rule wherever a block is sized — a leaf, a FAIR quantum, a
    SPEED share, a deque's pending work — so a filtered job's launches
    hold up to ``grain`` pairs it actually computes.
    """
    return attrgetter("count") if accepted is None else accepted.count


class Workload(ABC, Generic[K]):
    """A set of key pairs to compare, with its scheduling decomposition.

    Subclasses fix :attr:`keys` (the ordered index space) in their
    constructor and implement :meth:`blocks`; everything else — pair
    counting, per-block accepted counts, iteration, result shaping —
    derives from the blocks plus the optional :attr:`accepted` set.
    """

    #: Short scheme name used in summaries ("all-pairs", "bipartite", ...).
    kind: str = "?"

    keys: List[K]

    #: The accepted pairs of the blocks, or None: every pair of them.
    accepted: Optional[PairSet] = None

    def __init__(self) -> None:
        self._grain_cache: Optional[Tuple[int, List[Tuple[PairBlock, int]]]] = None
        #: The numbering :meth:`make_result` hands every matrix of this
        #: workload (built once: sessions resubmit one workload object).
        self._numbering: Optional[PairSet] = None

    # -- shape -----------------------------------------------------------

    @abstractmethod
    def blocks(self) -> List[PairBlock]:
        """The pair-block decomposition handed to the partitioner.

        Blocks are disjoint and together cover exactly the workload's
        pair set (before narrowing to :attr:`accepted`).  Fresh objects
        each call: callers split them destructively into task trees.
        """

    @property
    def n_items(self) -> int:
        """Size of the index space."""
        return len(self.keys)

    @property
    def n_pairs(self) -> int:
        """Number of *accepted* pairs."""
        return sum(self.block_counts())

    def block_counts(self) -> List[int]:
        """Accepted pairs per block."""
        return list(map(pair_counter(self.accepted), self.blocks()))

    def grain_blocks(self, grain: int) -> List[Tuple[PairBlock, int]]:
        """Split the decomposition into hand-out quanta for fair sharing.

        Returns ``(block, accepted_pairs)`` tuples, each block holding
        at most ``grain`` accepted pairs (or being unsplittable), in
        depth-first Morton order so consecutively granted quanta keep
        the cache locality of the divide-and-conquer walk.  A block with
        no accepted pair is dropped, its subtree unvisited — granting it
        would occupy scheduler bookkeeping without producing work.

        This is the granularity at which the multi-job scheduler
        interleaves jobs: one quantum is the unit of device time a job
        is granted per scheduling decision, and the pipeline runs it as
        one leaf.  Memoized per grain.
        """
        if grain < 1:
            raise ValueError(f"grain must be >= 1, got {grain}")
        if self._grain_cache is not None and self._grain_cache[0] == grain:
            return list(self._grain_cache[1])
        size = pair_counter(self.accepted)
        out: List[Tuple[PairBlock, int]] = []
        stack = self.blocks()[::-1]
        while stack:
            block = stack.pop()
            count = size(block)
            if not count:
                continue
            if block.is_leaf(grain, count):
                out.append((block, count))
            else:
                stack.extend(reversed(block.split()))
        self._grain_cache = (grain, list(out))
        return out

    def pair_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The accepted pairs as int32 ``(i, j)`` index columns, block by block."""
        accepted = self.accepted
        i, j = zip(*(
            block.columns() if accepted is None else accepted.columns(block)
            for block in self.blocks()
        ))
        return np.concatenate(i), np.concatenate(j)

    def pairs(self) -> Iterator[Tuple[K, K]]:
        """Iterate the accepted ``(key_a, key_b)`` pairs, block by block."""
        i, j = self.pair_columns()
        key = self.keys.__getitem__
        return zip(map(key, i.tolist()), map(key, j.tolist()))

    def make_result(self) -> "ResultMatrix":
        """An empty result matrix shaped for this workload.

        Its cells are numbered by the :attr:`accepted` set, else by a
        :class:`PairSet` of :meth:`pair_columns`: it holds exactly the
        workload's pairs.
        """
        from repro.core.result import ResultMatrix

        numbering = self.accepted
        if numbering is None:
            if self._numbering is None:
                self._numbering = PairSet(self.n_items, *self.pair_columns())
            numbering = self._numbering
        return ResultMatrix(self.keys, pairs=numbering)

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

    The predicate runs over each pair exactly once, on the first use of
    :attr:`accepted` — in practice on the thread that submits the job;
    what the runtimes see is the resulting :class:`PairSet`, so any
    callable works on every backend (a lambda included).
    """

    kind = "filtered-pairs"

    def __init__(self, keys: Sequence[K], predicate: Callable[[K, K], bool]) -> None:
        super().__init__(keys)
        if not callable(predicate):
            raise TypeError(f"predicate must be callable, got {type(predicate).__name__}")
        self._predicate = predicate
        self._accepted: Optional[PairSet] = None

    @property
    def accepted(self) -> PairSet:
        if self._accepted is None:
            i, j = PairBlock.root(len(self.keys)).columns()
            key = self.keys.__getitem__
            keep = np.fromiter(
                map(self._predicate, map(key, i.tolist()), map(key, j.tolist())),
                bool,
                len(i),
            )
            if not keep.any():
                raise ValueError("predicate rejected every pair")
            self._accepted = PairSet(len(self.keys), i[keep], j[keep])
        return self._accepted


class PairSubset(Workload[K]):
    """A base workload narrowed to the explicit pairs ``(i[k], j[k])``.

    Keeps the base's index space and block decomposition, so scheduling
    locality is untouched; the columns index ``base.keys`` and must lie
    inside its blocks.  What the memo store leaves a job to compute and
    what a served :class:`FilteredPairs` arrives as.
    """

    kind = "pair-subset"

    def __init__(self, base: Workload[K], i: np.ndarray, j: np.ndarray) -> None:
        super().__init__()
        if not len(i):
            raise ValueError("a pair subset needs at least one pair")
        self.keys = list(base.keys)
        self._base = base
        self.accepted = PairSet(len(self.keys), i, j)

    def blocks(self) -> List[PairBlock]:
        return self._base.blocks()


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
