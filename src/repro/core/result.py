"""Result collection for all-pairs (and partial-triangle) runs.

The output of an all-pairs computation is the strict upper triangle of
an ``n x n`` matrix (paper Fig. 1).  :class:`ResultMatrix` stores it as
three arrival-ordered columns — int32 row index ``i``, int32 column
index ``j`` (``i < j``, into the ordered key list) and the float64
value — plus one index: a :class:`~repro.core.workload.PairSet`
numbering the cells the matrix may hold (the producing workload's
pairs) and, per numbered cell, the int32 arrival row of its result
(-1 while unrecorded).  Duplicate checks and lookups are vector
searches in that numbering, and reading the positions in order yields
the results in ``(i, j)`` order.  A recorded pair costs 16 bytes of
column plus 12 of numbering (28 bytes measured at 2,500 items), and
memory grows with the workload's pairs, never with ``C(n, 2)`` of a
partial shape.  Batches arrive as columns
(:meth:`ResultMatrix.set_block`) from the kernel launch, the cluster
transport and the memo store; keys are attached only at the API edge —
:meth:`~ResultMatrix.items`, :meth:`~ResultMatrix.get`,
:meth:`~ResultMatrix.arrivals` — and the matrix converts to dense or
condensed NumPy forms for downstream analysis such as the phylogeny
clustering.  It is also the run's arrival log: :meth:`ResultMatrix.arrivals`
reads the cells in the order they were recorded, from any position —
what a job's streaming readers iterate by cursor instead of each
keeping a copy.

Workload shapes beyond the full triangle
(:mod:`repro.core.workload`: filtered, bipartite, delta) are
first-class: ``expected_pairs`` records how many cells the producing
workload fills, so :meth:`ResultMatrix.is_complete` is meaningful for
partial triangles; :meth:`ResultMatrix.to_dense` fills the cells the
workload never computes with ``fill`` (pass ``fill=float("nan")`` to
make them unmistakable); and :meth:`ResultMatrix.merge` combines a
prior corpus matrix with a ``DeltaPairs`` run's matrix into the full
matrix of the grown corpus.
"""

from __future__ import annotations

import threading
from typing import (
    Any,
    Dict,
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

from repro.core.workload import PairSet

__all__ = ["ResultMatrix", "real_column", "save_results", "load_results"]

K = TypeVar("K", bound=Hashable)

#: ``(i, j, values)``: int32 index columns and the float64 value column.
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Pairs per ``tolist()`` chunk when :meth:`ResultMatrix.items` attaches keys.
_KEYED_CHUNK = 4096


def real_column(values: Any) -> np.ndarray:
    """``values`` as a 1-D float64 column; ``TypeError`` unless all are real numbers.

    The result contract of :meth:`~repro.core.api.Application.postprocess`.
    """
    try:
        column = np.asarray(values)
    except ValueError:  # ragged: some value is a sequence
        column = None
    if column is None or column.ndim != 1 or column.dtype.kind not in "biuf":
        raise TypeError("pair results must be real numbers (a 1-D column of them)")
    return column.astype(np.float64, copy=False)


def _index_column(indices: Any) -> np.ndarray:
    column = np.asarray(indices)
    if column.ndim != 1 or (column.size and column.dtype.kind not in "iu"):
        raise TypeError("pair indices must be a 1-D column of integers")
    return column


class ResultMatrix(Generic[K]):
    """Upper-triangular result store over an ordered key list.

    ``pairs`` numbers the cells the matrix may hold; a bare
    ``ResultMatrix(keys)`` numbers the whole ``C(n, 2)`` triangle, at
    12 bytes per cell, so a partial shape passes its own set (what
    :meth:`~repro.core.workload.Workload.make_result` does).
    ``expected_pairs`` defaults to the numbering's size.
    """

    def __init__(
        self,
        keys: Sequence[K],
        expected_pairs: Optional[int] = None,
        pairs: Optional[PairSet] = None,
    ) -> None:
        if len(keys) < 2:
            raise ValueError(f"need at least 2 keys, got {len(keys)}")
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate keys")
        self.keys: List[K] = list(keys)
        self._index: Dict[K, int] = {k: i for i, k in enumerate(self.keys)}
        self._lock = threading.Lock()
        #: Arrival-ordered columns; the first ``_n`` rows are recorded.
        self._i = np.empty(0, dtype=np.int32)
        self._j = np.empty(0, dtype=np.int32)
        self._v = np.empty(0, dtype=np.float64)
        self._n = 0
        if pairs is None:
            pairs = PairSet(len(self.keys), *np.triu_indices(len(self.keys), 1))
        elif pairs.n != len(self.keys):
            raise ValueError(f"pairs number {pairs.n} items, not {len(self.keys)}")
        #: The cells this matrix may hold, numbered in ``(i, j)`` order.
        self._pairs = pairs
        #: Per numbered cell, its arrival row; -1 while unrecorded.
        self._pos = np.full(len(pairs), -1, dtype=np.int32)
        if expected_pairs is None:
            expected_pairs = len(pairs)
        if not 1 <= expected_pairs <= self.n_pairs:
            raise ValueError(
                f"expected_pairs must be in [1, {self.n_pairs}], got {expected_pairs}"
            )
        #: Cells the producing workload fills — ``C(n, 2)`` for a full
        #: all-pairs run, fewer for filtered/bipartite/delta shapes.
        self.expected_pairs: int = expected_pairs

    @property
    def n_items(self) -> int:
        """Number of items."""
        return len(self.keys)

    @property
    def n_pairs(self) -> int:
        """Number of pair cells ``C(n, 2)`` in the full triangle."""
        n = len(self.keys)
        return n * (n - 1) // 2

    def __len__(self) -> int:
        return self._n

    # -- writing ---------------------------------------------------------

    def _cell(self, a: K, b: K) -> Tuple[int, int]:
        try:
            i, j = self._index[a], self._index[b]
        except KeyError as exc:
            raise KeyError(f"unknown key {exc.args[0]!r}") from None
        if i == j:
            raise KeyError(f"diagonal cell ({a!r}, {a!r}) is not part of the workload")
        return (i, j) if i < j else (j, i)

    def _pair_text(self, i: Any, j: Any) -> str:
        return f"{self.keys[int(i)]!r}, {self.keys[int(j)]!r}"

    def _ranks(self, i: np.ndarray, j: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, hi, rank)`` of the pairs ``(i[k], j[k])``, each checked.

        An index out of range raises ``IndexError``; the diagonal and a
        pair outside the numbering raise ``KeyError``.
        """
        n = self.n_items
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        # Reductions, not masks: three cheap calls on the common path.
        if np.minimum.reduce(lo) < 0 or np.maximum.reduce(hi) >= n:
            bad = int(np.argmax((lo < 0) | (hi >= n)))
            raise IndexError(f"pair index out of range: ({int(i[bad])}, {int(j[bad])})")
        if not np.minimum.reduce(hi - lo) > 0:
            key = self.keys[int(lo[np.argmax(lo == hi)])]
            raise KeyError(f"diagonal cell ({key!r}, {key!r}) is not part of the workload")
        rank = self._pairs.rank(lo, hi)
        if np.minimum.reduce(rank) < 0:
            bad = int(np.argmax(rank < 0))
            raise KeyError(f"pair {self._pair_text(lo[bad], hi[bad])} is not part of the workload")
        return lo, hi, rank

    def set(self, a: K, b: K, value: float) -> None:
        """Record the result for the unordered pair ``{a, b}``."""
        i, j = self._cell(a, b)
        self.set_block([i], [j], [value])

    def set_block(self, i: Any, j: Any, values: Any) -> None:
        """Record a batch of results: pair ``k`` is ``(i[k], j[k])`` with ``values[k]``.

        ``i`` and ``j`` are integer index columns into the key list (in
        either order per pair), ``values`` real numbers, stored as
        float64.  Every cell is checked — an index out of range
        (``IndexError``), the diagonal or a pair outside the matrix's
        numbering (``KeyError``), a pair repeated inside the batch or
        already recorded (``ValueError``), a non-integer index or a
        non-real value (``TypeError``) — and the batch is
        all-or-nothing: a rejected batch leaves the matrix exactly as it
        was.
        """
        i, j, values = _index_column(i), _index_column(j), real_column(values)
        m = len(values)
        if len(i) != m or len(j) != m:
            raise ValueError(f"{m} values for {len(i)} x {len(j)} pair indices")
        if not m:
            return
        lo, hi, rank = self._ranks(i, j)
        with self._lock:
            pos = self._pos
            held = pos[rank]
            if np.maximum.reduce(held) >= 0:
                bad = int(np.argmax(held >= 0))
                raise ValueError(f"pair {self._pair_text(lo[bad], hi[bad])} already has a result")
            rows = np.arange(self._n, self._n + m, dtype=np.int32)
            pos[rank] = rows
            # A cell listed twice kept one of its rows: the other reads wrong.
            held = pos[rank]
            if held.tobytes() != rows.tobytes():
                pos[rank] = -1  # none was recorded before
                bad = int(np.argmax(held != rows))
                raise ValueError(
                    f"pair {self._pair_text(lo[bad], hi[bad])} appears twice in one block"
                )
            self._append(lo, hi, values)

    def _append(self, lo: np.ndarray, hi: np.ndarray, values: np.ndarray) -> None:
        """Write one checked batch behind the recorded rows (lock held)."""
        start, stop = self._n, self._n + len(values)
        if stop > len(self._v):
            # Geometric growth, capped at the workload's size: a complete
            # matrix holds exactly ``expected_pairs`` rows.
            capacity = max(stop, min(2 * len(self._v), self.expected_pairs), 64)
            for name in ("_i", "_j", "_v"):
                old = getattr(self, name)
                new = np.empty(capacity, dtype=old.dtype)
                new[:start] = old[:start]
                setattr(self, name, new)
        # Rows below ``_n`` are never written again, so the views
        # :meth:`columns` handed out stay valid across a regrowth.
        self._i[start:stop] = lo
        self._j[start:stop] = hi
        self._v[start:stop] = values
        self._n = stop

    # -- reading: columns ------------------------------------------------

    def columns(self, start: int = 0, stop: Optional[int] = None) -> Columns:
        """Arrival-ordered ``(i, j, values)`` rows ``[start, stop)`` (``i < j``).

        Read-only views: recorded rows never change.
        """
        with self._lock:
            n, i, j, v = self._n, self._i, self._j, self._v
        rows = slice(start, n if stop is None else min(stop, n))
        return i[rows], j[rows], v[rows]

    def sorted_columns(self) -> Columns:
        """The recorded ``(i, j, values)`` in ``(i, j)`` index order."""
        with self._lock:
            rows = self._pos[self._pos >= 0]
            i, j, v = self._i, self._j, self._v
        return i[rows], j[rows], v[rows]

    def unrecorded(self, i: Any, j: Any) -> np.ndarray:
        """Positions ``k`` of the pairs ``(i[k], j[k])`` that have no result yet.

        A pair listed twice counts once, at its first position; the
        positions are in block order.  A pair the matrix cannot hold
        raises, as in :meth:`set_block`.
        """
        i, j = _index_column(i), _index_column(j)
        if not len(i):
            return np.empty(0, dtype=np.intp)
        rank = self._ranks(i, j)[2]
        order = np.argsort(rank, kind="stable")
        ranked = rank[order]
        first = np.ones(len(order), dtype=bool)
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
        first = np.sort(order[first])
        with self._lock:
            return first[self._pos[rank[first]] < 0]

    # -- reading: the key edge -------------------------------------------

    def _keyed(self, i: np.ndarray, j: np.ndarray, v: np.ndarray) -> Iterator[Tuple[K, K, float]]:
        key = self.keys.__getitem__
        for s in range(0, len(v), _KEYED_CHUNK):
            rows = slice(s, s + _KEYED_CHUNK)
            yield from zip(map(key, i[rows].tolist()), map(key, j[rows].tolist()), v[rows].tolist())

    def _row(self, a: K, b: K) -> int:
        """Arrival row of the pair ``{a, b}``; -1 while it has no result."""
        i, j = self._cell(a, b)
        rank = int(self._pairs.rank([i], [j])[0])
        with self._lock:  # a row is readable once its position is set
            return -1 if rank < 0 else int(self._pos[rank])

    def get(self, a: K, b: K) -> float:
        """Return the result for the unordered pair ``{a, b}``."""
        row = self._row(a, b)
        if row < 0:
            raise KeyError(f"no result recorded for pair {a!r}, {b!r}")
        return float(self._v[row])

    def __contains__(self, pair: Tuple[K, K]) -> bool:
        """True when the unordered pair ``(a, b)`` has a recorded result."""
        return self._row(*pair) >= 0

    def is_complete(self) -> bool:
        """True once every *expected* pair has a result.

        For a plain all-pairs matrix this is the full triangle; for a
        filtered/bipartite/delta shape it is the workload's pair set.
        """
        return self._n == self.expected_pairs

    def items(self) -> Iterator[Tuple[K, K, float]]:
        """Iterate ``(key_a, key_b, value)`` in (i, j) index order."""
        return self._keyed(*self.sorted_columns())

    def arrivals(self, start: int = 0, limit: Optional[int] = None) -> List[Tuple[K, K, float]]:
        """Up to ``limit`` ``(key_a, key_b, value)`` from arrival position ``start``.

        ``key_a`` precedes ``key_b`` in the key list.
        """
        stop = None if limit is None else start + limit
        return list(self._keyed(*self.columns(start, stop)))

    # -- conversions -----------------------------------------------------

    def to_dense(self, fill: float = 0.0, symmetric: bool = True) -> np.ndarray:
        """Dense ``n x n`` float matrix of the scalar results.

        Well-defined for *incomplete* triangles: every cell without a
        recorded result — the diagonal, pairs a filter rejected, the
        reference-internal block of a bipartite run, pairs still in
        flight — is set to ``fill``.  Pass ``fill=float("nan")`` to
        make uncomputed cells unmistakable downstream.  With
        ``symmetric=True`` the lower triangle mirrors the upper one
        (distance-matrix form).
        """
        n = self.n_items
        out = np.full((n, n), fill, dtype=np.float64)
        i, j, v = self.columns()
        out[i, j] = v
        if symmetric:
            out[j, i] = v
        return out

    def to_condensed(self) -> np.ndarray:
        """SciPy condensed distance-vector form (row-major upper triangle).

        Raises if the full triangle is incomplete (SciPy clustering
        needs all ``C(n, 2)`` pairs) — partial workload shapes must be
        :meth:`merge`-completed or exported via :meth:`to_dense`.
        """
        with self._lock:
            recorded, pos, v = self._n, self._pos, self._v
        if recorded != self.n_pairs:
            raise ValueError(
                f"result matrix incomplete: {recorded} of {self.n_pairs} pairs present"
            )
        # Every cell recorded: the numbering is the row-major triangle.
        return v[pos]

    def merge(self, other: "ResultMatrix[K]") -> "ResultMatrix[K]":
        """Combine this matrix with ``other`` into a new matrix.

        The canonical use is folding a :class:`~repro.core.workload.DeltaPairs`
        run into the prior corpus matrix: ``full = prior.merge(delta)``
        yields the all-pairs matrix of the grown corpus without
        recomputing the prior triangle.  The merged key order is this
        matrix's keys followed by ``other``'s unseen keys; the merged
        ``expected_pairs`` is the sum of both shapes (for the delta
        case exactly the grown corpus's full triangle).  A pair with a
        result in *both* matrices is a conflict and raises.
        """
        merged_keys = list(self.keys) + [k for k in other.keys if k not in self._index]
        index = {k: i for i, k in enumerate(merged_keys)}
        n = len(merged_keys)
        expected = min(self.expected_pairs + other.expected_pairs, n * (n - 1) // 2)
        # This matrix's keys lead the merged list: its indices carry over.
        remap = np.array([index[k] for k in other.keys], dtype=np.int64)
        si, sj = np.divmod(self._pairs.codes, self.n_items)
        oi, oj = np.divmod(other._pairs.codes, other.n_items)
        oi, oj = remap[oi], remap[oj]
        # Numbered by the union of both numberings.
        union = PairSet(
            n,
            np.concatenate([si, np.minimum(oi, oj)]),
            np.concatenate([sj, np.maximum(oi, oj)]),
        )
        merged: ResultMatrix[K] = ResultMatrix(merged_keys, expected, union)
        merged.set_block(*self.sorted_columns())
        oi, oj, ov = other.sorted_columns()
        try:
            merged.set_block(remap[oi], remap[oj], ov)
        except ValueError as exc:  # a pair recorded on both sides
            raise ValueError(
                f"{exc} in both matrices; merge() requires disjoint pair sets"
            ) from None
        return merged


def result_document(matrix: ResultMatrix, keys: Optional[List[Any]] = None) -> Dict[str, Any]:
    """The ``rocket-results`` document of ``matrix`` (its ``keys`` by default).

    The ordered key list plus the recorded ``[i, j, value]`` index
    triples in ``(i, j)`` order; :func:`matrix_from_document` restores
    an equivalent matrix.
    """
    i, j, v = matrix.sorted_columns()
    return {
        "format": "rocket-results",
        "keys": list(matrix.keys) if keys is None else keys,
        "values": list(zip(i.tolist(), j.tolist(), v.tolist())),
        "expected_pairs": matrix.expected_pairs,
    }


def matrix_from_document(doc: Any) -> ResultMatrix:
    """Rebuild a matrix from a ``rocket-results`` document.

    Raises ``ValueError`` for anything but a well-formed document: a
    missing field, a row that is not ``[i, j, value]``, an index out of
    range, a non-integer index or a non-real value — checked once, by
    :meth:`ResultMatrix.set_block`'s column checks.
    """
    if not isinstance(doc, dict) or doc.get("format") != "rocket-results":
        raise ValueError("not a rocket-results document")
    try:
        keys, rows = doc["keys"], doc["values"]
        if not isinstance(rows, list) or not set(map(len, rows)) <= {3}:
            raise ValueError("'values' must be a list of [i, j, value] rows")
        i, j, values = zip(*rows) if rows else ((), (), ())
        i, j = _index_column(i), _index_column(j)
        # Numbered by its own rows: a document's size, never C(n, 2)'s.
        pairs = PairSet(len(keys), np.minimum(i, j), np.maximum(i, j))
        expected = doc.get("expected_pairs")
        if expected is None:
            expected = len(keys) * (len(keys) - 1) // 2
        matrix: ResultMatrix = ResultMatrix(keys, expected, pairs)
        if rows:
            matrix.set_block(i, j, values)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed rocket-results document: {exc}") from None
    return matrix


def save_results(matrix: "ResultMatrix", path) -> None:
    """Persist a (complete or partial) scalar result matrix as JSON.

    The file stores the ordered key list (as strings) and the recorded
    (i, j, value) triples; :func:`load_results` restores an equivalent
    matrix.
    """
    import json

    doc = result_document(matrix, keys=list(map(str, matrix.keys)))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_results(path) -> "ResultMatrix[str]":
    """Restore a result matrix saved by :func:`save_results`.

    Raises ``ValueError`` for a file that is not a well-formed result
    document.
    """
    import json

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return matrix_from_document(doc)
    except ValueError as exc:
        raise ValueError(f"{path} is not a valid rocket result file: {exc}") from None
