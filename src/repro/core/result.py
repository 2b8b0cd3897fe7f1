"""Result collection for all-pairs (and partial-triangle) runs.

The output of an all-pairs computation is the strict upper triangle of
an ``n x n`` matrix (paper Fig. 1).  :class:`ResultMatrix` stores it
keyed by unordered key pairs, thread-safely (jobs complete concurrently
in the threaded runtime), and converts to dense/condensed NumPy forms
for downstream analysis such as the phylogeny clustering.  It is also the
run's arrival log: :meth:`ResultMatrix.arrivals` reads the cells in the
order they were recorded, from any position — what a job's streaming
readers iterate by cursor instead of each keeping a copy.

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
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

__all__ = ["ResultMatrix", "save_results", "load_results"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class ResultMatrix(Generic[K, V]):
    """Upper-triangular result store over an ordered key list."""

    def __init__(self, keys: Sequence[K], expected_pairs: Optional[int] = None) -> None:
        if len(keys) < 2:
            raise ValueError(f"need at least 2 keys, got {len(keys)}")
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate keys")
        self.keys: List[K] = list(keys)
        self._index: Dict[K, int] = {k: i for i, k in enumerate(self.keys)}
        self._values: Dict[Tuple[int, int], V] = {}
        #: Cells in arrival order (the dict's own key objects).
        self._order: List[Tuple[int, int]] = []
        self._lock = threading.Lock()
        if expected_pairs is None:
            expected_pairs = self.n_pairs
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
        with self._lock:
            return len(self._values)

    def _cell(self, a: K, b: K) -> Tuple[int, int]:
        try:
            i, j = self._index[a], self._index[b]
        except KeyError as exc:
            raise KeyError(f"unknown key {exc.args[0]!r}") from None
        if i == j:
            raise KeyError(f"diagonal cell ({a!r}, {a!r}) is not part of the workload")
        return (i, j) if i < j else (j, i)

    def set(self, a: K, b: K, value: V) -> None:
        """Record the result for the unordered pair ``{a, b}``."""
        cell = self._cell(a, b)
        with self._lock:
            if cell in self._values:
                raise ValueError(f"pair {a!r}, {b!r} already has a result")
            self._values[cell] = value
            self._order.append(cell)

    def set_block(self, entries: Iterable[Tuple[K, K, V]]) -> None:
        """Record a batch of ``(a, b, value)`` results under one lock.

        Every cell is checked like :meth:`set` — unknown key, diagonal,
        a pair repeated inside the batch or already recorded all raise —
        and the batch is all-or-nothing: a rejected batch leaves the
        matrix exactly as it was.
        """
        cells: Dict[Tuple[int, int], V] = {}
        for a, b, value in entries:
            cell = self._cell(a, b)
            if cell in cells:
                raise ValueError(f"pair {a!r}, {b!r} appears twice in one block")
            cells[cell] = value
        with self._lock:
            values = self._values
            if not values.keys().isdisjoint(cells):
                i, j = next(cell for cell in cells if cell in values)
                raise ValueError(
                    f"pair {self.keys[i]!r}, {self.keys[j]!r} already has a result"
                )
            values.update(cells)
            self._order.extend(cells)

    def get(self, a: K, b: K) -> V:
        """Return the result for the unordered pair ``{a, b}``."""
        cell = self._cell(a, b)
        with self._lock:
            try:
                return self._values[cell]
            except KeyError:
                raise KeyError(f"no result recorded for pair {a!r}, {b!r}") from None

    def __contains__(self, pair: Tuple[K, K]) -> bool:
        """True when the unordered pair ``(a, b)`` has a recorded result."""
        cell = self._cell(*pair)
        with self._lock:
            return cell in self._values

    def is_complete(self) -> bool:
        """True once every *expected* pair has a result.

        For a plain all-pairs matrix this is the full triangle; for a
        filtered/bipartite/delta shape it is the workload's pair set.
        """
        with self._lock:
            return len(self._values) == self.expected_pairs

    def items(self) -> Iterator[Tuple[K, K, V]]:
        """Iterate ``(key_a, key_b, value)`` in (i, j) index order."""
        with self._lock:
            cells = sorted(self._values.items())
        for (i, j), v in cells:
            yield self.keys[i], self.keys[j], v

    def arrivals(self, start: int = 0, limit: Optional[int] = None) -> List[Tuple[K, K, V]]:
        """Up to ``limit`` ``(key_a, key_b, value)`` from arrival position ``start``.

        ``key_a`` precedes ``key_b`` in the key list.
        """
        stop = None if limit is None else start + limit
        keys = self.keys
        with self._lock:
            values = self._values
            return [
                (keys[cell[0]], keys[cell[1]], values[cell])
                for cell in self._order[start:stop]
            ]

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
        with self._lock:
            for (i, j), v in self._values.items():
                out[i, j] = float(v)  # type: ignore[arg-type]
                if symmetric:
                    out[j, i] = float(v)  # type: ignore[arg-type]
        return out

    def to_condensed(self) -> np.ndarray:
        """SciPy condensed distance-vector form (row-major upper triangle).

        Raises if the full triangle is incomplete (SciPy clustering
        needs all ``C(n, 2)`` pairs) — partial workload shapes must be
        :meth:`merge`-completed or exported via :meth:`to_dense`.
        """
        if len(self) != self.n_pairs:
            raise ValueError(
                f"result matrix incomplete: {len(self)} of {self.n_pairs} pairs present"
            )
        n = self.n_items
        out = np.empty(self.n_pairs, dtype=np.float64)
        pos = 0
        with self._lock:
            for i in range(n):
                for j in range(i + 1, n):
                    out[pos] = float(self._values[(i, j)])  # type: ignore[arg-type]
                    pos += 1
        return out

    def merge(self, other: "ResultMatrix[K, V]") -> "ResultMatrix[K, V]":
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
        n = len(merged_keys)
        expected = min(self.expected_pairs + other.expected_pairs, n * (n - 1) // 2)
        merged: ResultMatrix[K, V] = ResultMatrix(merged_keys, expected_pairs=expected)
        for a, b, v in self.items():
            merged.set(a, b, v)
        for a, b, v in other.items():
            try:
                merged.set(a, b, v)
            except ValueError:
                raise ValueError(
                    f"pair {a!r}, {b!r} has a result in both matrices; "
                    f"merge() requires disjoint pair sets"
                ) from None
        return merged


def save_results(matrix: "ResultMatrix", path) -> None:
    """Persist a (complete or partial) scalar result matrix as JSON.

    The file stores the ordered key list and the recorded (i, j, value)
    triples; :func:`load_results` restores an equivalent matrix.
    """
    import json

    triples = []
    with matrix._lock:
        for (i, j), v in sorted(matrix._values.items()):
            triples.append([i, j, float(v)])  # type: ignore[arg-type]
    doc = {
        "format": "rocket-results",
        "keys": list(map(str, matrix.keys)),
        "values": triples,
        "expected_pairs": matrix.expected_pairs,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_results(path) -> "ResultMatrix[str, float]":
    """Restore a result matrix saved by :func:`save_results`."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != "rocket-results":
        raise ValueError(f"{path} is not a rocket result file")
    matrix: ResultMatrix[str, float] = ResultMatrix(
        doc["keys"], expected_pairs=doc.get("expected_pairs")
    )
    keys = matrix.keys
    for i, j, v in doc["values"]:
        matrix.set(keys[i], keys[j], float(v))
    return matrix
