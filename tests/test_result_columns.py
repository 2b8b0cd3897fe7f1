"""The columnar result matrix equals a plain dict matrix, on every path.

:class:`~repro.core.result.ResultMatrix` keeps a run's results as
arrival-ordered ``(i, j, value)`` columns.  These tests pin it to the
simplest possible implementation of the same contract — a dict of cells
plus an arrival list, checked pair by pair in Python — by equality:

- a Hypothesis property over random block sequences, rejected blocks
  included: after every block, ``to_dense``, ``to_condensed``,
  ``items`` and the arrival order are ``==``, and a block one rejects
  the other rejects with the same exception type — on a bare matrix and
  on the matrix of every workload shape (all-pairs, filtered,
  bipartite, delta, ``PairSubset`` and a ``merge``), whose numbering
  rejects a pair outside the workload;
- end to end: every workload shape (all-pairs, filtered, bipartite,
  delta and ``merge``) on the local and the cluster backend, computed
  cold and served from the memo store, equals both the dict matrix
  built from the job's own stream and the per-pair oracle;
- memory: a ``1 x 200,000`` bipartite matrix allocates O(N), not
  O(C(N, 2)), and a complete all-pairs matrix holds a pair in at most
  30 bytes, its numbering included.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import ResultMatrix
from repro.core.workload import (
    AllPairs,
    Bipartite,
    DeltaPairs,
    FilteredPairs,
    PairSubset,
)

from tests.test_cluster_runtime import SumApp, accept_pair, make_store
from tests.test_multijob import make_rocket


class DictMatrix:
    """The reference: one dict entry per cell, one Python check per pair."""

    def __init__(self, keys, expected_pairs=None, cells=None):
        self.keys = list(keys)
        n = len(self.keys)
        self.expected_pairs = n * (n - 1) // 2 if expected_pairs is None else expected_pairs
        #: The ``(i, j)`` cells the workload holds; None: the whole triangle.
        self.cells = cells
        self.values = {}
        self.order = []

    def set_block(self, i, j, values):
        """The contract's checks, each over the whole block, in its order."""
        if not len(i) == len(j) == len(values):
            raise ValueError("length mismatch")
        if not all(isinstance(value, (int, float)) for value in values):
            raise TypeError("not a real number")
        n = len(self.keys)
        if not all(0 <= a < n and 0 <= b < n for a, b in zip(i, j)):
            raise IndexError("out of range")
        if any(a == b for a, b in zip(i, j)):
            raise KeyError("diagonal")
        cells = [(min(a, b), max(a, b)) for a, b in zip(i, j)]
        if self.cells is not None and not set(cells) <= self.cells:
            raise KeyError("not part of the workload")
        if any(cell in self.values for cell in cells):
            raise ValueError("already recorded")
        if len(set(cells)) != len(cells):
            raise ValueError("twice in one block")
        for cell, value in zip(cells, values):
            self.values[cell] = float(value)
            self.order.append(cell)

    def items(self):
        return [(self.keys[i], self.keys[j], v) for (i, j), v in sorted(self.values.items())]

    def arrivals(self):
        return [(self.keys[i], self.keys[j], self.values[(i, j)]) for i, j in self.order]

    def to_dense(self):
        n = len(self.keys)
        out = [[0.0] * n for _ in range(n)]
        for (i, j), v in self.values.items():
            out[i][j] = out[j][i] = v
        return out

    def to_condensed(self):
        n = len(self.keys)
        if len(self.values) != n * (n - 1) // 2:
            raise ValueError("incomplete")
        return [self.values[(i, j)] for i in range(n) for j in range(i + 1, n)]


def assert_same(matrix, reference):
    assert len(matrix) == len(reference.values)
    assert list(matrix.items()) == reference.items()
    assert matrix.arrivals() == reference.arrivals()
    assert matrix.to_dense().tolist() == reference.to_dense()
    try:
        expected = reference.to_condensed()
    except ValueError:
        with pytest.raises(ValueError):
            matrix.to_condensed()
    else:
        assert matrix.to_condensed().tolist() == expected
    assert matrix.is_complete() == (len(reference.values) == reference.expected_pairs)


# ----------------------------------------------------------------------
# The property: random block sequences, rejected blocks included


def blocks(n):
    index = st.integers(min_value=-1, max_value=n)  # one step past each end
    value = st.one_of(
        st.floats(allow_nan=False, width=64),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.just("x"),
    )
    row = st.tuples(index, index, value)
    return st.lists(st.lists(row, max_size=8), max_size=12)


@st.composite
def block_sequences(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    return n, draw(blocks(n))


@settings(max_examples=300, deadline=None)
@given(block_sequences())
def test_columns_equal_the_dict_matrix_over_any_block_sequence(case):
    n, sequence = case
    keys = [f"k{i}" for i in range(n)]
    matrix, reference = ResultMatrix(keys), DictMatrix(keys)
    for block in sequence:
        i = [row[0] for row in block]
        j = [row[1] for row in block]
        values = [row[2] for row in block]
        outcomes = []
        for target in (matrix, reference):
            try:
                target.set_block(i, j, values)
                outcomes.append(None)
            except (TypeError, IndexError, KeyError, ValueError) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1], block
        assert_same(matrix, reference)  # a rejected block changed nothing


SHAPES = ["all-pairs", "filtered", "bipartite", "delta", "subset", "merge"]


@st.composite
def shaped_sequences(draw):
    shape = draw(st.sampled_from(SHAPES))
    least = 2 if shape == "merge" else 1  # a merge's prior matrix needs 2 keys
    n = draw(st.integers(min_value=least + 1, max_value=7))
    triangle = [(a, b) for a in range(n) for b in range(a + 1, n)]
    split = draw(st.integers(min_value=least, max_value=n - 1))
    # filtered/subset: the pairs kept; merge: the pairs recorded before it.
    min_size = 0 if shape == "merge" else 1
    chosen = draw(st.sets(st.sampled_from(triangle), min_size=min_size))
    return n, shape, split, chosen, draw(blocks(n))


def shaped(keys, shape, split, chosen):
    """The matrix of one workload shape and its dict reference."""
    if shape == "merge":
        prior = AllPairs(keys[:split]).make_result()
        delta = DeltaPairs(keys[:split], keys[split:]).make_result()
        recorded = sorted(chosen)  # arrival order of the merged matrix
        recorded = [c for c in recorded if c[1] < split] + [c for c in recorded if c[1] >= split]
        for a, b in recorded:
            (prior if b < split else delta).set_block([a], [b], [float(a * 10 + b)])
        reference = DictMatrix(keys)
        for a, b in recorded:
            reference.set_block([a], [b], [float(a * 10 + b)])
        return prior.merge(delta), reference
    index = {k: n for n, k in enumerate(keys)}
    workload = {
        "all-pairs": lambda: AllPairs(keys),
        "filtered": lambda: FilteredPairs(keys, lambda a, b: (index[a], index[b]) in chosen),
        "bipartite": lambda: Bipartite(keys[:split], keys[split:]),
        "delta": lambda: DeltaPairs(keys[:split], keys[split:]),
        "subset": lambda: PairSubset(AllPairs(keys), *map(np.array, zip(*sorted(chosen)))),
    }[shape]()
    cells = set(zip(*(column.tolist() for column in workload.pair_columns())))
    return workload.make_result(), DictMatrix(keys, workload.n_pairs, cells)


@settings(max_examples=300, deadline=None)
@given(shaped_sequences())
def test_every_workload_shape_equals_the_dict_matrix_over_any_block_sequence(case):
    n, shape, split, chosen, sequence = case
    keys = [f"k{i}" for i in range(n)]
    matrix, reference = shaped(keys, shape, split, chosen)
    held = sorted(reference.cells or [(a, b) for a in range(n) for b in range(a + 1, n)])
    assert_same(matrix, reference)
    for block in sequence:
        i = [row[0] for row in block]
        j = [row[1] for row in block]
        values = [row[2] for row in block]
        outcomes = []
        for target in (matrix, reference):
            try:
                target.set_block(i, j, values)
                outcomes.append(None)
            except (TypeError, IndexError, KeyError, ValueError) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1], (shape, block)
        assert_same(matrix, reference)
        missing = [k for k, cell in enumerate(held) if cell not in reference.values]
        assert matrix.unrecorded(*zip(*held)).tolist() == missing


def test_a_pair_outside_the_workload_is_rejected_and_records_nothing():
    matrix = Bipartite(["q"], ["a", "b", "c"]).make_result()
    matrix.set_block([0], [1], [1.0])
    # (1, 2) is reference-internal: the bipartite workload never holds it.
    with pytest.raises(KeyError, match="'a', 'b'.*not part of the workload"):
        matrix.set_block([0, 2], [3, 1], [2.0, 3.0])
    assert len(matrix) == 1 and ("q", "c") not in matrix
    assert matrix.unrecorded([0, 0], [2, 3]).tolist() == [0, 1]
    with pytest.raises(KeyError, match="not part of the workload"):
        matrix.unrecorded([0, 1], [3, 2])
    matrix.set_block([0, 0], [2, 3], [2.0, 3.0])
    assert matrix.is_complete()


def test_an_unrecorded_pair_reads_as_missing_on_every_path():
    matrix = ResultMatrix(["a", "b", "c"])
    matrix.set("c", "a", 2.0)
    assert ("a", "c") in matrix and ("a", "b") not in matrix
    with pytest.raises(KeyError, match="no result recorded"):
        matrix.get("a", "b")
    assert matrix.unrecorded([0, 2, 1, 1], [1, 0, 2, 0]).tolist() == [0, 2]


# ----------------------------------------------------------------------
# End to end: every shape, both backends, cold and memo-served


PRIOR, NEW = 7, 3


def shapes(keys):
    prior, new = keys[:PRIOR], keys[PRIOR:]
    return {
        "all-pairs": AllPairs(keys),
        "filtered": FilteredPairs(keys, accept_pair),
        "bipartite": Bipartite(keys[:2], keys[2:]),
        "prior": AllPairs(prior),
        "delta": DeltaPairs(prior, new),
    }


def oracle(app, store, a, b):
    load = lambda k: app.preprocess(k, app.parse(k, store.read(app.file_name(k))))  # noqa: E731
    return app.postprocess(a, b, app.compare(a, load(a), b, load(b)))


def streamed_reference(handle):
    """The dict matrix fed the job's own stream, in arrival order."""
    workload = handle.workload
    reference = DictMatrix(workload.keys, workload.n_pairs)
    index = {k: n for n, k in enumerate(workload.keys)}
    for a, b, value in handle.stream():
        reference.set_block([index[a]], [index[b]], [value])
    return reference


@pytest.mark.parametrize("backend", ["local", "cluster"])
def test_every_shape_equals_the_dict_matrix_cold_and_memo_served(backend, tmp_path):
    store, keys = make_store(PRIOR + NEW)
    app = SumApp()
    for memo_served in (False, True):
        session = make_rocket(backend, store, store_dir=str(tmp_path)).session()
        try:
            handles = {name: session.submit(w) for name, w in shapes(keys).items()}
            results = {name: h.result(timeout=60.0) for name, h in handles.items()}
        finally:
            session.close()
        for name, handle in handles.items():
            matrix = results[name]
            assert handle.memo_hits == (len(matrix) if memo_served else 0), name
            reference = streamed_reference(handle)
            assert_same(matrix, reference)
            assert len(matrix) == handle.workload.n_pairs
            for a, b, value in matrix.items():
                assert value == oracle(app, store, a, b), (name, a, b)
        merged = results["prior"].merge(results["delta"])
        assert merged.keys == keys and merged.is_complete()
        assert list(merged.items()) == list(results["all-pairs"].items())
        assert merged.to_condensed().tolist() == results["all-pairs"].to_condensed().tolist()


# ----------------------------------------------------------------------
# Memory grows with the recorded pairs, never with C(N, 2)


def test_a_one_by_200k_bipartite_matrix_allocates_order_n():
    n = 200_000
    corpus = [f"s{k:06d}" for k in range(n)]
    workload = Bipartite(["query"], corpus)
    i, j = workload.pair_columns()
    values = np.arange(n, dtype=np.float64)
    tracemalloc.start()
    try:
        matrix = workload.make_result()
        empty, _ = tracemalloc.get_traced_memory()
        matrix.set_block(i, j, values)
        full, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.is_complete() and matrix.n_pairs > 2 * 10**10
    # The key index is O(N); each recorded pair costs its 16 bytes of
    # columns plus 12 of numbering.  C(N, 2) bits alone would be 2.5 GB.
    assert empty < 120 * n
    assert full < 250 * n and peak < 300 * n
    assert matrix.get("query", "s123456") == 123456.0


def test_a_complete_all_pairs_matrix_holds_a_pair_in_30_bytes():
    n = 1_200
    workload = AllPairs([f"s{k:04d}" for k in range(n)])
    i, j = workload.pair_columns()
    values = np.arange(len(i), dtype=np.float64)
    tracemalloc.start()
    try:
        matrix = workload.make_result()
        for s in range(0, len(i), 64):
            matrix.set_block(i[s : s + 64], j[s : s + 64], values[s : s + 64])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.is_complete() and len(matrix) == 719_400
    # 16 bytes of columns, 8 of numbering code and 4 of position.
    assert held / len(matrix) <= 30
