"""Unit tests for workload profiles and the faithful scaling law, and a
property test of the runtime's accepted-pair-set format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rocket import Rocket
from repro.core.workload import (
    AllPairs,
    Bipartite,
    DeltaPairs,
    FilteredPairs,
    PairSubset,
)
from repro.runtime.localrocket import RocketConfig
from repro.scheduling.quadtree import PairBlock
from repro.sim.workload import (
    BIOINFORMATICS,
    FORENSICS,
    MICROSCOPY,
    PROFILES,
    WorkloadProfile,
    scaled_profile,
)

from tests.test_cluster_runtime import SumApp, make_store


class TestProfiles:
    def test_table1_pair_counts(self):
        """The paper's Table 1 pair counts must be exact.

        Note: Table 1 lists 130,816 pairs for microscopy, which is
        C(512, 2), not C(256, 2) = 32,640 — inconsistent with the text's
        "256 particles".  We follow the text (n = 256); the discrepancy
        is recorded in EXPERIMENTS.md.
        """
        assert FORENSICS.n_pairs == 12_397_710
        assert BIOINFORMATICS.n_pairs == 3_123_750
        assert MICROSCOPY.n_pairs == 32_640

    def test_profiles_registry(self):
        assert set(PROFILES) == {"forensics", "bioinformatics", "microscopy"}

    def test_compute_vs_data_intensity(self):
        assert MICROSCOPY.is_compute_intensive
        assert not FORENSICS.is_compute_intensive
        assert not BIOINFORMATICS.is_compute_intensive

    def test_total_pairwise_bytes_is_quadratic(self):
        """Table 1's 'total data pair-wise processed' ~ 1 PB for forensics."""
        total = FORENSICS.total_pairwise_bytes
        assert 0.8e15 < total < 1.2e15

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("x", 1, 1, 1, 1, (0, 0), (0, 0), (1, 0), (0, 0))
        with pytest.raises(ValueError):
            WorkloadProfile("x", 5, 1, 1, 1, (-1, 0), (0, 0), (1, 0), (0, 0))
        with pytest.raises(ValueError):
            WorkloadProfile("x", 5, 1, 1, 1, (0, 0), (0, 0), (1, 0), (0, 0), compare_distribution="weird")


class TestInstance:
    def test_per_item_times_fixed_across_calls(self):
        inst = FORENSICS.instantiate(seed=3)
        assert inst.parse_time(5) == inst.parse_time(5)
        assert inst.preprocess_time(7) == inst.preprocess_time(7)

    def test_deterministic_under_seed(self):
        a = MICROSCOPY.instantiate(seed=9)
        b = MICROSCOPY.instantiate(seed=9)
        assert np.array_equal(a.parse_times, b.parse_times)
        assert a.compare_time() == b.compare_time()

    def test_different_seeds_differ(self):
        a = MICROSCOPY.instantiate(seed=1)
        b = MICROSCOPY.instantiate(seed=2)
        assert not np.array_equal(a.parse_times, b.parse_times)

    def test_all_times_positive(self):
        inst = BIOINFORMATICS.instantiate(seed=0)
        assert (inst.parse_times > 0).all()
        assert (inst.preprocess_times > 0).all()
        assert all(inst.compare_time() > 0 for _ in range(100))

    def test_microscopy_has_no_preprocess(self):
        inst = MICROSCOPY.instantiate(seed=0)
        assert (inst.preprocess_times == 0).all()

    def test_lognormal_compare_moments(self):
        """Sampled irregular kernel times must match Table 1's mean/std."""
        inst = MICROSCOPY.instantiate(seed=4)
        samples = np.array([inst.compare_time() for _ in range(20_000)])
        assert samples.mean() == pytest.approx(MICROSCOPY.t_compare[0], rel=0.05)
        assert samples.std() == pytest.approx(MICROSCOPY.t_compare[1], rel=0.15)

    def test_normal_compare_tight(self):
        inst = FORENSICS.instantiate(seed=4)
        samples = np.array([inst.compare_time() for _ in range(2000)])
        cv = samples.std() / samples.mean()
        assert cv < 0.05  # regular kernel

    def test_file_sizes_near_mean(self):
        inst = FORENSICS.instantiate(seed=0)
        assert inst.file_sizes.mean() == pytest.approx(FORENSICS.file_size, rel=0.1)


class TestScaling:
    def test_plain_truncation(self):
        small = scaled_profile(FORENSICS, 100, scale_load_costs=False)
        assert small.n_items == 100
        assert small.t_parse == FORENSICS.t_parse

    def test_faithful_scaling_shrinks_load_costs(self):
        small = scaled_profile(FORENSICS, 498)  # s = 0.1
        assert small.n_items == 498
        assert small.t_parse[0] == pytest.approx(FORENSICS.t_parse[0] * 0.1)
        assert small.t_preprocess[0] == pytest.approx(FORENSICS.t_preprocess[0] * 0.1)
        assert small.file_size == pytest.approx(FORENSICS.file_size * 0.1)
        assert small.slot_size == pytest.approx(FORENSICS.slot_size * 0.1)
        # Comparison cost is NOT scaled (pair count already shrinks as n^2).
        assert small.t_compare == FORENSICS.t_compare

    def test_scaling_preserves_load_to_compare_ratio(self):
        """The invariant the scaling law exists for."""

        def ratio(p: WorkloadProfile) -> float:
            return (p.n_items * p.t_parse[0]) / (p.n_pairs * p.t_compare[0])

        small = scaled_profile(FORENSICS, 500)
        # (n-1) in the denominator makes the match approximate; ~0.5% here.
        assert ratio(small) == pytest.approx(ratio(FORENSICS), rel=0.02)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            scaled_profile(FORENSICS, 1)


# ----------------------------------------------------------------------
# The accepted pair set (core.workload.PairSet)


@st.composite
def accepted_workloads(draw):
    """One of the four workload shapes, narrowed to a random accepted
    subset, and that subset as a brute-force set of index pairs."""
    shape = draw(st.sampled_from(["all", "filtered", "bipartite", "delta"]))
    n = draw(st.integers(3, 24))
    keys = [f"item{k:02d}" for k in range(n)]
    cut = draw(st.integers(1, n - 2))
    base = {
        "all": AllPairs(keys),
        "filtered": AllPairs(keys),
        "bipartite": Bipartite(keys[:cut], keys[cut:]),
        "delta": DeltaPairs(keys[:cut], keys[cut:]),
    }[shape]
    every = [(i, j) for b in base.blocks() for i, j in b.pairs()]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random(len(every)) < draw(st.floats(0.0, 1.0))
    keep[rng.integers(len(every))] = True  # at least one pair
    chosen = {p for p, k in zip(every, keep) if k}
    if shape == "filtered":
        index = {key: k for k, key in enumerate(keys)}
        workload = FilteredPairs(keys, lambda a, b: (index[a], index[b]) in chosen)
    else:
        i, j = np.array(sorted(chosen), dtype=np.int64).T
        workload = PairSubset(base, i, j)
    return workload, chosen


def inside(pairs, block):
    return sorted(
        (i, j)
        for i, j in pairs
        if block.row_lo <= i < block.row_hi and block.col_lo <= j < block.col_hi
    )


def holds(outer, block):
    return (
        outer.row_lo <= block.row_lo and block.row_hi <= outer.row_hi
        and outer.col_lo <= block.col_lo and block.col_hi <= outer.col_hi
    )


def tree_path(roots, block):
    """``block``'s place in the quadtree under ``roots``: the root's index
    then the child index taken at each split, and its parent (None for a
    root)."""
    (r,) = [r for r, root in enumerate(roots) if holds(root, block)]
    node, parent, path = roots[r], None, [r]
    while node != block:
        parent = node
        (k,) = [k for k, child in enumerate(node.split()) if holds(child, block)]
        node = node.split()[k]
        path.append(k)
    return path, parent


def column_pairs(columns):
    i, j = columns
    assert i.dtype == j.dtype == np.int32
    return list(zip(i.tolist(), j.tolist()))


class TestPairSet:
    @settings(max_examples=150, deadline=None)
    @given(accepted_workloads(), st.data())
    def test_counts_and_selections_equal_brute_force(self, case, data):
        workload, chosen = case
        accepted, n = workload.accepted, workload.n_items
        assert len(accepted.codes) == workload.n_pairs == len(chosen)
        for _ in range(4):
            r0, r1 = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
            c0, c1 = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
            block = PairBlock(r0, r1, c0, c1)
            assert accepted.count(block) == len(inside(chosen, block))
            # Row-major: the leaf walk's order.
            assert column_pairs(accepted.columns(block)) == inside(chosen, block)
        blocks = workload.blocks()
        assert workload.block_counts() == [len(inside(chosen, b)) for b in blocks]
        pairs = column_pairs(workload.pair_columns())
        assert len(pairs) == len(set(pairs)) and set(pairs) == chosen
        grain = data.draw(st.integers(1, 40))
        covered, paths = [], []
        for block, count in workload.grain_blocks(grain):
            assert count == len(inside(chosen, block))
            assert 1 <= count <= grain or block.is_leaf()  # cannot split
            path, parent = tree_path(blocks, block)
            # Split no further than needed: the parent held too many.
            assert parent is None or len(inside(chosen, parent)) > grain
            covered.extend(inside(chosen, block))
            paths.append(path)
        assert sorted(covered) == sorted(chosen) and len(covered) == len(chosen)
        assert paths == sorted(paths)  # depth-first: Morton order

    @settings(max_examples=12, deadline=None)
    @given(accepted_workloads())
    def test_local_run_delivers_each_accepted_pair_once(self, case):
        workload, chosen = case
        store, keys = make_store(workload.n_items)
        assert keys == workload.keys
        config = RocketConfig(
            n_devices=2, device_cache_slots=4, host_cache_slots=8, leaf_size=2, seed=1
        )
        with Rocket(SumApp(), store, config).session() as session:
            handle = session.submit(workload)
            assert handle.result(timeout=60.0).is_complete()
            streamed = [(a, b) for a, b, _ in handle.stream()]
        index = {key: k for k, key in enumerate(keys)}
        assert sorted((index[a], index[b]) for a, b in streamed) == sorted(chosen)
