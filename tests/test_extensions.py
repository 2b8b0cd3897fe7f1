"""Tests for the Section 7 (future work) extensions implemented here:

- cache-aware work-stealing (remote victims chosen by data overlap);
- persistent / warm host caches (reuse data from a previous run);
- user-defined pair filters (heuristically reduce the pair set).
"""

import numpy as np
import pytest

from repro.core.workload import FilteredPairs
from repro.scheduling.quadtree import PairBlock
from repro.scheduling.workstealing import StealOrder, TaskDeque
from repro.sim.cluster import ClusterSpec
from repro.sim.rocketsim import RocketSimConfig, run_simulation
from repro.sim.workload import FORENSICS, scaled_profile


def small_profile(n=48):
    return scaled_profile(FORENSICS, n)


class TestSampleItems:
    def test_samples_within_block_items(self):
        block = PairBlock(4, 12, 8, 20)
        sample = block.sample_items(8)
        assert sample
        assert set(sample) <= set(block.items())
        assert len(sample) <= 8

    def test_empty_block_empty_sample(self):
        assert PairBlock(5, 8, 0, 4).sample_items() == []

    def test_single_cell(self):
        assert PairBlock(0, 1, 1, 2).sample_items(4) == [0, 1]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            PairBlock.root(4).sample_items(0)


class TestPeekStealTarget:
    def test_peek_matches_steal(self):
        dq = TaskDeque(0)
        dq.push("root")
        dq.push("child")
        assert dq.peek_steal_target(StealOrder.LARGEST) == "root"
        assert dq.steal(StealOrder.LARGEST) == "root"
        assert dq.peek_steal_target(StealOrder.SMALLEST) == "child"

    def test_peek_empty(self):
        assert TaskDeque(0).peek_steal_target() is None

    def test_peek_does_not_remove(self):
        dq = TaskDeque(0)
        dq.push("x")
        dq.peek_steal_target()
        assert len(dq) == 1
        assert dq.steals_suffered == 0


class TestCacheAwareStealing:
    def _cfg(self, **kw):
        base = dict(seed=3, device_cache_slots=8, host_cache_slots=12)
        base.update(kw)
        return RocketSimConfig(**base)

    def test_run_completes_with_cache_aware_stealing(self):
        prof = small_profile()
        rep = run_simulation(
            ClusterSpec.homogeneous(4), prof, self._cfg(cache_aware_stealing=True)
        )
        assert sum(rep.pairs_per_gpu.values()) == prof.n_pairs
        assert rep.remote_steals > 0

    def test_deterministic(self):
        prof = small_profile()
        r1 = run_simulation(
            ClusterSpec.homogeneous(4), prof, self._cfg(cache_aware_stealing=True)
        )
        r2 = run_simulation(
            ClusterSpec.homogeneous(4), prof, self._cfg(cache_aware_stealing=True)
        )
        assert r1.runtime == r2.runtime
        assert r1.total_loads == r2.total_loads

    def test_does_not_hurt_reuse(self):
        """Cache-aware victim choice must not increase loads materially."""
        prof = small_profile(64)
        plain = run_simulation(ClusterSpec.homogeneous(6), prof, self._cfg())
        aware = run_simulation(
            ClusterSpec.homogeneous(6), prof, self._cfg(cache_aware_stealing=True)
        )
        assert aware.reuse_factor <= plain.reuse_factor * 1.15

    def test_local_steals_still_preferred(self):
        prof = small_profile()
        rep = run_simulation(
            ClusterSpec.homogeneous(2, gpus_per_node=2),
            prof,
            self._cfg(cache_aware_stealing=True),
        )
        assert rep.local_steals > 0


class TestWarmHostCaches:
    def _cfg(self, **kw):
        base = dict(seed=5, device_cache_slots=8, host_cache_slots=24)
        base.update(kw)
        return RocketSimConfig(**base)

    def test_warm_start_reduces_loads(self):
        """Persistent caches: a second run loads (almost) nothing."""
        prof = small_profile(40)
        cold = run_simulation(ClusterSpec.homogeneous(4), prof, self._cfg())
        warm = run_simulation(
            ClusterSpec.homogeneous(4), prof, self._cfg(warm_host_caches=True)
        )
        assert warm.total_loads < cold.total_loads
        assert warm.runtime <= cold.runtime * 1.05

    def test_fully_warm_single_node_loads_zero(self):
        """One node whose host cache holds the whole data set: R = 0 loads."""
        prof = small_profile(20)
        rep = run_simulation(
            ClusterSpec.homogeneous(1),
            prof,
            RocketSimConfig(
                seed=1, device_cache_slots=20, host_cache_slots=20, warm_host_caches=True
            ),
        )
        assert rep.total_loads == 0
        assert rep.storage_bytes == 0

    def test_warm_caches_complete_correctly(self):
        prof = small_profile(30)
        rep = run_simulation(
            ClusterSpec.homogeneous(3), prof, self._cfg(warm_host_caches=True)
        )
        assert sum(rep.pairs_per_gpu.values()) == prof.n_pairs


class TestPairFilter:
    def _setup(self, n=8):
        from repro.core.rocket import Rocket
        from repro.data.filestore import InMemoryStore
        from repro.runtime.localrocket import RocketConfig
        from tests.test_localrocket import SumApp, make_store

        store, values = make_store(n)
        app = SumApp()
        rocket = Rocket(
            app, store, RocketConfig(n_devices=2, device_cache_slots=4, host_cache_slots=6, seed=2)
        )
        return rocket, sorted(values), values

    def test_filter_restricts_pairs(self):
        rocket, keys, values = self._setup(8)
        accept = lambda a, b: (int(a[-2:]) + int(b[-2:])) % 2 == 0  # noqa: E731
        results = rocket.run(FilteredPairs(keys, accept))
        expected = {(a, b) for i, a in enumerate(keys) for b in keys[i + 1 :] if accept(a, b)}
        got = {(a, b) for a, b, _ in results.items()}
        assert got == expected
        # Accepted pairs still computed correctly.
        for a, b, v in results.items():
            assert v == pytest.approx(values[a] * values[b])

    def test_filter_skips_loads_of_unneeded_items(self):
        rocket, keys, _ = self._setup(10)
        first_half = set(keys[:5])
        results = rocket.run(
            FilteredPairs(keys, lambda a, b: a in first_half and b in first_half)
        )
        assert len(results) == 10  # C(5,2)
        # Items outside the filter were never loaded.
        assert rocket.last_stats.loads <= 5 + 2  # small slack for races

    def test_reject_all_raises(self):
        rocket, keys, _ = self._setup(4)
        with pytest.raises(ValueError, match="rejected every pair"):
            rocket.run(FilteredPairs(keys, lambda a, b: False))

    def test_no_filter_unchanged(self):
        rocket, keys, _ = self._setup(6)
        results = rocket.run(keys)
        assert results.is_complete()
