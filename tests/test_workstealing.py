"""Unit tests for deques, topology, and victim selection."""

import numpy as np
import pytest

from repro.scheduling.quadtree import PairBlock
from repro.scheduling.throttle import SimAdmission, ThreadAdmission
from repro.scheduling.workstealing import (
    StealOrder,
    StealPolicy,
    TaskDeque,
    VictimSelector,
    WorkerTopology,
    steal_split_depth,
)
from repro.sim.engine import Environment


class TestTaskDeque:
    def test_owner_pops_lifo(self):
        dq = TaskDeque(0)
        dq.push("a")
        dq.push("b")
        assert dq.pop() == "b"
        assert dq.pop() == "a"
        assert dq.pop() is None

    def test_thief_steals_oldest_with_largest_order(self):
        dq = TaskDeque(0)
        dq.push("root")
        dq.push("child")
        assert dq.steal(StealOrder.LARGEST) == "root"

    def test_smallest_order_steals_bottom(self):
        dq = TaskDeque(0)
        dq.push("root")
        dq.push("child")
        assert dq.steal(StealOrder.SMALLEST) == "child"

    def test_steal_empty_returns_none(self):
        assert TaskDeque(0).steal() is None

    def test_push_children_preserves_dfs_order(self):
        dq = TaskDeque(0)
        dq.push_children(["c1", "c2", "c3"])
        assert dq.pop() == "c1"  # first child worked on first
        assert dq.steal() == "c3"  # last child is the steal target

    def test_counters(self):
        dq = TaskDeque(0)
        dq.push("a")
        dq.pop()
        dq.push("b")
        dq.steal()
        assert (dq.pushes, dq.pops, dq.steals_suffered) == (2, 1, 1)

    def test_stealing_preserves_block_semantics(self):
        """Stolen tasks plus owned tasks still partition the workload."""
        dq = TaskDeque(0)
        root = PairBlock.root(16)
        dq.push_children(root.split())
        stolen = dq.steal()
        remaining = []
        while (t := dq.pop()) is not None:
            remaining.append(t)
        total = stolen.count + sum(t.count for t in remaining)
        assert total == root.count

    def test_pending_pairs_tracks_block_counts(self):
        dq = TaskDeque(0)
        root = PairBlock.root(8)
        dq.push(root)
        assert dq.pending_pairs == root.count
        block = dq.pop()
        assert dq.pending_pairs == 0
        children = block.split()
        dq.push_children(children)
        assert dq.pending_pairs == root.count
        stolen = dq.steal()
        assert dq.pending_pairs == root.count - stolen.count

    def test_pending_pairs_counts_plain_tasks_as_one(self):
        dq = TaskDeque(0)
        dq.push("a")  # str.count is a method, not a size
        dq.push("b")
        assert dq.pending_pairs == 2
        dq.pop()
        assert dq.pending_pairs == 1


class TestWorkerTopology:
    def test_from_gpus_per_node(self):
        topo = WorkerTopology.from_gpus_per_node([1, 2, 2])
        assert topo.n_workers == 5
        assert topo.n_nodes == 3
        assert topo.node_of == (0, 1, 1, 2, 2)

    def test_peers_and_remote(self):
        topo = WorkerTopology.from_gpus_per_node([2, 2])
        assert topo.peers_on_node(0) == [1]
        assert topo.remote_workers(0) == [2, 3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WorkerTopology.from_gpus_per_node([])
        with pytest.raises(ValueError):
            WorkerTopology(())


class TestVictimSelector:
    def _selector(self, hierarchical=True):
        topo = WorkerTopology.from_gpus_per_node([2, 2, 2])
        return VictimSelector(topo, np.random.default_rng(42), hierarchical=hierarchical), topo

    def test_hierarchical_prefers_same_node(self):
        selector, topo = self._selector()
        for worker in range(topo.n_workers):
            order = list(selector.candidates(worker))
            local = set(topo.peers_on_node(worker))
            n_local = len(local)
            assert set(order[:n_local]) == local
            assert worker not in order
            assert len(order) == topo.n_workers - 1

    def test_uniform_covers_all_others(self):
        selector, topo = self._selector(hierarchical=False)
        order = list(selector.candidates(0))
        assert sorted(order) == [1, 2, 3, 4, 5]

    def test_is_remote(self):
        selector, _ = self._selector()
        assert not selector.is_remote(0, 1)
        assert selector.is_remote(0, 2)

    def test_unknown_worker_rejected(self):
        selector, _ = self._selector()
        with pytest.raises(ValueError):
            list(selector.candidates(99))

    def test_orders_vary_across_calls(self):
        """Random shuffling: remote order should not be constant."""
        selector, _ = self._selector()
        orders = {tuple(selector.candidates(0)) for _ in range(20)}
        assert len(orders) > 1

    def test_deterministic_under_fixed_seed(self):
        """The same seed must reproduce the exact candidate sequences."""

        def sequences(seed):
            topo = WorkerTopology.from_gpus_per_node([2, 2, 2])
            sel = VictimSelector(topo, np.random.default_rng(seed))
            return [tuple(sel.candidates(w)) for w in range(topo.n_workers) for _ in range(5)]

        assert sequences(7) == sequences(7)
        assert sequences(7) != sequences(8)


class TestSpeedPolicy:
    """The heterogeneity-aware victim ranking and steal sizing."""

    TOPO = WorkerTopology.from_gpus_per_node([2, 2])

    def _selector(self, speeds, work, hierarchical=True, seed=3):
        return VictimSelector(
            self.TOPO,
            np.random.default_rng(seed),
            hierarchical=hierarchical,
            policy=StealPolicy.SPEED,
            speeds=speeds,
            work_of=lambda w: float(work[w]),
        )

    def test_victims_ranked_by_remaining_time(self):
        # Worker 2 has less work than 3 but is 4x slower: it will take
        # longer to finish, so it must be probed first.
        sel = self._selector(
            speeds=(1.0, 1.0, 0.25, 1.0), work=[0, 0, 8, 16], hierarchical=False
        )
        order = list(sel.candidates(0))
        assert order[0] == 2  # 8 / 0.25 = 32 > 16 / 1.0
        assert order[1] == 3
        assert sel.remaining_time_estimate(2) == pytest.approx(32.0)

    def test_locality_tiers_preserved_under_hierarchical(self):
        # Remote worker 3 has far more backlog, but the same-node peer
        # still comes first: locality beats magnitude across tiers.
        sel = self._selector(speeds=(1.0, 1.0, 1.0, 1.0), work=[0, 1, 64, 64])
        for _ in range(10):
            order = list(sel.candidates(0))
            assert order[0] == 1
            assert set(order[1:]) == {2, 3}

    def test_ranking_is_deterministic_given_distinct_scores(self):
        sel = self._selector(speeds=(1.0, 1.0, 1.0, 1.0), work=[0, 0, 5, 9], hierarchical=False)
        orders = {tuple(sel.candidates(0)) for _ in range(10)}
        assert orders == {(3, 2, 1)}

    def test_uniform_policy_ignores_work_estimates(self):
        sel = VictimSelector(
            self.TOPO,
            np.random.default_rng(0),
            hierarchical=False,
            policy=StealPolicy.UNIFORM,
            speeds=(1.0, 1.0, 1.0, 0.01),
            work_of=lambda w: 1e9 if w == 3 else 0.0,
        )
        firsts = {next(iter(sel.candidates(0))) for _ in range(30)}
        assert len(firsts) > 1  # still randomized, not pinned to worker 3

    def test_split_depth_scales_with_speed_ratio(self):
        # Fast thieves keep whole (large) blocks; slow thieves split.
        assert steal_split_depth(1.0, 1.0) == 0
        assert steal_split_depth(1.0, 0.25) == 0  # fast thief, slow victim
        assert steal_split_depth(0.5, 1.0) == 1
        assert steal_split_depth(0.25, 1.0) == 2
        assert steal_split_depth(0.01, 1.0, max_depth=3) == 3  # capped
        with pytest.raises(ValueError):
            steal_split_depth(0.0, 1.0)

    def test_selector_split_depth_uses_policy(self):
        sel = self._selector(speeds=(1.0, 0.25, 1.0, 1.0), work=[0, 0, 0, 0])
        assert sel.split_depth(thief=1, victim=0) == 2
        assert sel.split_depth(thief=0, victim=1) == 0
        uniform = VictimSelector(
            self.TOPO, np.random.default_rng(0), speeds=(1.0, 0.25, 1.0, 1.0)
        )
        assert uniform.split_depth(thief=1, victim=0) == 0

    def test_speed_length_validated(self):
        with pytest.raises(ValueError, match="speeds"):
            VictimSelector(self.TOPO, np.random.default_rng(0), speeds=(1.0,))


class TestSimAdmission:
    def test_blocks_at_limit(self):
        env = Environment()
        adm = SimAdmission(env, limit=2)
        grants = []

        def submitter(tag):
            yield adm.acquire()
            grants.append((env.now, tag))
            yield env.timeout(5.0)
            adm.release()

        for tag in "abc":
            env.process(submitter(tag))
        env.run()
        assert grants == [(0.0, "a"), (0.0, "b"), (5.0, "c")]
        assert adm.peak_in_flight == 2
        assert adm.total_admitted == 3

    def test_release_without_acquire_rejected(self):
        env = Environment()
        adm = SimAdmission(env, limit=1)
        with pytest.raises(RuntimeError):
            adm.release()

    def test_invalid_limit(self):
        env = Environment()
        with pytest.raises(ValueError):
            SimAdmission(env, limit=0)


class TestThreadAdmission:
    def test_acquire_release_cycle(self):
        adm = ThreadAdmission(limit=2)
        assert adm.acquire()
        assert adm.acquire()
        assert adm.in_flight == 2
        assert not adm.acquire(timeout=0.01)  # full
        adm.release()
        assert adm.acquire(timeout=0.5)
        adm.release()
        adm.release()
        assert adm.in_flight == 0
        assert adm.peak_in_flight == 2

    def test_release_without_acquire_rejected(self):
        adm = ThreadAdmission(limit=1)
        with pytest.raises(RuntimeError):
            adm.release()

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            ThreadAdmission(0)
