"""What decides the size of a kernel launch, and what a thief takes.

Two rules of the pair path, each pinned at its own level:

- **admission** (:class:`ThreadAdmission`): a grant is cut by the
  limit's *capacity* — ``bisect_right(needs, limit)`` pieces, the whole
  request when it fits — never by what happens to be in flight; waiters
  are served in arrival order and no wake-up is lost;
- **pipeline**: under cache pressure every launch is a whole leaf or a
  capacity cut of one (``stats.launches`` / ``stats.pairs_per_launch``
  say so in the program), a ``max_inflight`` window cuts a leaf by its
  size only, a FAIR quantum is one launch, results stay
  value-identical down to the 2-slot cache, a device worker steals its
  node-mate's *nearest* task while a steal that leaves the node still
  takes the largest block, and a FAIR query queued behind a batch
  job's whole-leaf claim finishes;
- **accepted pairs**: a job that narrows its blocks (``PairSubset``,
  ``FilteredPairs``) sizes every leaf, quantum and SPEED share by the
  pairs it computes, so a launch holds up to ``grain`` of them on every
  backend.
"""

import sys
import threading
import time
import zlib
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BioinformaticsApplication
from repro.core.rocket import Rocket
from repro.core.workload import AllPairs, Bipartite, FilteredPairs, PairSubset
from repro.data.filestore import InMemoryStore
from repro.data.synthetic import make_bioinformatics_dataset
from repro.runtime.cluster import ClusterConfig
from repro.runtime.localrocket import RocketConfig
from repro.runtime.pernode import NodePipeline, _pin_needs
from repro.scheduling.quadtree import PairBlock
from repro.scheduling.throttle import ThreadAdmission
from repro.scheduling.workstealing import StealPolicy

from tests.test_block_path import LoopedForensics, close_within
from tests.test_kernels_batched import PerPairForensics, as_dict, forensics_store

#: Every blocking call below carries its own deadline; this is the backstop.
pytestmark = pytest.mark.timeout(120)

needs_vectors = st.lists(st.integers(1, 12), min_size=1, max_size=8).map(
    lambda steps: [sum(steps[: k + 1]) for k in range(len(steps))]
)


def capacity_cut(needs, limit):
    """Pieces a job may ever hold: all that fit ``limit``; 1 when none do."""
    return bisect_right(needs, limit) or 1


# ----------------------------------------------------------------------
# Admission


class TestCapacityCut:
    @settings(max_examples=200, deadline=None)
    @given(limit=st.integers(1, 20), held=st.integers(1, 20), needs=needs_vectors)
    def test_what_is_in_flight_delays_a_grant_but_never_shrinks_it(self, limit, held, needs):
        held = min(held, limit)
        adm = ThreadAdmission(limit)
        assert adm.acquire([held]) == 1
        want = capacity_cut(needs, limit)
        fits_beside = needs[want - 1] <= limit - held
        count = adm.acquire(needs, timeout=5.0 if fits_beside else 0.0)
        assert count == (want if fits_beside else 0)  # all of it now, or nothing
        if not count:
            adm.release(held)
            assert adm.acquire(needs, timeout=5.0) == want
            held = 0
        assert adm.in_flight == needs[want - 1] + held
        assert adm.in_flight <= limit or (adm.jobs_in_flight == 1 and needs[0] > limit)

    def test_a_leaf_waits_for_its_units_instead_of_launching_a_crumb(self):
        # local-reuse: 15 units, a 6 x 6 leaf pins 12 items; a second leaf
        # used to be handed the 2 pairs that fit the 3 units left.
        leaf = _pin_needs(list(PairBlock(0, 6, 48, 54).pairs()))
        adm = ThreadAdmission(15, max_jobs=8)
        assert adm.acquire(leaf) == 36 and adm.in_flight == 12
        granted = []
        waiter = threading.Thread(target=lambda: granted.append(adm.acquire(leaf, timeout=10.0)))
        waiter.start()
        time.sleep(0.05)
        assert not granted  # three units are free: not enough for the leaf
        adm.release(12)
        waiter.join(10.0)
        assert granted == [36]

    def test_a_leaf_larger_than_the_cache_is_cut_by_capacity(self):
        pairs = list(PairBlock(0, 8, 8, 16).pairs())  # 8 x 8 on 12 slots
        adm = ThreadAdmission(11)
        sizes = []
        while pairs:
            needs = _pin_needs(pairs)
            count = adm.acquire(needs, timeout=1.0)
            sizes.append(count)
            adm.release(needs[count - 1])
            pairs = pairs[count:]
        assert sizes == [24, 24, 16]


class TestArrivalOrder:
    def test_a_request_that_would_fit_now_still_waits_its_turn(self):
        adm = ThreadAdmission(8)
        assert adm.acquire([7]) == 1
        order = []

        def claim(name, needs):
            assert adm.acquire(needs, timeout=10.0) == len(needs)
            order.append(name)  # before the release: the next in line is still waiting
            adm.release(needs[-1])

        threads = []
        for name, needs in (("whole", [4, 8]), ("small", [1]), ("mid", [2, 5])):
            threads.append(threading.Thread(target=claim, args=(name, needs)))
            threads[-1].start()
            deadline = time.monotonic() + 5.0
            while len(adm._waiters) < len(threads) and time.monotonic() < deadline:
                time.sleep(0.001)
            assert len(adm._waiters) == len(threads)
        time.sleep(0.05)
        assert order == []  # "small" fits the free unit but "whole" is ahead of it
        adm.release(7)
        for t in threads:
            t.join(10.0)
        assert not any(t.is_alive() for t in threads)
        assert order[0] == "whole" and set(order) == {"whole", "small", "mid"}
        assert adm.in_flight == 0 and adm.jobs_in_flight == 0

    @settings(max_examples=25, deadline=None)
    @given(limit=st.integers(1, 12), requests=st.lists(needs_vectors, min_size=2, max_size=5))
    def test_waiters_are_granted_in_the_order_they_arrived(self, limit, requests):
        # One job at a time, so the order of grants is observable.
        adm = ThreadAdmission(limit, max_jobs=1)
        assert adm.acquire([1]) == 1
        order = []

        def claim(index, needs):
            count = adm.acquire(needs, timeout=10.0)
            order.append((index, count))
            if count:
                adm.release(needs[count - 1])

        threads = []
        for index, needs in enumerate(requests):
            threads.append(threading.Thread(target=claim, args=(index, needs)))
            threads[-1].start()
            deadline = time.monotonic() + 5.0
            while len(adm._waiters) <= index and time.monotonic() < deadline:
                time.sleep(0.0005)
        adm.release(1)
        for t in threads:
            t.join(10.0)
        assert not any(t.is_alive() for t in threads)
        assert order == [(i, capacity_cut(needs, limit)) for i, needs in enumerate(requests)]


class TestInterleavedThreads:
    @settings(max_examples=40, deadline=None)
    @given(
        limit=st.integers(1, 16),
        max_jobs=st.one_of(st.none(), st.integers(1, 3)),
        scripts=st.lists(st.lists(needs_vectors, min_size=1, max_size=6), min_size=1, max_size=3),
    )
    def test_every_grant_is_whole_a_capacity_cut_or_alone_and_none_is_lost(
        self, limit, max_jobs, scripts
    ):
        """1-3 threads (more than this box has cores) acquire and release
        against one admission under a short switch interval.  A thread
        waiting in ``acquire`` holds nothing, so every request must be
        granted once the others released: a timeout is a lost wake-up."""
        adm = ThreadAdmission(limit, max_jobs=max_jobs)
        failures = []

        def worker(script):
            for needs in script:
                count = adm.acquire(needs, timeout=10.0)
                if count != capacity_cut(needs, limit):
                    failures.append(f"{needs} on limit {limit}: granted {count}")
                    if not count:
                        return
                # Sampled while this grant is held, so it is included.
                units, jobs = adm.in_flight, adm.jobs_in_flight
                if needs[0] > limit:
                    if jobs != 1 or units != needs[0]:
                        failures.append(f"oversized {needs} shared the limit: {units}/{jobs}")
                elif units > limit:
                    failures.append(f"{units} units in flight on limit {limit}")
                if max_jobs is not None and jobs > max_jobs:
                    failures.append(f"{jobs} jobs in flight, cap {max_jobs}")
                time.sleep(0.0002)  # hold it while the other threads ask
                adm.release(needs[count - 1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in scripts]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures
        assert adm.in_flight == 0 and adm.jobs_in_flight == 0
        assert adm.total_admitted == sum(len(s) for s in scripts)


# ----------------------------------------------------------------------
# Pipeline


def leaves_of(n_items, grain):
    """The blocks a worker executes, in single-worker (Morton) order."""
    stack = [PairBlock.root(n_items)]
    while stack:
        block = stack.pop()
        if block.is_leaf(grain):
            yield block
        else:
            stack.extend(reversed(block.split()))


def launch_sizes(leaf_pairs, units, max_inflight=None):
    """Launch sizes of one job's leaves (pair lists): each whole, or cut by
    ``max_inflight`` and capacity."""
    sizes = Counter()
    for pairs in leaf_pairs:
        while pairs:
            count = capacity_cut(_pin_needs(pairs[:max_inflight]), units)
            sizes[count] += 1
            pairs = pairs[count:]
    return sizes


def expected_launches(n_items, grain, units, max_inflight=None):
    """Launch sizes of one AllPairs job."""
    leaves = (list(leaf.pairs()) for leaf in leaves_of(n_items, grain))
    return launch_sizes(leaves, units, max_inflight)


def accepted_leaves(workload, grain):
    """A narrowed job's leaves in Morton order, as row-major pair lists: a
    block runs whole once it holds at most ``grain`` accepted pairs (a
    one-cell block holds one); a block with none is never visited."""
    accepted = workload.accepted
    stack = workload.blocks()[::-1]
    while stack:
        block = stack.pop()
        i, j = accepted.columns(block)
        if not len(i):
            continue
        if len(i) <= grain:
            yield list(zip(i.tolist(), j.tolist()))
        else:
            stack.extend(reversed(block.split()))


def run_bare_pipeline(app, store, keys, cfg, timeout=60.0, max_inflight=None, workload=None):
    """One job (AllPairs by default) on a bare pipeline: (values by pair,
    launch sizes, pipeline)."""
    workload = workload or AllPairs(keys)
    values, launches = {}, []
    lock = threading.Lock()

    def emit_block(i, j, block_values):
        with lock:
            launches.append(len(block_values))
            for a, b, value in zip(i.tolist(), j.tolist(), block_values.tolist()):
                assert (keys[a], keys[b]) not in values
                values[(keys[a], keys[b])] = value

    pipeline = NodePipeline(
        app, store, cfg, keys, accepted=workload.accepted, emit_block=emit_block,
        expected_pairs=workload.n_pairs, initial_blocks=workload.blocks(),
        max_inflight=max_inflight,
    )
    pipeline.start()
    try:
        assert pipeline.wait(timeout), "pipeline did not finish: deadlock?"
        pipeline.join(timeout=10.0)
    finally:
        pipeline.request_stop(abort=True)
        pipeline.close()
    assert not pipeline.errors
    return values, launches, pipeline


class TestLaunchesAreLeaves:
    def test_under_cache_pressure_every_launch_is_a_whole_leaf(self):
        store, keys = forensics_store(n_images=24)
        cfg = RocketConfig(
            n_devices=2, device_cache_slots=8, host_cache_slots=16, grain=16,
            seed=7, watchdog_seconds=60.0,
        )
        n_leaves = sum(1 for _ in leaves_of(24, 16))
        expected = expected_launches(24, 16, units=7)
        assert sum(expected.values()) == n_leaves  # 6 items a leaf: all fit 7 units

        _, launches, _ = run_bare_pipeline(LoopedForensics(), store, keys, cfg)
        assert Counter(launches) == expected

        session = Rocket(LoopedForensics(), store, cfg).session()
        try:
            handle = session.submit(AllPairs(keys))
            handle.result(timeout=60.0)
            snapshot = session.metrics()
        finally:
            close_within(session)
        stats = handle.stats
        assert stats.launches == n_leaves
        assert stats.pairs_per_launch == 276 / n_leaves
        assert "launches=" in stats.summary()
        assert snapshot["pipeline"]["launches"] == n_leaves
        assert snapshot["pipeline"]["pairs_per_launch"]["mean"] == pytest.approx(276 / n_leaves)

    def test_a_leaf_with_more_items_than_slots_runs_as_capacity_cuts(self):
        store, keys = forensics_store(n_images=16)
        cfg = RocketConfig(
            n_devices=1, device_cache_slots=12, host_cache_slots=16, grain=64,
            seed=7, watchdog_seconds=60.0,
        )
        _, launches, _ = run_bare_pipeline(LoopedForensics(), store, keys, cfg)
        # Two 28-pair diagonal triangles and the 8 x 8 square in three cuts.
        assert sorted(launches) == [16, 24, 24, 28, 28]
        assert Counter(launches) == expected_launches(16, 64, units=11)

    def test_max_inflight_cuts_a_leaf_by_its_size_never_by_what_is_in_flight(self):
        store, keys = forensics_store(n_images=24)
        cfg = RocketConfig(
            n_devices=2, device_cache_slots=64, host_cache_slots=64, grain=16,
            seed=7, watchdog_seconds=60.0,
        )
        # 9-pair leaves run as 5 + 4, 15-pair leaves as 5 + 5 + 5: a launch
        # waits for the window instead of taking the 1 pair left beside a 4.
        expected = expected_launches(24, 16, units=63, max_inflight=5)
        assert expected == Counter({5: 36, 4: 24})
        values, launches, _ = run_bare_pipeline(
            LoopedForensics(), store, keys, cfg, max_inflight=5
        )
        assert Counter(launches) == expected
        assert len(values) == 276

    def test_a_fair_quantum_is_one_launch(self):
        store, keys = forensics_store(n_images=24)
        cfg = RocketConfig(
            n_devices=2, device_cache_slots=64, host_cache_slots=64, seed=7,
            watchdog_seconds=60.0,
        )
        workload = AllPairs(keys)
        quanta = workload.grain_blocks(cfg.grain)
        session = Rocket(LoopedForensics(), store, cfg).session(policy="fair")
        try:
            handle = session.submit(workload)
            handle.result(timeout=60.0)
        finally:
            close_within(session)
        assert handle.stats.launches == len(quanta)
        assert handle.stats.pairs_per_launch == 276 / len(quanta)


#: ``grain`` of the narrowed jobs below; a launch holding more fails.
NARROWED_GRAIN = 16


class GrainCheckedForensics(LoopedForensics):
    """Fails any launch of more than ``NARROWED_GRAIN`` pairs, in any process."""

    def compare_block(self, keys_a, items_a, keys_b, items_b):
        if len(keys_a) > NARROWED_GRAIN:
            raise AssertionError(f"a launch of {len(keys_a)} pairs on grain {NARROWED_GRAIN}")
        return super().compare_block(keys_a, items_a, keys_b, items_b)


def edited_subset(keys, edited):
    """What the memo store leaves after ``edited`` items change: every pair
    touching one of them, as a ``PairSubset`` of all pairs."""
    base = AllPairs(keys)
    i, j = base.pair_columns()
    touched = np.isin(i, edited) | np.isin(j, edited)
    return PairSubset(base, i[touched], j[touched])


@pytest.fixture(scope="module")
def narrowed_case():
    store, keys = forensics_store(n_images=24)
    cfg = RocketConfig(n_devices=1, device_cache_slots=32, host_cache_slots=32, seed=7)
    return store, keys, as_dict(Rocket(PerPairForensics(), store, cfg).run(keys))


def quarter_filter(a, b):
    """Accepts about a quarter of the pairs, scattered over the triangle."""
    return zlib.crc32(f"{a}|{b}".encode()) % 4 == 0


NARROWED_SHAPES = {
    "subset": lambda keys: edited_subset(keys, [3, 11, 17]),
    "filtered": lambda keys: FilteredPairs(keys, quarter_filter),
}


class TestLaunchesHoldAcceptedPairs:
    """A ``PairSubset`` or ``FilteredPairs`` job: leaves, FAIR quanta and
    launches are sized by accepted pairs, on every way a job runs."""

    @staticmethod
    def config(**overrides):
        return RocketConfig(**{
            "n_devices": 2, "device_cache_slots": 64, "host_cache_slots": 64,
            "grain": NARROWED_GRAIN, "seed": 7, "watchdog_seconds": 60.0, **overrides,
        })

    @pytest.mark.parametrize("slots", [8, 64])  # 8: strips wider than the cache
    @pytest.mark.parametrize("shape", sorted(NARROWED_SHAPES))
    def test_bare_pipeline(self, narrowed_case, shape, slots):
        store, keys, ref = narrowed_case
        workload = NARROWED_SHAPES[shape](keys)
        cfg = self.config(device_cache_slots=slots)
        values, launches, pipeline = run_bare_pipeline(
            GrainCheckedForensics(), store, keys, cfg, workload=workload
        )
        expected = launch_sizes(accepted_leaves(workload, NARROWED_GRAIN), units=slots - 1)
        assert Counter(launches) == expected
        assert max(launches) <= NARROWED_GRAIN
        assert values == {pair: ref[pair] for pair in workload.pairs()}
        assert pipeline.held_pins == 0

    @pytest.mark.parametrize("runner", ["fifo", "fair", "cluster"])
    @pytest.mark.parametrize("shape", sorted(NARROWED_SHAPES))
    def test_session(self, narrowed_case, shape, runner):
        store, keys, ref = narrowed_case
        workload = NARROWED_SHAPES[shape](keys)
        if runner == "cluster":
            rocket = Rocket(
                GrainCheckedForensics(), store, self.config(n_devices=1),
                backend="cluster",
                cluster=ClusterConfig(n_nodes=2, fetch_timeout=20.0, steal_timeout=5.0),
            )
            session = rocket.session()
        else:
            session = Rocket(GrainCheckedForensics(), store, self.config()).session(policy=runner)
        try:
            handle = session.submit(workload)
            matrix = handle.result(timeout=60.0)
        finally:
            close_within(session)
        assert as_dict(matrix) == {pair: ref[pair] for pair in workload.pairs()}
        leaves = list(accepted_leaves(workload, NARROWED_GRAIN))
        assert handle.stats.launches == len(leaves)  # all fit: one launch a leaf
        if runner == "fair":
            assert len(workload.grain_blocks(NARROWED_GRAIN)) == len(leaves)

    def test_an_edit_residual_runs_in_few_launches(self):
        """bio n = 112 with 11 items edited, all-fit caches, default grain:
        1,166 pairs in row and column strips.  Leaves sized by raw cells
        ran it in 91 launches of 12.8 pairs."""
        store = InMemoryStore()
        keys = list(make_bioinformatics_dataset(store, n_species=112, seed=3).keys)
        edited = np.random.default_rng(5).choice(112, size=11, replace=False)
        workload = edited_subset(keys, edited)
        assert workload.n_pairs == 11 * 111 - 55
        cfg = RocketConfig(n_devices=1, device_cache_slots=128, host_cache_slots=128)
        session = Rocket(BioinformaticsApplication(), store, cfg).session()
        try:
            handle = session.submit(workload)
            assert handle.result(timeout=120.0).is_complete()
        finally:
            close_within(session)
        assert handle.stats.launches == len(list(accepted_leaves(workload, cfg.grain)))
        assert handle.stats.launches <= 40

    def test_speed_shares_weigh_accepted_pairs(self, narrowed_case):
        """The accepted pairs are those of the first half of the items; a
        device of speed 1.0 starts with two thirds of them, one of speed
        0.5 with one third, each within one of its blocks."""
        store, keys, _ = narrowed_case
        first = set(keys[:12])
        workload = FilteredPairs(keys, lambda a, b: a in first and b in first)
        cfg = self.config(steal_policy=StealPolicy.SPEED, device_speed_factors=(1.0, 0.5))
        pipeline = NodePipeline(
            GrainCheckedForensics(), store, cfg, keys, accepted=workload.accepted,
            emit_block=lambda i, j, values: None, expected_pairs=workload.n_pairs,
            initial_blocks=workload.blocks(),
        )
        try:
            count = workload.accepted.count
            shares = [list(deque._tasks) for deque in pipeline.deques]
            held = [sum(map(count, share)) for share in shares]
            assert sum(held) == workload.n_pairs == 66
            assert [deque.pending_pairs for deque in pipeline.deques] == held
            for share, weight, have in zip(shares, (2 / 3, 1 / 3), held):
                assert all(map(count, share))  # no block without an accepted pair
                # Largest first: a share overshoots by at most its last, smallest block.
                assert have - weight * 66 <= min(map(count, share))
        finally:
            pipeline.close()


@pytest.fixture(scope="module")
def forensics_reference():
    store, keys = forensics_store(n_images=10)
    cfg = RocketConfig(n_devices=1, device_cache_slots=16, host_cache_slots=16, seed=7)
    ref = as_dict(Rocket(PerPairForensics(), store, cfg).run(keys))
    return store, keys, ref


class TestValueIdentical:
    @pytest.mark.parametrize("policy", [StealPolicy.UNIFORM, StealPolicy.SPEED])
    @pytest.mark.parametrize("grain", [1, 16, 64])
    @pytest.mark.parametrize("n_devices", [1, 2])
    @pytest.mark.parametrize("slots", [2, 3, 8, 128])  # 2 and 3: the deadlock guard
    def test_same_matrix_and_no_pin_left(
        self, forensics_reference, slots, n_devices, grain, policy
    ):
        store, keys, ref = forensics_reference
        cfg = RocketConfig(
            n_devices=n_devices, device_cache_slots=slots, host_cache_slots=max(4, slots),
            grain=grain, leaf_size=2, steal_policy=policy, seed=7, watchdog_seconds=60.0,
            device_speed_factors=(1.0, 0.5)[:n_devices] if policy is StealPolicy.SPEED else None,
        )
        values, launches, pipeline = run_bare_pipeline(LoopedForensics(), store, keys, cfg)
        assert values == ref
        assert sum(launches) == 45 and max(launches) <= grain
        assert pipeline.held_pins == 0
        assert all(s.admission.in_flight == 0 for s in pipeline.states)
        assert all(s.cache.pinned_count() == 0 for s in pipeline.states)


class TestStealTiers:
    def pipeline(self, **config):
        store, keys = forensics_store(n_images=24)
        cfg = RocketConfig(
            n_devices=2, device_cache_slots=8, host_cache_slots=16, grain=16, seed=7, **config
        )
        return NodePipeline(
            LoopedForensics(), store, cfg, keys, emit_block=lambda i, j, values: None,
            expected_pairs=276, initial_blocks=[PairBlock.root(24)],
        )

    @staticmethod
    def descend(pipeline, d, task):
        """What ``_worker`` does with a task until it holds a leaf."""
        while not task.is_leaf(16):
            pipeline.deques[d].push_children(task.split())
            task = pipeline.deques[d].pop()
        return task

    def test_a_node_mate_takes_the_morton_successor_a_remote_thief_the_largest_block(self):
        pipeline = self.pipeline()
        try:
            morton = list(leaves_of(24, 16))
            # Worker 0 walks to its third leaf; worker 1 has nothing.
            current = self.descend(pipeline, 0, pipeline._next_local_task(0))
            for _ in range(2):
                current = self.descend(pipeline, 0, pipeline._next_local_task(0))
            assert current == morton[2]
            queued = list(pipeline.deques[0]._tasks)

            stolen = pipeline._next_local_task(1)
            assert stolen is queued[-1]  # the bottom: what worker 0 would pop next
            assert self.descend(pipeline, 1, stolen) == morton[3]
            assert pipeline.stats().local_steals == 1

            largest = pipeline.steal_for_remote()
            assert largest is queued[0]  # the top: the highest level of the tree
            assert largest.depth == min(task.depth for task in queued)
            assert largest.count > 4 * stolen.count
        finally:
            pipeline.close()

    def test_a_slow_thief_hands_the_rest_back_where_the_block_came_from(self):
        pipeline = self.pipeline(
            steal_policy=StealPolicy.SPEED, device_speed_factors=(1.0, 0.25)
        )
        try:
            for d in (0, 1):  # SPEED deals both workers a share: start from one deque
                while pipeline.deques[d].pop() is not None:
                    pass
            block = PairBlock(0, 12, 12, 24)
            pipeline.deques[0].push(PairBlock(12, 24, 12, 24))
            pipeline.deques[0].push(block)
            kept = pipeline._next_local_task(1)  # 4x slower: keeps a sixteenth
            first, second, third, fourth = block.split()
            assert kept == first.split()[0]
            # Worker 0 continues through the block in Morton order.
            assert [pipeline.deques[0].pop() for _ in range(3)] == first.split()[1:]
            assert [pipeline.deques[0].pop() for _ in range(3)] == [second, third, fourth]
            assert pipeline.deques[0].pop() == PairBlock(12, 24, 12, 24)
        finally:
            pipeline.close()


class TestIdleWorkerWakeUp:
    def test_a_block_injected_before_the_idle_wait_launches_at_once(self):
        # The window between a worker's empty look at the deques and its
        # wait: a late steal grant (or a FAIR quantum) is injected there,
        # and its notify precedes the wait.  Here the steal hook itself
        # injects, then reports that it got nothing.
        store, keys = forensics_store(n_images=8)
        cfg = RocketConfig(n_devices=1, device_cache_slots=16, host_cache_slots=16, seed=7)
        injected, launched = [], []

        def global_steal():
            if not injected:
                pipeline.inject_block(PairBlock.root(8))
                injected.append(time.perf_counter())
            return None

        def emit_block(i, j, values):
            launched.append(time.perf_counter())

        pipeline = NodePipeline(
            LoopedForensics(), store, cfg, keys, emit_block=emit_block,
            expected_pairs=28, global_steal=global_steal,
        )
        pipeline.start()
        try:
            assert pipeline.wait(30.0)
            pipeline.join(timeout=10.0)
        finally:
            pipeline.request_stop(abort=True)
            pipeline.close()
        assert not pipeline.errors
        # One 28-pair launch; the idle backoff would have held it >= 100 ms.
        assert launched[0] - injected[0] < 0.020


class TestFairBehindAWholeLeaf:
    def test_a_priority_query_behind_a_batch_jobs_leaf_claim_finishes(self):
        class SlowLoopedForensics(LoopedForensics):
            def compare_block(self, keys_a, items_a, keys_b, items_b):
                time.sleep(0.005)  # the batch job's leaves hold their units a while
                return super().compare_block(keys_a, items_a, keys_b, items_b)

        store, keys = forensics_store(n_images=16)
        query, corpus = keys[:1], keys[1:15]
        cfg = RocketConfig(
            n_devices=2, device_cache_slots=8, host_cache_slots=16, grain=16,
            seed=7, watchdog_seconds=60.0,
        )
        ref = as_dict(Rocket(PerPairForensics(), store, cfg).run(keys))
        session = Rocket(SlowLoopedForensics(), store, cfg).session(
            policy="fair"
        )
        try:
            batch = session.submit(AllPairs(corpus), priority=1.0)
            served = session.submit(Bipartite(query, corpus), priority=8.0)
            answer = as_dict(served.result(timeout=60.0))
            whole = as_dict(batch.result(timeout=60.0))
            engine = session._engine
            assert all(s.admission.in_flight == 0 for s in engine.states)
            assert all(s.cache.pinned_count() == 0 for s in engine.states)
        finally:
            close_within(session)
        assert len(answer) == 14 and len(whole) == 91
        for pair, value in {**answer, **whole}.items():
            assert value == ref[pair]
