"""Tests for the concurrent multi-job scheduler (sessions as a service).

Five layers:

- :class:`~repro.core.scheduler.JobScheduler` unit tests: admission
  ordering, weighted virtual-time hand-out, in-flight windows, and the
  queued-cancel hook;
- workload grain decomposition (:meth:`Workload.grain_blocks`);
- :class:`RunHandle` state-machine transitions
  (QUEUED→RUNNING→{DONE,CANCELLED,FAILED}) and ``wait(timeout=)``;
- concurrency behaviour on the local backend: interleaved progress of
  two co-scheduled jobs, result parity with serial execution, cancel
  isolation (job A's cancellation never disturbs co-running job B, and
  releases exactly A's cache pins), priority-ordered admission, and
  per-job ``max_inflight`` enforcement;
- the same interleaving + parity acceptance on the multi-process
  cluster backend, plus the one-shot ``FilteredPairs`` path.
"""

import threading
import time

import pytest

from repro.core.rocket import Rocket
from repro.core.scheduler import JobAccounting, JobScheduler, SchedulingPolicy, coerce_policy
from repro.core.session import RunHandle, RunState
from repro.core.workload import AllPairs, Bipartite, FilteredPairs
from repro.runtime.cluster import ClusterConfig
from repro.runtime.localrocket import RocketConfig

from tests.test_cluster_runtime import SumApp, make_store


CFG = dict(
    n_devices=1,
    device_cache_slots=32,
    host_cache_slots=64,
    leaf_size=2,
    seed=11,
    watchdog_seconds=120.0,
)


class SlowApp(SumApp):
    """Compare costs a few milliseconds: co-scheduling is observable."""

    def compare(self, key_a, a, key_b, b):
        time.sleep(0.004)
        return super().compare(key_a, a, key_b, b)


def make_rocket(name, store, app=None, cluster_overrides=None, **cfg_overrides):
    cfg = RocketConfig(**dict(CFG, **cfg_overrides))
    app = app if app is not None else SumApp()
    if name == "local":
        return Rocket(app, store, cfg)
    cluster_cfg = dict(n_nodes=2, fetch_timeout=20.0, steal_timeout=5.0)
    cluster_cfg.update(cluster_overrides or {})
    return Rocket(app, store, cfg, backend="cluster", cluster=ClusterConfig(**cluster_cfg))


# ----------------------------------------------------------------------
# Scheduler unit tests


class TestJobScheduler:
    KEYS = [f"k{i}" for i in range(10)]

    def handle(self, n=6, priority=1.0, max_inflight=None):
        return RunHandle(
            AllPairs(self.KEYS[:n]), priority=priority, max_inflight=max_inflight
        )

    def test_fifo_admits_one_job_in_submission_order(self):
        sched = JobScheduler(SchedulingPolicy.FIFO)
        low = self.handle(priority=0.5)
        high = self.handle(priority=9.0)
        sched.submit(low)
        sched.submit(high)
        assert sched.admit() == [low]  # submission order, priority ignored
        assert sched.admit() == []  # max_active=1
        sched.finish(low)
        assert sched.admit() == [high]

    def test_fair_admits_by_priority(self):
        sched = JobScheduler(SchedulingPolicy.FAIR, max_active=2)
        a = self.handle(priority=1.0)
        b = self.handle(priority=4.0)
        c = self.handle(priority=2.0)
        for h in (a, b, c):
            sched.submit(h)
        assert sched.admit() == [b, c]  # two slots, highest weight first
        sched.finish(b)
        assert sched.admit() == [a]

    def test_fair_handout_tracks_weights(self):
        """Granted pairs over a window approximate the 3:1 weight ratio."""
        sched = JobScheduler(SchedulingPolicy.FAIR, max_active=2, grain=4, decompose=True)
        heavy = self.handle(n=10, priority=3.0)
        light = self.handle(n=10, priority=1.0)
        sched.submit(heavy)
        sched.submit(light)
        sched.admit()
        granted = {id(heavy): 0, id(light): 0}
        for _ in range(12):
            grant = sched.next_grant()
            assert grant is not None
            handle, _block, count = grant
            granted[id(handle)] += count
        assert granted[id(heavy)] > 2 * granted[id(light)]

    def test_session_window_spans_all_jobs(self):
        """One window bounds the in-flight pairs of every job together;
        the completion that reopens it goes to the smallest clock."""
        sched = JobScheduler(
            SchedulingPolicy.FAIR, max_active=2, grain=4, window=8, decompose=True
        )
        first = self.handle(n=10)
        second = self.handle(n=10)
        sched.submit(first)
        sched.submit(second)
        sched.admit()
        granted = {id(first): 0, id(second): 0}
        blocks = {id(first): [], id(second): []}
        while (grant := sched.next_grant()) is not None:
            granted[id(grant[0])] += grant[2]
            blocks[id(grant[0])].append(grant[1])
        assert sum(granted.values()) <= 8  # together, not 8 each
        assert granted[id(first)] == granted[id(second)] > 0  # equal weights
        assert sched.next_grant() is None
        # The second job's recorded results make room for the first job's quantum.
        for block in blocks[id(second)]:
            i, j = block.columns()
            second._record_block(i, j, [1.0] * len(i))
        assert second.accounting.pairs_completed == granted[id(second)]
        handle, _block, _count = sched.next_grant()
        assert handle is first  # equal clocks: submission order breaks the tie

    def test_max_inflight_overrides_window(self):
        sched = JobScheduler(SchedulingPolicy.FAIR, grain=2, window=1000, decompose=True)
        h = self.handle(n=10, max_inflight=2)
        sched.submit(h)
        sched.admit()
        granted = 0
        while True:
            grant = sched.next_grant()
            if grant is None:
                break
            granted += grant[2]
        assert 0 < granted <= 2  # the per-job cap, not the 1000 window

    def test_queued_cancel_resolves_immediately(self):
        sched = JobScheduler(SchedulingPolicy.FIFO)
        blocker = self.handle()
        queued = self.handle()
        sched.submit(blocker)
        sched.submit(queued)
        sched.admit()
        assert queued.cancel()
        # Synchronous: terminal before any backend involvement.
        assert queued.state is RunState.CANCELLED
        assert queued.accounting.finished_at is not None
        assert sched.admit() == []  # the cancelled job is gone
        sched.finish(blocker)
        assert sched.idle and sched.queued_count == 0

    def test_accounting_lifecycle(self):
        sched = JobScheduler(SchedulingPolicy.FAIR)
        h = self.handle(n=4)
        acct = sched.submit(h)
        assert isinstance(acct, JobAccounting) and h.accounting is acct
        assert acct.pairs_total == 6 and acct.started_at is None
        sched.admit()
        assert acct.started_at is not None
        sched.mark_fully_granted(h)
        assert acct.pairs_granted == 6
        sched.finish(h)
        assert acct.finished_at is not None
        assert "pairs" in acct.summary()

    def test_fifo_rejects_concurrent_max_active(self):
        # FIFO *is* the serial contract; concurrency needs FAIR.
        with pytest.raises(ValueError, match="serial"):
            JobScheduler(SchedulingPolicy.FIFO, max_active=2)

    def test_admit_resolves_cancel_that_raced_the_hook(self):
        """A cancel flag raised before the job is admittable must keep
        the job away from the backend: admit() resolves it CANCELLED."""
        sched = JobScheduler(SchedulingPolicy.FAIR)
        h = self.handle()
        sched.submit(h)
        h._cancel_requested = True  # simulate the lost-hook race window
        assert sched.admit() == []
        assert h.state is RunState.CANCELLED

    def test_coerce_policy(self):
        assert coerce_policy("fair") is SchedulingPolicy.FAIR
        assert coerce_policy(SchedulingPolicy.FIFO) is SchedulingPolicy.FIFO
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            coerce_policy("nope")


class TestGrainBlocks:
    KEYS = [f"k{i}" for i in range(12)]

    def test_covers_every_pair_exactly_once(self):
        w = AllPairs(self.KEYS)
        quanta = w.grain_blocks(8)
        assert all(count <= 8 or block.is_leaf() for block, count in quanta)
        pairs = [p for block, _ in quanta for p in block.pairs()]
        assert len(pairs) == len(set(pairs)) == w.n_pairs

    def test_filtered_counts_and_drops_empty_quanta(self):
        w = FilteredPairs(self.KEYS, lambda a, b: a == "k0")
        quanta = w.grain_blocks(4)
        assert sum(c for _, c in quanta) == w.n_pairs
        assert all(c > 0 for _, c in quanta)

    def test_bipartite_rectangle(self):
        w = Bipartite(self.KEYS[:3], self.KEYS[3:])
        quanta = w.grain_blocks(6)
        assert sum(c for _, c in quanta) == 27

    def test_grain_sweep_seeds_counts_and_memoizes(self):
        """One predicate sweep serves the decomposition AND n_pairs;
        repeat calls hit the memo instead of re-sweeping."""
        calls = {"n": 0}

        def flt(a, b):
            calls["n"] += 1
            return a != "k0"

        w = FilteredPairs(self.KEYS, flt)
        quanta = w.grain_blocks(4)
        swept = calls["n"]
        assert swept == 66  # C(12, 2): every pair exactly once
        assert w.n_pairs == sum(c for _, c in quanta)  # seeded, no re-sweep
        assert w.grain_blocks(4) == quanta  # memoized
        assert calls["n"] == swept


# ----------------------------------------------------------------------
# RunHandle state machine


class TestRunHandleStates:
    def test_queued_running_done(self):
        store, keys = make_store(6)
        session = make_rocket("local", store).session()
        try:
            handle = session.submit(AllPairs(keys))
            assert handle.state in (RunState.QUEUED, RunState.RUNNING, RunState.DONE)
            assert handle.wait(timeout=30.0)
            assert handle.state is RunState.DONE
            assert handle.done()
        finally:
            session.close()

    def test_wait_times_out_then_succeeds(self):
        store, keys = make_store(8)
        rocket = make_rocket("local", store, app=SlowApp())
        session = rocket.session()
        try:
            handle = session.submit(AllPairs(keys))
            assert handle.wait(timeout=0.001) is False  # still running
            assert handle.wait(timeout=60.0) is True
            assert handle.state is RunState.DONE
        finally:
            session.close()

    def test_running_to_failed(self):
        class BadApp(SumApp):
            def parse(self, key, file_contents):
                raise ValueError("boom")

        store, keys = make_store(4)
        session = make_rocket("local", store, app=BadApp()).session()
        try:
            handle = session.submit(AllPairs(keys))
            assert handle.wait(timeout=30.0)
            assert handle.state is RunState.FAILED
            with pytest.raises(ValueError, match="boom"):
                handle.result()
        finally:
            session.close()

    def test_running_to_cancelled(self):
        store, keys = make_store(8)
        session = make_rocket("local", store, app=SlowApp()).session()
        try:
            handle = session.submit(AllPairs(keys))
            deadline = time.perf_counter() + 10.0
            while handle.state is RunState.QUEUED and time.perf_counter() < deadline:
                time.sleep(0.002)
            assert handle.cancel()
            assert handle.wait(timeout=30.0)
            assert handle.state is RunState.CANCELLED
        finally:
            session.close()

    def test_priority_validation(self):
        store, keys = make_store(4)
        with pytest.raises(ValueError, match="priority"):
            RunHandle(AllPairs(keys), priority=0.0)
        with pytest.raises(ValueError, match="max_inflight"):
            RunHandle(AllPairs(keys), max_inflight=0)

    @pytest.mark.parametrize("backend", ["local", "cluster"])
    def test_cancel_queued_never_touches_backend(self, backend):
        """Satellite regression: a QUEUED job's cancel resolves inside
        the ``cancel()`` call itself, without the backend session ever
        receiving the job."""
        store, keys = make_store(8)
        session = make_rocket(backend, store, app=SlowApp()).session()
        try:
            blocker = session.submit(AllPairs(keys))
            queued = session.submit(AllPairs(keys))
            assert queued.state is RunState.QUEUED
            assert queued.cancel()
            # Immediate: CANCELLED the moment cancel() returns — no
            # waiting for the dispatcher, no backend involvement.
            assert queued.state is RunState.CANCELLED
            assert queued.progress()[0] == 0
            assert queued.accounting.started_at is None  # never admitted
            with pytest.raises(RuntimeError, match="cancelled"):
                queued.result()
            assert blocker.result(timeout=90.0).is_complete()
        finally:
            session.close()


# ----------------------------------------------------------------------
# Concurrent execution (acceptance)


def _assert_parity(results, store, keys):
    ref = Rocket(SumApp(), store, RocketConfig(**CFG)).run(keys)
    got = dict(((a, b), v) for a, b, v in results.items())
    for a, b, v in results.items():
        assert ref.get(a, b) == pytest.approx(v)
    assert len(got) == len(list(results.items()))


class TestConcurrentJobs:
    @pytest.mark.parametrize("backend", ["local", "cluster"])
    def test_two_jobs_make_interleaved_progress(self, backend):
        """Acceptance: both jobs report progress() > 0 before either
        completes, on the local and the cluster backend."""

        class SlowerApp(SumApp):
            # Slow enough that both jobs' in-flight windows overlap for
            # many coordinator poll ticks.
            def compare(self, key_a, a, key_b, b):
                time.sleep(0.008)
                return super().compare(key_a, a, key_b, b)

        store, keys = make_store(12)
        # Small result batches + a fast flush tick keep the
        # coordinator's progress view fine-grained on the cluster
        # backend (a 64-pair batch would hide the interleaving).
        rocket = make_rocket(
            backend, store, app=SlowerApp(),
            cluster_overrides=dict(result_batch=4, poll_interval=0.01),
        )
        session = rocket.session(policy="fair")
        try:
            big = session.submit(AllPairs(keys))
            small = session.submit(AllPairs(keys[:7]), priority=4.0)
            interleaved = False
            deadline = time.perf_counter() + 90.0
            while not (big.done() and small.done()):
                if time.perf_counter() > deadline:
                    pytest.fail("concurrent jobs did not finish in time")
                if (
                    big.progress()[0] > 0
                    and small.progress()[0] > 0
                    and not big.done()
                    and not small.done()
                ):
                    interleaved = True
                time.sleep(0.002)
            assert interleaved, "jobs never ran concurrently"
            big_res = big.result()
            small_res = small.result()
            assert big_res.is_complete() and small_res.is_complete()
            _assert_parity(big_res, store, keys)
            _assert_parity(small_res, store, keys[:7])
        finally:
            session.close()

    @pytest.mark.parametrize("backend", ["local", "cluster"])
    def test_concurrent_results_equal_serial(self, backend):
        """Result parity: two co-scheduled jobs produce exactly what two
        serial runs produce."""
        store, keys = make_store(10)
        rocket = make_rocket(backend, store)
        session = rocket.session(policy="fair")
        try:
            first = session.submit(AllPairs(keys))
            second = session.submit(Bipartite(keys[:4], keys[4:]), priority=2.0)
            first_res = first.result(timeout=90.0)
            second_res = second.result(timeout=90.0)
        finally:
            session.close()
        assert first_res.is_complete() and second_res.is_complete()
        serial = make_rocket(backend, store)
        serial_session = serial.session()
        try:
            ref_first = serial_session.submit(AllPairs(keys)).result(timeout=90.0)
            ref_second = serial_session.submit(
                Bipartite(keys[:4], keys[4:])
            ).result(timeout=90.0)
        finally:
            serial_session.close()
        for a, b, v in ref_first.items():
            assert first_res.get(a, b) == pytest.approx(v)
        for a, b, v in ref_second.items():
            assert second_res.get(a, b) == pytest.approx(v)

    def test_cancel_one_job_leaves_the_other_running(self):
        """Cancel isolation: aborting job A never evicts or unpins job
        B's state; B completes with full results and A's pins drain."""
        store, keys = make_store(12)
        rocket = make_rocket("local", store, app=SlowApp())
        session = rocket.session(policy="fair")
        try:
            doomed = session.submit(AllPairs(keys))
            survivor = session.submit(AllPairs(keys[6:]), priority=2.0)
            deadline = time.perf_counter() + 30.0
            while doomed.progress()[0] == 0 and time.perf_counter() < deadline:
                time.sleep(0.002)
            assert doomed.cancel()
            result = survivor.result(timeout=90.0)
            assert result.is_complete()
            assert doomed.wait(timeout=30.0)
            assert doomed.state is RunState.CANCELLED
            # Every pin of the cancelled job was handed back: nothing is
            # pinned once both jobs are terminal (B finished, A aborted).
            engine = session._engine
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                if all(st.cache.pinned_count() == 0 for st in engine.states):
                    break
                time.sleep(0.01)
            assert all(st.cache.pinned_count() == 0 for st in engine.states)
            assert engine.host_cache.pinned_count() == 0
            _assert_parity(result, store, keys[6:])
        finally:
            session.close()

    def test_fair_priority_orders_admission(self):
        """With one active slot, queued jobs start in priority order."""
        store, keys = make_store(6)
        rocket = make_rocket("local", store, app=SlowApp())
        session = rocket.session(policy="fair", max_active=1)
        try:
            order = []
            blocker = session.submit(AllPairs(keys))
            low = session.submit(AllPairs(keys[:4]), priority=1.0)
            high = session.submit(AllPairs(keys[2:]), priority=8.0)
            for name, handle in (("low", low), ("high", high)):
                threading.Thread(
                    target=lambda n=name, h=handle: (h.wait(60.0), order.append(n)),
                    daemon=True,
                ).start()
            assert blocker.result(timeout=60.0).is_complete()
            assert high.wait(timeout=60.0) and low.wait(timeout=60.0)
            time.sleep(0.05)
            assert order == ["high", "low"]
        finally:
            session.close()

    def test_a_fair_query_finishes_while_the_batch_job_ahead_of_it_runs(self):
        """A priority-8 query submitted behind an AllPairs job does not wait for it."""
        store, keys = make_store(16)
        session = make_rocket("local", store, app=SlowApp()).session(policy="fair")
        try:
            batch = session.submit(AllPairs(keys))
            query = session.submit(AllPairs(keys[:5]), priority=8.0)
            assert query.result(timeout=60.0).is_complete()
            done, total = batch.progress()
            assert not batch.done() and done < total == 120
            assert batch.result(timeout=60.0).is_complete()
            assert query.accounting.finished_at < batch.accounting.finished_at
        finally:
            session.close()

    @pytest.mark.parametrize("n_devices", [1, 2])
    def test_max_inflight_caps_engine_pressure(self, n_devices):
        """A job submitted with max_inflight=1 never has more than one
        pair in flight on the engine — including with several device
        workers racing the window check (the reservation is atomic with
        the check, so two workers cannot both see an open window)."""

        class GaugeApp(SumApp):
            # True concurrency gauge: compare runs on the device kernel
            # threads, so overlapping kernels == overlapping in-flight
            # pairs.  The sleep widens any race into a reliable overlap.
            lock = threading.Lock()
            current = 0
            peak = 0

            def compare(self, key_a, a, key_b, b):
                cls = type(self)
                with cls.lock:
                    cls.current += 1
                    cls.peak = max(cls.peak, cls.current)
                time.sleep(0.002)
                out = super().compare(key_a, a, key_b, b)
                with cls.lock:
                    cls.current -= 1
                return out

        store, keys = make_store(8)
        rocket = make_rocket("local", store, app=GaugeApp(), n_devices=n_devices)
        session = rocket.session(policy="fair")
        try:
            handle = session.submit(AllPairs(keys), max_inflight=1)
            assert handle.result(timeout=60.0).is_complete()
            assert GaugeApp.peak <= 1
            # Admission counts device-cache pins: one pair in flight
            # claims two units (its two items), never more.
            assert max(
                st.admission.peak_in_flight for st in session._engine.states
            ) <= 2
        finally:
            session.close()

    def test_fifo_sessions_ignore_priority_and_stay_serial(self):
        """Migration guarantee: the default policy behaves exactly like
        the pre-scheduler serial dispatcher."""
        store, keys = make_store(8)
        session = make_rocket("local", store).session()
        try:
            first = session.submit(AllPairs(keys), priority=1.0)
            second = session.submit(AllPairs(keys), priority=100.0)
            assert first.result(timeout=60.0).is_complete()
            # FIFO: the high-priority job still ran second.
            assert second.accounting.started_at >= first.accounting.started_at
            assert second.result(timeout=60.0).is_complete()
        finally:
            session.close()

    @pytest.mark.parametrize("policy", ["fifo", "fair"])
    def test_accounting_counts_pairs_while_the_job_runs(self, policy):
        """A running job's ``pairs_completed`` follows its recorded pairs,
        under either policy, and reaches the total at DONE."""
        store, keys = make_store(12)
        session = make_rocket("local", store, app=SlowApp()).session(policy=policy)
        try:
            handle = session.submit(AllPairs(keys))
            samples = []
            while not handle.done():
                with handle._cond:  # the count is credited under the condition
                    samples.append((handle.accounting.pairs_completed, handle.progress()[0]))
                time.sleep(0.002)
            assert handle.result(timeout=60.0).is_complete()
        finally:
            session.close()
        total = handle.progress()[1]
        assert all(counted <= done for counted, done in samples)
        assert any(0 < counted < total for counted, _ in samples), samples[-5:]
        assert handle.accounting.pairs_completed == total


# ----------------------------------------------------------------------
# One-shot filtered runs


class TestFilteredOneShot:
    def test_workload_path_does_not_warn(self):
        import warnings

        store, keys = make_store(6)
        rocket = Rocket(SumApp(), store, RocketConfig(**CFG))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            results = rocket.run(FilteredPairs(keys, lambda a, b: a == keys[0]))
        assert len(list(results.items())) == 5
