"""Integration tests for the threaded runtime and virtual devices."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.apps import ForensicsApplication
from repro.core.api import Application
from repro.core.buffers import DeviceBuffer
from repro.core.rocket import Rocket
from repro.data.filestore import InMemoryStore
from repro.data.synthetic import make_forensics_dataset
from repro.runtime.devices import VirtualDevice
from repro.runtime.localrocket import RocketConfig
from repro.scheduling.workstealing import StealPolicy


class TestVirtualDevice:
    def test_kernel_runs_and_wraps_result(self):
        with VirtualDevice("gpu0") as dev:
            buf = dev.h2d(np.arange(4.0))
            out, seconds = dev.run_kernel(np.sum, buf)
            assert isinstance(out, DeviceBuffer)
            assert seconds >= 0.0
            assert out.data == pytest.approx(6.0)
            assert dev.kernel_count == 1
            assert dev.kernel_seconds >= 0.0

    def test_transfer_counters(self):
        with VirtualDevice("gpu0") as dev:
            arr = np.zeros(100, dtype=np.float64)
            buf = dev.h2d(arr)
            dev.d2h(buf)
            assert dev.h2d_bytes == 800
            assert dev.d2h_bytes == 800

    def test_h2d_copies(self):
        with VirtualDevice("gpu0") as dev:
            arr = np.zeros(4)
            buf = dev.h2d(arr)
            arr[0] = 99.0
            assert buf.data[0] == 0.0

    def test_foreign_buffer_rejected(self):
        with VirtualDevice("gpu0") as a, VirtualDevice("gpu1") as b:
            buf = a.h2d(np.zeros(2))
            with pytest.raises(RuntimeError, match="transfer is missing"):
                b.run_kernel(np.sum, buf)
            with pytest.raises(RuntimeError):
                b.d2h(buf)

    def test_buffers_inside_a_list_are_unwrapped_or_rejected(self):
        # A compare launch passes each side's items as one list, so this
        # is the ownership check every per-pair app's items go through.
        with VirtualDevice("gpu0") as a, VirtualDevice("gpu1") as b:
            own = [a.h2d(np.arange(3.0)), a.h2d(np.ones(3))]
            out, _ = a.run_kernel(lambda items: np.stack(items), own)
            assert out.data.tolist() == [[0.0, 1.0, 2.0], [1.0, 1.0, 1.0]]
            mixed = [a.h2d(np.zeros(2)), b.h2d(np.zeros(2))]
            with pytest.raises(RuntimeError, match="transfer is missing"):
                a.run_kernel(lambda items: np.stack(items), mixed)

    def test_speed_factor_pads_time(self):
        import time

        def busy(x):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.01:
                pass
            return x

        with VirtualDevice("slow", speed_factor=0.25) as slow:
            t0 = time.perf_counter()
            slow.run_kernel(busy, np.zeros(1))
            elapsed = time.perf_counter() - t0
        assert elapsed >= 0.035  # 10 ms padded ~4x

    def test_shutdown_rejects_new_kernels(self):
        dev = VirtualDevice("gpu0")
        dev.shutdown()
        with pytest.raises(RuntimeError):
            dev.run_kernel(np.sum, np.zeros(1))

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            VirtualDevice("g", speed_factor=0.0)


class SumApp(Application[str, float]):
    """Deterministic toy app: compare = sum(a) * sum(b).

    Every stage records invocation counts so tests can assert cache
    behaviour precisely.
    """

    def __init__(self):
        self.parse_calls = 0
        self.preprocess_calls = 0
        self._lock = threading.Lock()

    def file_name(self, key):
        return f"{key}.bin"

    def parse(self, key, file_contents):
        with self._lock:
            self.parse_calls += 1
        return np.frombuffer(file_contents, dtype=np.float64).copy()

    def preprocess(self, key, parsed):
        with self._lock:
            self.preprocess_calls += 1
        return parsed * 2.0

    def compare(self, key_a, a, key_b, b):
        return np.asarray(float(a.sum() * b.sum()))

    def postprocess(self, key_a, key_b, raw):
        return float(raw)


def make_store(n):
    store = InMemoryStore()
    values = {}
    for i in range(n):
        key = f"item{i:02d}"
        arr = np.full(8, float(i + 1))
        store.write(f"{key}.bin", arr.tobytes())
        values[key] = 2.0 * arr.sum()  # after preprocess
    return store, values


class TestLocalRocketRuntime:
    def test_results_match_direct_computation(self):
        n = 10
        store, values = make_store(n)
        app = SumApp()
        rocket = Rocket(app, store, RocketConfig(n_devices=2, device_cache_slots=4, host_cache_slots=6, seed=1))
        keys = sorted(values)
        results = rocket.run(keys)
        assert results.is_complete()
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                assert results.get(a, b) == pytest.approx(values[a] * values[b])

    def test_stats_populated(self):
        store, values = make_store(8)
        app = SumApp()
        rocket = Rocket(app, store, RocketConfig(n_devices=2, device_cache_slots=4, host_cache_slots=8, seed=2))
        rocket.run(sorted(values))
        stats = rocket.last_stats
        assert stats is not None
        assert stats.n_pairs == 28
        assert stats.loads >= 8
        assert stats.reuse_factor >= 1.0
        assert stats.io_bytes == stats.loads * 64
        assert sum(stats.pairs_per_device.values()) == 28
        assert "pairs" in stats.summary()

    def test_parse_called_once_per_load(self):
        store, values = make_store(6)
        app = SumApp()
        rocket = Rocket(app, store, RocketConfig(n_devices=1, device_cache_slots=6, host_cache_slots=6, seed=0))
        rocket.run(sorted(values))
        # Ample cache: each item loaded exactly once.
        assert app.parse_calls == 6
        assert app.preprocess_calls == 6
        assert rocket.last_stats.reuse_factor == pytest.approx(1.0)

    def test_tight_cache_forces_reloads(self):
        store, values = make_store(10)
        app = SumApp()
        rocket = Rocket(
            app, store, RocketConfig(n_devices=1, device_cache_slots=3, host_cache_slots=4, seed=0)
        )
        rocket.run(sorted(values))
        assert app.parse_calls > 10  # reloads happened
        assert rocket.last_stats.reuse_factor > 1.0

    def test_single_device_single_job(self):
        store, values = make_store(5)
        app = SumApp()
        rocket = Rocket(
            app,
            store,
            RocketConfig(n_devices=1, device_cache_slots=3, host_cache_slots=5),
        )
        results = rocket.run(sorted(values))
        assert results.is_complete()

    def test_heterogeneous_speed_factors(self):
        store, values = make_store(8)
        app = SumApp()
        rocket = Rocket(
            app,
            store,
            RocketConfig(
                n_devices=2,
                device_speed_factors=(1.0, 0.25),
                device_cache_slots=8,
                host_cache_slots=8,
                seed=3,
            ),
        )
        results = rocket.run(sorted(values))
        assert results.is_complete()
        stats = rocket.last_stats
        assert sum(stats.pairs_per_device.values()) == 28

    def test_speed_policy_gives_the_fast_device_more_pairs(self):
        """A kernel-bound job on a (1.0, 0.25) device mix under ``SPEED``."""

        class SleepCompareApp(SumApp):
            def compare(self, key_a, a, key_b, b):
                time.sleep(0.004)
                return super().compare(key_a, a, key_b, b)

        store, values = make_store(10)
        rocket = Rocket(
            SleepCompareApp(),
            store,
            RocketConfig(
                n_devices=2, device_speed_factors=(1.0, 0.25), steal_policy=StealPolicy.SPEED,
                device_cache_slots=16, host_cache_slots=32, seed=11,
            ),
        )
        assert rocket.run(sorted(values)).is_complete()
        stats = rocket.last_stats
        assert stats.pairs_per_device["gpu0"] > stats.pairs_per_device["gpu1"]
        # Online calibration timed every kernel and fed the run's model.
        assert stats.calibration.cmp_count == stats.n_pairs == 45
        assert stats.predicted_runtime > 0 and stats.model_efficiency > 0

    def test_parse_error_propagates(self):
        store, values = make_store(4)
        store.write("item02.bin", b"short")  # corrupt: not a multiple of 8

        class BadApp(SumApp):
            def parse(self, key, file_contents):
                if len(file_contents) % 8:
                    raise ValueError(f"corrupt file for {key}")
                return super().parse(key, file_contents)

        rocket = Rocket(BadApp(), store, RocketConfig(n_devices=1, watchdog_seconds=30))
        with pytest.raises(ValueError, match="corrupt file"):
            rocket.run(sorted(values))

    def test_missing_file_propagates(self):
        store, values = make_store(3)
        app = SumApp()
        rocket = Rocket(app, store, RocketConfig(n_devices=1, watchdog_seconds=30))
        with pytest.raises(KeyError):
            rocket.run(sorted(values) + ["ghost"])

    def test_profiling_trace(self):
        store, values = make_store(5)
        app = SumApp()
        rocket = Rocket(
            app, store, RocketConfig(n_devices=1, profiling=True, seed=0)
        )
        rocket.run(sorted(values))
        trace = rocket.last_stats.trace
        assert trace is not None
        assert "CPU" in trace.lanes()
        assert trace.busy_time("IO") >= 0.0

    def test_determinism_of_results(self):
        """Values (not timings) must be identical across runs."""
        store, values = make_store(7)
        keys = sorted(values)

        def collect():
            app = SumApp()
            rocket = Rocket(
                app, store, RocketConfig(n_devices=2, device_cache_slots=4, host_cache_slots=5, seed=5)
            )
            return [v for _, _, v in rocket.run(keys).items()]

        assert collect() == collect()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RocketConfig(n_devices=0)
        with pytest.raises(ValueError):
            RocketConfig(device_speed_factors=(1.0,), n_devices=2)
        with pytest.raises(ValueError):
            RocketConfig(device_speed_factors=(1.0, -1.0), n_devices=2)
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            RocketConfig(device_speed_factors=(2.0, 1.0), n_devices=2)
        with pytest.raises(ValueError):
            RocketConfig(watchdog_seconds=0)
        for grain in ("auto", 0, 2.5):  # one fixed batch size, no sizing mode
            with pytest.raises(ValueError, match="grain"):
                RocketConfig(grain=grain)
        assert RocketConfig().grain == 64

    def test_leaf_size_and_concurrent_jobs_are_fixed(self):
        with pytest.raises(TypeError):
            RocketConfig(leaf_size=2)
        with pytest.raises(TypeError):
            RocketConfig(concurrent_jobs=4)
        cfg = RocketConfig()
        assert (cfg.leaf_size, cfg.concurrent_jobs) == (4, 8)


class DeviceFailApp(SumApp):
    """Comparison kernel that dies on one device of the pair.

    ``VirtualDevice`` kernel threads are named ``dev-<device>...``, so
    raising for a device-name substring injects a fault on exactly one
    of the node's GPUs while the other keeps working.
    """

    def __init__(self, poison_device="gpu1"):
        super().__init__()
        self.poison_device = poison_device

    def compare(self, key_a, a, key_b, b):
        time.sleep(0.005)  # keep both devices busy so jobs overlap
        if self.poison_device in threading.current_thread().name:
            raise RuntimeError(f"injected kernel fault on {self.poison_device}")
        return super().compare(key_a, a, key_b, b)


class TestPipelineFailurePath:
    """A kernel raising mid-job must release every token, pin and slot.

    Regression for the leaked first-item pin: a job whose *second*
    device-cache acquisition failed used to keep its first item pinned
    forever, wedging eviction for every surviving job and stalling
    shutdown.
    """

    #: Three device slots admit two concurrent jobs per device
    #: (``device_cache_slots - 1``), so jobs regularly hold their first
    #: item while waiting on the second — the window the regression
    #: lives in.
    CFG = dict(
        n_devices=2,
        device_cache_slots=3,
        host_cache_slots=8,
        seed=9,
        watchdog_seconds=30.0,
    )

    def _drain(self, condition, timeout=5.0):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if condition():
                return True
            time.sleep(0.01)
        return condition()

    def test_failing_kernel_releases_tokens_and_slots(self):
        from repro.runtime.pernode import NodePipeline
        from repro.scheduling.quadtree import PairBlock

        store, values = make_store(8)
        keys = sorted(values)
        pipeline = NodePipeline(
            DeviceFailApp(),
            store,
            RocketConfig(**self.CFG),
            keys,
            emit_block=lambda i, j, values: None,
            expected_pairs=28,
            initial_blocks=[PairBlock.root(len(keys))],
        )
        pipeline.start()
        try:
            assert pipeline.wait(20.0), "failed run must still signal done"
            assert pipeline.aborted.is_set()
            assert pipeline.errors
            assert any("injected kernel fault" in str(e) for e in pipeline.errors)
            pipeline.join(timeout=10.0)
            # Every admitted job must have given its token back and no
            # device/host slot may stay pinned, even for jobs aborted
            # between their first and second item acquisition.
            assert self._drain(
                lambda: all(st.admission.in_flight == 0 for st in pipeline.states)
            ), "leaked admission tokens"
            assert self._drain(
                lambda: all(st.cache.pinned_count() == 0 for st in pipeline.states)
            ), "leaked device-cache pins"
            assert self._drain(lambda: pipeline.host_cache.pinned_count() == 0)
        finally:
            t0 = time.perf_counter()
            pipeline.close()
            assert time.perf_counter() - t0 < 5.0, "close() hung after kernel fault"
        pipeline.close()  # idempotent

    def test_failing_kernel_surfaces_through_runtime(self):
        """End-to-end: the error propagates, the run does not hang."""
        store, values = make_store(8)
        rocket = Rocket(DeviceFailApp(), store, RocketConfig(**self.CFG))
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="injected kernel fault"):
            rocket.run(sorted(values))
        assert time.perf_counter() - t0 < self.CFG["watchdog_seconds"]

    def test_healthy_device_alone_completes(self):
        """Poisoning a device that does not exist must be harmless."""
        store, values = make_store(6)
        rocket = Rocket(
            DeviceFailApp(poison_device="gpu9"), store, RocketConfig(**self.CFG)
        )
        assert rocket.run(sorted(values)).is_complete()


class TestFillDeviceGuard:
    """Every source of a device fill publishes under one guard.

    The host slot a host miss reserves is shared by every job on the
    engine: if a copy raised after it was reserved and nobody abandoned
    it, the slot would stay in WRITE state and every later job needing
    the key would wait on it until aborted.
    """

    CFG = dict(
        n_devices=1, device_cache_slots=8, host_cache_slots=8,
        watchdog_seconds=30.0,
    )

    @staticmethod
    def run_job(engine, keys, store, remote_fetch):
        from repro.runtime.pernode import NodePipeline
        from repro.scheduling.quadtree import PairBlock

        emitted = []
        pipeline = NodePipeline(
            SumApp(), store, RocketConfig(**TestFillDeviceGuard.CFG), keys,
            emit_block=lambda i, j, values: emitted.extend(values),
            expected_pairs=len(keys) * (len(keys) - 1) // 2,
            initial_blocks=[PairBlock.root(len(keys))],
            remote_fetch=remote_fetch,
            engine=engine,
        )
        pipeline.start()
        finished = pipeline.wait(10.0)
        pipeline.request_stop(abort=True)  # a wedged job must not outlive the test
        pipeline.join(timeout=5.0)
        pipeline.close()
        return finished, pipeline.errors, emitted

    @pytest.mark.parametrize("source, copy", [("peer", "h2d"), ("load", "d2h")])
    def test_a_failed_copy_frees_the_host_slot_for_the_next_job(self, source, copy):
        from repro.runtime.pernode import NodeEngine

        store, values = make_store(4)
        keys = sorted(values)
        app = SumApp()

        def peer(idx):  # a peer's host cache serves every item
            key = keys[idx]
            return app.preprocess(key, app.parse(key, store.read(app.file_name(key))))

        remote_fetch = peer if source == "peer" else None
        engine = NodeEngine(RocketConfig(**self.CFG))
        try:
            device = engine.states[0].device
            real = getattr(device, copy)
            faults = [RuntimeError(f"injected {copy} fault")]

            def copy_failing_once(data):
                if faults:
                    raise faults.pop()
                return real(data)

            setattr(device, copy, copy_failing_once)
            finished, errors, _ = self.run_job(engine, keys, store, remote_fetch)
            assert finished and any(f"injected {copy} fault" in str(e) for e in errors)
            assert engine.host_cache.pinned_count() == 0

            finished, errors, emitted = self.run_job(engine, keys, store, remote_fetch)
            assert finished, "the second job waited on a host slot nobody publishes"
            assert errors == []
            assert sorted(emitted) == sorted(
                values[a] * values[b] for i, a in enumerate(keys) for b in keys[i + 1:]
            )
        finally:
            engine.close()


class LaneRecordingStore(InMemoryStore):
    """A store whose ``read`` records its callers and peak concurrency."""

    def __init__(self) -> None:
        super().__init__()
        self._gauge = threading.Lock()
        self.active = 0
        self.peak = 0
        self.reads = 0
        self.readers = set()
        self.baseline = set(threading.enumerate())
        self.started = set()

    def read(self, name):
        with self._gauge:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.reads += 1
            self.readers.add(threading.current_thread().name)
            self.started.update(
                t.name for t in threading.enumerate() if t not in self.baseline
            )
        try:
            time.sleep(0.0005)  # widen the window a second reader would hit
            return super().read(name)
        finally:
            with self._gauge:
                self.active -= 1


class TestLoadPipelineOnJobThreads:
    """Every stage of a load runs on the job thread that missed the item."""

    N_ITEMS = 24
    CFG = dict(
        n_devices=2, device_cache_slots=6, host_cache_slots=8,
        seed=3, watchdog_seconds=60.0,
    )

    @pytest.fixture(scope="class")
    def cold_run(self):
        store = LaneRecordingStore()
        ds = make_forensics_dataset(
            store, n_images=self.N_ITEMS, n_cameras=3, image_shape=(32, 32), seed=9
        )
        app = ForensicsApplication()
        rocket = Rocket(app, store, RocketConfig(**self.CFG))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the job threads densely
        try:
            results = rocket.run(ds.keys)
        finally:
            sys.setswitchinterval(interval)
        return app, store, ds.keys, results, rocket.last_stats

    def test_no_io_or_cpu_thread_is_started(self, cold_run):
        _, store, _, _, _ = cold_run
        assert store.started, "no pipeline thread seen during the run"
        relays = {n for n in store.started if n.startswith(("io", "cpu"))}
        assert not relays, relays
        assert all(name.startswith("job") for name in store.readers), store.readers

    def test_reads_stay_one_lane(self, cold_run):
        _, store, _, _, stats = cold_run
        assert store.peak == 1
        assert store.reads == stats.loads >= self.N_ITEMS
        cal = stats.calibration
        assert cal.io_count == cal.parse_count == cal.pre_count == stats.loads

    def test_matrix_matches_a_serial_loop(self, cold_run):
        app, store, keys, results, _ = cold_run
        items = {  # read past the recorder: these reads are not the run's
            k: app.preprocess(k, app.parse(k, InMemoryStore.read(store, app.file_name(k))))
            for k in keys
        }
        assert results.is_complete()
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                expected = app.postprocess(
                    a, b, np.asarray(app.compare(a, items[a], b, items[b]))
                )
                assert results.get(a, b) == expected, (a, b)
