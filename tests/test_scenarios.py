"""Seeded randomized cross-runtime conformance scenarios.

The paper's claim is one engine, many platforms: the *same* all-pairs
result regardless of device count, speed mix, transport, scheduling
policy or pair filter.  This harness samples scenario tuples
``(n items, device count, speed mix, n_nodes, transport, steal policy,
pair filter, leaf size)`` from a seeded generator and, for every
sampled scenario, asserts

- the local threaded runtime reproduces a pure-Python reference
  evaluation of the application bit-for-bit,
- the multi-process cluster runtime produces a ``ResultMatrix``
  identical to the local one, and
- ``rocketsim`` executes the matching simulated scenario to
  completion with a conforming workload shape (all ``C(n, 2)`` pairs
  exactly once across its GPUs, reuse factor >= 1).

The sample is deterministic (fixed seed), so a failure always
reproduces; bumping ``SCENARIO_SEED`` re-rolls the whole suite.
"""

import numpy as np
import pytest

from repro.core.api import Application
from repro.core.rocket import Rocket
from repro.core.workload import AllPairs, FilteredPairs
from repro.data.filestore import InMemoryStore
from repro.runtime.cluster import ClusterConfig
from repro.runtime.localrocket import RocketConfig
from repro.scheduling.workstealing import StealPolicy
from repro.sim.cluster import ClusterSpec
from repro.sim.rocketsim import RocketSimConfig, run_simulation
from repro.sim.workload import FORENSICS, scaled_profile

SCENARIO_SEED = 0xC0FFEE
SCENARIO_COUNT = 6


class ScenarioApp(Application):
    """Deterministic toy app; compare mixes both operands asymmetrically."""

    def file_name(self, key):
        return f"{key}.bin"

    def parse(self, key, file_contents):
        return np.frombuffer(file_contents, dtype=np.float64).copy()

    def preprocess(self, key, parsed):
        return parsed * 3.0 + 1.0

    def compare(self, key_a, a, key_b, b):
        return np.asarray(float(a.sum() * 2.0 + b.sum()))

    def postprocess(self, key_a, key_b, raw):
        return float(raw)


def _idx(key):
    return int(key.rsplit("-", 1)[1])


def filter_none(a, b):
    return True


def filter_mod3(a, b):
    """Drop every third pair (module-level: inherited by forked workers)."""
    return (_idx(a) + _idx(b)) % 3 != 0


def filter_band(a, b):
    """Banded workload: only near-diagonal pairs survive."""
    return abs(_idx(a) - _idx(b)) <= 4


FILTERS = {"none": None, "mod3": filter_mod3, "band": filter_band}


def sample_scenarios(seed=SCENARIO_SEED, count=SCENARIO_COUNT):
    """Draw ``count`` scenario tuples from one seeded generator."""
    rng = np.random.default_rng(seed)
    scenarios = []
    for idx in range(count):
        n_devices = int(rng.integers(1, 4))
        speeds = tuple(float(rng.choice([1.0, 0.5, 0.25])) for _ in range(n_devices))
        scenarios.append(
            dict(
                idx=idx,
                n_items=int(rng.integers(6, 13)),
                n_devices=n_devices,
                speeds=speeds,
                policy=StealPolicy(str(rng.choice(["uniform", "speed"]))),
                n_nodes=int(rng.integers(1, 4)),
                transport=str(rng.choice(["queue", "shm"])),
                filter_name=str(rng.choice(sorted(FILTERS))),
                # No longer a config knob; still drawn (and named in the
                # test ids) so the sampled scenarios stay the same.
                leaf_size=int(rng.integers(1, 4)),
                seed=int(rng.integers(0, 2**31)),
            )
        )
    return scenarios


def scenario_id(sc):
    mix = "x".join(f"{s:g}" for s in sc["speeds"])
    return (
        f"s{sc['idx']}-n{sc['n_items']}-d{sc['n_devices']}@{mix}-"
        f"{sc['policy'].value}-{sc['n_nodes']}nodes-{sc['transport']}-"
        f"{sc['filter_name']}-leaf{sc['leaf_size']}"
    )


SCENARIOS = sample_scenarios()


def make_store(n_items):
    store = InMemoryStore()
    keys = []
    for i in range(n_items):
        key = f"item-{i}"
        store.write(f"{key}.bin", (np.arange(6, dtype=np.float64) + i).tobytes())
        keys.append(key)
    return store, keys


def reference_results(app, store, keys, pair_filter):
    """Pure-Python ground truth: the pipeline stages applied in order."""
    items = {
        k: app.preprocess(k, app.parse(k, store.read(app.file_name(k)))) for k in keys
    }
    out = {}
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            if pair_filter is not None and not pair_filter(a, b):
                continue
            out[(a, b)] = app.postprocess(a, b, np.asarray(app.compare(a, items[a], b, items[b])))
    return out


def rocket_config(sc, **overrides):
    cfg = dict(
        n_devices=sc["n_devices"],
        device_speed_factors=sc["speeds"],
        steal_policy=sc["policy"],
        device_cache_slots=8,
        host_cache_slots=16,
        seed=sc["seed"],
        watchdog_seconds=120.0,
    )
    cfg.update(overrides)
    return RocketConfig(**cfg)


@pytest.mark.parametrize("sc", SCENARIOS, ids=scenario_id)
def test_cross_runtime_result_parity(sc):
    """local == cluster == reference for every sampled scenario."""
    app = ScenarioApp()
    store, keys = make_store(sc["n_items"])
    pair_filter = FILTERS[sc["filter_name"]]
    expected = reference_results(app, store, keys, pair_filter)

    workload = FilteredPairs(keys, pair_filter) if pair_filter else AllPairs(keys)
    local = Rocket(app, store, rocket_config(sc))
    local_results = local.run(workload)
    assert len(local_results) == len(expected)
    for (a, b), v in expected.items():
        assert local_results.get(a, b) == v
    stats = local.last_stats
    assert stats.aggregate_speed == pytest.approx(sum(sc["speeds"]))
    assert stats.calibration.cmp_count == len(expected)
    assert "model: predicted" in stats.summary()

    cluster = Rocket(
        app,
        store,
        rocket_config(sc),
        backend="cluster", cluster=ClusterConfig(
            n_nodes=sc["n_nodes"],
            transport=sc["transport"],
            fetch_timeout=20.0,
            steal_timeout=5.0,
        ),
    )
    cluster_results = cluster.run(workload)
    assert len(cluster_results) == len(expected)
    for (a, b), v in expected.items():
        assert cluster_results.get(a, b) == v
    cstats = cluster.last_stats
    assert cstats.aggregate_speed == pytest.approx(sc["n_nodes"] * sum(sc["speeds"]))
    assert cstats.calibration.cmp_count == len(expected)
    assert "model: predicted" in cstats.summary()


@pytest.mark.parametrize("sc", SCENARIOS, ids=scenario_id)
def test_rocketsim_scenario_conformance(sc):
    """The simulator completes the matching platform's full workload.

    ``rocketsim`` runs on simulated time (no pair values, no filters),
    so conformance here means the workload shape: every one of the
    ``C(n, 2)`` pairs executed exactly once across the scenario's GPUs
    and the reuse factor within the model's bounds.
    """
    profile = scaled_profile(FORENSICS, sc["n_items"])
    spec = ClusterSpec.homogeneous(sc["n_nodes"], gpus_per_node=sc["n_devices"])
    report = run_simulation(
        spec,
        profile,
        RocketSimConfig(seed=sc["seed"], device_cache_slots=8, host_cache_slots=12),
        seed=sc["seed"],
    )
    n = sc["n_items"]
    assert report.n_pairs == n * (n - 1) // 2
    assert sum(report.pairs_per_gpu.values()) == report.n_pairs
    assert len(report.pairs_per_gpu) == sc["n_nodes"] * sc["n_devices"]
    assert report.reuse_factor >= 1.0
    assert report.runtime > 0
    assert 0 < report.efficiency <= 1.0 + 1e-9
