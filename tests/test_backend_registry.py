"""Error-path coverage for ``Rocket``'s backend selection.

The happy paths (running workloads through ``Rocket(backend=...)``)
live in ``test_cluster_runtime.py``; this file pins down the
constructor's failure modes — unknown backend names, options that do
not belong to the chosen backend, conflicting node counts — and the
cluster data-plane validation ``ClusterConfig`` does when it is built.
"""

import json

import numpy as np
import pytest

from repro.core.api import Application
from repro.core.rocket import Rocket
from repro.data.filestore import InMemoryStore
from repro.runtime.cluster import ClusterConfig
from repro.runtime.localrocket import RocketConfig


class NoopApp(Application):
    def file_name(self, key):
        return f"{key}.bin"

    def parse(self, key, file_contents):
        return np.frombuffer(file_contents, dtype=np.float64).copy()

    def preprocess(self, key, parsed):
        return parsed

    def compare(self, key_a, a, key_b, b):
        return np.asarray(0.0)

    def postprocess(self, key_a, key_b, raw):
        return float(raw)


@pytest.fixture
def app_and_store():
    store = InMemoryStore()
    store.write("a.bin", np.zeros(4).tobytes())
    return NoopApp(), store


class TestRegistryErrorPaths:
    def test_unknown_backend_lists_available(self, app_and_store):
        app, store = app_and_store
        with pytest.raises(ValueError, match="unknown backend 'quantum'") as exc:
            Rocket(app, store, backend="quantum")
        # The message tells the user what *is* available.
        assert "available: local, cluster" in str(exc.value)

    def test_rocket_surfaces_the_same_message(self, app_and_store):
        # The backend name is checked before the options that depend on it.
        app, store = app_and_store
        with pytest.raises(ValueError, match="unknown backend"):
            Rocket(app, store, backend="quantum", n_nodes=2)

    def test_local_backend_rejects_unknown_options(self, app_and_store):
        app, store = app_and_store
        with pytest.raises(ValueError, match="cluster backend only"):
            Rocket(app, store, n_nodes=4)

    def test_local_backend_rejects_a_cluster_config(self, app_and_store):
        app, store = app_and_store
        with pytest.raises(ValueError, match="cluster backend only"):
            Rocket(app, store, backend="local", cluster=ClusterConfig())

    def test_cluster_backend_rejects_unknown_options(self, app_and_store):
        # Every cluster knob is a ClusterConfig field; Rocket's keyword
        # options are exactly backend, n_nodes and cluster.
        app, store = app_and_store
        with pytest.raises(TypeError, match="warp_factor"):
            Rocket(app, store, backend="cluster", warp_factor=9)
        with pytest.raises(TypeError, match="transport"):
            Rocket(app, store, backend="cluster", transport="shm")

    def test_conflicting_node_counts_raise(self, app_and_store):
        app, store = app_and_store
        with pytest.raises(ValueError, match="conflicting node counts"):
            Rocket(
                app, store, RocketConfig(), backend="cluster",
                n_nodes=3, cluster=ClusterConfig(n_nodes=2),
            )


class TestConfigNone:
    def test_profiled_run_with_config_none(self, app_and_store, tmp_path):
        # ``config=None`` means the defaults, for the Rocket's own
        # ``config`` too: a profiled run reads its profiling flag.
        app, store = app_and_store
        for key in ("b", "c"):
            store.write(f"{key}.bin", np.ones(4).tobytes())
        rocket = Rocket(app, store, None)
        trace = tmp_path / "trace.json"
        results = rocket.run(["a", "b", "c"], profile=str(trace))
        assert results.is_complete()
        assert rocket.config == RocketConfig()
        assert rocket.last_stats is not None and rocket.last_stats.n_pairs == 3
        assert json.loads(trace.read_text())["traceEvents"]


class TestClusterDataPlaneOptions:
    def test_unknown_transport_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown transport 'telegraph'") as exc:
            ClusterConfig(transport="telegraph")
        assert "available: queue, shm" in str(exc.value)
