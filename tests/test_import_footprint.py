"""SciPy and NetworkX load only on the code paths that call them.

Every process that imports :mod:`repro` — a serve daemon, a cluster
node, a one-shot ``Rocket.run`` — pays for the libraries it loads, and
the caches are sized from the memory left over.  Each check runs in a
fresh interpreter, so what it sees in ``sys.modules`` is what the code
under test imported.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PRELUDE = """
import sys

def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "networkx"})
"""


def run_python(body: str) -> None:
    """Run ``body`` after :data:`PRELUDE` in a fresh interpreter; it asserts."""
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_import_and_a_bioinformatics_run_load_neither():
    run_python(
        """
        import repro, repro.apps, repro.data, repro.serve, repro.cli
        assert loaded() == [], loaded()

        from repro import Rocket, RocketConfig
        from repro.apps import BioinformaticsApplication
        from repro.data import InMemoryStore, make_bioinformatics_dataset

        store = InMemoryStore()
        dataset = make_bioinformatics_dataset(store, n_species=6, seed=0)
        assert loaded() == [], loaded()
        results = Rocket(
            BioinformaticsApplication(k=3), store, RocketConfig(n_devices=1)
        ).run(dataset.keys)
        assert results.is_complete()
        assert loaded() == [], loaded()
        """
    )


def test_denoise_loads_only_scipy_ndimage():
    run_python(
        """
        import numpy as np
        from repro.apps.forensics.prnu import denoise

        denoise(np.zeros((8, 8)))
        assert "scipy.ndimage" in sys.modules
        assert "scipy.optimize" not in sys.modules
        assert "networkx" not in sys.modules
        """
    )


def test_register_pair_loads_scipy_optimize():
    run_python(
        """
        import numpy as np
        from repro.apps.microscopy.registration import register_pair

        assert loaded() == [], loaded()
        points = np.random.default_rng(0).random((6, 2))
        register_pair(points, points, restarts=1, seed=0)
        assert "scipy.optimize" in sys.modules
        """
    )


def test_tree_paths_load_networkx():
    run_python(
        """
        import numpy as np
        from repro.apps.bioinformatics.phylogeny import neighbor_joining

        assert loaded() == [], loaded()
        neighbor_joining(np.array([[0.0, 1.0], [1.0, 0.0]]), ["a", "b"])
        assert loaded() == ["networkx"], loaded()
        """
    )
    run_python(
        """
        from repro.data import InMemoryStore, make_bioinformatics_dataset

        dataset = make_bioinformatics_dataset(InMemoryStore(), n_species=4)
        assert loaded() == [], loaded()
        assert len(dataset.tree.edges) == 6
        assert loaded() == ["networkx"], loaded()
        """
    )
