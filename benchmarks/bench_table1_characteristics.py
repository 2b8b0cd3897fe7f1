"""Table 1 — application characteristics.

Regenerates both halves of the paper's Table 1:

1. the *workload profile* half (item counts, data sizes, pair counts,
   cache slot counts) directly from the transcribed profiles, verifying
   the derived quantities against the paper's values;
2. the *stage timing* half (parse / preprocess / compare mean +- std) by
   actually executing our NumPy application kernels on synthetic data —
   the laptop-scale analogue of the paper's TitanX measurements.

Absolute times differ from the paper (NumPy on CPU vs CUDA kernels);
the *structure* must match: for forensics and bioinformatics the load
stages dominate the comparison by orders of magnitude, while microscopy
is the opposite.
"""

import numpy as np
import pytest

from repro.apps.bioinformatics.app import BioinformaticsApplication
from repro.apps.forensics.app import ForensicsApplication
from repro.apps.microscopy.app import MicroscopyApplication
from repro.data.filestore import InMemoryStore
from repro.data.synthetic import (
    make_bioinformatics_dataset,
    make_forensics_dataset,
    make_microscopy_dataset,
)
from repro.sim.workload import BIOINFORMATICS, FORENSICS, MICROSCOPY
from repro.util.tables import format_table

from _common import print_block


def test_table1_profile_half(once):
    """Static columns of Table 1 from the transcribed profiles."""
    once(lambda: None)  # trivially timed; the table below is the artefact
    rows = []
    for prof, dev_slots, host_slots in (
        (FORENSICS, 291, 1050),
        (BIOINFORMATICS, 81, 280),
        (MICROSCOPY, 256, 256),
    ):
        rows.append(
            [
                prof.name,
                prof.n_items,
                f"{prof.n_items * prof.file_size / 1e9:.1f} GB",
                f"{prof.n_items * prof.slot_size / 1e9:.1f} GB",
                prof.n_pairs,
                f"{prof.total_pairwise_bytes / 1e12:.1f} TB",
                f"{prof.slot_size / 1e6:.1f} MB",
                dev_slots,
                host_slots,
            ]
        )
    table = format_table(
        ["app", "n files", "raw on disk", "in memory", "pairs", "pairwise total", "slot", "dev slots", "host slots"],
        rows,
        title="Table 1 (profile half)",
    )
    print_block("Table 1 — data characteristics", table)

    # Paper checks: 19.4 GB raw / 189.7 GB in memory for forensics;
    # ~945 TB pairwise; 12,397,710 pairs.
    assert FORENSICS.n_pairs == 12_397_710
    assert FORENSICS.n_items * FORENSICS.file_size == pytest.approx(19.4e9, rel=0.01)
    assert FORENSICS.n_items * FORENSICS.slot_size == pytest.approx(189.7e9, rel=0.02)
    assert FORENSICS.total_pairwise_bytes == pytest.approx(944.7e12, rel=0.06)
    assert BIOINFORMATICS.n_pairs == 3_123_750


def _stage_times(app, store, keys, n_samples=10):
    """Measure parse / preprocess / compare wall times of real kernels."""
    import time

    # One untimed call per stage first: a stage's first call may import
    # the library it runs on (``prnu.denoise`` loads ``scipy.ndimage``),
    # and that import is not the stage's cost.
    warm = {
        key: app.preprocess(key, app.parse(key, store.read(app.file_name(key))))
        for key in keys[:2]
    }
    app.compare(keys[0], warm[keys[0]], keys[1], warm[keys[1]])

    parse_t, pre_t, cmp_t = [], [], []
    parsed, items = {}, {}
    for key in keys:
        blob = store.read(app.file_name(key))
        t0 = time.perf_counter()
        parsed[key] = app.parse(key, blob)
        parse_t.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        items[key] = app.preprocess(key, parsed[key])
        pre_t.append(time.perf_counter() - t0)
    pairs = [(a, b) for i, a in enumerate(keys) for b in keys[i + 1 :]][:n_samples]
    for a, b in pairs:
        t0 = time.perf_counter()
        app.compare(a, items[a], b, items[b])
        cmp_t.append(time.perf_counter() - t0)
    ms = lambda xs: (1e3 * float(np.mean(xs)), 1e3 * float(np.std(xs)))  # noqa: E731
    return ms(parse_t), ms(pre_t), ms(cmp_t)


def test_table1_timing_half(once):
    """Measured stage times of the real NumPy kernels (laptop scale)."""

    def run():
        rows = []
        store = InMemoryStore()
        ds = make_forensics_dataset(store, n_images=8, n_cameras=2, image_shape=(128, 128), seed=1)
        rows.append(("forensics", *_stage_times(ForensicsApplication(), store, ds.keys)))

        store = InMemoryStore()
        ds = make_bioinformatics_dataset(store, n_species=8, n_proteins=6, protein_length=400, seed=1)
        rows.append(("bioinformatics", *_stage_times(BioinformaticsApplication(k=3), store, ds.keys)))

        store = InMemoryStore()
        ds = make_microscopy_dataset(store, n_particles=6, template_points=40, seed=1)
        rows.append(("microscopy", *_stage_times(MicroscopyApplication(restarts=3), store, ds.keys)))
        return rows

    rows = once(run)
    table = format_table(
        ["app", "parse (ms)", "preprocess (ms)", "compare (ms)"],
        [
            [name, f"{p[0]:.2f} ± {p[1]:.2f}", f"{q[0]:.2f} ± {q[1]:.2f}", f"{c[0]:.2f} ± {c[1]:.2f}"]
            for name, p, q, c in rows
        ],
        title="Table 1 (timing half, measured on NumPy kernels)",
    )
    print_block("Table 1 — measured stage times", table)

    by_name = {r[0]: r for r in rows}
    # Structural checks mirroring the paper's characterisation.  The
    # paper's load/compare ratio for forensics is ~138x (10-Mpix JPEG
    # decode vs one NCC); our 128x128 images compress the gap, but the
    # ordering must hold clearly.
    _, p, q, c = by_name["forensics"]
    assert p[0] + q[0] > 4 * c[0]  # loading >> comparing
    _, p, q, c = by_name["microscopy"]
    assert c[0] > 5 * (p[0] + q[0])  # comparing >> loading
