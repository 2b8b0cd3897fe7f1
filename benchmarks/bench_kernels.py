"""Batched-pair kernels vs the per-pair path — the two vectorised applications.

PR 7's tentpole claim: dispatching a *block* of pairs into one
vectorised ``compare_block`` call beats one Python-dispatched
``compare`` per pair.  This benchmark measures exactly that, at the
kernel level (no runtime around it, so the numbers isolate kernel
dispatch + vectorisation):

- *per-pair*: ``app.compare`` once per pair on the cached payloads —
  for the bioinformatics app this includes the historical per-compare
  CV unpacking, which is precisely the work the batched path hoists
  out of the pair loop;
- *batched*: one ``app.item_view`` per item (as the runtime computes
  it, once per resident cache slot) plus one ``app.compare_block``
  over all pairs.

The composition-vector app must clear a 3x floor — its per-pair kernel
re-unpacks both sparse CVs and walks a Python merge loop, while the
batch pre-unpacks once and reduces over a dense scatter.  Forensics
vectorises over a stacked ``(n, H, W)`` axis and is reported without a
floor.  Microscopy's registration is data-dependent (per-pair optimiser
restarts): it has no batched kernel and runs the per-pair path.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q -s
"""

import time

import numpy as np

from repro.apps import BioinformaticsApplication, ForensicsApplication
from repro.data.filestore import InMemoryStore
from repro.data.synthetic import make_bioinformatics_dataset, make_forensics_dataset
from repro.util.tables import format_table

from _common import print_block, write_bench_json

#: Acceptance floor: batched CV distance >= 3x the per-pair kernel.
CV_SPEEDUP_FLOOR = 3.0


def _load_items(app, store, keys):
    """Parse + preprocess every item, exactly like the load pipeline."""
    items = {}
    for key in keys:
        parsed = app.parse(key, store.read(app.file_name(key)))
        items[key] = app.preprocess(key, parsed)
    return items


def _bench_app(app, store, keys, repeats=3):
    """Best-of-``repeats`` seconds for the per-pair and batched paths."""
    items = _load_items(app, store, keys)
    pairs = [(a, b) for i, a in enumerate(keys) for b in keys[i + 1 :]]

    def per_pair():
        return [
            app.postprocess(a, b, app.compare(a, items[a], b, items[b]))
            for a, b in pairs
        ]

    def batched():
        views = (
            {k: app.item_view(k, items[k]) for k in keys}
            if app.supports_item_view
            else items
        )
        keys_a = [a for a, _ in pairs]
        keys_b = [b for _, b in pairs]
        raw = app.compare_block(
            keys_a, [views[a] for a in keys_a], keys_b, [views[b] for b in keys_b]
        )
        return [app.postprocess(a, b, raw[k]) for k, (a, b) in enumerate(pairs)]

    def best(fn):
        result, elapsed = None, float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn()
            elapsed = min(elapsed, time.perf_counter() - t0)
        return result, elapsed

    ref, t_pair = best(per_pair)
    out, t_batch = best(batched)
    # Parity: batched values match the per-pair kernel (FP-summation-
    # order tolerance for the dense/einsum reductions).
    assert np.allclose(ref, out, atol=1e-9), f"{type(app).__name__} parity broke"
    return len(pairs), t_pair, t_batch


def test_batched_kernels_beat_per_pair(once):
    """Kernel-level speedup of compare_block over per-pair compare."""
    plans = {}

    store = InMemoryStore()
    ds = make_bioinformatics_dataset(
        store, n_species=24, n_proteins=6, protein_length=500, mutation_rate=0.05, seed=3
    )
    plans["bioinformatics"] = (BioinformaticsApplication(k=3), store, ds.keys)

    store = InMemoryStore()
    ds = make_forensics_dataset(store, n_images=14, n_cameras=4, image_shape=(64, 64), seed=5)
    plans["forensics"] = (ForensicsApplication(), store, ds.keys)

    measured = {}

    def run_all():
        for name, (app, app_store, keys) in plans.items():
            measured[name] = _bench_app(app, app_store, keys)

    once(run_all)

    rows, results = [], {}
    for name, (n_pairs, t_pair, t_batch) in measured.items():
        speedup = t_pair / t_batch if t_batch > 0 else float("inf")
        rows.append([
            name, n_pairs,
            f"{1e6 * t_pair / n_pairs:9.1f}",
            f"{1e6 * t_batch / n_pairs:9.1f}",
            f"{speedup:6.2f}x",
        ])
        results[name] = {
            "n_pairs": n_pairs,
            "per_pair_us": 1e6 * t_pair / n_pairs,
            "batched_us": 1e6 * t_batch / n_pairs,
            "speedup": speedup,
        }

    print_block(
        "Batched compare_block vs per-pair compare (kernel level)",
        format_table(
            ["app", "pairs", "per-pair µs", "batched µs", "speedup"],
            rows,
            title=f"best of 3; CV floor {CV_SPEEDUP_FLOOR:.0f}x",
        ),
    )
    write_bench_json("kernels", results)

    assert results["bioinformatics"]["speedup"] >= CV_SPEEDUP_FLOOR, (
        f"CV batched kernel speedup "
        f"{results['bioinformatics']['speedup']:.2f}x under the "
        f"{CV_SPEEDUP_FLOOR:.0f}x floor"
    )
    # The regular stacked-ndarray app must at least not regress.
    assert results["forensics"]["speedup"] >= 1.0
