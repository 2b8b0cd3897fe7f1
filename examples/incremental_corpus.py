#!/usr/bin/env python3
"""Incremental corpus growth with a session: delta jobs on warm caches.

A production corpus is never finished — new items keep arriving, and
recomputing the full all-pairs triangle on every arrival wastes exactly
the work the previous run already did.  This example shows the
session/job API handling growth incrementally:

1. open a session (``Rocket(...).session()``) and run ``AllPairs``
   over the initial corpus;
2. new items arrive; submit a ``DeltaPairs`` workload — only
   ``new x old`` and ``new x new`` comparisons, streamed as they land;
3. merge the delta result into the prior matrix
   (``prior.merge(delta)``) to obtain the grown corpus's full matrix;
4. because the session kept the backend alive, the delta job finds the
   old items already resident in the warm caches — watch the ``loads``
   counter: the delta job re-loads only what fell out of cache, not
   the whole corpus.

Run:  python examples/incremental_corpus.py
"""

import numpy as np

from repro import AllPairs, Application, DeltaPairs, Rocket, RocketConfig
from repro.data import InMemoryStore


class SpectrumOverlap(Application[str, float]):
    """Cosine similarity between (normalised) frequency spectra."""

    def file_name(self, key: str) -> str:
        return f"{key}.f64"

    def parse(self, key: str, file_contents: bytes) -> np.ndarray:
        return np.frombuffer(file_contents, dtype=np.float64).copy()

    def preprocess(self, key: str, parsed: np.ndarray) -> np.ndarray:
        spectrum = np.abs(np.fft.rfft(parsed))
        norm = np.linalg.norm(spectrum)
        return spectrum / norm if norm > 0 else spectrum

    def compare(self, key_a, item_a, key_b, item_b) -> np.ndarray:
        return np.asarray(float(item_a @ item_b))

    def postprocess(self, key_a, key_b, raw_result) -> float:
        return float(raw_result)


def write_item(store, rng, key: str) -> None:
    base = np.sin(np.linspace(0, 6 * np.pi, 256) * (1 + int(key[-2:]) % 3))
    store.write(f"{key}.f64", (base + 0.2 * rng.standard_normal(256)).tobytes())


def main() -> None:
    rng = np.random.default_rng(11)
    store = InMemoryStore()
    corpus = [f"rec{i:02d}" for i in range(10)]
    for key in corpus:
        write_item(store, rng, key)

    config = RocketConfig(n_devices=2, device_cache_slots=16, host_cache_slots=24, seed=3)
    with Rocket(SpectrumOverlap(), store, config).session() as session:
        # Initial corpus: the classic all-pairs triangle.
        first = session.submit(AllPairs(corpus))
        prior = first.result()
        print(f"initial corpus: {first.workload.describe()}")
        print(f"  loads={first.stats.loads} (every item read once)")

        # New items arrive...
        new_items = [f"rec{i:02d}" for i in range(10, 14)]
        for key in new_items:
            write_item(store, rng, key)

        # ...and only the delta is computed, streamed as results land.
        delta_handle = session.submit(DeltaPairs(corpus, new_items))
        streamed = 0
        for _a, _b, _value in delta_handle.stream():
            streamed += 1
        delta = delta_handle.result()
        done, total = delta_handle.progress()
        print(f"delta job: {delta_handle.workload.describe()}")
        print(f"  streamed {streamed} results incrementally ({done}/{total} pairs)")
        print(
            f"  loads={delta_handle.stats.loads}, warm cache hits="
            f"{delta_handle.stats.device_counters.hits + delta_handle.stats.host_counters.hits}"
        )

        # Merge into the grown corpus's full matrix.
        full = prior.merge(delta)
        assert full.is_complete() and full.n_items == len(corpus) + len(new_items)

        # Cross-check one recomputed value against a fresh full run.
        fresh = session.run(AllPairs(corpus + new_items))
        worst = max(
            abs(full.get(a, b) - v) for a, b, v in fresh.items()
        )
        print(f"merged matrix matches a fresh full run (max delta {worst:.2e})")

        delta_pairs = total
        full_pairs = fresh.expected_pairs
        assert streamed == delta_pairs
        assert delta_handle.stats.loads < len(corpus) + len(new_items), (
            "warm session should not re-load the whole corpus"
        )
        print(
            f"OK: corpus grown with {delta_pairs} comparisons instead of "
            f"{full_pairs} — warm caches did the rest."
        )


if __name__ == "__main__":
    main()
