#!/usr/bin/env python3
"""Cross-session memoization: edit two items, recompute only their pairs.

Sessions die; corpora don't.  With ``RocketConfig(store_dir=...)`` a
run leaves two things behind in the store directory: the preprocessed
payload of every item it loaded, and a memo journal of every pair it
computed (keyed on the items' content hashes).  A later session — a
different process, hours later — consults the store at submit time and
recomputes only the pairs whose items actually changed.

This example runs the same corpus through three *separate* sessions
sharing one store directory:

1. a cold session computes all 45 pairs and populates the store;
2. an identical session recomputes **zero** pairs — the whole job is
   served from the memo journal without touching the backend;
3. two items' bytes are edited; the third session recomputes exactly
   the 17 pairs touching them (2 x 8 cross pairs + 1 mutual pair) and
   serves the remaining 28 from the store.

Watch the ``store.memo`` counters from ``session.metrics()`` — they
are the recompute accounting.

Run:  python examples/memoized_corpus.py
"""

import tempfile

import numpy as np

from repro import AllPairs, Application, Rocket, RocketConfig
from repro.data import InMemoryStore

N_ITEMS = 10


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


def make_corpus() -> InMemoryStore:
    # Seeded per call: every "process" regenerates byte-identical items,
    # the way a real corpus re-read from disk would be.
    rng = np.random.default_rng(23)
    store = InMemoryStore()
    for i in range(N_ITEMS):
        base = np.sin(np.linspace(0, 6 * np.pi, 256) * (1 + i % 3))
        store.write(
            f"rec{i:02d}.f64", (base + 0.2 * rng.standard_normal(256)).tobytes()
        )
    return store


def run_session(store, store_dir, label: str):
    """A fresh session against the shared store; prints its accounting."""
    keys = [f"rec{i:02d}" for i in range(N_ITEMS)]
    config = RocketConfig(n_devices=2, seed=5, store_dir=store_dir)
    with Rocket(SpectrumOverlap(), store, config).session() as session:
        results = session.submit(AllPairs(keys)).result()
        memo = session.metrics()["store"]["memo"]
        print(f"{label}:")
        print(f"  pairs recomputed : {memo['misses']}")
        print(f"  pairs from store : {memo['hits']}")
        print(f"  short-circuited  : {bool(memo['jobs_short_circuited'])}")
        return results, memo


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="rocket-store-") as store_dir:
        first, _ = run_session(make_corpus(), store_dir, "session 1 (cold)")

        # Session 2: nothing changed -- the backend never runs a job.
        second, rerun = run_session(make_corpus(), store_dir, "session 2 (unchanged)")
        assert sorted(first.items()) == sorted(second.items())
        assert rerun["misses"] == 0 and rerun["jobs_short_circuited"] == 1

        # Session 3: two items' bytes change on "disk".
        store = make_corpus()
        for i in (3, 7):
            old = np.frombuffer(store.read(f"rec{i:02d}.f64"), dtype=np.float64)
            store.write(f"rec{i:02d}.f64", (old * 1.5 + 0.1).tobytes())
        print(f"edited rec03 and rec07 ({N_ITEMS}-item corpus)")
        third, edited = run_session(store, store_dir, "session 3 (2 items edited)")

        # 2 x (N-2) cross pairs + the mutual pair of the two edits.
        expected = 2 * (N_ITEMS - 2) + 1
        assert edited["misses"] == expected
        baseline = {(a, b): v for a, b, v in first.items()}
        changed = sum(1 for a, b, v in third.items() if v != baseline[(a, b)])
        print(f"result values changed for {changed} pairs (rows of the edits)")
        print(
            f"memoization OK: rerun recomputed 0/45 pairs, "
            f"edit recomputed {edited['misses']}/45"
        )


if __name__ == "__main__":
    main()
