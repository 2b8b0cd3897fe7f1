"""The user-facing application interface (paper Fig. 3).

An all-pairs application supplies four functions along Rocket's fixed
pipeline (paper Fig. 2)::

    load l(i):  [remote IO] -> parse (CPU) -> [H2D] -> preprocess (GPU)
    f(x, y):    compare (GPU) -> [D2H] -> postprocess (CPU)

The bracketed stages are Rocket's responsibility; the user implements
only the four named callbacks plus the key-to-file mapping.  All
callbacks must be pure functions of their inputs (the load pipeline is
assumed deterministic — that is what makes caching sound).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Generic, Hashable, List, Sequence, TypeVar

import numpy as np

__all__ = ["Application"]

K = TypeVar("K", bound=Hashable)
R = TypeVar("R")


class Application(ABC, Generic[K, R]):
    """Base class for all-pairs applications.

    Type parameters: ``K`` is the item key type (e.g. a file stem), ``R``
    the per-pair result type (e.g. a correlation score).
    """

    #: Version tag of this application's load/compare pipeline.  Bump it
    #: whenever ``parse``/``preprocess``/``compare``/``postprocess``
    #: change meaning: the persistent store keys payloads and memoized
    #: results on :meth:`fingerprint`, so a bump invalidates everything
    #: cached under the old behaviour.
    version: str = "1"

    @abstractmethod
    def file_name(self, key: K) -> str:
        """Name of the input file for ``key`` in the file store.

        Mirrors ``getFilePathForKey`` of the paper's interface.
        """

    @abstractmethod
    def parse(self, key: K, file_contents: bytes) -> np.ndarray:
        """CPU stage: decode the raw file into an array.

        For the paper's applications this is JPEG decoding (forensics),
        FASTA decompression (bioinformatics), or JSON parsing
        (microscopy).
        """

    def preprocess(self, key: K, parsed: np.ndarray) -> np.ndarray:
        """GPU stage: transform parsed data into its comparable form.

        Runs on a virtual device; the default is the identity (the
        microscopy application has no pre-processing stage).
        """
        return parsed

    @abstractmethod
    def compare(self, key_a: K, item_a: np.ndarray, key_b: K, item_b: np.ndarray) -> np.ndarray:
        """GPU stage: compare two pre-processed items.

        Must be symmetric in distribution (Rocket only evaluates each
        unordered pair once, with ``key_a < key_b`` in key order).
        Returns the raw device-side result (copied D2H by the runtime).
        """

    def postprocess(self, key_a: K, key_b: K, raw_result: np.ndarray) -> R:
        """CPU stage: turn the raw comparison result into the final value.

        The default returns the raw result unchanged (all three paper
        applications have a negligible post-processing stage).
        """
        return raw_result  # type: ignore[return-value]

    # -- batched comparison (optional fast path) --------------------------

    def item_view(self, key: K, item: np.ndarray) -> Any:
        """Kernel-ready view of one cached item (default: the item itself).

        The runtime calls this once per *resident cache slot* and feeds
        the result to :meth:`compare` / :meth:`compare_block`, so any
        per-item decode work (e.g. unpacking a sparse payload) is paid
        once per item instead of once per pair.  The cached payload
        stays an ndarray; only the comparison stage sees the view.
        """
        return item

    def compare_block(
        self,
        keys_a: Sequence[K],
        items_a: Sequence[Any],
        keys_b: Sequence[K],
        items_b: Sequence[Any],
    ) -> np.ndarray:
        """GPU stage: compare ``n`` pre-processed pairs in one kernel.

        ``items_*`` hold :meth:`item_view` results, one entry per pair
        (shared items repeat the same view object).  Returns an array
        whose leading axis indexes the pairs: ``result[k]`` is what
        :meth:`compare` would have returned for pair ``k`` (bit-identical
        or within the documented tolerance of the vectorized kernel).

        The default loops :meth:`compare` — the per-pair fallback.  The
        runtime only takes the batched dispatch path when a subclass
        overrides this method (see :attr:`supports_compare_block`).
        """
        rows: List[np.ndarray] = [
            np.asarray(self.compare(ka, ia, kb, ib))
            for ka, ia, kb, ib in zip(keys_a, items_a, keys_b, items_b)
        ]
        return np.stack(rows) if rows else np.zeros(0)

    @property
    def supports_compare_block(self) -> bool:
        """True when this class overrides :meth:`compare_block`."""
        return type(self).compare_block is not Application.compare_block

    @property
    def supports_item_view(self) -> bool:
        """True when this class overrides :meth:`item_view`."""
        return type(self).item_view is not Application.item_view

    # -- optional metadata ----------------------------------------------

    def fingerprint(self) -> str:
        """Identity of this application for the persistent store.

        Combines the class, :attr:`version`, and every scalar instance
        attribute (so ``BioinformaticsApplication(k=3)`` and ``k=4`` never
        share cached payloads or memoized results).  Applications whose
        behaviour depends on non-scalar state should override this to
        include it.
        """
        parts = [type(self).__module__, type(self).__qualname__, f"v{self.version}"]
        for name in sorted(vars(self)):
            value = vars(self)[name]
            if isinstance(value, (str, int, float, bool, type(None))):
                parts.append(f"{name}={value!r}")
        return "|".join(parts)

    def validate_keys(self, keys: list) -> None:
        """Sanity-check the key list before a run (duplicates, emptiness)."""
        if len(keys) < 2:
            raise ValueError(f"an all-pairs run needs at least 2 keys, got {len(keys)}")
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate keys in input")
