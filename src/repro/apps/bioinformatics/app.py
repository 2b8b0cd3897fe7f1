"""Rocket application wrapper for composition-vector phylogeny.

Pipeline mapping (paper Section 5.2):

- *parse* (CPU): decompress the FASTA file and integer-encode the
  proteome (the paper decompresses on the CPU) through a byte lookup
  table;
- *preprocess* (GPU): build the sparse composition vector — expensive,
  "it requires scanning the entire genome": one pass over the
  proteome's residues and a sort of its k-mers, never a pass over the
  20^k k-mer space;
- *compare* (GPU): sparse dot product between two CVs — cheap but
  irregular, since the vectors are sparse;
- *postprocess* (CPU): plain scalar extraction.

The resulting distance matrix feeds
:func:`repro.apps.bioinformatics.phylogeny.neighbor_joining` to build
the tree, completing the paper's end-to-end use case ("reconstruct the
evolutionary tree of all reference bacteria proteomes").
"""

from __future__ import annotations

import numpy as np

from repro.apps.bioinformatics.composition import (
    composition_vector,
    cv_distance_block,
    cv_view,
    encode_proteome,
    pack_cv,
)
from repro.core.api import Application
from repro.data.formats import decode_fasta

__all__ = ["BioinformaticsApplication"]


class BioinformaticsApplication(Application[str, float]):
    """Pair-wise composition-vector distances over a proteome corpus."""

    def __init__(self, k: int = 4) -> None:
        if k < 3:
            raise ValueError(f"composition vectors need k >= 3, got {k}")
        self.k = k

    def file_name(self, key: str) -> str:
        """Proteomes are stored as compressed FASTA ``<key>.faz``."""
        return f"{key}.faz"

    def parse(self, key: str, file_contents: bytes) -> np.ndarray:
        """Decompress FASTA and integer-encode all proteins."""
        records = decode_fasta(file_contents, compressed=True)
        return encode_proteome(list(records.values()))

    def preprocess(self, key: str, parsed: np.ndarray) -> np.ndarray:
        """Build the sparse composition vector (packed as one array)."""
        indices, values = composition_vector(parsed.astype(np.int16), k=self.k)
        return pack_cv(indices, values)

    def item_view(self, key: str, item: np.ndarray):
        """Pre-unpack the packed CV into ``(idx, val, norm)`` once per item.

        The runtime caches this per resident slot, so the index
        ``astype`` and norm of :func:`~repro.apps.bioinformatics.composition.cv_view`
        are paid per item, not per pair.
        """
        return cv_view(item)

    @staticmethod
    def _as_view(item):
        """Accept both a pre-unpacked view and a raw packed CV array."""
        return item if isinstance(item, tuple) else cv_view(item)

    def compare(self, key_a: str, item_a, key_b: str, item_b) -> np.ndarray:
        """Distance ``(1 - C) / 2`` between two composition vectors.

        Evaluated through the same kernel as :meth:`compare_block` with
        a one-pair block, so a pair's bits do not depend on whether the
        runtime dispatched it batched or per-pair — cross-backend
        result matrices stay bit-identical.
        """
        view_a = self._as_view(item_a)
        view_b = self._as_view(item_b)
        return np.asarray(cv_distance_block([view_a], [view_b])[0])

    def compare_block(self, keys_a, items_a, keys_b, items_b) -> np.ndarray:
        """Batched sparse-intersection distances — one launch per block.

        Each pair's distance is bit-identical to :meth:`compare` of the
        same two items, whatever other pairs share the launch.
        """
        views_a = [self._as_view(item) for item in items_a]
        views_b = [self._as_view(item) for item in items_b]
        return cv_distance_block(views_a, views_b)

    def postprocess(self, key_a: str, key_b: str, raw_result: np.ndarray) -> float:
        """Return the distance as a plain float."""
        return float(raw_result)
