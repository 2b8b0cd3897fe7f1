"""Composition-vector kernels (Qi, Wang & Hao 2004).

The alignment-free distance between two species is computed from their
*composition vectors* (CVs): for every length-``k`` amino-acid string
``a1..ak``, the CV entry is the relative deviation of its observed
frequency from the frequency predicted by a (k-2)-order Markov model::

    p0(a1..ak) = p(a1..a_{k-1}) * p(a2..ak) / p(a2..a_{k-1})
    cv(a1..ak) = (p(a1..ak) - p0(a1..ak)) / p0(a1..ak)

The subtraction of the Markov prediction removes the neutral-mutation
background, which is what makes the remaining signal phylogenetic.
CVs are sparse (the paper: 10^5-1.8*10^6 non-zeros out of 20^k); we
store them as (sorted indices, values) pairs and compare with a sparse
dot product — the paper's "cheap but irregular" comparison kernel.

Every integer stage runs in time proportional to the residue count, not
to the 20^k k-mer space: residues are encoded through a byte lookup
table, k-mer codes are accumulated over shifted slices, and the CV's
support comes from sorting the proteome's own k-mers.  Only the
(k-1)- and (k-2)-mer counts of the Markov model are dense (20^(k-1)
and 20^(k-2) bins).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

import numpy as np

from repro.data.synthetic import AMINO_ACIDS

__all__ = [
    "encode_sequence",
    "kmer_counts",
    "composition_vector",
    "cv_correlation",
    "cv_distance",
    "cv_view",
    "cv_distance_block",
    "pack_cv",
    "unpack_cv",
]

ALPHABET = len(AMINO_ACIDS)  # 20
#: Separator marker between proteins in an encoded proteome.
SEPARATOR = -1
#: Byte that joins proteins before a proteome is encoded in one pass.
_JOIN = "\x00"
#: Code of every byte: residues map to 0..19, ``_JOIN`` to ``SEPARATOR``
#: and anything else to -2 (rejected).
_CODES = np.full(256, -2, dtype=np.int16)
_CODES[np.frombuffer(AMINO_ACIDS.encode("ascii"), dtype=np.uint8)] = np.arange(ALPHABET)
_CODES[ord(_JOIN)] = SEPARATOR


def _encode(text: str) -> np.ndarray:
    """Byte codes of ``text``; a non-ASCII character becomes ``?`` (rejected)."""
    return _CODES[np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)]


def encode_sequence(sequence: str) -> np.ndarray:
    """Encode an amino-acid string as an int16 code array."""
    codes = _encode(sequence)
    bad = np.flatnonzero(codes < 0)
    if bad.size:
        raise ValueError(f"unknown amino acid {sequence[bad[0]]!r}")
    return codes


def encode_proteome(sequences: List[str]) -> np.ndarray:
    """Encode several proteins into one array with ``SEPARATOR`` breaks.

    The separator prevents k-mers from spanning protein boundaries.
    """
    if not sequences:
        raise ValueError("empty proteome")
    codes = _encode(_JOIN.join(sequences))
    if np.count_nonzero(codes < 0) != len(sequences) - 1:
        # Something besides the joins is not a residue: name the first
        # bad residue of the first bad protein.
        for seq in sequences:
            encode_sequence(seq)
    return codes


def _windows(codes: np.ndarray, k: int) -> np.ndarray:
    """Codes of all valid k-mers in a separator-delimited code array.

    A k-mer's code is its base-20 value, accumulated Horner-style over
    ``k`` shifted slices; a window is valid when the prefix count of
    separators does not change across it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if codes.ndim != 1:
        raise ValueError("expected a 1-D code array")
    n = codes.size
    if n < k:
        return np.zeros(0, dtype=np.int64)
    m = n - k + 1
    wide = codes.astype(np.int64)
    acc = wide[:m].copy()
    for shift in range(1, k):
        acc *= ALPHABET
        acc += wide[shift : shift + m]
    breaks = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(codes < 0, out=breaks[1:])
    return acc[breaks[k:] == breaks[:m]]


def kmer_counts(codes: np.ndarray, k: int) -> np.ndarray:
    """Dense k-mer count vector of length ``20**k``."""
    return np.bincount(_windows(codes, k), minlength=ALPHABET**k)


def composition_vector(codes: np.ndarray, k: int = 4) -> Tuple[np.ndarray, np.ndarray]:
    """The sparse composition vector of an encoded proteome.

    Returns ``(indices, values)`` with ``indices`` sorted ascending:
    the non-zero CV entries over the ``20**k`` k-mer space.
    """
    if k < 3:
        raise ValueError(f"the Markov correction needs k >= 3, got {k}")
    windows_k = _windows(codes, k)
    counts_km1 = kmer_counts(codes, k - 1)
    counts_km2 = kmer_counts(codes, k - 2)
    total_k = windows_k.size
    total_km1 = counts_km1.sum()
    total_km2 = counts_km2.sum()
    if total_k == 0:
        raise ValueError(f"proteome shorter than k={k}")

    idx, counts_k = np.unique(windows_k, return_counts=True)
    p = counts_k / total_k
    prefix = idx // ALPHABET  # a1..a_{k-1}
    suffix = idx % (ALPHABET ** (k - 1))  # a2..ak
    middle = prefix % (ALPHABET ** (k - 2))  # a2..a_{k-1}
    p_prefix = counts_km1[prefix] / total_km1
    p_suffix = counts_km1[suffix] / total_km1
    p_middle = counts_km2[middle] / total_km2
    with np.errstate(divide="ignore", invalid="ignore"):
        p0 = p_prefix * p_suffix / p_middle
        values = np.where(p0 > 0, (p - p0) / np.where(p0 > 0, p0, 1.0), 0.0)
    keep = values != 0
    return idx[keep], values[keep]


def pack_cv(indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Pack a sparse CV into one 2-row float64 array (cacheable payload)."""
    if indices.shape != values.shape:
        raise ValueError("indices and values differ in length")
    return np.vstack([indices.astype(np.float64), values.astype(np.float64)])


def unpack_cv(packed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_cv`."""
    if packed.ndim != 2 or packed.shape[0] != 2:
        raise ValueError(f"expected a 2-row packed CV, got shape {packed.shape}")
    return packed[0].astype(np.int64), packed[1]


def cv_correlation(a: Tuple[np.ndarray, np.ndarray], b: Tuple[np.ndarray, np.ndarray]) -> float:
    """Cosine correlation of two sparse CVs (the paper's sparse dot).

    ``C(A, B) = <A, B> / (|A| |B|)`` over the union support; computed by
    merging the two sorted index lists.
    """
    idx_a, val_a = a
    idx_b, val_b = b
    norm = float(np.linalg.norm(val_a) * np.linalg.norm(val_b))
    if norm == 0:
        return 0.0
    common_a = np.isin(idx_a, idx_b, assume_unique=True)
    if not common_a.any():
        return 0.0
    common_idx = idx_a[common_a]
    pos_b = np.searchsorted(idx_b, common_idx)
    dot = float(np.dot(val_a[common_a], val_b[pos_b]))
    return dot / norm


def cv_distance(a: Tuple[np.ndarray, np.ndarray], b: Tuple[np.ndarray, np.ndarray]) -> float:
    """Qi et al.'s distance ``D = (1 - C) / 2`` in [0, 1]."""
    return (1.0 - cv_correlation(a, b)) / 2.0


def cv_view(packed: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
    """Unpack a packed CV once into its kernel-ready ``(idx, val, norm)`` form.

    The index ``astype`` and the L2 norm are the per-operand costs of
    :func:`cv_distance`; computing them here lets the batched kernel
    (and the per-pair fallback via ``Application.item_view``) pay them
    once per resident item instead of once per pair.
    """
    idx, val = unpack_cv(packed)
    return idx, val, float(np.linalg.norm(val))


#: All-zero dense scratch vectors shared by every kernel launch: a launch
#: takes one, scatters and clears only the entries it touched, and gives
#: it back, so launches reuse a few buffers instead of allocating a
#: 20^k vector each.  One pool (not one buffer per thread) keeps the
#: count at the number of concurrent launches when one-shot jobs start
#: fresh kernel threads.
_SCRATCH: List[np.ndarray] = []
_SCRATCH_LOCK = threading.Lock()


def _take_scratch(size: int) -> np.ndarray:
    with _SCRATCH_LOCK:
        dense = _SCRATCH.pop() if _SCRATCH else None
    if dense is None or dense.size < size:
        dense = np.zeros(size, dtype=np.float64)
    return dense


def _give_scratch(dense: np.ndarray) -> None:
    with _SCRATCH_LOCK:
        _SCRATCH.append(dense)


def cv_distance_block(
    views_a: "list[Tuple[np.ndarray, np.ndarray, float]]",
    views_b: "list[Tuple[np.ndarray, np.ndarray, float]]",
) -> np.ndarray:
    """Batched sparse CV distances — one kernel launch for ``n`` pairs.

    Instead of the per-pair sorted-merge (``isin`` + ``searchsorted``),
    each distinct right-hand operand is scattered once into a dense
    all-zero scratch vector over the k-mer space; every pair against it
    is then a gather + dot — O(nnz) per pair with no per-pair allocation.
    A pair's value depends only on its two views, never on the other
    pairs of the block: its dot is one ``np.dot`` of its own operands
    (gathered zeros contribute exactly 0.0), so the result is
    bit-identical however the runtime groups pairs into launches.
    """
    n = len(views_a)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    # Group pairs by the identity of their right operand so each dense
    # scatter is amortised over every pair sharing that operand (block
    # locality makes sharing the common case).
    groups: Dict[int, List[int]] = {}
    for k, view in enumerate(views_b):
        groups.setdefault(id(view), []).append(k)
    distinct = {id(view): view for view in (*views_a, *views_b)}.values()
    size = max((int(idx[-1]) + 1 for idx, _val, _norm in distinct if idx.size), default=1)
    dots = np.empty(n, dtype=np.float64)
    denoms = np.empty(n, dtype=np.float64)
    dense = _take_scratch(size)
    try:
        for members in groups.values():
            idx_b, val_b, norm_b = views_b[members[0]]
            dense[idx_b] = val_b
            for k in members:
                idx_a, val_a, norm_a = views_a[k]
                dots[k] = np.dot(val_a, dense[idx_a])
                denoms[k] = norm_a * norm_b
            dense[idx_b] = 0.0
    except BaseException:
        dense.fill(0.0)  # a group may have died half-scattered
        raise
    finally:
        _give_scratch(dense)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denoms != 0, dots / denoms, 0.0)
    return (1.0 - corr) / 2.0
