"""PRNU sensor-noise kernels (the application's "GPU" kernels).

Photo Response Non-Uniformity is a fixed multiplicative noise pattern
of an imaging sensor: pixel ``p`` records ``s * (1 + K_p)`` for scene
intensity ``s``.  Two images from the same camera share ``K``, so the
*noise residuals* of same-camera images correlate while those of
different cameras do not (Fridrich 2013; van Werkhoven et al. 2018).

The pipeline mirrors the paper's application:

- :func:`denoise` — a separable local-mean filter (the stand-in for the
  production wavelet denoiser);
- :func:`extract_prnu` — residual = image - denoise(image), zero-meaned
  per row and column to suppress demosaicing artefacts, then unit-
  normalised;
- :func:`ncc` — normalized cross-correlation between two residuals, the
  similarity metric named in the paper.

All functions operate on float64 arrays in [0, 1].  They are NumPy
except :func:`denoise`, whose filter is SciPy's ``uniform_filter``;
SciPy is imported on its first call, so a process that never denoises
an image never loads it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["denoise", "extract_prnu", "ncc", "ncc_block", "ncc_pairs"]


def denoise(image: np.ndarray, window: int = 5) -> np.ndarray:
    """Estimate scene content with a local-mean filter.

    The residual ``image - denoise(image)`` keeps the high-frequency
    content where the PRNU signal lives.
    """
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and positive, got {window}")
    from scipy.ndimage import uniform_filter

    return uniform_filter(image.astype(np.float64, copy=False), size=window, mode="reflect")


def extract_prnu(image: np.ndarray, window: int = 5) -> np.ndarray:
    """Extract the normalised PRNU noise residual of ``image``.

    Steps: denoise-residual, zero-mean rows and columns (linear-pattern
    removal, standard in PRNU pipelines), global unit normalisation.
    Returns an array of the same shape with zero mean and unit L2 norm.
    """
    img = np.asarray(image, dtype=np.float64)
    residual = img - denoise(img, window=window)
    # Remove row/column means: suppresses sensor linear patterns and any
    # remaining scene gradients.
    residual = residual - residual.mean(axis=1, keepdims=True)
    residual = residual - residual.mean(axis=0, keepdims=True)
    norm = np.linalg.norm(residual)
    if norm == 0:
        # Perfectly flat residual (e.g. constant image): return zeros —
        # it will correlate with nothing, which is the correct semantics.
        return residual
    return residual / norm


def ncc(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized cross-correlation of two PRNU residuals.

    Inputs of identical shape; returns a value in [-1, 1].  For
    residuals from :func:`extract_prnu` (zero-mean, unit-norm) this is a
    plain dot product, but the general formula is kept so the kernel is
    reusable on raw residuals.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    fa = a - a.mean()
    fb = b - b.mean()
    denom = np.linalg.norm(fa) * np.linalg.norm(fb)
    if denom == 0:
        return 0.0
    return float(np.vdot(fa, fb) / denom)


def ncc_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched :func:`ncc` over stacked residuals — one launch per block.

    ``a`` and ``b`` are ``(n, H, W)`` stacks; pair ``k`` correlates
    ``a[k]`` with ``b[k]``.  Rather than materialising mean-subtracted
    copies of both stacks (which turns the batch memory-bandwidth-bound
    and *loses* to the L1-resident per-pair kernel), the centred moments
    are expanded algebraically:

    ``dot(a - ā, b - b̄) = dot(a, b) - k·ā·b̄`` and
    ``‖a - ā‖² = dot(a, a) - k·ā²``

    so the whole block reduces to three ``einsum`` contractions and two
    row means, touching each input element once.  PRNU residuals are
    near-zero-mean, so the subtraction cancels nothing of magnitude and
    results match the per-pair kernel up to floating-point summation
    order (documented tolerance ~1e-12 relative).
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim < 2:
        raise ValueError(f"expected stacked residuals, got shape {a.shape}")
    n = a.shape[0]
    fa = a.reshape(n, -1)
    fb = b.reshape(n, -1)
    k = fa.shape[1]
    ma = fa.mean(axis=1)
    mb = fb.mean(axis=1)
    dot = np.einsum("nk,nk->n", fa, fb) - k * ma * mb
    na2 = np.maximum(np.einsum("nk,nk->n", fa, fa) - k * ma * ma, 0.0)
    nb2 = np.maximum(np.einsum("nk,nk->n", fb, fb) - k * mb * mb, 0.0)
    denom = np.sqrt(na2 * nb2)
    out = np.zeros(n, dtype=np.float64)
    nonzero = denom != 0
    out[nonzero] = dot[nonzero] / denom[nonzero]
    return out


def ncc_pairs(items_a, items_b) -> np.ndarray:
    """:func:`ncc` for a block of pairs given as residual *sequences*.

    The all-pairs workload repeats items across a block's pairs (a block
    is a rectangle of the comparison matrix), and the runtime hands each
    repeated item as the *same* cached array object.  Deduplicating by
    identity computes each item's mean and norm once — ``m`` unique
    items (typically ~2·√pairs) instead of ``2n`` full passes — with the
    centred-moments expansion of :func:`ncc_block` and the same
    documented tolerance versus the per-pair kernel; the remaining
    per-pair work is a single BLAS dot product over cache-resident rows.

    Every reduction sees only one row (or one fixed pair of rows), so a
    pair's value is bit-identical no matter how pairs are grouped into
    blocks — the runtime's cross-backend determinism guarantee does not
    depend on scheduling, grain or steal decisions.  (A single
    Gram-matrix GEMM would batch the dots too, but its reduction order
    varies with the block composition.)
    """
    if len(items_a) != len(items_b):
        raise ValueError(f"length mismatch: {len(items_a)} vs {len(items_b)}")
    index: dict = {}
    unique = []

    def _idx(item):
        i = index.get(id(item))
        if i is None:
            i = index[id(item)] = len(unique)
            unique.append(item)
        return i

    ia = np.array([_idx(x) for x in items_a], dtype=np.intp)
    ib = np.array([_idx(x) for x in items_b], dtype=np.intp)
    # Flat *views* of the cached residuals, never a stacked copy: a
    # launch over m unique items would otherwise allocate and fill
    # m x H x W doubles only to read each row once more.
    rows = [np.asarray(x, dtype=np.float64).reshape(-1) for x in unique]
    k = rows[0].size if rows else 0
    mean = np.array([row.mean() for row in rows])
    norm2 = np.maximum(np.array([np.dot(row, row) for row in rows]) - k * mean * mean, 0.0)
    raw = np.array([np.dot(rows[i], rows[j]) for i, j in zip(ia, ib)])
    dot = raw - k * mean[ia] * mean[ib]
    denom = np.sqrt(norm2[ia] * norm2[ib])
    out = np.zeros(len(ia), dtype=np.float64)
    nonzero = denom != 0
    out[nonzero] = dot[nonzero] / denom[nonzero]
    return out
