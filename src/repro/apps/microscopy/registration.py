"""Particle registration kernels (Heydarian et al. 2018; Jian & Vemuri 2011).

Each particle is a cloud of 2-D localisations of the same underlying
structure under an unknown rigid transform.  Registering a pair means
finding the rotation/translation that maximises a similarity between
the two clouds, modelled as Gaussian mixtures with isotropic kernels:

- :func:`gmm_l2_similarity` — the Gaussian-overlap cross term of the
  quadratic L2 distance between two GMMs (Jian & Vemuri), in closed
  form;
- :func:`bhattacharyya_similarity` — the Bhattacharyya-based score used
  by Heydarian et al. (Gaussian overlap at doubled variance);
- :func:`register_pair` — multi-start Nelder-Mead optimisation over
  ``(theta, tx, ty)``.

The optimizer "calls these two methods many times", which is why the
comparison is compute-heavy and highly data-dependent — the paper's
most irregular kernel (Fig. 7, right).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.util.rng import seeded_rng

__all__ = [
    "rigid_transform",
    "gmm_l2_similarity",
    "bhattacharyya_similarity",
    "register_pair",
    "RegistrationResult",
]


def rigid_transform(points: np.ndarray, theta: float, tx: float, ty: float) -> np.ndarray:
    """Rotate ``points`` by ``theta`` and translate by ``(tx, ty)``."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {pts.shape}")
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return pts @ rot.T + np.array([tx, ty])


def _pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All squared Euclidean distances between rows of ``x`` and ``y``."""
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def gmm_l2_similarity(x: np.ndarray, y: np.ndarray, sigma: float = 0.05) -> float:
    """Cross term of the L2 distance between two isotropic GMMs.

    ``(1 / (n m)) * sum_ij exp(-||xi - yj||^2 / (4 sigma^2))`` — the
    part of the quadratic L2 distance that depends on the relative
    alignment (the self terms are alignment-invariant).  Larger is a
    better alignment.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if len(x) == 0 or len(y) == 0:
        return 0.0
    sq = _pairwise_sq_dists(np.asarray(x, float), np.asarray(y, float))
    return float(np.exp(-sq / (4.0 * sigma * sigma)).mean())


def bhattacharyya_similarity(x: np.ndarray, y: np.ndarray, sigma: float = 0.05) -> float:
    """Bhattacharyya-kernel overlap of two localisation clouds.

    The Bhattacharyya coefficient of two isotropic Gaussians separated
    by ``d`` is ``exp(-d^2 / (8 sigma^2))``; summing over all pairs
    gives the score Heydarian et al. use for the final refinement.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if len(x) == 0 or len(y) == 0:
        return 0.0
    sq = _pairwise_sq_dists(np.asarray(x, float), np.asarray(y, float))
    return float(np.exp(-sq / (8.0 * sigma * sigma)).mean())


@dataclass(frozen=True)
class RegistrationResult:
    """Outcome of registering a particle pair."""

    score: float
    theta: float
    tx: float
    ty: float
    evaluations: int
    method: str

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply the found transform to ``points``."""
        return rigid_transform(points, self.theta, self.tx, self.ty)


def register_pair(
    x: np.ndarray,
    y: np.ndarray,
    sigma: float = 0.05,
    restarts: int = 6,
    method: str = "gmm_l2",
    seed: Optional[int] = None,
    refine_with_bhattacharyya: bool = True,
) -> RegistrationResult:
    """Find the rigid transform of ``y`` best aligning it onto ``x``.

    Multi-start local optimisation: ``restarts`` random initial
    rotations (translations seeded from the centroid offset), each
    refined with Nelder-Mead on the chosen similarity; optionally the
    best candidate is re-scored/refined with the Bhattacharyya score,
    mirroring the two-stage scheme of Heydarian et al.

    The evaluation count — and hence the run time — depends strongly on
    the data (how many restarts converge quickly), which is what makes
    this application's comparison time highly irregular.
    """
    from scipy.optimize import minimize

    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if method not in ("gmm_l2", "bhattacharyya"):
        raise ValueError(f"unknown method {method!r}")
    base_score = gmm_l2_similarity if method == "gmm_l2" else bhattacharyya_similarity
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rng = seeded_rng(seed)
    centroid_shift = x.mean(axis=0) - y.mean(axis=0)
    evaluations = 0

    def objective(params: np.ndarray, score_fn) -> float:
        nonlocal evaluations
        evaluations += 1
        moved = rigid_transform(y, params[0], params[1], params[2])
        return -score_fn(x, moved)

    best_params: Optional[np.ndarray] = None
    best_value = np.inf
    for r in range(restarts):
        theta0 = 2.0 * np.pi * r / restarts + float(rng.uniform(-0.1, 0.1))
        start = np.array([theta0, centroid_shift[0], centroid_shift[1]])
        start[1:] += rng.normal(0, 0.02, 2)
        res = minimize(
            objective,
            start,
            args=(base_score,),
            method="Nelder-Mead",
            options={"maxiter": 120, "xatol": 1e-4, "fatol": 1e-6},
        )
        if res.fun < best_value:
            best_value = float(res.fun)
            best_params = np.asarray(res.x)
    assert best_params is not None

    final_method = method
    if refine_with_bhattacharyya and method == "gmm_l2":
        res = minimize(
            objective,
            best_params,
            args=(bhattacharyya_similarity,),
            method="Nelder-Mead",
            options={"maxiter": 60, "xatol": 1e-4, "fatol": 1e-6},
        )
        best_params = np.asarray(res.x)
        best_value = float(res.fun)
        final_method = "gmm_l2+bhattacharyya"

    theta = float(np.mod(best_params[0], 2.0 * np.pi))
    return RegistrationResult(
        score=-best_value,
        theta=theta,
        tx=float(best_params[1]),
        ty=float(best_params[2]),
        evaluations=evaluations,
        method=final_method,
    )
