"""Distribution fitting for the simulated workload profiles.

The irregular kernel-time distributions of Fig. 7 (the microscopy and
bioinformatics kernels are long-tailed) are modelled as lognormal when
synthesising workload profiles.
"""

from __future__ import annotations

import math
from typing import Tuple

__all__ = ["lognormal_params"]


def lognormal_params(mean: float, std: float) -> Tuple[float, float]:
    """Convert a (mean, std) pair to lognormal ``(mu, sigma)`` parameters.

    The simulated workload profiles reproduce Table 1's "mean ± std"
    stage times; irregular stages are drawn from a lognormal with these
    moments so the simulated Fig. 7 histograms have the right tail shape.
    """
    if mean <= 0:
        raise ValueError(f"lognormal mean must be positive, got {mean}")
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    if std == 0:
        return math.log(mean), 0.0
    var_ratio = (std / mean) ** 2
    sigma2 = math.log1p(var_ratio)
    mu = math.log(mean) - sigma2 / 2.0
    return mu, math.sqrt(sigma2)
