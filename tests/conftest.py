"""Shared test configuration and helpers.

Property tests exercise exact rational arithmetic whose first call can be
slow (module-level caches), so wall-clock deadlines and the
input-generation speed health check are disabled.
"""

import numpy as np
from hypothesis import HealthCheck, settings

from kingman.indexing import floor_pow
from scalar_reference import hat_external_length

settings.register_profile(
    "kingman",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("kingman")

_MASK64 = 2**64 - 1
HAT_AGREEMENT_RTOL = 1e-12


def master_stream(seed: int) -> np.random.Generator:
    """One Philox stream per seed, for a test's own draws."""
    key = np.array([seed & _MASK64, _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def hat_by_leaves(times, hist, alpha: float, beta: float) -> float:
    """L_hat by per-branch clipping: sum_k X_k (T_k^m - T_k^M), T_k^j := min(T_k, T_j),
    with m = floor(n**alpha) and M = floor(n**beta)."""
    n = times.n
    t_m, t_M = times.t[floor_pow(n, alpha)], times.t[floor_pow(n, beta)]
    total = 0.0
    for k in range(1, n):
        if hist.x[k - 1]:
            total += hist.x[k - 1] * (min(times.t[k], t_m) - min(times.t[k], t_M))
    return total


def checked_hat_length(times, hist, alpha: float, beta: float) -> float:
    """hat_external_length, asserted to agree with hat_by_leaves to relative
    HAT_AGREEMENT_RTOL."""
    hat = hat_external_length(times, hist, alpha, beta)
    by_leaves = hat_by_leaves(times, hist, alpha, beta)
    scale = max(abs(hat), abs(by_leaves), 1.0)
    assert abs(hat - by_leaves) <= HAT_AGREEMENT_RTOL * scale, (hat, by_leaves)
    return hat
