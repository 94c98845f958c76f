"""Kingman coalescent realizations and their external-length functionals.

A realization pairs the coalescent times T_1 > ... > T_n = 0 with a merge
history: X_k counts the external branches whose internal node sits at
level k, V_k the internal branches among k lineages.  The merge history is
driven by the embedded urn chain via V_k = U_(n-k).  These scalar forms
are the readable reference on one replicate's stream; ``kingman.batch``
is the package's sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import urn
from .indexing import check_count, window


@dataclass(frozen=True)
class CoalescentTimes:
    """Times T_1..T_n; t[k] = T_k, t[0] unused (set to +inf)."""

    n: int
    t: np.ndarray

    def __post_init__(self):
        check_count("sample size n", self.n, 2)
        t = np.asarray(self.t, dtype=float)
        if t.shape != (self.n + 1,):
            raise ValueError(f"times array must have length n+1={self.n + 1}")
        if t[self.n] != 0.0:
            raise ValueError("T_n must be 0")
        if not np.all(np.diff(t[1:]) < 0):
            raise ValueError("times must decrease strictly (tied times are malformed)")
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class MergeHistory:
    """Internal-branch counts V_0..V_n; x[k-1] = X_k = 1 + V_k - V_(k+1), k = 1..n-1."""

    n: int
    v: tuple[int, ...]
    x: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n, v = self.n, self.v
        check_count("sample size n", n, 2)
        if len(v) != n + 1:
            raise ValueError("v must have n+1 entries")
        if v[n] != 0 or v[1] != 1:
            raise ValueError("need V_n = 0 and V_1 = 1")
        x = tuple(1 + v[k] - v[k + 1] for k in range(1, n))
        if any(xk not in (0, 1, 2) for xk in x):
            raise ValueError("merge counts take values in {0, 1, 2}")
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class ScaledPointPattern:
    """Multiset of sqrt(n) T_(rho(i)) values, one entry per leaf."""

    n: int
    points: np.ndarray

    def __post_init__(self):
        check_count("sample size n", self.n, 2)
        points = np.sort(np.asarray(self.points, dtype=float))
        if points.shape != (self.n,):
            raise ValueError("total multiplicity must equal n")
        object.__setattr__(self, "points", points)

    def count(self, a: float, b: float = math.inf) -> int:
        """Number of points in [a, b)."""
        return int(np.count_nonzero((self.points >= a) & (self.points < b)))


def sample_waiting_times(n: int, rng: np.random.Generator) -> CoalescentTimes:
    """Draw T_n = 0, T_(k-1) = T_k + E_k / C(k,2) for k = n..2.

    Exponentials come from inverse-CDF transforms -log(1-u) of one uniform
    each, drawn in descending k order.
    """
    check_count("sample size n", n, 2)
    t = np.empty(n + 1)
    t[0] = np.inf
    t[n] = 0.0
    for k in range(n, 1, -1):
        e = -math.log1p(-rng.random())
        t[k - 1] = t[k] + e / (k * (k - 1) / 2.0)
    return CoalescentTimes(n, t)


def history_from_urn_path(path: urn.UrnPath) -> MergeHistory:
    """Map an urn trajectory to merge counts via V_k = U_(n-k)."""
    return MergeHistory(path.n, path.u[::-1])


def _check_same_n(times: CoalescentTimes, hist: MergeHistory) -> int:
    if times.n != hist.n:
        raise ValueError(f"mismatched sample sizes {times.n} and {hist.n}")
    return times.n


def total_external_length(times: CoalescentTimes, hist: MergeHistory) -> float:
    """L_n = sum_k T_k X_k over k = 1..n-1."""
    n = _check_same_n(times, hist)
    return float(sum(times.t[k] * hist.x[k - 1] for k in range(1, n)))


def window_external_length(times: CoalescentTimes, hist: MergeHistory,
                           alpha: float, beta: float) -> float:
    """Length from branches with n**alpha <= level < n**beta.

    Integer levels k run from ceil(n**alpha) to ceil(n**beta) - 1, which
    realizes "n**alpha <= k < n**beta" whether or not n**beta is integer.
    """
    lo, hi = window(_check_same_n(times, hist), alpha, beta)
    return float(sum(times.t[k] * hist.x[k - 1] for k in range(lo, hi)))


def scaled_point_pattern(times: CoalescentTimes, hist: MergeHistory) -> ScaledPointPattern:
    """Points sqrt(n) T_k with multiplicity X_k."""
    n = _check_same_n(times, hist)
    pts = np.repeat(math.sqrt(n) * times.t[1:n], hist.x)
    return ScaledPointPattern(n, pts)

