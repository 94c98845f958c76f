"""Kingman coalescent realizations and their external-length functionals.

A realization pairs the coalescent times T_1 > ... > T_n = 0 with a merge
history: X_k counts the external branches whose internal node sits at
level k, V_k the internal branches among k lineages.  The merge history is
driven by the embedded urn chain via V_k = U_(n-k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import urn
from .indexing import check_window, floor_pow, window


@dataclass(frozen=True)
class CoalescentTimes:
    """Times T_1..T_n; t[k] = T_k, t[0] unused (set to +inf)."""

    n: int
    t: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("sample size must be at least 2")
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
        if n < 2:
            raise ValueError("sample size must be at least 2")
        if len(v) != n + 1:
            raise ValueError("v must have n+1 entries")
        if v[n] != 0 or v[1] != 1:
            raise ValueError("need V_n = 0 and V_1 = 1")
        x = tuple(1 + v[k] - v[k + 1] for k in range(1, n))
        if any(xk not in (0, 1, 2) for xk in x):
            raise ValueError("merge counts take values in {0, 1, 2}")
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class LabeledHistory:
    """Per-leaf merge levels rho(1)..rho(n)."""

    n: int
    rho: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("sample size must be at least 2")
        if len(self.rho) != self.n:
            raise ValueError("one level per leaf required")
        counts: dict[int, int] = {}
        for r in self.rho:
            if not 1 <= r <= self.n - 1:
                raise ValueError("levels must lie in 1..n-1")
            counts[r] = counts.get(r, 0) + 1
        if any(c > 2 for c in counts.values()):
            raise ValueError("at most two leaves can merge at one level")

    def merge_counts(self) -> tuple[int, ...]:
        """The (X_1, ..., X_(n-1)) induced by the leaf levels."""
        x = [0] * (self.n - 1)
        for r in self.rho:
            x[r - 1] += 1
        return tuple(x)


@dataclass(frozen=True)
class ScaledPointPattern:
    """Multiset of sqrt(n) T_(rho(i)) values, one entry per leaf."""

    n: int
    points: np.ndarray

    def __post_init__(self):
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
    if n < 2:
        raise ValueError("sample size must be at least 2")
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


def sample_labeled_history(n: int, rng: np.random.Generator) -> LabeledHistory:
    """Simulate the partition chain, merging a uniform pair of blocks.

    A block is tracked only by the singleton leaf it may still contain;
    when a singleton block merges at the transition to k-1 blocks, its
    leaf's level is k-1.
    """
    if n < 2:
        raise ValueError("sample size must be at least 2")
    # blocks[j] = leaf label if the block is still a singleton, else 0
    blocks = list(range(1, n + 1))
    rho = [0] * n
    for k in range(n, 1, -1):
        pair = int(rng.integers(k * (k - 1) // 2))
        # unrank the pair index to 0 <= i < j < k
        i = 0
        while pair >= k - 1 - i:
            pair -= k - 1 - i
            i += 1
        j = i + 1 + pair
        for leaf in (blocks[i], blocks[j]):
            if leaf:
                rho[leaf - 1] = k - 1
        blocks[i] = 0
        del blocks[j]
    return LabeledHistory(n, tuple(rho))


def sample_rho_single(n: int, rng: np.random.Generator) -> int:
    """Level at which one tagged leaf merges: walking k = n..2, the
    still-singleton leaf joins a merge with probability 2/k."""
    if n < 2:
        raise ValueError("sample size must be at least 2")
    for k in range(n, 2, -1):
        if rng.random() < 2.0 / k:
            return k - 1
    return 1


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


def hat_external_length(times: CoalescentTimes, hist: MergeHistory,
                        alpha: float, beta: float) -> float:
    """External length clipped between T_floor(n**alpha) and T_floor(n**beta).

    With m = floor(n**alpha) and M = floor(n**beta), this is the increment form
    sum_(m<k<=n) (T_(k-1)-T_k)(k-V_k) minus the same sum from M, which equals
    the per-branch clipping sum_k X_k (min(T_k, T_m) - min(T_k, T_M)).
    """
    n = _check_same_n(times, hist)
    check_window(alpha, beta)
    m, big_m = floor_pow(n, alpha), floor_pow(n, beta)

    def increment_tail(lo: int) -> float:
        total = 0.0
        for k in range(lo + 1, n + 1):
            total += (times.t[k - 1] - times.t[k]) * (k - hist.v[k])
        return total

    return increment_tail(m) - increment_tail(big_m)


def scaled_point_pattern(times: CoalescentTimes, hist: MergeHistory) -> ScaledPointPattern:
    """Points sqrt(n) T_k with multiplicity X_k."""
    n = _check_same_n(times, hist)
    pts = np.repeat(math.sqrt(n) * times.t[1:n], hist.x)
    return ScaledPointPattern(n, pts)


def single_branch_length(times: CoalescentTimes, rho: int) -> tuple[float, float]:
    """(R_n, R_n') = (T_rho, 2(1/rho - 1/n)) for a leaf merging at level rho."""
    n = times.n
    if not 1 <= rho <= n - 1:
        raise ValueError(f"level rho={rho} outside 1..n-1")
    return float(times.t[rho]), 2.0 * (1.0 / rho - 1.0 / n)
