"""Scalar references that only the tests call.

The shipped package samples the coalescent through ``kingman.batch`` and
proves its laws in ``kingman.verify``. The tests hold these readable scalar
forms beside them: the partition chain that labels each leaf with its merge
level, and ``L_hat`` in its increment form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kingman.coalescent import CoalescentTimes, MergeHistory, _check_same_n
from kingman.indexing import check_count, cuts


@dataclass(frozen=True)
class LabeledHistory:
    """Per-leaf merge levels rho(1)..rho(n)."""

    n: int
    rho: tuple[int, ...]

    def __post_init__(self):
        check_count("sample size n", self.n, 2)
        if len(self.rho) != self.n:
            raise ValueError("one level per leaf required")
        for r in self.rho:
            check_count("level rho", r, 1, self.n - 1)
        if np.unique(self.rho, return_counts=True)[1].max() > 2:
            raise ValueError("at most two leaves can merge at one level")

    def merge_counts(self) -> tuple[int, ...]:
        """The (X_1, ..., X_(n-1)) induced by the leaf levels."""
        x = [0] * (self.n - 1)
        for r in self.rho:
            x[r - 1] += 1
        return tuple(x)


def sample_labeled_history(n: int, rng: np.random.Generator) -> LabeledHistory:
    """Simulate the partition chain, merging a uniform pair of blocks.

    A block is tracked only by the singleton leaf it may still contain;
    when a singleton block merges at the transition to k-1 blocks, its
    leaf's level is k-1.
    """
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


def hat_external_length(times: CoalescentTimes, hist: MergeHistory,
                        alpha: float, beta: float) -> float:
    """External length clipped between T_floor(n**alpha) and T_floor(n**beta).

    With m = floor(n**alpha) and M = floor(n**beta), this is the increment form
    sum_(m<k<=n) (T_(k-1)-T_k)(k-V_k) minus the same sum from M, which equals
    the per-branch clipping sum_k X_k (min(T_k, T_m) - min(T_k, T_M)).
    """
    n = _check_same_n(times, hist)
    m, big_m = cuts(n, alpha, beta)

    def increment_tail(lo: int) -> float:
        total = 0.0
        for k in range(lo + 1, n + 1):
            total += (times.t[k - 1] - times.t[k]) * (k - hist.v[k])
        return total

    return increment_tail(m) - increment_tail(big_m)
