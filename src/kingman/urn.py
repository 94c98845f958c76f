"""The urn-model Markov chain behind the coalescent's external branches.

An urn starts with n black balls; each step removes a random pair and adds
one red ball, and the last step removes the final ball.  U_k is the red
count after k steps.  The chain is given three equivalent ways: a direct
scalar sampler, the two-box move/recolor scheme, and the deterministic map
from a pair of permutations to a path.  Each has its exact finite-n law in
rational arithmetic.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

import numpy as np

from .indexing import check_count

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class UrnPath:
    """One trajectory U_0..U_n of red-ball counts."""

    n: int
    u: tuple[int, ...]

    def __post_init__(self):
        n, u = self.n, self.u
        check_count("sample size n", n, 2)
        if len(u) != n + 1:
            raise ValueError(f"path must have {n + 1} entries, got {len(u)}")
        for k, v in enumerate(u):
            if v not in (live := states(n, k)):
                raise ValueError(f"U_{k}={v} outside {live[0]}..{live[-1]}")
        for k in range(n):
            if abs(u[k + 1] - u[k]) > 1:
                raise ValueError("path increments must lie in {-1, 0, +1}")


@dataclass(frozen=True)
class PermutationPair:
    """Coloring and shifting instances per ball: two permutations of 1..n-1."""

    rho_perm: tuple[int, ...]
    sigma_perm: tuple[int, ...]

    def __post_init__(self):
        m = len(self.rho_perm)
        if len(self.sigma_perm) != m or m < 1:
            raise ValueError("permutations must have equal positive length")
        full = set(range(1, m + 1))
        if set(self.rho_perm) != full or set(self.sigma_perm) != full:
            raise ValueError("each sequence must be a permutation of 1..n-1")


class ExactLaw(dict):
    """Discrete law with exact rational probabilities summing to 1; it lists only the
    outcomes of positive probability, and reads 0 for any other."""

    def __init__(self, probs: dict):
        dict.__init__(self, {o: Fraction(p) for o, p in probs.items() if p != 0})
        for outcome, p in self.items():
            if p < 0:
                raise ValueError(f"negative probability for outcome {outcome}")
        if (total := sum(self.values(), ZERO)) != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def __missing__(self, outcome):
        return ZERO

    def mean(self) -> Fraction:
        return sum((Fraction(o) * p for o, p in self.items()), ZERO)


def states(n: int, k: int) -> range:
    """The values U_k takes: 0 alone at k = 0 and k = n, otherwise 1..min(k, n-k)."""
    return range(1) if k in (0, n) else range(1, min(k, n - k) + 1)


def pair_counts(n: int, k: int, u):
    """(red, mixed, black) pair counts among the n - k balls left after step k, u of
    them red: a red pair steps U down, a mixed one keeps it, a black one steps it up.

    u may be an integer array.
    """
    black = n - k - u
    return u * (u - 1) // 2, u * black, black * (black - 1) // 2


def transition_probabilities(n: int, k: int, u: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (down, stay, up) probabilities for U_{k+1} given U_k = u.

    Valid for 0 <= k <= n-2; the final step k = n-1 is the deterministic
    removal of the last ball.
    """
    check_count("sample size n", n, 2)
    check_count("step k", k, 0, n - 2)
    check_count("state u", u, 0, n - k)
    whole = comb(n - k, 2)
    return tuple(Fraction(c, whole) for c in pair_counts(n, k, u))


def step_law(n: int, k: int, dist: dict[int, Fraction]) -> dict[int, Fraction]:
    """The law of U_(k+1) from the law of U_k, for 0 <= k <= n-1.

    The last step k = n-1 removes the final ball, so U_n = 0 surely.
    """
    if k == n - 1:
        return {0: sum(dist.values(), ZERO)}
    nxt: dict[int, Fraction] = {}
    for u, p in dist.items():
        for v, q in zip((u - 1, u, u + 1), transition_probabilities(n, k, u)):
            if q:
                nxt[v] = nxt[v] + p * q if v in nxt else p * q
    return nxt


def _float_thresholds(n: int, k: int, u):
    """Step down if w < t_down, up if w >= t_stay; u may be an int64 array."""
    down, stay, _ = pair_counts(n, k, u)
    whole = comb(n - k, 2)
    t_down = down / whole
    return t_down, t_down + stay / whole


def sample_urn_path(n: int, rng: np.random.Generator) -> UrnPath:
    """Draw one chain trajectory; consumes one uniform per step k=0..n-2."""
    u = 0
    path = [0]
    for k in range(n - 1):
        w = rng.random()
        t_down, t_stay = _float_thresholds(n, k, u)
        if w < t_down:
            u -= 1
        elif w >= t_stay:
            u += 1
        path.append(u)
    path.append(0)
    return UrnPath(n, tuple(path))


def sample_box_scheme(n: int, rng: np.random.Generator) -> UrnPath:
    """Draw a trajectory via the two-box move/recolor scheme.

    Box A starts with n-1 black balls, box B empty.  Moves (a random ball
    from A to B) alternate with recolorings (a random black ball anywhere
    turns red); U'_k is the red count in A just after the k-th move.  The
    returned path (0, U'_1+1, ..., U'_(n-1)+1, 0) has the chain's law.
    """
    black_a, red_a = n - 1, 0
    black_b = 0
    path = [0]
    for _ in range(n - 1):
        # move: uniform over balls currently in A
        pick = int(rng.integers(black_a + red_a))
        if pick < black_a:
            black_a -= 1
            black_b += 1
        else:
            red_a -= 1
        path.append(red_a + 1)
        # recolor: uniform over black balls in either box
        pick = int(rng.integers(black_a + black_b))
        if pick < black_a:
            black_a -= 1
            red_a += 1
        else:
            black_b -= 1
    path.append(0)
    return UrnPath(n, tuple(path))


def path_from_permutations(pair: PermutationPair) -> UrnPath:
    """Deterministic path U_k = #{m : rho_m < k < sigma_m} + 1, endpoints 0."""
    rho, sigma = pair.rho_perm, pair.sigma_perm
    n = len(rho) + 1
    inner = [
        sum(1 for r, s in zip(rho, sigma) if r < k < s) + 1
        for k in range(1, n)
    ]
    return UrnPath(n, (0, *inner, 0))


MAX_PATH_ENUM_N = 9


def exact_path_law(n: int) -> ExactLaw:
    """Law over whole paths by exact enumeration of the transition products."""
    check_count("sample size n", n, 2, MAX_PATH_ENUM_N)
    frontier: dict[tuple[int, ...], Fraction] = {(0,): ONE}
    for k in range(n):
        frontier = {prefix + (v,): p * q for prefix, p in frontier.items()
                    for v, q in step_law(n, k, {prefix[-1]: ONE}).items()}
    return ExactLaw(frontier)


class _Replay:
    """A stand-in rng whose integers(m) replays a script of choices, extended with 0s
    past its end, and records each m it is asked for."""

    def __init__(self, script: list[int]):
        self.script, self.ranges = script, []

    def integers(self, m: int) -> int:
        self.ranges.append(m)
        if len(self.script) < len(self.ranges):
            self.script.append(0)
        return self.script[len(self.ranges) - 1]


def enumerated_law(draw) -> ExactLaw:
    """The exact law of draw(rng), for a draw that uses rng.integers(m) alone: every
    sequence of choices, in odometer order, weighted by Fraction(1, prod(m))."""
    law: dict = {}
    script: list[int] = []
    while True:
        rng = _Replay(script)
        outcome = draw(rng)
        law[outcome] = law.get(outcome, ZERO) + Fraction(1, prod(rng.ranges))
        while script and script[-1] == rng.ranges[len(script) - 1] - 1:
            script.pop()
        if not script:
            return ExactLaw(law)
        script[-1] += 1


MAX_BOX_ENUM_N = 5


def box_scheme_exact_law(n: int) -> ExactLaw:
    """Path law of sample_box_scheme, by enumerating every move and recolor it can draw."""
    check_count("sample size n", n, 2, MAX_BOX_ENUM_N)
    return enumerated_law(lambda rng: sample_box_scheme(n, rng).u)


MAX_PERM_ENUM_N = 6


def permutation_exact_law(n: int) -> ExactLaw:
    """Path law of all ((n-1)!)^2 permutation pairs: each path's pairs counted, divided once."""
    check_count("sample size n", n, 2, MAX_PERM_ENUM_N)
    pairs = itertools.product(itertools.permutations(range(1, n)), repeat=2)
    counts = Counter(path_from_permutations(PermutationPair(*pair)).u for pair in pairs)
    return ExactLaw({path: Fraction(c, counts.total()) for path, c in counts.items()})


def _forward(n: int, k: int, dist: dict[int, Fraction]):
    """dist, a law of U_k, then its images under step_law at steps k+1..n in turn."""
    return itertools.accumulate(range(k, n), lambda d, s: step_law(n, s, d), initial=dist)


def exact_marginal(n: int) -> list[ExactLaw]:
    """The laws of U_0..U_n (U_k's at index k), by one forward pass in rationals."""
    check_count("sample size n", n, 2)
    return [ExactLaw(law) for law in _forward(n, 0, {0: ONE})]


def exact_joint_marginal(n: int, k: int) -> list[ExactLaw]:
    """The joint laws of (U_k, U_l) for l = k..n (index l - k): each state a of U_k is
    stepped forward once from its point mass P(U_k = a), which step_law keeps as a weight."""
    check_count("sample size n", n, 2)
    check_count("step k", k, 0, n)
    joints: list[dict] = [{} for _ in range(k, n + 1)]
    for a, p in next(itertools.islice(_forward(n, 0, {0: ONE}), k, None)).items():  # U_k's law
        for joint, law in zip(joints, _forward(n, k, {a: p})):
            joint.update(((a, b), q) for b, q in law.items())
    return [ExactLaw(joint) for joint in joints]


def hypergeometric_pmf(n: int, k: int, r: int) -> Fraction:
    """P(U_k - 1 = r): hypergeometric with parameters n-1, k-1, n-k-1."""
    check_count("sample size n", n, 2)
    check_count("level k", k, 1, n - 1)
    check_count("count r", r, 0)
    num = comb(k - 1, r) * comb(n - k, n - k - 1 - r) if n - k - 1 - r >= 0 else 0
    return Fraction(num, comb(n - 1, n - k - 1))


def tau(p: UrnPath) -> int:
    """max{k >= 1 : U_(n-k) = k}, the red count when the last black leaves.

    Nonempty for every valid path since U_(n-1) = 1.
    """
    return max(k for k in range(1, p.n) if p.u[p.n - k] == k)


def tau_exact_tail(n: int, k: int) -> Fraction:
    """P(tau_n >= k) = (n-k)...(n-2k+1) / ((n-1)...(n-k))."""
    check_count("sample size n", n, 2)
    check_count("tail index k", k, 1)
    if n - 2 * k + 1 < 1:
        return ZERO
    return Fraction(prod(range(n - 2 * k + 1, n - k + 1)), prod(range(n - k, n)))


def tau_exact_law(n: int) -> ExactLaw:
    """Law of tau_n from the exact tail formula."""
    check_count("sample size n", n, 2)
    return ExactLaw({k: tau_exact_tail(n, k) - tau_exact_tail(n, k + 1)
                     for k in range(1, n // 2 + 1)})
