"""Acceptance suites: exact rational identities and seeded statistical checks.

The exact suite proves finite-n identities outright (no randomness).  The
statistical suite runs seeded Monte Carlo at desk scale with pinned
thresholds: each entry of CRITERIA names its stream id, its batch.simulate
call and a reducer that hands the array, or a transform of it, straight to
gates in stats.  It is deterministic for a fixed seed and thread-independent.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import batch, moments, stats, urn
from .indexing import ceil_pow, floor_pow
from .rng import DEFAULT_SEED

# stream ids keep the statistical criteria on disjoint random streams
_S_TOTAL, _S_HAT, _S_ETA, _S_T4, _S_TAU, _S_R, _S_GP, _S_IND = range(1, 9)


def _exact_report(name: str, n_max: int, seed: int, pairs) -> stats.TestReport:
    """One check per (got, want) pair of n <= n_max, and one violation per unequal pair."""
    checks = violations = 0
    for got, want in pairs:
        checks += 1
        violations += got != want
    return stats.TestReport(name, {"n_max": n_max, "checks": checks}, float(violations),
                            float(violations), 0.0, violations == 0, seed, 0)


def _same_law(a, b):
    """(a's probability, b's) of each outcome of either law."""
    for x in a.keys() | b.keys():
        yield a.get(x, 0), b.get(x, 0)


# ------------------------------------------------------------- exact suite

def check_reversibility(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """Path law invariant under time reversal for every n up to 9."""
    def pairs():
        for n in range(2, urn.MAX_PATH_ENUM_N + 1):
            law = urn.exact_path_law(n)
            yield from _same_law(law, {tuple(reversed(path)): p for path, p in law.items()})
    return _exact_report("reversibility_exact", urn.MAX_PATH_ENUM_N, seed, pairs())


def check_chain_moments(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """DP means and covariances equal the closed forms for n <= 12."""
    def pairs():
        for n in range(2, 13):
            for k in range(n + 1):
                yield urn.exact_marginal(n, k).mean(), moments.e_U(n, k)
            if n < 3:
                continue
            for k in range(n + 1):
                for l in range(k, n + 1):
                    joint = urn.exact_joint_marginal(n, k, l)
                    e_kl = sum((Fraction(a * b) * p for (a, b), p in joint.items()), Fraction(0))
                    yield e_kl - moments.e_U(n, k) * moments.e_U(n, l), moments.cov_U(n, k, l)
    return _exact_report("chain_moments_exact", 12, seed, pairs())


def check_hypergeometric(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """Forward-DP marginals equal the shifted hypergeometric for n <= 50."""
    def pairs():
        for n in range(2, 51):
            dist = {0: Fraction(1)}
            for k in range(1, n):
                dist = urn.step_law(n, k - 1, dist)
                yield from _same_law(dist, {u: urn.hypergeometric_pmf(n, k, u - 1)
                                            for u in range(1, min(k, n - k) + 1)})
    return _exact_report("hypergeometric_marginal_exact", 50, seed, pairs())


def _chain_law_report(name: str, path_law, n_max: int, seed: int) -> stats.TestReport:
    """Compare an enumerated path law with the chain's path law for n <= n_max."""
    return _exact_report(name, n_max, seed, (
        pair for n in range(2, n_max + 1)
        for pair in _same_law(path_law(n), urn.exact_path_law(n))))


def check_permutation_representation(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """All ((n-1)!)^2 permutation pairs reproduce the path law, n <= 6."""
    return _chain_law_report("permutation_representation_exact", urn.permutation_exact_law,
                             urn.MAX_PERM_ENUM_N, seed)


def check_box_scheme(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """The box-scheme sampler's enumerated law equals the chain law for n <= 5."""
    return _chain_law_report("box_scheme_exact", urn.box_scheme_exact_law,
                             urn.MAX_BOX_ENUM_N, seed)


def check_variance_identity(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """Truncated-length variance at m=1 recovers the total-length variance, n <= 10^4."""
    return _exact_report("variance_identity_exact", 10_000, seed, (
        (moments.var_hat(n, 1), moments.fu_li_var(n)) for n in range(3, 10_001)))


def check_martingale_identity(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """sum_u' p(u'|u) u' == ((n-k-2)/(n-k)) u + 1 for every state, n <= 100.

    Both sides are multiplied by (n-k) and D = comb(n-k, 2) and compared as
    integers; a probability whose denominator does not divide D gives None,
    a violation.
    """
    def pairs():
        for n in range(2, 101):
            for k in range(n - 1):
                balls = n - k
                whole = math.comb(balls, 2)
                for u in (0,) if k == 0 else range(1, min(k, balls) + 1):
                    probs = urn.transition_probabilities(n, k, u)
                    want = whole * ((balls - 2) * u + balls)
                    if any(whole % p.denominator for p in probs):
                        yield None, want
                        continue
                    down, stay, up = (p.numerator * (whole // p.denominator) for p in probs)
                    yield balls * (down * (u - 1) + stay * u + up * (u + 1)), want
    return _exact_report("martingale_identity_exact", 100, seed, pairs())


def check_tau_tail(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """Product-formula tail equals the enumeration tail for n <= 9."""
    def pairs():
        for n in range(2, urn.MAX_PATH_ENUM_N + 1):
            law = urn.exact_path_law(n)
            taus = {path: urn.tau(urn.UrnPath(n, path)) for path in law}
            for k in range(1, n + 1):
                yield (sum((p for path, p in law.items() if taus[path] >= k), Fraction(0)),
                       urn.tau_exact_tail(n, k))
    return _exact_report("tau_tail_exact", urn.MAX_PATH_ENUM_N, seed, pairs())


# ------------------------------------------------------- statistical suite

# a stream id, a simulate call's arguments, and reduce(seed, n, sample, **keywords) -> reports
Criterion = NamedTuple("Criterion", [("stream_id", int), ("statistic", str), ("n", int),
                                     ("reps", int), ("keywords", dict), ("reduce", Callable)])


def _truncated_length(seed: int, n: int, hat: np.ndarray, alpha: float, beta: float):
    m = floor_pow(n, alpha)
    mu, sig = float(moments.e_hat(n, m)), math.sqrt(float(moments.var_hat(n, m)))
    return [stats.ks_test((hat - mu) / sig, stats.normal_cdf, name="truncated_length_normality",
                          seed=seed, params={"n": n, "alpha": alpha})]


def _poisson_support(mean: float) -> dict[int, float]:
    """Poisson(mean) on 0..39, with the tail mass from 40 on lumped at 40."""
    probs = {j: math.exp(-mean) * mean ** j / math.factorial(j) for j in range(40)}
    probs[40] = max(0.0, 1.0 - sum(probs.values()))
    return probs


def _point_counts(seed: int, n: int, eta: np.ndarray, a: float, b: float):
    lam = moments.poisson_mean(a, b)
    return [stats.chi_square_gof(eta, _poisson_support(lam), name="scaled_point_counts_poisson",
                                 seed=seed, params={"n": n, "a": a, "b": b, "mean": lam}),
            stats.mean_test(eta, lam, lam, name="scaled_point_counts_mean",
                            seed=seed, params={"n": n, "a": a, "b": b})]


def _vanishing_window(stream_id: int, n: int, beta: float, reps: int) -> Criterion:
    """P(short-window length > 0) against its exact finite-n bound, for 0 < beta < 1/2.

    The event {window length > 0} equals {V_m < m} with m = ceil(n**beta);
    the bound is m(m-1)/(n-1), tested with a four-standard-error allowance.
    """
    m = ceil_pow(n, beta)
    bound = float(Fraction(m * (m - 1), n - 1))

    def reduce(seed, n, v_m, steps):
        emp = float(np.mean(v_m[:, 0] < m))  # 0 at m = 1, as V_1 = 1
        limit = bound + 4.0 * math.sqrt(bound * (1.0 - bound) / reps)
        return [stats.TestReport("vanishing_window_bound",
                                 {"n": n, "beta": beta, "m": m, "bound": bound},
                                 emp, emp, limit, emp <= limit, seed, reps)]

    return Criterion(stream_id, "urn_snapshot", n, reps, {"steps": [n - m]}, reduce)


def _gp_covariance(stream_id: int, n: int, grid: list[tuple[float, float]],
                   reps: int) -> Criterion:
    """Covariance of the centered, scaled chain against s^2 (1-t)^2, for n >= 500 (a
    shorter chain is too far from the limit) and a nonempty grid of points in (0, 1).

    Simulates W(t) = (U_(floor(nt)) - n t(1-t)) / sqrt(n) and requires every
    grid covariance within 0.01 + 4 MC standard errors of the limit, and
    every grid mean within 4 standard errors of 0.
    """
    ts = sorted({v for st in grid for v in st})

    def reduce(seed, n, snap, steps):
        w = (snap - np.array([n * t * (1 - t) for t in ts])) / math.sqrt(n)
        worst = -math.inf
        for col in w.T:  # the grid points in order
            se = float(np.std(col, ddof=1)) / math.sqrt(reps)
            worst = max(worst, abs(float(np.mean(col))) - 4.0 * se)
        for s, t in grid:
            prod = w[:, ts.index(s)] * w[:, ts.index(t)]
            emp = float(np.mean(prod))
            se = float(np.std(prod, ddof=1)) / math.sqrt(reps)
            worst = max(worst, abs(emp - moments.gp_cov(s, t)) - (0.01 + 4.0 * se))
        return [stats.TestReport("gp_covariance", {"n": n, "grid": [list(p) for p in grid]},
                                 worst, worst, 0.0, worst <= 0.0, seed, reps)]

    steps = [math.floor(n * t) for t in ts]
    return Criterion(stream_id, "urn_snapshot", n, reps, {"steps": steps}, reduce)


CRITERIA: tuple[Criterion, ...] = (
    # total external length at n=50: mean exactly 2, Fu-Li variance
    Criterion(_S_TOTAL, "L", 50, 100_000, {}, lambda seed, n, total: [
        stats.mean_test(total, 2, moments.fu_li_var(n), name="total_length_mean", seed=seed,
                        params={"n": n}),
        stats.variance_test(total, moments.fu_li_var(n), 0.05, name="total_length_variance",
                            seed=seed, params={"n": n})]),
    # normality of the truncated length at n=50, alpha=1/2
    Criterion(_S_HAT, "L_hat", 50, 10_000, {"alpha": 0.5, "beta": 1.0}, _truncated_length),
    # Poisson counts of scaled branch lengths on [1, 2)
    Criterion(_S_ETA, "eta_count", 10_000, 10_000, {"a": 1.0, "b": 2.0}, _point_counts),
    _vanishing_window(_S_T4, 10_000, 0.25, 10_000),
    # tau / sqrt(n) against the exp(-t^2) tail
    Criterion(_S_TAU, "tau", 10_000, 10_000, {}, lambda seed, n, tau: [stats.ks_distance_test(
        tau / math.sqrt(n), lambda t: 1.0 - moments.tau_limit_tail(max(t, 0.0)),
        name="tau_limit_ks", seed=seed, d_max=0.03, params={"n": n})]),
    # single random branch length: n R_n against the (x+2)^-3 law
    Criterion(_S_R, "R", 1_000, 100_000, {}, lambda seed, n, r: [stats.ks_distance_test(
        n * r, moments.r_limit_cdf, name="single_branch_limit_ks", seed=seed, d_max=0.05,
        params={"n": n})]),
    _gp_covariance(_S_GP, 2_000, [(s, t) for s in (0.25, 0.5, 0.75)
                                  for t in (0.25, 0.5, 0.75) if s <= t], 10_000),
    # asymptotic independence of adjacent windows
    Criterion(_S_IND, "window_pair", 200, 10_000, {"window1": (0.5, 0.75), "window2": (0.75, 1.0)},
              lambda seed, n, pair, **_: [stats.independence_check(
                  pair[:, 0], pair[:, 1], name="window_independence", seed=seed,
                  params={"n": n})]),
)


def run_suite(name: str, seed: int = DEFAULT_SEED, threads: int = 1):
    """A suite's reports in their fixed order, made as they are read.

    Every argument is checked before this returns, and nothing runs before the first
    report is read.  The exact checks (first: each takes about as long as the largest
    chunk) and every chunk of every criterion share one batch.run call; each criterion
    reduces here, in table order, once its chunks are in, while later ones run.
    """
    if name not in ("exact", "statistical", "all"):
        raise ValueError(f"unknown suite {name!r}")
    batch.check_run(seed, threads)  # before any task runs: the exact suite plans nothing
    exact = [batch.Task(check, (seed,)) for check in (
        check_reversibility, check_chain_moments, check_hypergeometric,
        check_permutation_representation, check_box_scheme, check_variance_identity,
        check_martingale_identity, check_tau_tail)] if name != "statistical" else []
    criteria = CRITERIA if name != "exact" else ()
    plans = [batch.plan(c.statistic, c.n, c.reps, seed, stream_id=c.stream_id, **c.keywords)
             for c in criteria]  # the one pool balances the criteria: no chunk is narrowed
    results = batch.run(exact + [task for tasks in plans for task in tasks], threads)

    def reports():
        for _ in exact:
            yield next(results)
        for c, tasks in zip(criteria, plans):
            sample = np.concatenate([next(results) for _ in tasks], axis=0)
            yield from c.reduce(seed, c.n, sample, **c.keywords)

    return reports()


def statistical_suite(seed: int = DEFAULT_SEED, threads: int = 1):
    """run_suite("statistical", seed, threads): the seeded criteria alone."""
    return run_suite("statistical", seed, threads)
