"""Acceptance suites: exact rational identities and seeded statistical checks.

The exact suite proves finite-n identities outright (no randomness).  The
statistical suite runs seeded Monte Carlo at desk scale with pinned
thresholds: each criterion draws its sample as an array from
batch.simulate and hands it, or a transform of it, straight to a gate in
stats.  It is deterministic for a fixed seed and thread-independent.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import batch, moments, stats, urn
from .indexing import ceil_pow

DEFAULT_SEED = 7

# stream ids keep the statistical criteria on disjoint random streams
_S_TOTAL, _S_HAT, _S_ETA, _S_T4, _S_TAU, _S_R, _S_GP, _S_IND = range(1, 9)


def _exact_report(name: str, violations: int, checks: int, seed: int,
                  params: dict | None = None) -> stats.TestReport:
    p = dict(params or {})
    p["checks"] = checks
    return stats.TestReport(name, p, float(violations), float(violations),
                            0.0, violations == 0, seed, 0)


# ------------------------------------------------------------- exact suite

def check_reversibility(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """Path law invariant under time reversal for every n up to 9."""
    bad = checks = 0
    for n in range(2, urn.MAX_PATH_ENUM_N + 1):
        law = urn.exact_path_law(n)
        for path, p in law.items():
            checks += 1
            if law[tuple(reversed(path))] != p:
                bad += 1
    return _exact_report("reversibility_exact", bad, checks, seed, {"n_max": 9})


def check_chain_moments(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """DP means and covariances equal the closed forms for n <= 12."""
    bad = checks = 0
    for n in range(2, 13):
        for k in range(n + 1):
            checks += 1
            if urn.exact_marginal(n, k).mean() != moments.e_U(n, k):
                bad += 1
        if n < 3:
            continue
        for k in range(n + 1):
            for l in range(k, n + 1):
                joint = urn.exact_joint_marginal(n, k, l)
                e_kl = sum((Fraction(a * b) * p for (a, b), p in joint.items()), Fraction(0))
                cov = e_kl - moments.e_U(n, k) * moments.e_U(n, l)
                checks += 1
                if cov != moments.cov_U(n, k, l):
                    bad += 1
    return _exact_report("chain_moments_exact", bad, checks, seed, {"n_max": 12})


def check_hypergeometric(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """Forward-DP marginals equal the shifted hypergeometric for n <= 50."""
    bad = checks = 0
    for n in range(2, 51):
        dist = {0: Fraction(1)}
        for k in range(1, n):
            dist = urn.step_law(n, k - 1, dist)
            for u in range(1, min(k, n - k) + 1):
                checks += 1
                if dist.get(u, Fraction(0)) != urn.hypergeometric_pmf(n, k, u - 1):
                    bad += 1
            if any(u < 1 or u > min(k, n - k) for u in dist):
                bad += 1
    return _exact_report("hypergeometric_marginal_exact", bad, checks, seed, {"n_max": 50})


def _chain_law_report(name: str, enumerated_law, n_max: int, seed: int) -> stats.TestReport:
    """Compare an enumerated path law with the chain's path law for n <= n_max."""
    bad = checks = 0
    for n in range(2, n_max + 1):
        law, chain_law = enumerated_law(n), urn.exact_path_law(n)
        for path in set(law) | set(chain_law):
            checks += 1
            if law[path] != chain_law[path]:
                bad += 1
    return _exact_report(name, bad, checks, seed, {"n_max": n_max})


def check_permutation_representation(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """All ((n-1)!)^2 permutation pairs reproduce the path law, n <= 6."""
    return _chain_law_report("permutation_representation_exact", urn.permutation_exact_law,
                             urn.MAX_PERM_ENUM_N, seed)


def check_box_scheme(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """Enumerated box-scheme law equals the chain law for n <= 5."""
    return _chain_law_report("box_scheme_exact", urn.box_scheme_exact_law,
                             urn.MAX_BOX_ENUM_N, seed)


def check_variance_identity(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """Truncated-length variance at m=1 recovers the total-length variance, n <= 10^4."""
    bad = 0
    for n in range(3, 10_001):
        if moments.var_hat(n, 1) != moments.fu_li_var(n):
            bad += 1
    return _exact_report("variance_identity_exact", bad, 9_998, seed, {"n_max": 10_000})


def check_martingale_identity(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """sum_u' p(u'|u) u' == ((n-k-2)/(n-k)) u + 1 for every state, n <= 100.

    Both sides are multiplied by (n-k) and D = comb(n-k, 2) and compared as
    integers; a probability whose denominator does not divide D is a
    violation.
    """
    bad = checks = 0
    for n in range(2, 101):
        for k in range(n - 1):
            balls = n - k
            whole = math.comb(balls, 2)
            u_values = (0,) if k == 0 else range(1, min(k, balls) + 1)
            for u in u_values:
                probs = urn.transition_probabilities(n, k, u)
                checks += 1
                if any(whole % p.denominator for p in probs):
                    bad += 1
                    continue
                down, stay, up = (p.numerator * (whole // p.denominator) for p in probs)
                lhs = balls * (down * (u - 1) + stay * u + up * (u + 1))
                if lhs != whole * ((balls - 2) * u + balls):
                    bad += 1
    return _exact_report("martingale_identity_exact", bad, checks, seed, {"n_max": 100})


def check_tau_tail(seed: int = DEFAULT_SEED) -> stats.TestReport:
    """Product-formula tail equals the enumeration tail for n <= 9."""
    bad = checks = 0
    for n in range(2, urn.MAX_PATH_ENUM_N + 1):
        law = urn.exact_path_law(n)
        taus = {path: urn.tau(urn.UrnPath(n, path)) for path in law}
        for k in range(1, n + 1):
            enum_tail = sum((p for path, p in law.items() if taus[path] >= k), Fraction(0))
            checks += 1
            if enum_tail != urn.tau_exact_tail(n, k):
                bad += 1
    return _exact_report("tau_tail_exact", bad, checks, seed, {"n_max": 9})


def exact_suite(seed: int = DEFAULT_SEED) -> list[stats.TestReport]:
    return [
        check_reversibility(seed),
        check_chain_moments(seed),
        check_hypergeometric(seed),
        check_permutation_representation(seed),
        check_box_scheme(seed),
        check_variance_identity(seed),
        check_martingale_identity(seed),
        check_tau_tail(seed),
    ]


# ------------------------------------------------------- statistical suite

def _poisson_support(mean: float) -> dict[int, float]:
    """Poisson(mean) on 0..39, with the tail mass from 40 on lumped at 40."""
    probs = {j: math.exp(-mean) * mean ** j / math.factorial(j) for j in range(40)}
    probs[40] = max(0.0, 1.0 - sum(probs.values()))
    return probs


def gp_check(n: int, grid: list[tuple[float, float]], reps: int, seed: int, *,
             threads: int = 1, stream_id: int = 0) -> stats.TestReport:
    """Covariance check of the centered, scaled chain against s^2 (1-t)^2.

    Simulates W(t) = (U_(floor(nt)) - n t(1-t)) / sqrt(n) and requires every
    grid covariance within 0.01 + 4 MC standard errors of the limit, and
    every grid mean within 4 standard errors of 0.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    if n < 500:
        raise ValueError("chain too short for the limit comparison (need n >= 500)")
    ts = sorted({v for st in grid for v in st})
    if any(not 0 < t < 1 for t in ts):
        raise ValueError("grid points must lie strictly inside (0, 1)")
    steps = [math.floor(n * t) for t in ts]
    col = {t: i for i, t in enumerate(ts)}
    snap = batch.simulate("urn_snapshot", n, reps, seed, threads=threads,
                          stream_id=stream_id, steps=steps)
    w = (snap - np.array([n * t * (1 - t) for t in ts])) / math.sqrt(n)
    worst = -math.inf
    for t in ts:
        m = float(np.mean(w[:, col[t]]))
        se = float(np.std(w[:, col[t]], ddof=1)) / math.sqrt(reps)
        worst = max(worst, abs(m) - 4.0 * se)
    for s, t in grid:
        s, t = min(s, t), max(s, t)
        prod = w[:, col[s]] * w[:, col[t]]
        emp = float(np.mean(prod))
        se = float(np.std(prod, ddof=1)) / math.sqrt(reps)
        dev = abs(emp - moments.gp_cov(s, t)) - (0.01 + 4.0 * se)
        worst = max(worst, dev)
    return stats.TestReport("gp_covariance", {"n": n, "grid": [list(p) for p in grid]},
                            worst, worst, 0.0, worst <= 0.0, seed, reps)


def theorem4_bound_check(n: int, beta: float, reps: int, seed: int, *,
                         threads: int = 1, stream_id: int = 0) -> stats.TestReport:
    """Check P(short-window length > 0) against its exact finite-n bound.

    The event {window length > 0} equals {V_m < m} with m = ceil(n**beta);
    the bound is m(m-1)/(n-1), tested with a four-standard-error allowance.
    """
    if not 0 < beta < 0.5:
        raise ValueError("need 0 < beta < 1/2")
    m = ceil_pow(n, beta)
    bound = float(Fraction(m * (m - 1), n - 1))
    if m == 1:
        emp, allowance = 0.0, 0.0
    else:
        v_m = batch.simulate("urn_snapshot", n, reps, seed, threads=threads,
                             stream_id=stream_id, steps=[n - m])[:, 0]
        emp = float(np.mean(v_m < m))
        allowance = 4.0 * math.sqrt(bound * (1.0 - bound) / reps)
    limit = bound + allowance
    return stats.TestReport("vanishing_window_bound",
                            {"n": n, "beta": beta, "m": m, "bound": bound},
                            emp, emp, limit, emp <= limit, seed, reps)


def statistical_suite(seed: int = DEFAULT_SEED, threads: int = 1) -> list[stats.TestReport]:
    """Seeded Monte Carlo gates; each criterion draws on its own stream id."""

    def draw(statistic: str, n: int, reps: int, stream_id: int, **params) -> np.ndarray:
        return batch.simulate(statistic, n, reps, seed, threads=threads,
                              stream_id=stream_id, **params)

    reports: list[stats.TestReport] = []

    # total external length at n=50: mean exactly 2, Fu-Li variance
    n, reps = 50, 100_000
    total = draw("L", n, reps, _S_TOTAL)
    fl_var = moments.fu_li_var(n)
    reports.append(stats.mean_test(total, 2, fl_var, name="total_length_mean",
                                   seed=seed, params={"n": n}))
    reports.append(stats.variance_test(total, fl_var, 0.05, name="total_length_variance",
                                       seed=seed, params={"n": n}))

    # normality of the truncated length at n=50, alpha=1/2
    n, reps, m = 50, 10_000, 7
    hat = draw("L_hat", n, reps, _S_HAT, alpha=0.5, beta=1.0)
    mu, sig = float(moments.e_hat(n, m)), math.sqrt(float(moments.var_hat(n, m)))
    reports.append(stats.ks_test((hat - mu) / sig, stats.normal_cdf,
                                 name="truncated_length_normality", seed=seed,
                                 params={"n": n, "alpha": 0.5}))

    # Poisson counts of scaled branch lengths on [1, 2)
    n, reps = 10_000, 10_000
    eta = draw("eta_count", n, reps, _S_ETA, a=1.0, b=2.0)
    lam = moments.poisson_mean(1.0, 2.0)
    reports.append(stats.chi_square_gof(eta, _poisson_support(lam),
                                        name="scaled_point_counts_poisson", seed=seed,
                                        params={"n": n, "a": 1.0, "b": 2.0, "mean": lam}))
    reports.append(stats.mean_test(eta, lam, lam, name="scaled_point_counts_mean",
                                   seed=seed, params={"n": n, "a": 1.0, "b": 2.0}))

    # short windows are empty: exact finite-n bound
    reports.append(theorem4_bound_check(10_000, 0.25, 10_000, seed,
                                        threads=threads, stream_id=_S_T4))

    # tau / sqrt(n) against the exp(-t^2) tail
    n, reps = 10_000, 10_000
    tau = draw("tau", n, reps, _S_TAU)
    reports.append(stats.ks_distance_test(
        tau / math.sqrt(n), lambda t: 1.0 - moments.tau_limit_tail(max(t, 0.0)),
        name="tau_limit_ks", seed=seed, d_max=0.03, params={"n": n}))

    # single random branch length: n R_n against the (x+2)^-3 law
    n, reps = 1_000, 100_000
    r = draw("R", n, reps, _S_R)
    reports.append(stats.ks_distance_test(n * r, moments.r_limit_cdf,
                                          name="single_branch_limit_ks", seed=seed,
                                          d_max=0.05, params={"n": n}))

    # Gaussian-process covariance of the centered chain
    grid = [(s, t) for s in (0.25, 0.5, 0.75) for t in (0.25, 0.5, 0.75) if s <= t]
    reports.append(gp_check(2_000, grid, 10_000, seed,
                            threads=threads, stream_id=_S_GP))

    # asymptotic independence of adjacent windows
    n, reps = 200, 10_000
    pair = draw("window_pair", n, reps, _S_IND, window1=(0.5, 0.75), window2=(0.75, 1.0))
    reports.append(stats.independence_check(pair[:, 0], pair[:, 1],
                                            name="window_independence", seed=seed,
                                            params={"n": n}))
    return reports


def run_suite(name: str, seed: int = DEFAULT_SEED, threads: int = 1) -> list[stats.TestReport]:
    batch.check_threads(threads)  # before the exact suite, which never simulates
    if name == "exact":
        return exact_suite(seed)
    if name == "statistical":
        return statistical_suite(seed, threads)
    if name == "all":
        return exact_suite(seed) + statistical_suite(seed, threads)
    raise ValueError(f"unknown suite {name!r}")
