"""Closed-form moments and limit laws for the external-length functionals.

Everything with a finite-n closed form is returned as an exact Fraction;
finite-n values evaluated numerically (window covariances, the mean scaled
point count) and asymptotic quantities and limit-law CDFs are floats and
named as such.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .indexing import check_count, check_interval, check_window, window

_harmonic_cache: list[Fraction] = [Fraction(0)]


def harmonic(n: int) -> Fraction:
    """n-th harmonic number 1 + 1/2 + ... + 1/n, exactly."""
    check_count("harmonic index n", n, 0)
    for j in range(len(_harmonic_cache), n + 1):
        _harmonic_cache.append(_harmonic_cache[-1] + Fraction(1, j))
    return _harmonic_cache[n]


# ---------------------------------------------------------------- urn chain

def e_U(n: int, k: int) -> Fraction:
    """E(U_k) = k(n-k)/(n-1)."""
    check_count("sample size n", n, 2)
    check_count("index k", k, 0, n)
    return Fraction(k * (n - k), n - 1)


def cov_U(n: int, k: int, l: int) -> Fraction:
    """Cov(U_k, U_l) = k(k-1)(n-l)(n-l-1)/((n-1)^2 (n-2)), k <= l wlog."""
    check_count("sample size n", n, 3)
    check_count("index k", k, 0, n)
    check_count("index l", l, 0, n)
    k, l = min(k, l), max(k, l)
    return Fraction(k * (k - 1) * (n - l) * (n - l - 1), (n - 1) ** 2 * (n - 2))


# --------------------------------------------------------- merge counts X_k

def e_X(n: int, k: int) -> Fraction:
    """E(X_k) = 2k/(n-1)."""
    check_count("sample size n", n, 2)
    check_count("level k", k, 1, n - 1)
    return Fraction(2 * k, n - 1)


def var_X(n: int, k: int) -> Fraction:
    """Var(X_k) = 2k(n-k-1)(n-3)/((n-1)^2 (n-2))."""
    check_count("sample size n", n, 3)
    check_count("level k", k, 1, n - 1)
    return Fraction(2 * k * (n - k - 1) * (n - 3), (n - 1) ** 2 * (n - 2))


def cov_X(n: int, k: int, l: int) -> Fraction:
    """Cov(X_k, X_l) = -4k(n-l-1)/((n-1)^2 (n-2)), k < l wlog."""
    check_count("sample size n", n, 3)
    check_count("level k", k, 1, n - 1)
    check_count("level l", l, 1, n - 1)
    if k == l:
        raise ValueError(f"need distinct levels, got k = l = {k}")
    k, l = min(k, l), max(k, l)
    return Fraction(-4 * k * (n - l - 1), (n - 1) ** 2 * (n - 2))


# ------------------------------------------------------- coalescent times

def e_T(n: int, k: int) -> Fraction:
    """E(T_k) = 2(1/k - 1/n)."""
    check_count("sample size n", n, 1)
    check_count("level k", k, 1, n)
    return 2 * (Fraction(1, k) - Fraction(1, n))


def var_T(n: int, k: int) -> Fraction:
    """Var(T_k) = 4 sum_{j=k+1..n} 1/((j-1)^2 j^2), the exact finite sum."""
    check_count("sample size n", n, 1)
    check_count("level k", k, 1, n)
    return 4 * sum((Fraction(1, (j - 1) ** 2 * j ** 2) for j in range(k + 1, n + 1)), Fraction(0))


# -------------------------------------------------------- window lengths

def e_L_window(n: int, alpha: float, beta: float) -> Fraction:
    """Exact window mean 2/(n(n-1)) (cb - ca)(2n+1 - cb - ca), ceilings."""
    check_count("sample size n", n, 2)
    ca, cb = window(n, alpha, beta)
    return Fraction(2 * (cb - ca) * (2 * n + 1 - cb - ca), n * (n - 1))


def var_L_window_asymptotic(n: int, alpha: float, beta: float) -> float:
    """Asymptotic window variance 8(beta-alpha) ln(n)/n (not exact)."""
    check_count("sample size n", n, 2)
    check_window(alpha, beta)
    return 8.0 * (beta - alpha) * math.log(n) / n


def cov_L_windows(n: int, w1: tuple[float, float], w2: tuple[float, float]) -> float:
    """Numeric exact Cov(L_w1, L_w2) of two window lengths, w = (alpha, beta).

    Cov(sum T_k X_k, sum T_l X_l) over k in w1, l in w2, using independence
    of times and counts: each pair contributes Cov(T_k,T_l) E(X_k X_l) plus
    E(T_k)E(T_l) Cov(X_k,X_l), with Cov(T_k,T_l) = Var(T_max(k,l)).
    Quadratic time in the window widths, linear memory.
    """
    check_count("sample size n", n, 3)
    ks, ls = np.arange(*window(n, *w1)), np.arange(*window(n, *w2))
    # Var(T_k) = 4 sum_{j=k+1..n} 1/((j-1)^2 j^2), summed from the small end
    j = np.arange(n, 1, -1, dtype=float)
    var_t = np.zeros(n + 1)
    var_t[n - 1:0:-1] = np.cumsum(4.0 / ((j - 1) ** 2 * j ** 2))
    levels = np.arange(n + 1, dtype=float)
    e_t = np.zeros(n + 1)
    e_t[1:] = 2.0 * (1.0 / levels[1:] - 1.0 / n)
    e_x = 2.0 * levels / (n - 1)
    d = (n - 1) ** 2 * (n - 2)
    total = 0.0
    for k in ks:
        lo, hi = np.minimum(k, ls), np.maximum(k, ls)
        c_x = np.where(ls == k, 2.0 * k * (n - k - 1) * (n - 3) / d,
                       -4.0 * lo * (n - hi - 1) / d)
        total += float(np.sum(var_t[hi] * (c_x + e_x[k] * e_x[ls])
                              + e_t[k] * e_t[ls] * c_x))
    return total


def var_L_window_exact(n: int, alpha: float, beta: float) -> float:
    """Numeric exact window variance: the diagonal of cov_L_windows."""
    return cov_L_windows(n, (alpha, beta), (alpha, beta))


# ----------------------------------------------------- total / truncated

def fu_li_var(n: int) -> Fraction:
    """Var(L_n) = (8n h_n - 16n + 8)/((n-1)(n-2))."""
    check_count("sample size n", n, 3)
    return Fraction(8 * n) * harmonic(n) / ((n - 1) * (n - 2)) + Fraction(8 - 16 * n, (n - 1) * (n - 2))


def e_hat(n: int, m: int) -> Fraction:
    """Mean of the length truncated below level m: 2(n-m)/(n-1)."""
    check_count("sample size n", n, 2)
    check_count("level m", m, 1, n)
    return Fraction(2 * (n - m), n - 1)


def var_hat(n: int, m: int) -> Fraction:
    """Variance of the truncated length, exact for every n >= 3."""
    check_count("sample size n", n, 3)
    check_count("level m", m, 1, n)
    term1 = 8 * (harmonic(n - 1) - harmonic(m - 1)) * Fraction(n + 2 * m - 2, (n - 1) * (n - 2))
    term2 = Fraction(4 * (n - m) * (4 * n + m - 5), (n - 1) ** 2 * (n - 2))
    return term1 - term2


def rho_cdf(n: int, k: int) -> Fraction:
    """P(rho < k) = k(k-1)/(n(n-1)): law of a random leaf's merge level."""
    check_count("sample size n", n, 2)
    check_count("level k", k, 1, n)
    return Fraction(k * (k - 1), n * (n - 1))


# ------------------------------------------------------ scaled point counts

def _block_count_factorial_moment(n: int, t) -> np.ndarray:
    """E(N_t (N_t - 1)) for the block-counting process from n blocks; t a float or an array.

    From Tavare's (1984) law of N_t, summed in the all-positive form
    sum_{i=2..n} exp(-i(i-1)t/2) (2i-1) i(i-1) prod_{q<i} (n-q)/(n+q),
    so no cancellation occurs at large n.
    """
    # terms past i(i-1)t/2 ~ 750 underflow to zero at the least t, and so at every t
    top = min(n, int(math.sqrt(1500.0 / np.min(t))) + 2)
    i = np.arange(2, top + 1, dtype=float)
    q = np.arange(top, dtype=float)
    ratio = np.cumprod((n - q) / (n + q))[1:]
    terms = np.exp(np.multiply.outer(t, -i * (i - 1)) / 2.0) * (2 * i - 1) * i * (i - 1) * ratio
    return np.sum(terms, axis=-1)


def e_eta_count(n: int, a: float, b: float = math.inf) -> float:
    """Exact finite-n mean count of scaled lengths sqrt(n) T_rho(i) in [a, b).

    E = sum_k E(X_k) P(a <= sqrt(n) T_k < b) with P(T_k <= t) = P(N_t <= k),
    which sums to (M(a/sqrt(n)) - M(b/sqrt(n)))/(n-1), M(t) = E(N_t(N_t-1)).
    Tends to poisson_mean(a, b) as n grows.
    """
    check_count("sample size n", n, 2)
    check_interval(a, b)
    root = math.sqrt(n)
    return float(_block_count_factorial_moment(n, a / root)
                 - _block_count_factorial_moment(n, b / root)) / (n - 1)


# ------------------------------------------------------------- limit laws

def poisson_mean(a: float, b: float = math.inf) -> float:
    """Limit mean count of scaled lengths in [a, b): 4(a^-2 - b^-2)."""
    check_interval(a, b)
    tail = 0.0 if math.isinf(b) else b ** -2
    return 4.0 * (a ** -2 - tail)


def r_limit_cdf(x: float) -> float:
    """Limit CDF of n R_n: 1 - 4/(x+2)^2 (density 8(x+2)^-3)."""
    if x < 0:
        raise ValueError("support is x >= 0")
    return 1.0 - 4.0 / (x + 2.0) ** 2


def tau_limit_tail(t: float) -> float:
    """Limit of P(tau_n / sqrt(n) >= t): exp(-t^2)."""
    if t < 0:
        raise ValueError("support is t >= 0")
    return math.exp(-t * t)


def gp_cov(s: float, t: float) -> float:
    """Limit covariance of the centered scaled chain: s^2 (1-t)^2, s <= t."""
    if not (0 <= s <= 1 and 0 <= t <= 1):
        raise ValueError("need arguments in [0, 1]")
    s, t = min(s, t), max(s, t)
    return s * s * (1.0 - t) ** 2
