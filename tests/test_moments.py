"""Closed-form moments against independent recomputations and identities."""

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kingman import batch, moments, urn
from kingman.indexing import window


def test_harmonic_values():
    assert moments.harmonic(1) == 1
    assert moments.harmonic(4) == Fraction(25, 12)
    assert moments.harmonic(10) == sum(Fraction(1, j) for j in range(1, 11))


def test_e_U_cov_U_values():
    assert moments.e_U(10, 3) == Fraction(3 * 7, 9)
    assert moments.e_U(10, 0) == 0
    assert moments.e_U(10, 10) == 0
    # covariance at k=l reduces to the variance of the marginal
    n, k = 9, 4
    marg = urn.exact_marginal(n)[k]
    e2 = sum(Fraction(u * u) * p for u, p in marg.items())
    assert moments.cov_U(n, k, k) == e2 - marg.mean() ** 2


@given(st.integers(4, 40), st.data())
def test_cov_U_symmetric(n, data):
    k = data.draw(st.integers(1, n - 1))
    l = data.draw(st.integers(1, n - 1))
    assert moments.cov_U(n, k, l) == moments.cov_U(n, l, k)


@given(st.integers(3, 80))
def test_merge_counts_sum_to_n(n):
    # sum_k E(X_k) counts every leaf exactly once
    assert sum(moments.e_X(n, k) for k in range(1, n)) == n


@given(st.integers(3, 60))
def test_total_length_mean_is_two(n):
    total = sum(moments.e_T(n, k) * moments.e_X(n, k) for k in range(1, n))
    assert total == 2


@given(st.integers(4, 40), st.data())
def test_cov_X_symmetric_and_negative(n, data):
    k = data.draw(st.integers(1, n - 2))
    l = data.draw(st.integers(k + 1, n - 1))
    assert moments.cov_X(n, k, l) == moments.cov_X(n, l, k)
    assert moments.cov_X(n, k, l) <= 0  # zero only at l = n-1
    if l < n - 1:
        assert moments.cov_X(n, k, l) < 0


def test_var_X_from_enumeration():
    n = 8
    for k in range(1, n):
        # X_k = 1 + U_(n-k) - U_(n-k-1); its law follows from the joint DP
        joint = urn.exact_joint_marginal(n, n - k - 1)[1]
        e1 = sum((1 + b - a) * p for (a, b), p in joint.items())
        e2 = sum((1 + b - a) ** 2 * p for (a, b), p in joint.items())
        assert e1 == moments.e_X(n, k)
        assert e2 - e1 * e1 == moments.var_X(n, k)


def test_var_T_direct_sum():
    n = 30
    for k in (1, 7, 29):
        direct = sum(Fraction(4, (j - 1) ** 2 * j ** 2) for j in range(k + 1, n + 1))
        assert moments.var_T(n, k) == direct


def test_fu_li_var_small_values():
    # n=3: (24 h_3 - 48 + 8) / 2 = (44 - 40) / 2 = 2
    assert moments.fu_li_var(3) == 2
    # n=4: (32 h_4 - 64 + 8) / 6 = 16/9
    assert moments.fu_li_var(4) == Fraction(16, 9)
    # leading term (8 h_n - 16) / n dominates at moderate n
    n = 5000
    h = float(moments.harmonic(n))
    assert float(moments.fu_li_var(n)) == pytest.approx((8 * h - 16) / n, rel=0.01)


def test_truncation_endpoints_recover_total_length():
    for n in (3, 10, 57):
        assert moments.e_hat(n, 1) == 2
        assert moments.var_hat(n, 1) == moments.fu_li_var(n)
        assert moments.e_hat(n, n) == 0


def test_full_window_is_total_length():
    for n in (10, 50, 200):
        assert moments.e_L_window(n, 0.0, 1.0) == 2
        assert moments.var_L_window_exact(n, 0.0, 1.0) == pytest.approx(
            float(moments.fu_li_var(n)), rel=1e-9)


def test_window_mean_direct_sum():
    n, alpha, beta = 100, 0.25, 0.75
    direct = sum(moments.e_T(n, k) * moments.e_X(n, k) for k in range(*window(n, alpha, beta)))
    assert moments.e_L_window(n, alpha, beta) == direct


def test_window_variance_asymptotic_order():
    # exact variance approaches 8 (beta - alpha) log(n) / n from below
    n = 5000
    exact = moments.var_L_window_exact(n, 0.2, 0.8)
    asym = moments.var_L_window_asymptotic(n, 0.2, 0.8)
    assert asym == pytest.approx(8 * 0.6 * math.log(n) / n)
    assert exact == pytest.approx(asym, rel=0.25)
    # the relative gap shrinks as n grows
    gap = lambda m: abs(moments.var_L_window_exact(m, 0.2, 0.8)
                        / moments.var_L_window_asymptotic(m, 0.2, 0.8) - 1)
    assert gap(5000) < gap(500)


def _window_cov_reference(n, w1, w2, e_xx):
    """Exact Cov(L_w1, L_w2) from E(X_k X_l) and the time moments."""
    total = Fraction(0)
    for k in range(*window(n, *w1)):
        for l in range(*window(n, *w2)):
            c_x = e_xx(k, l) - moments.e_X(n, k) * moments.e_X(n, l)
            total += moments.var_T(n, max(k, l)) * e_xx(k, l)
            total += moments.e_T(n, k) * moments.e_T(n, l) * c_x
    return total


WINDOWS = [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.3, 0.8)]


def test_cov_L_windows_diagonal_and_symmetry():
    for n, w in itertools.product((3, 17, 200), WINDOWS):
        assert moments.cov_L_windows(n, w, w) == moments.var_L_window_exact(n, *w)
    for w1, w2 in itertools.combinations(WINDOWS, 2):
        assert moments.cov_L_windows(200, w1, w2) == pytest.approx(
            moments.cov_L_windows(200, w2, w1), rel=1e-12)


def test_cov_L_windows_matches_path_enumeration():
    # E(X_k X_l) enumerated over whole paths, X_k = 1 + U_(n-k) - U_(n-k-1)
    for n in range(3, urn.MAX_PATH_ENUM_N + 1):
        law = urn.exact_path_law(n)

        def e_xx(k, l):
            return sum(((1 + u[n - k] - u[n - k - 1]) * (1 + u[n - l] - u[n - l - 1]) * p
                        for u, p in law.items()), Fraction(0))

        for w1, w2 in itertools.product(WINDOWS, repeat=2):
            exact = _window_cov_reference(n, w1, w2, e_xx)
            assert moments.cov_L_windows(n, w1, w2) == pytest.approx(
                float(exact), rel=1e-12, abs=1e-15), (n, w1, w2)


def test_cov_L_windows_matches_rational_closed_forms():
    n = 40

    def e_xx(k, l):
        if k == l:
            return moments.var_X(n, k) + moments.e_X(n, k) ** 2
        return moments.cov_X(n, k, l) + moments.e_X(n, k) * moments.e_X(n, l)

    for w1, w2 in ((WINDOWS[1], WINDOWS[2]), (WINDOWS[3], WINDOWS[3])):
        exact = _window_cov_reference(n, w1, w2, e_xx)
        assert moments.cov_L_windows(n, w1, w2) == pytest.approx(float(exact), rel=1e-12)


def _tavare_eta_mean(n, a, b, prec=60):
    """sum_k E(X_k) P(a <= sqrt(n) T_k < b) from the alternating series for N_t.

    P(N_t = j) = sum_{i=j..n} exp(-i(i-1)t/2) (2i-1) (-1)^(i-j) j_(i-1) n_[i]
                 / (j! (i-j)! n_(i)), with rising j_(i-1), n_(i) and falling n_[i].
    """
    f = math.factorial
    with localcontext() as ctx:
        ctx.prec = prec
        root = Decimal(n).sqrt()

        def p_block_count(j, t):
            total = Decimal(0)
            for i in range(j, n + 1):
                coef = Fraction((2 * i - 1) * (-1) ** (i - j) * f(j + i - 2) * f(n) * f(n - 1),
                                f(j - 1) * f(n - i) * f(j) * f(i - j) * f(n + i - 1))
                rho = (-Decimal(i * (i - 1)) * t / 2).exp()
                total += rho * Decimal(coef.numerator) / Decimal(coef.denominator)
            return total

        mean = Decimal(0)
        for t, sign in ((Decimal(b) / root, 1), (Decimal(a) / root, -1)):
            pmf = [p_block_count(j, t) for j in range(1, n + 1)]
            # P(T_k <= t) = P(N_t <= k)
            for k in range(1, n):
                mean += sign * Decimal(2 * k) / (n - 1) * sum(pmf[:k])
        return float(mean)


def test_e_eta_count_matches_alternating_series():
    for n in (2, 3, 5, 12, 30):
        for a, b in ((1.0, 2.0), (0.5, 3.0), (0.25, 0.75)):
            assert moments.e_eta_count(n, a, b) == pytest.approx(
                _tavare_eta_mean(n, a, b), rel=1e-12), (n, a, b)


def test_e_eta_count_two_leaves():
    # one level, X_1 = 2, T_1 ~ Exp(1)
    a, b = 1.0, 2.0
    expected = 2 * (math.exp(-a / math.sqrt(2)) - math.exp(-b / math.sqrt(2)))
    assert moments.e_eta_count(2, a, b) == pytest.approx(expected, rel=1e-14)


def test_e_eta_count_approaches_poisson_mean():
    for a, b in ((1.0, 2.0), (0.5, 3.0), (2.0, math.inf)):
        limit = moments.poisson_mean(a, b)
        gaps = [limit - moments.e_eta_count(10 ** e, a, b) for e in range(3, 9)]
        # approached from below, at rate about n^(-1/2)
        assert all(g > 0 for g in gaps), (a, b, gaps)
        assert all(0.25 < later / earlier < 0.4 for earlier, later in zip(gaps, gaps[1:])), (a, b, gaps)
    assert moments.e_eta_count(10 ** 4, 1.0, 2.0) == pytest.approx(2.86467, abs=1e-5)


def test_e_eta_count_matches_sampler():
    n, reps = 100, 20_000
    counts = batch.simulate("eta_count", n, reps, seed=11, stream_id=3, a=1.0, b=2.0)
    exact = moments.e_eta_count(n, 1.0, 2.0)
    se = float(np.std(counts, ddof=1)) / math.sqrt(reps)
    assert abs(float(np.mean(counts)) - exact) < 4 * se
    # the limit value 3 is far outside the sampler's reach at this n
    assert abs(float(np.mean(counts)) - moments.poisson_mean(1.0, 2.0)) > 20 * se


def test_rho_cdf():
    n = 12
    assert moments.rho_cdf(n, 1) == 0
    assert moments.rho_cdf(n, n) == 1
    diffs = [moments.rho_cdf(n, k + 1) - moments.rho_cdf(n, k) for k in range(1, n)]
    assert sum(diffs) == 1
    assert diffs[0] == Fraction(2, n * (n - 1))


def gp_mean(t):
    """Limit of E(U_(nt))/n: t(1-t)."""
    return t * (1.0 - t)


def test_limit_laws():
    assert moments.poisson_mean(1.0, 2.0) == pytest.approx(3.0)
    assert moments.poisson_mean(2.0) == pytest.approx(1.0)
    assert moments.r_limit_cdf(0.0) == 0.0
    assert moments.r_limit_cdf(1e9) == pytest.approx(1.0)
    assert moments.tau_limit_tail(0.0) == 1.0
    assert float(moments.e_U(10_000, 2500)) / 10_000 == pytest.approx(gp_mean(0.25), rel=1e-3)
    assert moments.gp_cov(0.25, 0.75) == moments.gp_cov(0.75, 0.25)
    assert moments.gp_cov(0.5, 0.5) == pytest.approx(0.0625)


def test_argument_validation():
    with pytest.raises(ValueError):
        moments.poisson_mean(2.0, 1.0)
    with pytest.raises(ValueError):
        moments.r_limit_cdf(-1.0)
    with pytest.raises(ValueError):
        moments.rho_cdf(5, 6)
    with pytest.raises(ValueError):
        moments.var_hat(5, 6)
    for n, a, b in ((1, 1.0, 2.0), (10, 0.0, 1.0), (10, 2.0, 1.0), (10, 1.0, 1.0)):
        with pytest.raises(ValueError):
            moments.e_eta_count(n, a, b)
    with pytest.raises(ValueError):
        moments.cov_L_windows(2, (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        moments.cov_L_windows(10, (0.5, 0.25), (0.0, 1.0))
