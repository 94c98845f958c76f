"""Coalescent samplers and external-length functionals."""

import math

import numpy as np
import pytest

from conftest import checked_hat_length, master_stream
from kingman import coalescent, moments, urn
from scalar_reference import sample_labeled_history


def sample_pair(n, rng):
    path = urn.sample_urn_path(n, rng)
    times = coalescent.sample_waiting_times(n, rng)
    return times, coalescent.history_from_urn_path(path)


def test_waiting_times_shape():
    rng = master_stream(1)
    times = coalescent.sample_waiting_times(10, rng)
    t = times.t
    assert math.isinf(t[0]) and t[10] == 0.0
    assert all(t[k - 1] > t[k] for k in range(1, 11))


def test_waiting_time_moments():
    n, reps = 10, 20_000
    rng = master_stream(2)
    samples = np.array([coalescent.sample_waiting_times(n, rng).t[1:n]
                        for _ in range(reps)])
    for k in range(1, n):
        mu = float(moments.e_T(n, k))
        sd = math.sqrt(float(moments.var_T(n, k)) / reps)
        assert abs(samples[:, k - 1].mean() - mu) < 4.5 * sd


def test_history_from_urn_path():
    hist = coalescent.history_from_urn_path(urn.UrnPath(4, (0, 1, 2, 1, 0)))
    assert hist.v == (0, 1, 2, 1, 0)[::-1] or hist.v == (0, 1, 2, 1, 0)
    assert sum(hist.x) == 4
    assert all(x in (0, 1, 2) for x in hist.x)


def test_merge_history_refuses_a_malformed_v():
    assert coalescent.MergeHistory(4, (0, 1, 2, 1, 0)).x == (0, 2, 2)
    for n, v, why in ((1, (0, 0), "sample size n must be an integer in"),
                      (3, (0, 1, 0), "n\\+1 entries"), (3, (0, 1, 1, 0, 0), "n\\+1 entries"),
                      (3, (0, 1, 1, 1), "V_n = 0"),  # V_n = 1
                      (3, (0, 2, 1, 0), "V_1 = 1"),  # V_1 = 2, though X = (2, 2)
                      (4, (0, 1, 3, 1, 0), "merge counts"),  # V rises by 2: X_1 = -1
                      (5, (0, 1, 2, 3, 1, 0), "merge counts")):  # V falls by 2: X_3 = 3
        with pytest.raises(ValueError, match=why):
            coalescent.MergeHistory(n, v)


def test_merge_history_counts_sum():
    rng = master_stream(3)
    for n in (2, 3, 17):
        hist = coalescent.history_from_urn_path(urn.sample_urn_path(n, rng))
        assert sum(hist.x) == n
        assert hist.v[1] == n - (n - 1)  # V_1 counts singletons after n-1 merges


def test_labeled_history_matches_chain_law():
    # every pair the partition sampler can merge, enumerated: its merge counts have
    # exactly the urn chain's law
    for n in range(2, 7):
        want = {}
        for path, p in urn.exact_path_law(n).items():
            x = coalescent.history_from_urn_path(urn.UrnPath(n, path)).x
            want[x] = want.get(x, 0) + p
        got = urn.enumerated_law(
            lambda rng: sample_labeled_history(n, rng).merge_counts())
        assert got == want, n


def test_labeled_history_each_leaf_law():
    # each leaf's merge level has exactly the law of moments.rho_cdf
    for n in range(2, 7):
        levels = {k: moments.rho_cdf(n, k + 1) - moments.rho_cdf(n, k) for k in range(1, n)}
        for leaf in range(n):
            got = urn.enumerated_law(
                lambda rng: sample_labeled_history(n, rng).rho[leaf])
            assert got == levels, (n, leaf)


def test_total_equals_full_window():
    rng = master_stream(7)
    for _ in range(50):
        times, hist = sample_pair(12, rng)
        total = coalescent.total_external_length(times, hist)
        window = coalescent.window_external_length(times, hist, 0.0, 1.0)
        assert window == pytest.approx(total, rel=1e-12)


def test_window_is_partial_sum():
    rng = master_stream(8)
    times, hist = sample_pair(100, rng)
    lo = coalescent.window_external_length(times, hist, 0.0, 0.5)
    hi = coalescent.window_external_length(times, hist, 0.5, 1.0)
    total = coalescent.total_external_length(times, hist)
    assert lo + hi == pytest.approx(total, rel=1e-12)


def test_hat_length_two_forms_agree_and_bound():
    rng = master_stream(9)
    for _ in range(200):
        times, hist = sample_pair(30, rng)
        hat = checked_hat_length(times, hist, 0.5, 1.0)
        total = coalescent.total_external_length(times, hist)
        assert 0.0 <= hat <= total + 1e-12


def test_hat_full_range_is_total():
    # truncating at T_1 and T_n clips nothing
    rng = master_stream(10)
    times, hist = sample_pair(25, rng)
    hat = checked_hat_length(times, hist, 0.0, 1.0)
    assert hat == pytest.approx(coalescent.total_external_length(times, hist),
                                rel=1e-12)


def test_scaled_point_pattern_counts():
    rng = master_stream(11)
    n = 40
    times, hist = sample_pair(n, rng)
    pattern = coalescent.scaled_point_pattern(times, hist)
    assert pattern.count(0.0) == n
    a = float(np.median(pattern.points))
    # counting below and above any threshold partitions the n points
    assert pattern.count(0.0, a) + pattern.count(a) == n


def test_mismatched_sizes_rejected():
    rng = master_stream(13)
    times = coalescent.sample_waiting_times(5, rng)
    hist = coalescent.history_from_urn_path(urn.sample_urn_path(6, rng))
    with pytest.raises(ValueError):
        coalescent.total_external_length(times, hist)

