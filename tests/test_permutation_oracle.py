"""The batch samplers against an independent oracle: the paper's permutation
representation U_k = #{m : rho_m < k < sigma_m} + 1, for two uniform
permutations rho and sigma of 1..n-1 (urn.path_from_permutations, here over
many replicates at once), with waiting times from numpy's default generator.

The oracle shares none of the batch engine's thresholds, draw order or key
layout, so a fault common to the batch and scalar samplers shows here.  It
is checked against exact laws by chi-square, then compared with batch
samples by two-sample tests.  Each test prints its p-values.
"""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from kingman import batch, stats, urn
from kingman.indexing import window

SEED = 7
REPS = 10_000
ROWS = 1000  # replicates made at once: their arrays stay a few MiB


def permutation_paths(n, reps, rng):
    """U_0..U_n per replicate, one row each, from the permutation representation.

    A column's argsort of uniforms is a uniform permutation.  Pair m adds 1 to
    the levels rho_m < k < sigma_m: +1 at rho_m + 1 and -1 at sigma_m in a
    difference array, where rho_m < sigma_m, and a cumsum counts them.
    """
    paths = np.zeros((reps, n + 1), dtype=np.int64)
    for first in range(0, reps, ROWS):
        rows = min(ROWS, reps - first)
        rho, sigma = (np.argsort(rng.random((rows, n - 1)), axis=1) + 1 for _ in range(2))
        inside = rho < sigma
        cells = np.arange(rows)[:, None] * (n + 1)
        diff = (np.bincount((cells + rho + 1)[inside], minlength=rows * (n + 1))
                - np.bincount((cells + sigma)[inside], minlength=rows * (n + 1)))
        paths[first:first + rows, 1:n] = np.cumsum(diff.reshape(rows, n + 1), axis=1)[:, 1:n] + 1
    return paths


def test_permutation_paths_match_the_scalar_representation():
    for n in (2, 3, 7, 20):
        got = permutation_paths(n, 50, np.random.default_rng(n))
        rng = np.random.default_rng(n)  # the same uniforms, one pair at a time
        rho, sigma = (np.argsort(rng.random((50, n - 1)), axis=1) + 1 for _ in range(2))
        for row, r, s in zip(got, rho, sigma):
            pair = urn.PermutationPair(tuple(r.tolist()), tuple(s.tolist()))
            assert row.tolist() == list(urn.path_from_permutations(pair).u), n


def taus(paths):
    """max{k >= 1 : U_(n-k) = k} per row, as urn.tau reads a path."""
    n = paths.shape[1] - 1
    ks = np.arange(n - 1, 0, -1)  # k for the columns U_1..U_(n-1)
    on_line = paths[:, 1:n] == ks
    return ks[np.argmax(on_line, axis=1)]  # the first column on the line has the largest k


def window_lengths(paths, windows, rng):
    """sum_k T_k X_k over each window's levels, a column each, X_k = 1 + V_k - V_(k+1),
    V_k = U_(n-k), with T_k = sum_(i>k) W_i and W_i exponential of rate i(i-1)/2."""
    reps, n = paths.shape[0], paths.shape[1] - 1
    levels = np.arange(n, 1, -1)  # W_n first
    waits = rng.exponential(2.0 / (levels * (levels - 1.0)), size=(reps, n - 1))
    t = np.zeros((reps, n + 1))
    t[:, n - 1:0:-1] = np.cumsum(waits, axis=1)  # column k holds T_k, T_n = 0
    ks = np.arange(1, n)
    terms = t[:, ks] * (1 + paths[:, n - ks] - paths[:, n - ks - 1])  # T_k X_k in column k - 1
    return np.stack([terms[:, lo - 1:hi - 1].sum(axis=1)
                     for lo, hi in (window(n, *w) for w in windows)], axis=1)


def homogeneity_p(a, b, law):
    """Two-sample chi-square p of integer samples, on cells of at least 2% mass by law."""
    edges, mass = [], 0.0
    for k in sorted(law):
        mass += float(law[k])
        if mass >= 0.02:
            edges.append(k)
            mass = 0.0
    cells = np.searchsorted(edges, np.concatenate([a, b]))  # the last cell takes the tail
    table = np.array([np.bincount(cells[:len(a)], minlength=len(edges) + 1),
                      np.bincount(cells[len(a):], minlength=len(edges) + 1)])
    return scipy_stats.chi2_contingency(table[:, table.sum(axis=0) > 0])[1]


@pytest.fixture(scope="module")
def paths_1000():
    return permutation_paths(1000, REPS, np.random.default_rng(SEED))


def test_oracle_meets_the_exact_laws(paths_1000):
    n, k = 1000, 333
    law = urn.tau_exact_law(n)
    tau = stats.chi_square_gof(taus(paths_1000), law, name="oracle_tau", seed=SEED)
    u_k = stats.chi_square_gof(paths_1000[:, k] - 1,
                               {r: urn.hypergeometric_pmf(n, k, r) for r in range(k)},
                               name="oracle_U_k", seed=SEED)
    print(f"oracle n={n}: tau chi-square p={tau.p_or_distance:.3g}, "
          f"U_{k} chi-square p={u_k.p_or_distance:.3g}")
    assert tau.passed and u_k.passed


def test_batch_tau_meets_the_oracle(paths_1000):
    n = 1000
    sample = batch.simulate("tau", n, REPS, SEED, stream_id=40)
    p = homogeneity_p(sample.astype(np.int64), taus(paths_1000), urn.tau_exact_law(n))
    print(f"tau n={n}: batch against oracle, two-sample chi-square p={p:.3g}")
    assert p >= stats.P_FLOOR


def test_batch_urn_snapshot_meets_the_oracle(paths_1000):
    n, steps = 1000, [250, 500, 750]
    sample = batch.simulate("urn_snapshot", n, REPS, SEED, stream_id=42, steps=steps)
    for column, k in zip(sample.T, steps):
        law = {u: urn.hypergeometric_pmf(n, k, u - 1) for u in urn.states(n, k)}
        p = homogeneity_p(column, paths_1000[:, k], law)
        print(f"U_{k} n={n}: batch urn_snapshot against oracle, two-sample chi-square p={p:.3g}")
        assert p >= stats.P_FLOOR, k


WINDOWS = ((0.5, 0.75), (0.75, 1.0))  # criterion 17's


@pytest.fixture(scope="module")
def windows_200():
    rng = np.random.default_rng(SEED + 1)
    return window_lengths(permutation_paths(200, REPS, rng), WINDOWS, rng)


def test_batch_window_length_meets_the_oracle(windows_200):
    n, (alpha, beta) = 200, WINDOWS[0]
    oracle = windows_200[:, 0]
    sample = batch.simulate("L_window", n, REPS, SEED, stream_id=41, alpha=alpha, beta=beta)
    p = scipy_stats.ks_2samp(sample, oracle).pvalue
    print(f"L_window n={n} ({alpha}, {beta}): batch against oracle, two-sample KS p={p:.3g}, "
          f"means {sample.mean():.5g} and {oracle.mean():.5g}")
    assert p >= stats.P_FLOOR


def test_batch_window_pair_meets_the_oracle(windows_200):
    sample = batch.simulate("window_pair", 200, REPS, SEED, stream_id=43, window1=WINDOWS[0],
                            window2=WINDOWS[1])
    ks = [scipy_stats.ks_2samp(a, b).pvalue for a, b in zip(sample.T, windows_200.T)]
    # Fisher's z: atanh of a sample correlation is near normal with variance 1/(reps - 3)
    z = [np.arctanh(np.corrcoef(pair, rowvar=False)[0, 1]) for pair in (sample, windows_200)]
    fisher = 2 * scipy_stats.norm.sf(abs(z[0] - z[1]) / np.sqrt(2 / (REPS - 3)))
    print(f"window_pair n=200 {WINDOWS}: batch against oracle, two-sample KS p={ks[0]:.3g} and "
          f"{ks[1]:.3g}; correlations {np.tanh(z[0]):.4f} and {np.tanh(z[1]):.4f}, two-sample "
          f"Fisher z p={fisher:.3g}")
    assert min(ks + [fisher]) >= stats.P_FLOOR
