import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import master_stream
from kingman import coalescent, indexing, moments, urn

# quarters, as the verify criteria use, and thirds, whose powers can land a hair off
# an integer in floating point (64 ** (1 / 3) = 3.9999999999999996)
EXPONENTS = sorted({Fraction(i, q) for q in (3, 4) for i in range(q + 1)})


def test_levels_are_those_between_the_powers():
    # n^(p/q) <= k exactly when n^p <= k^q: integers, so no rounding decides a level
    pairs = [(a, b) for a in EXPONENTS for b in EXPONENTS if a < b]
    for n in [*range(2, 201), 10_000]:  # 10^4: every quarter power is an integer
        at_least = {e: [n ** e.numerator <= k ** e.denominator for k in range(n + 1)]
                    for e in EXPONENTS}
        below = {}  # floor_pow: the levels k >= 1 with k <= n^e number floor(n^e)
        for e in EXPONENTS:
            below[e] = sum(k ** e.denominator <= n ** e.numerator for k in range(1, n + 1))
            assert indexing.floor_pow(n, float(e)) == below[e], (n, e)
        for a, b in pairs:
            levels = [k for k in range(n + 1) if at_least[a][k] and not at_least[b][k]]
            lo, hi = indexing.window(n, float(a), float(b))
            assert 1 <= lo <= hi <= n and levels == list(range(lo, hi)), (n, a, b)
            # L_hat's cuts, at n = 64 and (1/3, 1) too: 64 ** (1 / 3) snaps to 4
            assert indexing.cuts(n, float(a), float(b)) == (below[a], below[b]), (n, a, b)


def test_level_rules_refuse_what_they_cannot_place():
    for alpha in (1000.0, math.inf, math.nan, -1.0, 1.0 + 1e-12):
        for rule in (indexing.ceil_pow, indexing.floor_pow):
            with pytest.raises(ValueError, match="exponent"):
                rule(50, alpha)
    for alpha, beta in ((0.5, 0.5), (0.75, 0.25), (-0.25, 0.5), (0.5, 1.5), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="window exponents") as expect:
            indexing.check_window(alpha, beta)
        for rule in (indexing.window, indexing.cuts):  # check_window's refusal
            with pytest.raises(ValueError) as exc:
                rule(50, alpha, beta)
            assert str(exc.value) == str(expect.value), rule
    for a, b in ((0.0, 1.0), (-1.0, 1.0), (2.0, 2.0), (2.0, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="0 < a < b"):
            indexing.check_interval(a, b)
    indexing.check_interval(1.0, math.inf)


def test_check_count_takes_integers_in_range_alone():
    for value in (0, 5, np.int64(0), np.uint64(5), np.int8(3)):
        indexing.check_count("step k", value, 0, 5)
    indexing.check_count("seed", np.uint64(2 ** 64 - 1), 0, 2 ** 64 - 1)
    indexing.check_count("reps", 10 ** 30, 1)  # no upper end by default
    # a bool is refused though it compares as 0 or 1, and a float though it is whole
    for value in (True, False, np.bool_(True), 2.0, np.float64(2), Fraction(2), "2", None,
                  -1, 6, np.int64(-1), np.uint64(6)):
        with pytest.raises(ValueError) as exc:
            indexing.check_count("step k", value, 0, 5)
        assert str(exc.value) == f"step k must be an integer in [0, 5], got {value!r}"


def _rng():
    return master_stream(11)


# (function, parameter, the name its refusal gives, least, most, a call with the value
# in that parameter's place and every other argument valid at both ends)
INTEGER_ARGUMENTS = [
    (urn.UrnPath, "n", "sample size n", 2, math.inf, lambda v: urn.UrnPath(v, (0, 1, 0))),
    (urn.transition_probabilities, "n", "sample size n", 2, math.inf,
     lambda v: urn.transition_probabilities(v, 0, 0)),
    (urn.transition_probabilities, "k", "step k", 0, 3,
     lambda v: urn.transition_probabilities(5, v, 0)),
    (urn.transition_probabilities, "u", "state u", 0, 3,
     lambda v: urn.transition_probabilities(5, 2, v)),
    (urn.exact_path_law, "n", "sample size n", 2, urn.MAX_PATH_ENUM_N, urn.exact_path_law),
    (urn.box_scheme_exact_law, "n", "sample size n", 2, urn.MAX_BOX_ENUM_N,
     urn.box_scheme_exact_law),
    (urn.permutation_exact_law, "n", "sample size n", 2, urn.MAX_PERM_ENUM_N,
     urn.permutation_exact_law),
    (urn.exact_marginal, "n", "sample size n", 2, math.inf, urn.exact_marginal),
    (urn.exact_joint_marginal, "n", "sample size n", 2, math.inf,
     lambda v: urn.exact_joint_marginal(v, 0)),
    (urn.exact_joint_marginal, "k", "step k", 0, 6, lambda v: urn.exact_joint_marginal(6, v)),
    (urn.hypergeometric_pmf, "n", "sample size n", 2, math.inf,
     lambda v: urn.hypergeometric_pmf(v, 1, 0)),
    (urn.hypergeometric_pmf, "k", "level k", 1, 5, lambda v: urn.hypergeometric_pmf(6, v, 0)),
    (urn.hypergeometric_pmf, "r", "count r", 0, math.inf,
     lambda v: urn.hypergeometric_pmf(6, 2, v)),
    (urn.tau_exact_tail, "n", "sample size n", 2, math.inf, lambda v: urn.tau_exact_tail(v, 1)),
    (urn.tau_exact_tail, "k", "tail index k", 1, math.inf, lambda v: urn.tau_exact_tail(6, v)),
    (urn.tau_exact_law, "n", "sample size n", 2, math.inf, urn.tau_exact_law),
    (coalescent.CoalescentTimes, "n", "sample size n", 2, math.inf,
     lambda v: coalescent.CoalescentTimes(v, [math.inf, 1.0, 0.0])),
    (coalescent.MergeHistory, "n", "sample size n", 2, math.inf,
     lambda v: coalescent.MergeHistory(v, (0, 1, 0))),
    (coalescent.ScaledPointPattern, "n", "sample size n", 2, math.inf,
     lambda v: coalescent.ScaledPointPattern(v, [1.0, 2.0])),
    (coalescent.sample_waiting_times, "n", "sample size n", 2, math.inf,
     lambda v: coalescent.sample_waiting_times(v, _rng())),
    (moments.harmonic, "n", "harmonic index n", 0, math.inf, moments.harmonic),
    (moments.e_U, "n", "sample size n", 2, math.inf, lambda v: moments.e_U(v, 1)),
    (moments.e_U, "k", "index k", 0, 5, lambda v: moments.e_U(5, v)),
    (moments.cov_U, "n", "sample size n", 3, math.inf, lambda v: moments.cov_U(v, 1, 2)),
    (moments.cov_U, "k", "index k", 0, 5, lambda v: moments.cov_U(5, v, 2)),
    (moments.cov_U, "l", "index l", 0, 5, lambda v: moments.cov_U(5, 2, v)),
    (moments.e_X, "n", "sample size n", 2, math.inf, lambda v: moments.e_X(v, 1)),
    (moments.e_X, "k", "level k", 1, 4, lambda v: moments.e_X(5, v)),
    (moments.var_X, "n", "sample size n", 3, math.inf, lambda v: moments.var_X(v, 1)),
    (moments.var_X, "k", "level k", 1, 4, lambda v: moments.var_X(5, v)),
    (moments.cov_X, "n", "sample size n", 3, math.inf, lambda v: moments.cov_X(v, 1, 2)),
    (moments.cov_X, "k", "level k", 1, 4, lambda v: moments.cov_X(5, v, 2)),
    (moments.cov_X, "l", "level l", 1, 4, lambda v: moments.cov_X(5, 2, v)),
    (moments.e_T, "n", "sample size n", 1, math.inf, lambda v: moments.e_T(v, 1)),
    (moments.e_T, "k", "level k", 1, 5, lambda v: moments.e_T(5, v)),
    (moments.var_T, "n", "sample size n", 1, math.inf, lambda v: moments.var_T(v, 1)),
    (moments.var_T, "k", "level k", 1, 5, lambda v: moments.var_T(5, v)),
    (moments.e_L_window, "n", "sample size n", 2, math.inf,
     lambda v: moments.e_L_window(v, 0.0, 1.0)),
    (moments.var_L_window_asymptotic, "n", "sample size n", 2, math.inf,
     lambda v: moments.var_L_window_asymptotic(v, 0.0, 1.0)),
    (moments.cov_L_windows, "n", "sample size n", 3, math.inf,
     lambda v: moments.cov_L_windows(v, (0.0, 1.0), (0.0, 1.0))),
    (moments.var_L_window_exact, "n", "sample size n", 3, math.inf,
     lambda v: moments.var_L_window_exact(v, 0.0, 1.0)),
    (moments.fu_li_var, "n", "sample size n", 3, math.inf, moments.fu_li_var),
    (moments.e_hat, "n", "sample size n", 2, math.inf, lambda v: moments.e_hat(v, 1)),
    (moments.e_hat, "m", "level m", 1, 5, lambda v: moments.e_hat(5, v)),
    (moments.var_hat, "n", "sample size n", 3, math.inf, lambda v: moments.var_hat(v, 1)),
    (moments.var_hat, "m", "level m", 1, 5, lambda v: moments.var_hat(5, v)),
    (moments.rho_cdf, "n", "sample size n", 2, math.inf, lambda v: moments.rho_cdf(v, 1)),
    (moments.rho_cdf, "k", "level k", 1, 5, lambda v: moments.rho_cdf(5, v)),
    (moments.e_eta_count, "n", "sample size n", 2, math.inf,
     lambda v: moments.e_eta_count(v, 1.0, 2.0)),
]

# integer parameters the table leaves out: the chain's formulas and internal steps behind a
# checked caller, and the samplers whose returned path refuses n (see the test after the table's)
UNCHECKED = {(urn.states, "n"), (urn.states, "k"), (urn.pair_counts, "n"),
             (urn.pair_counts, "k"), (urn.step_law, "n"), (urn.step_law, "k"),
             (urn.sample_urn_path, "n"), (urn.sample_box_scheme, "n")}


def test_every_integer_argument_is_refused_by_the_one_rule():
    annotated = {(f, name) for module in (urn, coalescent, moments)
                 for f in vars(module).values()
                 if callable(f) and getattr(f, "__module__", None) == module.__name__
                 and not f.__name__.startswith("_")
                 for name, p in inspect.signature(f).parameters.items()
                 if p.annotation in ("int", int)}
    assert annotated <= {row[:2] for row in INTEGER_ARGUMENTS} | UNCHECKED
    for f, name, label, least, most, call in INTEGER_ARGUMENTS:
        for value in (least, most):  # each end is accepted
            if value != math.inf:
                call(value)
        refused = [least - 1, True, float(least), np.float64(least)]
        refused += [most + 1] if most != math.inf else []
        for value in refused:
            with pytest.raises(ValueError) as exc:
                call(value)
            want = f"{label} must be an integer in [{least}, {most}], got {value!r}"
            assert str(exc.value) == want, (f.__name__, name, value)


def test_samplers_leave_n_to_the_path_they_return():
    # n < 2 is refused by UrnPath before any draw
    for sampler in (urn.sample_urn_path, urn.sample_box_scheme):
        for n in (1, 0, -1, True):
            rng = _rng()
            state = repr(rng.bit_generator.state)  # Philox's holds arrays
            with pytest.raises(ValueError,
                               match=r"^sample size n must be an integer in \[2, inf\]"):
                sampler(n, rng)
            assert repr(rng.bit_generator.state) == state, (sampler.__name__, n)
