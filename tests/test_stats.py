"""Goodness-of-fit machinery tested against scipy and hand-built samples."""

import json
import math

import numpy as np
import pytest

from conftest import master_stream
from kingman import stats, verify


def make_sample(values):
    return np.asarray(values, dtype=float)


def test_ks_statistic_hand_example():
    # uniform CDF, sample {0.1, 0.5, 0.9}: sup gap 7/30 just below/above 0.9
    d = stats.ks_statistic(np.array([0.1, 0.5, 0.9]), lambda x: x)
    assert d == pytest.approx(7 / 30)


def test_ks_test_accepts_true_law_rejects_shifted():
    rng = master_stream(77)
    u = rng.random(5000)
    good = stats.ks_test(make_sample(u), lambda x: min(max(x, 0.0), 1.0),
                         name="uniform", seed=0)
    assert good.passed and good.p_or_distance > 0.001
    bad = stats.ks_test(make_sample(u * 0.9), lambda x: min(max(x, 0.0), 1.0),
                        name="shrunk", seed=0)
    assert not bad.passed


def test_ks_test_requires_replicates():
    with pytest.raises(ValueError):
        stats.ks_test(make_sample(np.arange(10) / 10.0), lambda x: x, name="tiny", seed=0)


def test_ks_distance_test_threshold():
    sample = make_sample(np.linspace(0.001, 0.999, 1000))
    rep = stats.ks_distance_test(sample, lambda x: x, name="grid", seed=0, d_max=0.01)
    assert rep.passed
    rep2 = stats.ks_distance_test(sample, lambda x: x ** 2, name="wrong", seed=0, d_max=0.01)
    assert not rep2.passed


def test_chi_square_accepts_matched_counts():
    rng = master_stream(88)
    expected = {0: 0.25, 1: 0.5, 2: 0.25}
    vals = rng.choice([0, 1, 2], size=4000, p=[0.25, 0.5, 0.25])
    rep = stats.chi_square_gof(make_sample(vals), expected, name="tri", seed=0)
    assert rep.passed


def test_chi_square_rejects_wrong_law():
    rng = master_stream(89)
    vals = rng.choice([0, 1, 2], size=4000, p=[0.5, 0.3, 0.2])
    rep = stats.chi_square_gof(make_sample(vals), {0: 0.25, 1: 0.5, 2: 0.25},
                               name="tri", seed=0)
    assert not rep.passed


def test_chi_square_merges_thin_tails():
    # outcomes 5..9 each carry well under 5 expected observations
    expected = {k: 0.0001 for k in range(5, 10)}
    expected[0] = expected[1] = (1.0 - 5 * 0.0001) / 2
    rng = master_stream(90)
    vals = rng.choice(sorted(expected), size=2000, p=[expected[k] for k in sorted(expected)])
    rep = stats.chi_square_gof(make_sample(vals), expected, name="thin", seed=0)
    assert rep.params["cells"] == 2


def test_chi_square_rejects_unsupported_outcome():
    with pytest.raises(ValueError):
        stats.chi_square_gof(make_sample([0.0, 1.0, 7.0] * 400),
                             {0: 0.5, 1: 0.5}, name="bad", seed=0)


def test_chi_square_rejects_non_integer_sample():
    with pytest.raises(ValueError):
        stats.chi_square_gof(make_sample([0.5] * 1000), {0: 1.0}, name="frac", seed=0)


def test_mean_test_exact_se():
    rng = master_stream(91)
    vals = rng.normal(5.0, 2.0, 20_000)
    rep = stats.mean_test(make_sample(vals), 5.0, 4.0, name="normal_mean", seed=0)
    assert rep.passed
    rep_far = stats.mean_test(make_sample(vals), 5.5, 4.0, name="off_mean", seed=0)
    assert not rep_far.passed
    with pytest.raises(ValueError):
        stats.mean_test(make_sample(vals[:100]), 5.0, 4.0, name="small", seed=0)


def test_variance_test():
    rng = master_stream(92)
    vals = rng.normal(0.0, 3.0, 50_000)
    rep = stats.variance_test(make_sample(vals), 9.0, 0.05, name="var_ok", seed=0)
    assert rep.passed
    rep_bad = stats.variance_test(make_sample(vals), 18.0, 0.05, name="var_bad", seed=0)
    assert not rep_bad.passed
    with pytest.raises(ValueError):
        stats.variance_test(make_sample(vals[:500]), 9.0, 0.05, name="small", seed=0)


def test_independence_check():
    rng = master_stream(93)
    a = rng.normal(size=10_000)
    b = rng.normal(size=10_000)
    rep = stats.independence_check(make_sample(a), make_sample(b), name="ind", seed=0)
    assert rep.passed
    rep_dep = stats.independence_check(make_sample(a), make_sample(a + 0.5 * b),
                                       name="dep", seed=0)
    assert not rep_dep.passed


def test_gp_check_passes_at_scale(monkeypatch):
    gp = verify._gp_covariance(17, 1000, [(0.5, 0.5)], 4000)
    monkeypatch.setattr(verify, "CRITERIA", (gp,))
    [rep] = verify.run_suite("statistical", 99, 1)
    assert rep.passed


def test_normal_cdf():
    assert stats.normal_cdf(0.0) == 0.5
    assert stats.normal_cdf(1.96) == pytest.approx(0.975, abs=1e-3)
    assert stats.normal_cdf(-8.0) < 1e-14


def test_report_json_round_trip():
    rep = stats.TestReport("demo", {"n": 5, "alpha": 0.5}, 1.0, 0.25, 0.001,
                           True, 7, 100)
    obj = json.loads(rep.to_json())
    assert obj["name"] == "demo"
    assert obj["pass"] is True
    assert list(obj["params"]) == ["alpha", "n"]
    assert obj["seed"] == 7 and obj["reps"] == 100


def test_report_json_is_strict_for_non_finite_values():
    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    rep = stats.mean_test(np.full(1000, 3.0), 2.0, 0.0, name="m", seed=0)  # se 0: z = inf
    assert json.loads(rep.to_json(), parse_constant=refuse)["p_or_distance"] == "inf"
    rep = stats.TestReport("demo", {"n": 5}, math.nan, 0.1 + 0.2, -math.inf, False, 7, 100)
    line = rep.to_json()
    obj = json.loads(line, parse_constant=refuse)
    assert obj["statistic"] == "nan" and obj["threshold"] == "-inf"
    assert '"p_or_distance": 0.30000000000000004,' in line  # finite values keep their bytes


def test_independence_check_input_validation():
    with pytest.raises(ValueError):
        stats.independence_check(np.zeros(5), np.zeros(6), name="mismatch", seed=0)
    with pytest.raises(ValueError):
        stats.independence_check(np.zeros(0), np.zeros(0), name="empty", seed=0)
