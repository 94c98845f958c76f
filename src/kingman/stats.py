"""Goodness-of-fit machinery: 1-D arrays of replicate values in, pass/fail reports out.

Each gate takes the sample as an array (one value per replicate, so
reps = len(values)) and the seed that drew it, which the report records.
All tests are deterministic given their sample (which is deterministic
given a seed), and every report serializes to one strict-JSON object.
scipy is imported inside ks_test and chi_square_gof, its only users, so that
simulate, hist, moments and the exact checks start without loading it.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

P_FLOOR = 0.001
MEAN_Z_MAX = 4.0
MIN_EXPECTED_CELL = 5.0


@dataclass(frozen=True)
class TestReport:
    name: str
    params: dict
    statistic: float
    p_or_distance: float
    threshold: float
    passed: bool
    seed: int
    reps: int

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "statistic": _json_float(self.statistic),
            "p_or_distance": _json_float(self.p_or_distance),
            "threshold": _json_float(self.threshold),
            "pass": self.passed,
            "seed": self.seed,
            "reps": self.reps,
        }, allow_nan=False)


def _json_float(x: float):
    """x, or "inf", "-inf" or "nan" for a non-finite x: strict JSON has no such number."""
    return x if math.isfinite(x) else str(x)


def ks_statistic(values: np.ndarray, cdf: Callable[[float], float]) -> float:
    """One-sample KS distance sup |F_emp - F|."""
    x = np.sort(np.asarray(values, dtype=float))
    m = len(x)
    if m == 0:
        raise ValueError("empty sample")
    f = np.fromiter(map(cdf, x), dtype=float, count=m)
    i = np.arange(1, m + 1)
    return float(max(np.max(f - (i - 1) / m), np.max(i / m - f)))


def ks_test(values: np.ndarray, cdf: Callable[[float], float], *,
            name: str, seed: int, params: dict | None = None) -> TestReport:
    """KS test with an asymptotic p-value; passes when p >= P_FLOOR."""
    from scipy.special import kolmogorov

    reps = len(values)
    if reps < 100:
        raise ValueError("KS test requires at least 100 replicates")
    d = ks_statistic(values, cdf)
    p = float(kolmogorov(math.sqrt(reps) * d))
    return TestReport(name, dict(params or {}), d, p, P_FLOOR, p >= P_FLOOR, seed, reps)


def ks_distance_test(values: np.ndarray, cdf: Callable[[float], float], *,
                     name: str, seed: int, d_max: float,
                     params: dict | None = None) -> TestReport:
    """KS check against a limit law at a fixed distance tolerance."""
    d = ks_statistic(values, cdf)
    return TestReport(name, dict(params or {}), d, d, d_max, d <= d_max, seed, len(values))


def chi_square_gof(values: np.ndarray, expected: Mapping, *,
                   name: str, seed: int, params: dict | None = None) -> TestReport:
    """Pearson chi-square of integer outcomes against an exact law.

    ``expected`` maps integer outcomes to probabilities (Fractions or
    floats) summing to 1.  Cells are merged greedily from the high tail,
    then from the low tail, until every cell's expected mass is at least 5.
    """
    from scipy.special import gammaincc

    floats = np.asarray(values, dtype=float)
    values = floats.astype(int)
    if np.any(values != floats):
        raise ValueError("chi-square sample must be integer-valued")
    outcomes = sorted(expected)
    support = set(outcomes)
    if any(int(v) not in support for v in values):
        bad = next(int(v) for v in values if int(v) not in support)
        raise ValueError(f"observed outcome {bad} has zero expected probability")
    reps = len(values)
    obs = [int(np.count_nonzero(values == o)) for o in outcomes]
    exp = [float(expected[o]) * reps for o in outcomes]

    def merge_tail(obs, exp):
        while len(obs) > 1 and exp[-1] < MIN_EXPECTED_CELL:
            exp[-2] += exp[-1]
            obs[-2] += obs[-1]
            del exp[-1], obs[-1]
        return obs, exp

    obs, exp = merge_tail(obs, exp)
    obs, exp = [list(reversed(s)) for s in merge_tail(obs[::-1], exp[::-1])]
    if len(obs) < 2:
        raise ValueError("fewer than two cells remain after merging")
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    dof = len(obs) - 1
    p = float(gammaincc(dof / 2.0, stat / 2.0))
    all_params = dict(params or {})
    all_params["cells"] = len(obs)
    return TestReport(name, all_params, stat, p, P_FLOOR, p >= P_FLOOR, seed, reps)


def mean_test(values: np.ndarray, exact_mean, var, *,
              name: str, seed: int, params: dict | None = None) -> TestReport:
    """Four-standard-error gate on the sample mean, the standard error from var."""
    reps = len(values)
    if reps < 1000:
        raise ValueError("mean test requires at least 1000 replicates")
    mu = float(np.mean(values))
    se = math.sqrt(float(var) / reps)
    if se == 0.0:
        z = 0.0 if mu == float(exact_mean) else math.inf
    else:
        z = (mu - float(exact_mean)) / se
    return TestReport(name, dict(params or {}), mu, abs(z), MEAN_Z_MAX,
                      abs(z) <= MEAN_Z_MAX, seed, reps)


def variance_test(values: np.ndarray, exact_var, rel_tol: float, *,
                  name: str, seed: int, params: dict | None = None) -> TestReport:
    """Relative-tolerance gate on the sample variance."""
    if len(values) < 10_000:
        raise ValueError("variance test requires at least 10^4 replicates")
    v = float(np.var(values, ddof=1))
    target = float(exact_var)
    rel = abs(v - target) / target
    return TestReport(name, dict(params or {}), v, rel, rel_tol, rel <= rel_tol,
                      seed, len(values))


def independence_check(values_a: np.ndarray, values_b: np.ndarray, *,
                       name: str, seed: int, params: dict | None = None) -> TestReport:
    """Near-zero-correlation gate for paired samples."""
    reps = len(values_a)
    if reps != len(values_b) or reps == 0:
        raise ValueError("paired samples must be nonempty and of equal length")
    corr = float(np.corrcoef(values_a, values_b)[0, 1])
    limit = 4.0 / math.sqrt(reps) + 0.02
    return TestReport(name, dict(params or {}), corr, abs(corr), limit,
                      abs(corr) <= limit, seed, reps)


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
