"""Scalar references for outputs of ``kingman.batch.simulate``.

A sample of replicates of every in-process simulate call is re-derived with
the package's scalar samplers on the same ``rng.replicate_stream``:
``urn.sample_urn_path`` draws the n-1 urn uniforms and
``coalescent.sample_waiting_times`` the n-1 time uniforms after them, which
is the per-replicate draw order the batch engine documents.  A leaf's merge
level ``rho`` is recomputed here by exact inversion of
P(rho <= k) = k(k+1) / (n(n-1)).
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

# Integer-valued outputs must match bit for bit.  Times may differ in the
# last digits: numpy's log1p is not math.log1p, and numpy sums pairwise.
EXACT = {"rho", "tau", "urn_snapshot", "eta_count"}
REL_TOL = 1e-12


def rho_by_inversion(n: int, w: float) -> int:
    wf, den = Fraction(w), n * (n - 1)
    return 1 + sum(1 for k in range(1, n) if Fraction(k * (k + 1), den) <= wf)


def reference_row(km, statistic: str, n: int, params: dict, seed: int,
                  stream_id: int, rep: int) -> list[float]:
    g = km.rng.replicate_stream(seed, rep, stream_id)
    if statistic == "rho":
        return [rho_by_inversion(n, g.random())]
    if statistic == "R":
        rho = rho_by_inversion(n, g.random())
        return [km.coalescent.sample_waiting_times(n, g).t[rho]]
    path = km.urn.sample_urn_path(n, g)
    if statistic == "tau":
        return [km.urn.tau(path)]
    if statistic == "urn_snapshot":
        return [path.u[k] for k in params["steps"]]
    times = km.coalescent.sample_waiting_times(n, g)
    hist = km.coalescent.history_from_urn_path(path)
    if statistic == "L":
        return [km.coalescent.total_external_length(times, hist)]
    if statistic == "window_pair":
        return [km.coalescent.window_external_length(times, hist, *params[w])
                for w in ("window1", "window2")]
    if statistic == "eta_count":
        return [km.coalescent.scaled_point_pattern(times, hist).count(params["a"], params["b"])]
    raise ValueError(f"no scalar reference for {statistic!r}")


def sample_replicates(reps: int, k: int, seed: int, stream_id: int) -> list[int]:
    """The first, the last and k-2 replicates drawn from the seed."""
    rnd = random.Random(f"{seed}:{stream_id}")
    inner = rnd.sample(range(1, reps - 1), min(k - 2, max(reps - 2, 0)))
    return sorted({0, reps - 1, *inner})


def mismatches(km, statistic: str, n: int, params: dict, seed: int, stream_id: int,
               out: np.ndarray, k: int) -> list[str]:
    """Descriptions of sampled replicates whose output differs from the reference."""
    rows = out.reshape(len(out), -1)
    bad = []
    for rep in sample_replicates(len(out), k, seed, stream_id):
        want = np.asarray(reference_row(km, statistic, n, params, seed, stream_id, rep), float)
        got = rows[rep]
        if statistic in EXACT:
            ok = got.shape == want.shape and np.array_equal(got, want)
        else:
            ok = got.shape == want.shape and np.allclose(got, want, rtol=REL_TOL, atol=REL_TOL)
        if not ok:
            bad.append(f"{statistic} n={n} stream={stream_id} rep={rep}: {got.tolist()} != {want.tolist()}")
    return bad
