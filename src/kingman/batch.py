"""Vectorized, reproducible Monte Carlo over replicates.

Replicate r draws from its own counter-based stream (see rng.py), and
replicates are processed in fixed-size chunks whose boundaries do not
depend on the thread count, so any statistic simulated here is bitwise
reproducible for a given (seed, n, reps) no matter how work is scheduled.
A chunk re-keys one Philox per replicate: the bits of rng.replicate_stream.

With threads > 1, chunks run on forked worker processes, at most one per
usable CPU: the chunk kernel is many small numpy steps that hold the
interpreter lock, so threads would only take turns.  A worker receives a
chunk's (seed, stream_id, start, count) and returns its values, which are
concatenated in chunk order.

The per-replicate draw order matches the scalar samplers in urn.py and
coalescent.py: first the n-1 urn-transition uniforms, then (if the
statistic needs times) the n-1 waiting-time uniforms in descending k.

Every statistic is one entry of STATISTICS: its keywords and their check,
what each replicate draws, and the reduction of those draws to its value.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .indexing import ceil_pow, check_window, floor_pow
from .rng import replicate_key
from .urn import _float_thresholds

CHUNK = 512


def _uniform_rows(seed: int, stream_id: int, start: int, count: int, draws: int) -> np.ndarray:
    """Row i is replicate_stream(seed, start + i, stream_id).random(draws), bit for bit."""
    bit_gen = np.random.Philox(key=0)
    gen = np.random.Generator(bit_gen)
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = np.empty((count, draws))
    for i in range(count):
        fresh["state"]["key"] = replicate_key(seed, start + i, stream_id)
        bit_gen.state = fresh  # new key, zero counter, empty buffer
        gen.random(out=out[i])
    return out


def _urn_paths(n: int, w: np.ndarray) -> np.ndarray:
    """Step the chain for each row of uniforms w (count, n-1).

    Returns int32 trajectories of shape (count, n+1).  The state is int64 so
    that u*(balls-u) cannot overflow; the thresholds are the scalar
    sampler's, evaluated on the whole state vector.
    """
    count = w.shape[0]
    paths = np.zeros((count, n + 1), dtype=np.int32)
    u = np.zeros(count, dtype=np.int64)
    for k in range(n - 1):
        t_down, t_stay = _float_thresholds(n, k, u)
        wk = w[:, k]
        u = u - (wk < t_down) + (wk >= t_stay)
        paths[:, k + 1] = u
    return paths


def _times(n: int, w: np.ndarray) -> np.ndarray:
    """T_1..T_(n-1) per row from waiting-time uniforms (descending k order).

    Column j of w drives level k = n - j.  Returns shape (count, n-1) with
    column k-1 holding T_k; T_n = 0 is implicit.
    """
    ks = np.arange(n, 1, -1, dtype=float)
    inc = -np.log1p(-w) / (ks * (ks - 1) / 2.0)
    cs = np.cumsum(inc, axis=1)
    return cs[:, ::-1]


def _merge_counts(paths: np.ndarray) -> np.ndarray:
    """X_1..X_(n-1) per row from trajectories, via X_k = 1 + U_(n-k) - U_(n-k-1)."""
    n = paths.shape[1] - 1
    x = paths[:, n - 1:0:-1] - paths[:, n - 2::-1]
    x += 1
    return x


def _rho_inverse_cdf(n: int, w: np.ndarray) -> np.ndarray:
    """Merge level of a tagged leaf by CDF inversion of P(rho <= k)."""
    ks = np.arange(1, n, dtype=float)
    cdf = (ks + 1.0) * ks / (n * (n - 1.0))
    return np.searchsorted(cdf, w, side="right") + 1


class Draw(NamedTuple):
    """What one replicate draws, and what a chunk of draws turns into."""

    uniforms: Callable[[int], int]  # uniforms per replicate, given n
    inputs: Callable[[int, np.ndarray], tuple]  # (n, w) -> reducer inputs


RHO = Draw(lambda n: 1, lambda n, w: (_rho_inverse_cdf(n, w[:, 0]),))
RHO_TIMES = Draw(lambda n: n, lambda n, w: (_rho_inverse_cdf(n, w[:, 0]), _times(n, w[:, 1:])))
URN = Draw(lambda n: n - 1, lambda n, w: (_urn_paths(n, w),))
URN_TIMES = Draw(lambda n: 2 * (n - 1),
                 lambda n, w: (_urn_paths(n, w[:, :n - 1]), _times(n, w[:, n - 1:])))


def _window(n: int, t: np.ndarray, x: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Per-row external length on levels ceil(n^alpha)..ceil(n^beta)-1."""
    lo, hi = max(ceil_pow(n, alpha), 1), min(ceil_pow(n, beta) - 1, n - 1)
    return (t[:, lo - 1:hi] * x[:, lo - 1:hi]).sum(axis=1)


def _hat_length(n: int, paths: np.ndarray, t: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    m, big_m = max(floor_pow(n, alpha), 1), floor_pow(n, beta)
    # increments T_(k-1) - T_k for k = 2..n, aligned so column k-2 is level k
    inc = np.empty((t.shape[0], n - 1))
    inc[:, :n - 2] = t[:, 0:n - 2] - t[:, 1:n - 1]
    inc[:, n - 2] = t[:, n - 2]  # T_(n-1) - T_n with T_n = 0
    ks = np.arange(2, n + 1)
    weight = ks[None, :] - paths[:, n - ks]
    contrib = inc * weight
    return contrib[:, m - 1:].sum(axis=1) - contrib[:, big_m - 1:].sum(axis=1)


def _tau(n: int, paths: np.ndarray) -> np.ndarray:
    hits = paths[:, 1:n] == n - np.arange(1, n)
    jmin = 1 + np.argmax(hits, axis=1)
    return (n - jmin).astype(float)


def _eta_count(n: int, paths: np.ndarray, t: np.ndarray, a: float, b: float) -> np.ndarray:
    pts = math.sqrt(n) * t
    mask = (pts >= a) & (pts < b)
    # merge counts last: made before pts, they add one int32 array to the chunk's peak
    return (_merge_counts(paths) * mask).sum(axis=1).astype(float)


def _window_pair(n: int, paths: np.ndarray, t: np.ndarray, window1, window2) -> np.ndarray:
    x = _merge_counts(paths)
    return np.column_stack([_window(n, t, x, *window1), _window(n, t, x, *window2)])


def _check_exponents(n: int, alpha: float, beta: float) -> None:
    check_window(alpha, beta)


def _check_interval(n: int, a: float, b: float) -> None:
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")


def _check_steps(n: int, steps) -> None:
    s = np.asarray(steps)
    if s.ndim != 1 or s.size == 0 or s.dtype.kind not in "iu" or s.min() < 0 or s.max() > n:
        raise ValueError(f"step indices must be integers in 0..{n}, got {steps!r}")


def _check_windows(n: int, window1, window2) -> None:
    check_window(*window1)
    check_window(*window2)


class Statistic(NamedTuple):
    draw: Draw
    reduce: Callable[..., np.ndarray]  # reduce(n, *draw inputs, **keywords)
    keywords: tuple[str, ...] = ()
    check: Callable[..., None] = lambda n: None  # check(n, **keywords) raises ValueError
    two_d: bool = False  # one row of values per replicate, not one value


STATISTICS: dict[str, Statistic] = {
    "L": Statistic(URN_TIMES, lambda n, paths, t: (t * _merge_counts(paths)).sum(axis=1)),
    "L_window": Statistic(URN_TIMES, lambda n, paths, t, alpha, beta:
                          _window(n, t, _merge_counts(paths), alpha, beta),
                          ("alpha", "beta"), _check_exponents),
    "L_hat": Statistic(URN_TIMES, _hat_length, ("alpha", "beta"), _check_exponents),
    "tau": Statistic(URN, _tau),
    "rho": Statistic(RHO, lambda n, rho: rho.astype(float)),
    "R": Statistic(RHO_TIMES, lambda n, rho, t: t[np.arange(len(rho)), rho - 1]),
    "urn_marginal": Statistic(URN, lambda n, paths, k: paths[:, k].astype(float),
                              ("k",), lambda n, k: _check_steps(n, [k])),
    "eta_count": Statistic(URN_TIMES, _eta_count, ("a", "b"), _check_interval),
    "urn_snapshot": Statistic(URN, lambda n, paths, steps:
                              paths[:, np.asarray(steps, dtype=int)].astype(float),
                              ("steps",), _check_steps, two_d=True),
    "window_pair": Statistic(URN_TIMES, _window_pair, ("window1", "window2"),
                             _check_windows, two_d=True),
}


def _chunk_kernel(statistic: str, n: int, seed: int, stream_id: int,
                  start: int, count: int, params: dict) -> np.ndarray:
    spec = STATISTICS[statistic]
    w = _uniform_rows(seed, stream_id, start, count, spec.draw.uniforms(n))
    return spec.reduce(n, *spec.draw.inputs(n, w), **params)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def simulate(statistic: str, n: int, reps: int, seed: int, *,
             threads: int = 1, stream_id: int = 0, **params) -> np.ndarray:
    """Simulate one value (or row) per replicate.

    Returns a 1-D array of length reps, or 2-D (reps, d) for the
    statistics marked two_d (urn_snapshot, window_pair).  The statistic
    and its keywords are checked before anything is drawn.  threads is
    the number of worker processes, capped at the chunk count and at the
    CPUs this process may use; it never changes the output.
    """
    if not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    if n < 2:
        raise ValueError("sample size must be at least 2")
    if reps < 1:
        raise ValueError("need at least one replicate")
    spec = STATISTICS.get(statistic)
    if spec is None:
        raise ValueError(f"unknown statistic {statistic!r}")
    if sorted(params) != sorted(spec.keywords):
        raise ValueError(f"{statistic} takes keywords {list(spec.keywords)}, "
                         f"got {sorted(params)}")
    spec.check(n, **params)
    replicate_key(seed, reps - 1, stream_id)  # rejects a bad stream id or too many reps
    chunks = [(statistic, n, seed, stream_id, start, min(CHUNK, reps - start), params)
              for start in range(0, reps, CHUNK)]
    workers = min(threads, len(chunks), _usable_cpus())
    if workers > 1:
        import multiprocessing  # here, so that importing kingman does not pay for it
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            # fork: workers share the imported modules instead of importing them again
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                # map takes one iterable per argument and yields in chunk order
                pieces = list(pool.map(_chunk_kernel, *zip(*chunks)))
            return np.concatenate(pieces, axis=0)
    return np.concatenate([_chunk_kernel(*chunk) for chunk in chunks], axis=0)
