"""Vectorized, reproducible Monte Carlo over replicates.

Replicate r draws from its own counter-based stream (see rng.py), so any
statistic simulated here is bitwise reproducible for a given (seed, n,
reps), whatever the chunk width, the block size or the thread count.  A
chunk re-keys one Philox per replicate: the bits of rng.replicate_stream.

A chunk's width is set by a byte budget: each Draw kind states the bytes
one replicate holds, reduction included, and a chunk takes as many
replicates as the budget holds, at most MAX_WIDTH.  The urn chain is
stepped a block of BLOCK draws at a time: a block's uniforms are taken at
their offset in every replicate's stream (a Philox stream is addressed by
its counter), transposed, and stepped in place on contiguous rows.

With threads > 1, chunks run on forked worker processes, at most one per
usable CPU, and each worker is given the same number of chunks, at least
two: the chunk kernel is many small numpy steps that hold the
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

BLOCK = 2048  # draws per replicate taken at once; a multiple of 4, Philox's output block
BUDGET = 192 << 20  # bytes one chunk may hold
MAX_WIDTH = 1536  # replicates per chunk, however many the budget would hold


def _uniform_rows(seed: int, stream_id: int, start: int, count: int, draws: int,
                  offset: int = 0) -> np.ndarray:
    """Row i is replicate_stream(seed, start + i, stream_id).random(offset + draws)[offset:].

    Philox makes four 64-bit words per counter value and each draw takes
    one word, so a row starts at counter offset // 4 and skips offset % 4
    words: draws offset.. of the stream, bit for bit, without the ones before.
    """
    bit_gen = np.random.Philox(key=0)
    gen = np.random.Generator(bit_gen)
    fresh = {"bit_generator": "Philox", "state": {"counter": [offset // 4, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    skip = offset % 4
    out = np.empty((count, draws))
    for i in range(count):
        fresh["state"]["key"] = replicate_key(seed, start + i, stream_id)
        bit_gen.state = fresh  # new key, counter at the offset, empty buffer
        if skip:
            bit_gen.random_raw(skip)
        gen.random(out=out[i])
    return out


def _urn_paths(n: int, seed: int, stream_id: int, start: int, count: int,
               times: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw and step the urn chain of replicates start..start+count-1.

    Returns int32 trajectories of shape (count, n+1) and, with times, the
    n-1 waiting-time uniforms that follow the urn uniforms in each stream,
    shape (count, n-1); else None.  Draws are taken BLOCK at a time; a
    block's urn uniforms are transposed, so each step works in place on
    contiguous rows, and each row then holds the states it drove.  The
    state is float64 holding exact integers (u(u-1) and u(balls-u) stay
    below 2^53), so the thresholds are urn._float_thresholds' bit for bit.
    """
    sub, mul, div, add = np.subtract, np.multiply, np.divide, np.add
    less, greater_equal = np.less, np.greater_equal
    steps = n - 1
    total = 2 * steps if times else steps
    paths = np.zeros((count, n + 1), dtype=np.int32)
    t = np.empty((count, steps)) if times else None
    rows = np.empty((min(BLOCK, steps), count))
    u = carry = np.zeros(count)
    down, stay = np.empty(count), np.empty(count)
    below, above = np.empty(count, dtype=bool), np.empty(count, dtype=bool)
    for first in range(0, total, BLOCK):
        w = _uniform_rows(seed, stream_id, start, count, min(BLOCK, total - first), first)
        m = min(max(steps - first, 0), w.shape[1])  # urn columns of this block
        if m < w.shape[1]:
            t[:, first + m - steps:first + w.shape[1] - steps] = w[:, m:]
        block = rows[:m]
        _copy_transposed(block, w[:, :m])
        del w  # before the next block is drawn
        for j, row in enumerate(block):
            balls = n - first - j
            pairs = float(balls * (balls - 1))  # twice the scalar sampler's denom
            # positional out: keyword arguments cost more than a step's arithmetic
            sub(u, 1.0, down); mul(down, u, down); div(down, pairs, down)
            sub(balls, u, stay); mul(stay, u, stay); div(stay, pairs / 2, stay)
            add(stay, down, stay)
            less(row, down, below); greater_equal(row, stay, above)
            sub(u, below, row); add(row, above, row)  # the row now holds U_(k+1)
            u = row
        np.copyto(carry, u)  # the next block overwrites the rows
        u = carry
        _copy_transposed(paths[:, first + 1:first + m + 1], block)
    return paths, t


def _copy_transposed(dst: np.ndarray, src: np.ndarray) -> None:
    """dst[...] = src.T, casting; in tiles of rows of src that stay in cache."""
    for i in range(0, src.shape[0], 64):
        np.copyto(dst[:, i:i + 64], src[i:i + 64].T, casting="unsafe")


def _times(n: int, w: np.ndarray) -> np.ndarray:
    """T_1..T_(n-1) per row from waiting-time uniforms (descending k order).

    Column j of w drives level k = n - j.  Works in place on w and returns
    a view of shape (count, n-1) with column k-1 holding T_k; T_n = 0 is
    implicit.
    """
    ks = np.arange(n, 1, -1, dtype=float)
    np.negative(w, out=w)
    np.log1p(w, out=w)
    np.divide(w, ks * (ks - 1) / -2.0, out=w)  # the increments -log1p(-w) / rate
    np.cumsum(w, axis=1, out=w)
    return w[:, ::-1]


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
    """What a chunk draws and turns into reducer inputs, and the memory it takes."""

    inputs: Callable[..., tuple]  # (n, seed, stream_id, start, count) -> reducer inputs
    bytes: Callable[[int], int]  # most bytes one replicate holds in its chunk, given n


def _rho(n: int, *chunk) -> tuple:
    return (_rho_inverse_cdf(n, _uniform_rows(*chunk, 1)[:, 0]),)


def _rho_times(n: int, *chunk) -> tuple:
    w = _uniform_rows(*chunk, n)
    return _rho_inverse_cdf(n, w[:, 0]), _times(n, w[:, 1:])


def _urn_times(n: int, *chunk) -> tuple:
    paths, w = _urn_paths(n, *chunk, times=True)
    return paths, _times(n, w)


def _block_bytes(draws: int, steps: int) -> int:
    # a block of uniforms and its urn columns, transposed
    return 8 * min(BLOCK, draws) + 8 * min(BLOCK, steps)


# Bytes per replicate: int32 paths (4n), float64 times (8n), the blocks, and
# the largest reduction of the kind: tau's boolean hits (n); L_hat's
# increments and weights (16n); eta_count's points, mask and counts (13n).
RHO = Draw(_rho, lambda n: 64)
RHO_TIMES = Draw(_rho_times, lambda n: 8 * n + 64)
URN = Draw(lambda n, *chunk: _urn_paths(n, *chunk)[:1],
           lambda n: 5 * (n + 1) + _block_bytes(n - 1, n - 1) + 64)
URN_TIMES = Draw(_urn_times, lambda n: 28 * (n + 1) + _block_bytes(2 * (n - 1), n - 1) + 64)


def _width(draw: Draw, n: int) -> int:
    """Replicates per chunk: as many as BUDGET holds, at least 1, at most MAX_WIDTH."""
    return max(1, min(MAX_WIDTH, BUDGET // draw.bytes(n)))


def _window(n: int, t: np.ndarray, x: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Per-row external length on levels ceil(n^alpha)..ceil(n^beta)-1."""
    lo, hi = max(ceil_pow(n, alpha), 1), min(ceil_pow(n, beta) - 1, n - 1)
    return (t[:, lo - 1:hi] * x[:, lo - 1:hi]).sum(axis=1)


def _hat_length(n: int, paths: np.ndarray, t: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    m, big_m = max(floor_pow(n, alpha), 1), floor_pow(n, beta)
    # increments T_(k-1) - T_k for k = 2..n, aligned so column k-2 is level k
    inc = np.empty((t.shape[0], n - 1))
    np.subtract(t[:, 0:n - 2], t[:, 1:n - 1], out=inc[:, :n - 2])
    inc[:, n - 2] = t[:, n - 2]  # T_(n-1) - T_n with T_n = 0
    # weights k - U_(n-k), exact in float64; the products are made in place
    contrib = np.subtract(np.arange(2, n + 1, dtype=float), paths[:, n - 2::-1])
    contrib *= inc
    return contrib[:, m - 1:].sum(axis=1) - contrib[:, big_m - 1:].sum(axis=1)


def _tau(n: int, paths: np.ndarray) -> np.ndarray:
    hits = paths[:, 1:n] == n - np.arange(1, n)
    jmin = 1 + np.argmax(hits, axis=1)
    return (n - jmin).astype(float)


def _eta_count(n: int, paths: np.ndarray, t: np.ndarray, a: float, b: float) -> np.ndarray:
    pts = math.sqrt(n) * t
    mask = (pts >= a) & (pts < b)
    # merge counts last: made before pts, they add one int32 array to the chunk's peak
    x = _merge_counts(paths)
    x *= mask
    return x.sum(axis=1).astype(float)


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
    return spec.reduce(n, *spec.draw.inputs(n, seed, stream_id, start, count), **params)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def check_threads(threads) -> None:
    """Refuse a worker count that is not an integer >= 1."""
    if not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")


def simulate(statistic: str, n: int, reps: int, seed: int, *,
             threads: int = 1, stream_id: int = 0, **params) -> np.ndarray:
    """Simulate one value (or row) per replicate.

    Returns a 1-D array of length reps, or 2-D (reps, d) for the
    statistics marked two_d (urn_snapshot, window_pair).  The statistic
    and its keywords are checked before anything is drawn.  threads is
    the number of worker processes, capped at the chunk count and at the
    CPUs this process may use; it never changes the output.
    """
    check_threads(threads)
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
    count = -(-reps // _width(spec.draw, n))  # chunks
    workers = min(threads, count, _usable_cpus())
    if workers > 1:  # the same number of chunks per worker, at least two
        count = min(reps, workers * max(2, -(-count // workers)))
    size, extra = divmod(reps, count)  # equal chunks: no short one at the end
    chunks = [(statistic, n, seed, stream_id, i * size + min(i, extra), size + (i < extra), params)
              for i in range(count)]
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
