"""Vectorized, reproducible Monte Carlo over replicates.

Replicate r draws from its own counter-based stream (see rng.py), so any
statistic simulated here is bitwise reproducible for a given (seed, n,
reps), whatever the chunk width, the block size or the thread count.  A
chunk draws the bits of rng.replicate_stream: one vectorized Philox over
the chunk's keys for stream heads (draws within the first Philox block),
one Philox re-keyed per replicate for longer draws.

The urn chain is stepped a block of BLOCK draws at a time: a block's
uniforms are taken at their offset in every replicate's stream (a Philox
stream is addressed by its counter), transposed, and stepped in place on
contiguous rows.  Each stepped (step, replicate) block is handed to the
statistic's reducer, and the chain stops after the last step the
statistic reads: tau counts hits on a line, urn_snapshot and urn_marginal
copy rows, and eta_count keeps the chain only on the band of levels whose
scaled times can fall in its interval.  Only the L family (L, L_window,
L_hat, window_pair), whose float sums run over whole rows, copies the
blocks back into whole paths.

A chunk's width is set by a byte budget: each statistic states the bytes
one replicate holds, reduction included, and a chunk takes as many
replicates as the budget holds, at most MAX_WIDTH.

With threads > 1, chunks run on forked worker processes, at most one per
usable CPU, and each worker is given the same number of chunks, at least
two: the chunk kernel is many small numpy steps that hold the
interpreter lock, so threads would only take turns.  A worker receives a
chunk's (seed, stream_id, start, count) and returns its values, which are
concatenated in chunk order.

The per-replicate draw order matches the scalar samplers in urn.py and
coalescent.py: first the n-1 urn-transition uniforms, then (if the
statistic needs times) the n-1 waiting-time uniforms in descending k.
eta_count reads its times before it steps the chain, each block from its
offset.  R draws rho's uniform, then only the n - rho time uniforms that
reach T_rho, ragged rows sorted by descending n - rho (see _r).

Every statistic is one entry of STATISTICS: its keywords and their check,
and how a chunk draws and reduces its replicates, with the bytes that takes.
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
TILE = 64  # rows or columns a tiled loop takes at once, so that they stay in cache
HEAD_BYTES = 160  # per row in _philox_heads: its words, key, products' temporaries, heads

# numpy's Philox4x64-10: the round multipliers and the key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = 0xFFFFFFFF


def _mulhilo(m: int, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of m * a, from 32-bit halves in uint64 arithmetic."""
    lo, hi = a & _LOW32, a >> 32
    lo_lo, hi_lo = lo * (m & _LOW32), hi * (m & _LOW32)
    cross = (lo_lo >> 32) + (hi_lo & _LOW32) + lo * (m >> 32)  # < 2^64
    return hi * (m >> 32) + (hi_lo >> 32) + (cross >> 32), a * m


def _philox_heads(seed: int, stream_id: int, start: int, rows: np.ndarray) -> np.ndarray:
    """Words 0-3 of the streams of replicates start + rows (a checked range), as uint64."""
    k0, k1 = replicate_key(seed, start, stream_id)
    k1 = rows.astype(np.uint64) + k1  # the replicate fills the low 48 bits
    # counter (1, 0, 0, 0): numpy increments the counter before its first output
    x0, x1, x2, x3 = (np.full(len(rows), c, dtype=np.uint64) for c in (1, 0, 0, 0))
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        k0, k1 = (k0 + _PHILOX_W[0]) % 2 ** 64, k1 + _PHILOX_W[1]
    return np.stack([x0, x1, x2, x3], axis=1)


def _uniform_rows(seed: int, stream_id: int, start: int, count: int, draws: int,
                  offset: int = 0, order: np.ndarray | None = None,
                  lengths: np.ndarray | None = None) -> np.ndarray:
    """Row p is replicate_stream(seed, start + order[p], stream_id).random(offset + draws)[offset:]

    order permutes 0..count-1 (default: the identity); with lengths, row p
    holds its first lengths[p] draws, then zeros.  Philox makes four 64-bit
    words per counter value and each draw takes one word.  Draws within the
    first four words come from _philox_heads; longer ones re-key one Philox
    per row, which starts at counter offset // 4 and skips offset % 4 words.
    """
    rows = np.arange(count) if order is None else order
    if offset + draws <= 4:  # past one block a row, re-keying is the faster
        replicate_key(seed, start + count - 1, stream_id)  # the key range of every row
        heads = _philox_heads(seed, stream_id, start, rows)[:, offset:offset + draws]
        out = (heads >> 11) * 2.0 ** -53
        if lengths is not None:
            out[np.arange(draws) >= lengths[:, None]] = 0.0
        return out
    bit_gen = np.random.Philox(key=0)
    gen = np.random.Generator(bit_gen)
    fresh = {"bit_generator": "Philox", "state": {"counter": [offset // 4, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    skip = offset % 4
    out = np.empty((count, draws)) if lengths is None else np.zeros((count, draws))
    targets = out if lengths is None else map(lambda row, end: row[:end], out, lengths.tolist())
    for row, target in zip(rows.tolist(), targets):
        fresh["state"]["key"] = replicate_key(seed, start + row, stream_id)
        bit_gen.state = fresh  # new key, counter at the offset, empty buffer
        if skip:
            bit_gen.random_raw(skip)
        gen.random(out=target)
    return out


def _urn_paths(n: int, chunk: tuple, horizon: int, take: Callable[[int, np.ndarray], None],
               times: np.ndarray | None = None) -> None:
    """Draw and step U_1..U_horizon of a chunk's replicates, handing each block to take.

    chunk is (seed, stream_id, start, count).  take(first, block) is called
    on each stepped block in order: block[j] holds U_(first+j+1) of every
    replicate, and is overwritten once take returns.  With times, of shape
    (count, n-1) and only at horizon n-1, the n-1 waiting-time uniforms
    that follow the urn uniforms in each stream are copied into it from the
    same pieces.  Draws are taken BLOCK at a time; a block's urn uniforms
    are transposed, so each step works in place on contiguous rows, and
    each row then holds the states it drove.  The state is float64 holding
    exact integers (u(u-1) and u(balls-u) stay below 2^53), so the
    thresholds are urn._float_thresholds' bit for bit.
    """
    sub, mul, div, add = np.subtract, np.multiply, np.divide, np.add
    less, greater_equal = np.less, np.greater_equal
    count = chunk[3]
    total = horizon if times is None else horizon + n - 1
    rows = np.empty((min(BLOCK, horizon), count))
    u = carry = np.zeros(count)
    down, stay = np.empty(count), np.empty(count)
    below, above = np.empty(count, dtype=bool), np.empty(count, dtype=bool)
    for first in range(0, total, BLOCK):
        w = _uniform_rows(*chunk, min(BLOCK, total - first), first)
        m = min(max(horizon - first, 0), w.shape[1])  # urn columns of this block
        if m < w.shape[1]:
            times[:, first + m - horizon:first + w.shape[1] - horizon] = w[:, m:]
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
        if m:
            take(first, block)


def _copy_transposed(dst: np.ndarray, src: np.ndarray) -> None:
    """dst[...] = src.T, casting; in tiles of rows of src that stay in cache."""
    for i in range(0, src.shape[0], TILE):
        np.copyto(dst[:, i:i + TILE], src[i:i + TILE].T, casting="unsafe")


def _times(n: int, w: np.ndarray, first: int = 0, prior: np.ndarray | None = None) -> np.ndarray:
    """Cumulative coalescence times from waiting-time uniforms, in place on w.

    Column j of w is waiting-time uniform first + j of its row (descending k
    order): it drives level k = n - first - j and becomes T_(k-1).  prior is
    each row's T_(n-first), the last column of the block before; cumsum
    adds in sequence, so a row transformed in blocks has the bits of one
    transformed whole.  Returns w.
    """
    ks = np.arange(n - first, n - first - w.shape[1], -1, dtype=float)
    np.negative(w, out=w)
    np.log1p(w, out=w)
    np.divide(w, ks * (ks - 1) / -2.0, out=w)  # the increments -log1p(-w) / rate
    if prior is not None:
        w[:, 0] += prior
    np.cumsum(w, axis=1, out=w)
    return w


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
    """How a chunk draws and reduces its replicates, and the memory it takes."""

    values: Callable[..., np.ndarray]  # (n, chunk, **keywords) -> a value or row per replicate
    bytes: Callable[..., int]  # (n, **keywords) -> most bytes one replicate holds in its chunk


def _width(draw: Draw, n: int, **keywords) -> int:
    """Replicates per chunk: as many as BUDGET holds, at least 1, at most MAX_WIDTH."""
    return max(1, min(MAX_WIDTH, BUDGET // draw.bytes(n, **keywords)))


def _urn_bytes(n: int, steps=()) -> int:
    """Bytes per replicate of a statistic that reduces stepped blocks.

    A block of urn uniforms and its stepped rows, tau's boolean hits, and
    urn_snapshot's row of len(steps) values, twice: simulate concatenates it.
    """
    return 17 * min(BLOCK, n - 1) + 16 * len(steps) + 64


def _r(n: int, chunk: tuple) -> np.ndarray:
    """T_rho per replicate, from the n - rho time uniforms that reach it.

    With rows sorted by descending need = n - rho, the rows that still read
    a tile of TILE time columns are a prefix.  Column need - 1 becomes T_rho.
    """
    rho = _rho_inverse_cdf(n, _uniform_rows(*chunk, 1)[:, 0])
    order = np.argsort(rho, kind="stable")  # descending need, ties in replicate order
    need = n - rho[order]
    w = _uniform_rows(*chunk, n - 1, 1, order, need)  # zeros past each row's need
    prior = np.zeros(len(need))  # x + 0.0 is x: the increments are never -0.0
    for first in range(0, need[0], TILE):
        k = np.count_nonzero(need > first)
        prior = _times(n, w[:k, first:first + TILE], first, prior[:k])[:, -1]
    out = np.empty(len(need))
    out[order] = w[np.arange(len(need)), need - 1]
    return out


def _paths_times(n: int, chunk: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Whole int32 paths U_0..U_n and times, column k-1 holding T_k; T_n = 0 is implicit."""
    paths = np.zeros((chunk[3], n + 1), dtype=np.int32)
    w = np.empty((chunk[3], n - 1))

    def take(first, block):
        _copy_transposed(paths[:, first + 1:first + len(block) + 1], block)

    _urn_paths(n, chunk, n - 1, take, w)
    return paths, _times(n, w)[:, ::-1]


def _whole(reduce: Callable[..., np.ndarray]) -> Draw:
    """An L-family statistic: reduce(n, paths, t, **keywords) on whole paths and times.

    Bytes: int32 paths (4n), float64 times (8n), a block of uniforms and its
    urn rows, and L_hat's increments and weights (16n), the largest of the
    family's reductions.
    """
    return Draw(lambda n, chunk, **keywords: reduce(n, *_paths_times(n, chunk), **keywords),
                lambda n, **_: 28 * (n + 1) + 8 * min(BLOCK, 2 * (n - 1))
                + 8 * min(BLOCK, n - 1) + 64)


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


def _window_pair(n: int, paths: np.ndarray, t: np.ndarray, window1, window2) -> np.ndarray:
    x = _merge_counts(paths)
    return np.column_stack([_window(n, t, x, *window1), _window(n, t, x, *window2)])


def _tau_hits(n: int, first: int, block: np.ndarray) -> np.ndarray:
    """Per replicate, the steps j of a block on the line U_j = n - j.

    Once U_j = n - j every ball is red, and the chain stays on that line to
    U_(n-1) = 1; so the hits over U_1..U_(n-1) number tau, with no search
    for the first.
    """
    line = np.arange(n - first - 1, n - first - 1 - len(block), -1, dtype=float)
    return np.count_nonzero(block == line[:, None], axis=0)


def _tau(n: int, chunk: tuple) -> np.ndarray:
    hits = np.zeros(chunk[3], dtype=np.int64)

    def take(first, block):
        np.add(hits, _tau_hits(n, first, block), out=hits)

    _urn_paths(n, chunk, n - 1, take)
    return hits.astype(float)


def _snapshot(n: int, chunk: tuple, steps) -> np.ndarray:
    """U_s at each of the steps per replicate, copied as its block passes; U_0 = U_n = 0."""
    steps = np.asarray(steps, dtype=int)
    out = np.zeros((chunk[3], len(steps)))

    def take(first, block):
        now = (steps > first) & (steps <= first + len(block))
        out[:, now] = block[steps[now] - first - 1].T

    _urn_paths(n, chunk, min(int(steps.max()), n - 1), take)
    return out


def _eta_band(n: int, chunk: tuple, a: float, b: float) -> tuple[int, np.ndarray]:
    """The time columns lo.. that hold some row's point sqrt(n) T_k in [a, b), and their mask.

    Column j of the times is level k = n-1-j, drawn after the n-1 urn
    uniforms of each stream and transformed a block at a time.  T_k rises
    as k falls, so a row's points rise along it, and drawing stops once
    every row is past b.  The mask has one row per column lo, lo+1, ... and
    one column per replicate; it is empty, with lo = 0, if no point is in
    [a, b).
    """
    steps, count = n - 1, chunk[3]
    pieces, prior = [], None  # (column, mask) from a block's first to its last column in [a, b)
    for first in range(0, steps, BLOCK):
        t = _times(n, _uniform_rows(*chunk, min(BLOCK, steps - first), steps + first),
                   first, prior)
        prior = t[:, -1].copy()
        t *= math.sqrt(n)  # the scaled points
        inside = t >= a
        inside &= t < b
        now = np.flatnonzero(inside.any(axis=0))
        if now.size:
            pieces.append((first + now[0], inside[:, now[0]:now[-1] + 1].T.copy()))
        if (t[:, -1] >= b).all():
            break
        del t, inside  # before the next block is drawn
    if not pieces:
        return 0, np.zeros((0, count), dtype=bool)
    lo = pieces[0][0]
    mask = np.zeros((pieces[-1][0] + len(pieces[-1][1]) - lo, count), dtype=bool)
    for column, piece in pieces:
        mask[column - lo:column - lo + len(piece)] = piece
    return lo, mask


def _eta_count(n: int, chunk: tuple, a: float, b: float) -> np.ndarray:
    """Merge counts X_k summed over the levels k with sqrt(n) T_k in [a, b).

    The chain is stepped to the end of the band and kept on it only: time
    column j is level k = n-1-j, where X_k = 1 + U_(j+1) - U_j.
    """
    lo, mask = _eta_band(n, chunk, a, b)
    hi = lo + len(mask)
    u = np.zeros((len(mask) + 1, chunk[3]), dtype=np.int32)  # U_lo..U_hi; U_0 = 0

    def take(first, block):
        i, j = max(lo, first + 1), min(hi, first + len(block))  # the band's steps here
        if i <= j:
            np.copyto(u[i - lo:j - lo + 1], block[i - first - 1:j - first], casting="unsafe")

    _urn_paths(n, chunk, hi, take)
    x = np.diff(u, axis=0)
    x += 1
    x *= mask
    return x.sum(axis=0).astype(float)


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
    keywords: tuple[str, ...] = ()
    check: Callable[..., None] = lambda n: None  # check(n, **keywords) raises ValueError
    two_d: bool = False  # one row of values per replicate, not one value


STATISTICS: dict[str, Statistic] = {
    "L": Statistic(_whole(lambda n, paths, t: (t * _merge_counts(paths)).sum(axis=1))),
    "L_window": Statistic(_whole(lambda n, paths, t, alpha, beta:
                                 _window(n, t, _merge_counts(paths), alpha, beta)),
                          ("alpha", "beta"), _check_exponents),
    "L_hat": Statistic(_whole(_hat_length), ("alpha", "beta"), _check_exponents),
    "tau": Statistic(Draw(_tau, _urn_bytes)),
    "rho": Statistic(Draw(lambda n, chunk: _rho_inverse_cdf(n, _uniform_rows(*chunk, 1)[:, 0])
                          .astype(float), lambda n: HEAD_BYTES)),
    "R": Statistic(Draw(_r, lambda n: 8 * n + HEAD_BYTES)),
    "urn_marginal": Statistic(Draw(lambda n, chunk, k: _snapshot(n, chunk, [k])[:, 0],
                                   lambda n, k: _urn_bytes(n, [k])),
                              ("k",), lambda n, k: _check_steps(n, [k])),
    # eta_count's band of at most n-1 levels: its mask (n), U as int32 (4n)
    # and the merge counts (4n), or the mask's pieces while they are joined
    "eta_count": Statistic(Draw(_eta_count, lambda n, a, b: _urn_bytes(n) + 9 * n),
                           ("a", "b"), _check_interval),
    "urn_snapshot": Statistic(Draw(_snapshot, _urn_bytes), ("steps",), _check_steps, two_d=True),
    "window_pair": Statistic(_whole(_window_pair), ("window1", "window2"),
                             _check_windows, two_d=True),
}


def _chunk_kernel(statistic: str, n: int, seed: int, stream_id: int,
                  start: int, count: int, params: dict) -> np.ndarray:
    return STATISTICS[statistic].draw.values(n, (seed, stream_id, start, count), **params)


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
    count = -(-reps // _width(spec.draw, n, **params))  # chunks
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
