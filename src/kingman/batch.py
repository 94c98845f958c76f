"""Vectorized, reproducible Monte Carlo over replicates.

Replicate r draws from its own counter-based stream (see rng.py), so any
statistic simulated here is bitwise reproducible for a given (seed, n,
reps), whatever the chunk width, the block and tile sizes or the thread
count.  A chunk draws the bits of rng.replicate_stream: one vectorized
Philox over the chunk's keys for stream heads (draws within the first
Philox block), and for longer draws one pooled Philox per replicate, which
a chunk keys once and draws on from block to block, R's sorted rows too.
The per-replicate draw order matches the scalar samplers in urn.py and
coalescent.py: the n-1 urn-transition uniforms, then the n-1 waiting-time
uniforms in descending k (R draws rho's uniform, then the time uniforms
it reads, in pieces of BLOCK words).

The urn chain is drawn a block at a time, stepped a tile at a time: a
block holds BLOCK draws per replicate, and each tile of TILE of its steps
is transposed to contiguous rows, stepped in place and handed to the
statistic's reducer (see _urn_paths).  No reducer rebuilds a path: the L
family (L, L_window, L_hat, window_pair) reduces the tiles and the waiting
times into one row of terms per replicate, a level each (see _levels).

Every statistic is one Statistic record in STATISTICS: how a chunk draws
and reduces its replicates, its keywords and the levels plan resolves them
to, and the bytes of the rows one replicate holds that grow with n or the
levels.  A chunk holds MAX_WIDTH replicates, fewer where the L family's or
urn_snapshot's rows would pass BUDGET (see _bytes).

simulate is plan, run, concatenate: plan checks the arguments, turns the
keywords into levels and cuts the replicates into chunk tasks that carry
them, so no chunk checks again, and run yields the results of any list of tasks
(verify adds its exact checks) in task order as they are ready, from one pool
of forked processes.  A chunk kernel is many small numpy steps that hold the
interpreter lock: threads would take turns.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Iterator
from typing import NamedTuple

import numpy as np

from .indexing import check_count, check_interval, cuts, window
from .rng import replicate_key

BLOCK = 512  # draws per replicate taken at once; a multiple of 4, Philox's output block
BUDGET = 192 << 20  # bytes one chunk may hold
MAX_WIDTH = 1536  # replicates per chunk, however many the budget would hold
TILE = 64  # rows or columns a tiled loop takes at once, so that they stay in cache
HEAD_BYTES = 160  # per row in _philox_heads: its words, key, products' temporaries, heads
STREAM_BYTES = 768  # per row of _STREAMS: a Philox, its Generator's random (tracemalloc: 720)

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


class _Streams(threading.local):
    """Per thread: a Philox and its Generator's random per row, grown to the widest chunk,
    the mark (seed, stream_id, start, count, offset) the rows continue from, or None, and
    held, the rows of that chunk whose streams, the pool's first, stand at that offset."""

    def __init__(self):
        self.rows, self.mark, self.held = [], None, None


_STREAMS = _Streams()


def _uniform_rows(seed: int, stream_id: int, start: int, count: int, draws: int,
                  offset: int = 0, order: np.ndarray | None = None,
                  lengths: np.ndarray | None = None) -> np.ndarray:
    """Row p is replicate_stream(seed, start + order[p], stream_id).random(offset + draws)[offset:]

    order lists distinct rows of 0..count-1 (default: all of them, in
    order); with lengths, row p holds its first lengths[p] draws, then
    zeros.  Philox makes four 64-bit words per counter value and each draw
    takes one word.  Whole rows within the first four words come from
    _philox_heads; the rest from this thread's pooled Philox per row.  A
    call whose rows are a prefix of the rows the last call of the same chunk
    drew to its end (those before the first shorter row) draws on where that
    call ended; any other re-keys the rows, each at counter offset // 4,
    skipping offset % 4 words: the same words.
    """
    rows = np.arange(count) if order is None else order
    if offset + draws <= 4 and lengths is None:  # past one block, a Philox per row is faster
        heads = _philox_heads(seed, stream_id, start, rows)[:, offset:offset + draws]
        return (heads >> 11) * 2.0 ** -53
    pool = _STREAMS
    while len(pool.rows) < len(rows):
        bit_gen = np.random.Philox(key=0)
        pool.rows.append((bit_gen, np.random.Generator(bit_gen).random))
    mark, pool.mark = pool.mark, None  # unset while the rows move
    if mark != (seed, stream_id, start, count, offset) \
            or not np.array_equal(pool.held[:len(rows)], rows):
        k0, k1 = replicate_key(seed, start, stream_id)
        fresh = {"bit_generator": "Philox", "state": {"counter": [offset // 4, 0, 0, 0]},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for (bit_gen, _), row in zip(pool.rows, rows.tolist()):  # the first len(rows) rows
            fresh["state"]["key"] = [k0, k1 + row]
            bit_gen.state = fresh  # new key, counter at the offset, empty buffer
            if offset % 4:
                bit_gen.random_raw(offset % 4)
    out = np.empty((len(rows), draws)) if lengths is None else np.zeros((len(rows), draws))
    targets = out if lengths is None else map(lambda row, end: row[:end], out, lengths.tolist())
    for (_, random), target in zip(pool.rows, targets):
        random(out=target)
    ended = rows if lengths is None else rows[:np.logical_and.accumulate(lengths == draws).sum()]
    pool.mark, pool.held = (seed, stream_id, start, count, offset + draws), ended.copy()
    return out


def _urn_paths(n: int, chunk: tuple, horizon: int, take: Callable[[int, np.ndarray], None],
               timed: Callable[[int, np.ndarray], None] | None = None) -> None:
    """Draw and step U_1..U_horizon of a chunk's replicates, handing each tile to take.

    chunk is (seed, stream_id, start, count).  take(first, tile) is called
    on each stepped tile in order: tile[i] holds U_(first+i) of every
    replicate, tile[0] the state carried in, and is overwritten once take
    returns.  With timed (at horizon n-1), the n-1 waiting-time uniforms
    after the urn uniforms come in the same blocks: after a block's tiles,
    timed(first, w) gets them, w[:, c] time uniform first + c of every row,
    and may overwrite them.  The chain is drawn a block at a time, stepped a
    tile at a time: BLOCK draws per row at once, whose urn uniforms are
    transposed TILE columns at a time into one buffer, so each step works in
    place on contiguous rows, and each row then holds the states it drove.
    The state is float64 holding exact integers (u(u-1) and u(balls-u) stay
    below 2^53), so the thresholds are urn._float_thresholds' bit for bit.
    """
    sub, mul, div, add = np.subtract, np.multiply, np.divide, np.add
    less, greater_equal = np.less, np.greater_equal
    count = chunk[3]
    total = horizon if timed is None else horizon + n - 1
    buffer = np.zeros((min(TILE, horizon) + 1, count))  # row 0: the state carried in, U_0 = 0
    down, stay = np.empty(count), np.empty(count)
    below, above = np.empty(count, dtype=bool), np.empty(count, dtype=bool)
    for first in range(0, total, BLOCK):
        w = _uniform_rows(*chunk, min(BLOCK, total - first), first)
        m = min(max(horizon - first, 0), w.shape[1])  # urn columns of this block
        for a in range(0, m, TILE):
            tile = buffer[:min(TILE, m - a) + 1]
            for i in range(0, count, TILE):  # transposed in tiles that stay in cache
                np.copyto(tile[1:, i:i + TILE], w[i:i + TILE, a:a + len(tile) - 1].T)
            for j, (u, row) in enumerate(zip(tile, tile[1:]), first + a):  # U_j to U_(j+1)
                balls = n - j
                pairs = float(balls * (balls - 1))  # twice the scalar sampler's denom
                # positional out: keyword arguments cost more than a step's arithmetic
                sub(u, 1.0, down); mul(down, u, down); div(down, pairs, down)
                sub(balls, u, stay); mul(stay, u, stay); div(stay, pairs / 2, stay)
                add(stay, down, stay)
                less(row, down, below); greater_equal(row, stay, above)
                sub(u, below, row); add(row, above, row)  # the row now holds U_(j+1)
            take(first + a, tile)
            np.copyto(buffer[0], tile[-1])
        if m < w.shape[1]:
            timed(first + m - horizon, w[:, m:])
        del w  # before the next block is drawn


def _times(n: int, w: np.ndarray, first: int, prior: np.ndarray | None) -> np.ndarray:
    """Cumulative coalescence times from waiting-time uniforms, in place on w.

    Column j of w is waiting-time uniform first + j of its row (descending k
    order): it drives level k = n - first - j and becomes T_(k-1).  prior is
    each row's T_(n-first), the last column of the block before; cumsum
    adds in sequence, so a row transformed in blocks has the bits of one
    transformed whole.  Returns w.
    """
    ks = np.arange(n - first, n - first - w.shape[1], -1, dtype=float)
    np.multiply(w, -1.0, out=w)  # numpy 2.4's negative misreads one-column views 64 bytes a row
    np.log1p(w, out=w)
    np.divide(w, ks * (ks - 1) / -2.0, out=w)  # the increments -log1p(-w) / rate
    if prior is not None:
        w[:, 0] += prior
    np.cumsum(w, axis=1, out=w)
    return w


def _rho_inverse_cdf(n: int, w: np.ndarray) -> np.ndarray:
    """Merge level of a tagged leaf by CDF inversion of P(rho <= k) = k(k+1) / (n(n-1)).

    rho is 1 + the largest k in 0..n-2 whose cdf, computed as a float, is at
    most w: the root of k(k+1) = w n(n-1), moved to where the cdf crosses w.
    """
    def cdf(k):
        return (k + 1.0) * k / (n * (n - 1.0))

    k = np.floor((np.sqrt(4.0 * w * (n * (n - 1.0)) + 1.0) - 1.0) / 2.0)
    while (up := cdf(k + 1.0) <= w).any():  # cdf(n-1) = 1 > w
        k += up
    while (down := cdf(k) > w).any():  # cdf(0) = 0 <= w
        k -= down
    return k.astype(np.int64) + 1


class Statistic(NamedTuple):
    """How a chunk draws and reduces its replicates, its keywords and levels, and its rows' bytes."""

    values: Callable[..., np.ndarray]  # (n, chunk, *levels) -> a value or row per replicate
    keywords: tuple[str, ...] = ()
    levels: Callable[..., tuple] = lambda n: ()  # (n, **keywords) -> values' levels, checked
    two_d: bool = False  # one row of values per replicate, not one value
    rows: Callable[..., int] = lambda n, *levels: 0  # bytes of a replicate's own rows


def _bytes(statistic: Statistic, n: int, *levels) -> int:
    """Most bytes one replicate holds in its chunk: the engine's, whatever the statistic (a
    block of draws and a comparison's booleans, a stepped tile and tau's booleans on it, a
    pooled stream, its heads and scalars), and the statistic's own rows."""
    return 9 * BLOCK + 9 * TILE + STREAM_BYTES + HEAD_BYTES + 128 + statistic.rows(n, *levels)


def _width(statistic: Statistic, n: int, *levels) -> int:
    """Replicates per chunk: as many as BUDGET holds, at least 1, at most MAX_WIDTH."""
    return max(1, min(MAX_WIDTH, BUDGET // _bytes(statistic, n, *levels)))


def _r(n: int, chunk: tuple) -> np.ndarray:
    """T_rho per replicate, from the n - rho time uniforms that reach it.

    Word 0 of a row's stream is rho's uniform and words 1..need, need = n - rho,
    are the time uniforms it reads.  With rows sorted by descending need, the
    rows that still read a piece of BLOCK words, or a tile of TILE time
    columns in it, are a prefix, and each piece draws on from the last.
    T_rho is read from the piece in which its row's need ends.
    """
    rho = _rho_inverse_cdf(n, _uniform_rows(*chunk, 1)[:, 0])
    order = np.argsort(rho, kind="stable")  # descending need, ties in replicate order
    need = n - rho[order]
    out, prior = np.empty(len(need)), np.zeros(len(need))  # x + 0.0 is x: no increment is -0.0
    for first in range(0, need[0] + 1, BLOCK):  # words first..first+BLOCK-1
        k = np.count_nonzero(need >= first)
        w = _uniform_rows(*chunk, min(BLOCK, need[0] + 1 - first), first, order[:k],
                          np.minimum(need[:k] + 1 - first, BLOCK))  # zeros past each need
        for a in range(first == 0, w.shape[1], TILE):  # column a: time uniform first + a - 1
            rows = np.count_nonzero(need > first + a - 1)
            prior = _times(n, w[:rows, a:a + TILE], first + a - 1, prior[:rows])[:, -1].copy()
        ends = np.flatnonzero(need[:k] < first + w.shape[1])
        out[order[ends]] = w[ends, need[ends] - first]
        del w  # before the next piece is drawn
    return out


def _levels(n: int, chunk: tuple, hat: bool = False) -> np.ndarray:
    """Per replicate, the L family's terms: urn step j and time column j go from level
    n-j to k = n-1-j, and column j holds T_k X_k, X_k = 1 + U_(j+1) - U_j; with hat,
    (k+1 - V_(k+1))(T_k - T_(k+1)), V_(k+1) = U_j, the increment from the cumulative
    times.  The tiles write each column's factor, and each block's times multiply in."""
    row, prior = np.empty((chunk[3], n - 1)), np.zeros(chunk[3])  # T_(n-first), T_n = 0

    def take(first, tile):
        seg = row[:, first:first + len(tile) - 1]
        if hat:
            np.subtract(np.arange(n - first, n + 1 - first - len(tile), -1.0), tile[:-1].T, out=seg)
        else:
            np.subtract(tile[1:].T, tile[:-1].T, out=seg)
            seg += 1.0

    def timed(first, w):
        t = _times(n, w, first, prior)
        end = t[:, -1].copy()
        if hat:  # T_k - T_(k+1), from the right a TILE at a time: numpy copies an overlapping
            for b in range(t.shape[1], 1, -TILE):  # operand, so each copy is one tile's
                a = max(b - TILE, 1)
                np.subtract(t[:, a:b], t[:, a - 1:b - 1], out=t[:, a:b])
            t[:, 0] -= prior
        np.copyto(prior, end)
        row[:, first:first + t.shape[1]] *= t

    _urn_paths(n, chunk, n - 1, take, timed)
    return row


def _windows(n: int, chunk: tuple, *bounds) -> np.ndarray:
    """Per replicate, a column per window (lo, hi): the external length on levels lo..hi-1,
    columns n-1-k of _levels' row, summed up the levels."""
    row = _levels(n, chunk)
    return np.column_stack([row[:, n - hi:n - lo][:, ::-1].sum(axis=1) for lo, hi in bounds])


def _hat_length(n: int, chunk: tuple, m: int, big_m: int) -> np.ndarray:
    """The increment form's sum over levels m+1..n less its sum over levels M+1..n."""
    row = _levels(n, chunk, hat=True)[:, ::-1]  # column k-2 holds level k's term
    return row[:, m - 1:].sum(axis=1) - row[:, big_m - 1:].sum(axis=1)


def _level_rows(n: int, *levels) -> int:
    """The L family's rows: _levels' row of n-1 terms, its prior and the next one."""
    return 8 * (n + 1)


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

    def take(first, tile):
        np.add(hits, _tau_hits(n, first, tile[1:]), out=hits)

    _urn_paths(n, chunk, n - 1, take)
    return hits.astype(float)


def _snapshot(n: int, chunk: tuple, steps) -> np.ndarray:
    """Per replicate, U_s at each step (one, or a row of one per replicate); U_0 = U_n = 0."""
    at = np.broadcast_to(np.transpose(steps), (chunk[3], len(steps)))  # a row per replicate
    out = np.zeros(at.shape)

    def take(first, tile):
        now = (at > first) & (at < first + len(tile))
        out[now] = tile[at[now] - first, now.nonzero()[0]]

    _urn_paths(n, chunk, int(np.max(steps, initial=0, where=np.less(steps, n))), take)
    return out


def _eta_count(n: int, chunk: tuple, a: float, b: float) -> np.ndarray:
    """Merge counts X_k summed over the levels k with sqrt(n) T_k in [a, b).

    Time column j, drawn after the n-1 urn uniforms and transformed a block
    at a time, is level k = n-1-j, where X_k = 1 + U_(j+1) - U_j.  A row's
    points rise along it, so its columns in [a, b) are c_a..c_b-1, with c_a
    and c_b its points below a and below b, and their X_k telescope to
    c_b - c_a + U_(c_b) - U_(c_a).  Drawing stops once every row is past b.
    """
    steps, count = n - 1, chunk[3]
    ends, prior = np.zeros((2, count), dtype=np.int64), None  # c_a and c_b per row
    for first in range(0, steps, BLOCK):
        t = _times(n, _uniform_rows(*chunk, min(BLOCK, steps - first), steps + first),
                   first, prior)
        prior = t[:, -1].copy()
        if (prior * math.sqrt(n) < a).all():  # rows rise: every point of the block is below a
            ends += t.shape[1]
            del t
            continue
        t *= math.sqrt(n)  # the scaled points
        ends[0] += np.count_nonzero(t < a, axis=1)
        ends[1] += np.count_nonzero(t < b, axis=1)
        past = (t[:, -1] >= b).all()
        del t  # before the next block is drawn or the chain is stepped
        if past:
            break
    ends *= ends[0] < ends[1]  # rows with no point in [a, b) read U_0 = 0
    u = _snapshot(n, chunk, ends)  # U_(c_a) and U_(c_b)
    return ends[1] - ends[0] + (u[:, 1] - u[:, 0])


def _check_steps(n: int, steps) -> np.ndarray:
    cells = np.array(steps, dtype=object)  # numpy refuses a ragged list in any other dtype
    if cells.ndim != 1 or len(cells) == 0 or any(map(np.ndim, cells)):
        raise ValueError(f"steps must be a nonempty sequence, got {steps!r}")
    return np.array([check_count("step k", k, 0, n) for k in steps], dtype=int)


def _window_length(n: int, chunk: tuple, lo: int, hi: int) -> np.ndarray:
    return _windows(n, chunk, (lo, hi))[:, 0]


STATISTICS: dict[str, Statistic] = {
    "L": Statistic(_window_length, levels=lambda n: (1, n), rows=_level_rows),  # every level
    "L_window": Statistic(_window_length, ("alpha", "beta"), window, rows=_level_rows),
    "L_hat": Statistic(_hat_length, ("alpha", "beta"), cuts, rows=_level_rows),
    "tau": Statistic(_tau),
    "rho": Statistic(lambda n, chunk: _rho_inverse_cdf(n, _uniform_rows(*chunk, 1)[:, 0])
                     .astype(float)),
    "R": Statistic(_r),
    "urn_marginal": Statistic(lambda n, chunk, k: _snapshot(n, chunk, [k])[:, 0], ("k",),
                              lambda n, k: (check_count("step k", k, 0, n),)),
    "eta_count": Statistic(_eta_count, ("a", "b"), lambda n, a, b: check_interval(a, b)),
    # its row of values, twice: simulate concatenates the chunks' rows
    "urn_snapshot": Statistic(_snapshot, ("steps",), lambda n, steps: (_check_steps(n, steps),),
                              two_d=True, rows=lambda n, steps: 16 * len(steps)),
    "window_pair": Statistic(_windows, ("window1", "window2"), lambda n, window1, window2: (
        window(n, *window1), window(n, *window2)), two_d=True, rows=_level_rows),
}


def _chunk_kernel(statistic: str, n: int, seed: int, stream_id: int,
                  start: int, count: int, levels: tuple) -> np.ndarray:
    return STATISTICS[statistic].values(n, (seed, stream_id, start, count), *levels)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def check_run(seed, threads) -> None:  # plan's checks of both, for callers that plan nothing
    check_count("threads", threads, 1)
    check_count("seed", seed, 0, 2 ** 64 - 1)


Task = NamedTuple("Task", [("fn", Callable), ("args", tuple)])  # fn(*args) for run


def _call(task: Task):
    return task.fn(*task.args)


def plan(statistic: str, n: int, reps: int, seed: int, *,
         threads: int = 1, stream_id: int = 0, **params) -> list[Task]:
    """The chunk tasks of simulate(...), after every check of its arguments; their count
    is a multiple of the min(threads, chunks, usable CPUs) workers, or reps."""
    check_count("sample size n", n, 2)
    check_count("reps", reps, 1)
    check_run(seed, threads)
    spec = STATISTICS.get(statistic)
    if spec is None:
        raise ValueError(f"unknown statistic {statistic!r}")
    if sorted(params) != sorted(spec.keywords):
        raise ValueError(f"{statistic} takes keywords {list(spec.keywords)}, "
                         f"got {sorted(params)}")
    levels = spec.levels(n, **params)
    seed = int(seed)  # rng masks it with a Python int
    replicate_key(seed, reps - 1, stream_id)  # rejects a bad stream id or too many reps
    count = -(-reps // _width(spec, n, *levels))  # chunks
    workers = min(threads, count, _usable_cpus())
    count = min(reps, workers * -(-count // workers))
    size, extra = divmod(reps, count)  # equal chunks: no short one at the end
    return [Task(_chunk_kernel, (statistic, n, seed, stream_id, i * size + min(i, extra),
                                 size + (i < extra), levels)) for i in range(count)]


def run(tasks: list[Task], threads: int = 1) -> Iterator:
    """Each task's result, in task order, once it and those before it have ended: from one
    pool of min(threads, tasks, usable CPUs) forked processes, or with one worker, here.
    plan or verify.run_suite checks threads; no task starts before a result is asked for."""
    workers = min(threads, len(tasks), _usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, not when kingman is imported
        from multiprocessing import get_all_start_methods, get_context

        if "fork" in get_all_start_methods():
            # fork: workers share the imported modules instead of importing them again
            with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
                # map yields in task order; closed early or on an exception, it cancels the rest
                yield from pool.map(_call, tasks)
            return
    yield from map(_call, tasks)


def simulate(statistic: str, n: int, reps: int, seed: int, *,
             threads: int = 1, stream_id: int = 0, **params) -> np.ndarray:
    """One value per replicate (a row for the statistics marked two_d): run(plan(...)).

    The statistic, its keywords and the seed, an integer in 0..2^64-1, are
    checked before anything is drawn.  threads never changes the output.
    """
    tasks = plan(statistic, n, reps, seed, threads=threads, stream_id=stream_id, **params)
    return np.concatenate(list(run(tasks, threads)), axis=0)
