"""Vectorized replicate engine: determinism, worker pool, scalar agreement."""

import concurrent.futures
import hashlib
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaincc

from conftest import checked_hat_length
from kingman import batch, coalescent, moments, urn, verify
from kingman.rng import replicate_key, replicate_stream

SEED = 2024


def test_repeatable():
    a = batch.simulate("L", 20, 300, SEED)
    b = batch.simulate("L", 20, 300, SEED)
    assert a.tobytes() == b.tobytes()
    for seed in (np.int64(SEED), np.uint64(SEED)):  # numpy integers are seeds too
        assert batch.simulate("L", 20, 300, seed).tobytes() == a.tobytes()


def width(stat, n, **params):
    """Replicates per chunk that the byte budget gives stat at n, with no pool."""
    spec = batch.STATISTICS[stat]
    return batch._width(spec, n, *spec.levels(n, **params))


def test_replicate_count_extension():
    # each replicate owns its stream: a longer run extends a shorter one
    w = width("L", 20)
    short = batch.simulate("L", 20, w + 3, SEED)
    long = batch.simulate("L", 20, 2 * w, SEED)
    assert short.tobytes() == long[: w + 3].tobytes()


def test_stream_ids_are_disjoint():
    a = batch.simulate("L", 20, 100, SEED, stream_id=1)
    b = batch.simulate("L", 20, 100, SEED, stream_id=2)
    assert not np.array_equal(a, b)


# SHA-256 of the shape and little-endian float64 bytes of simulate(stat, 40,
# 600, SEED, **params): 600 replicates span two chunks, so chunk boundaries
# and the worker pool are both exercised.  A changed digest means a changed
# random stream or reduction.
FROZEN_DIGESTS = {
    "L": ({}, "1b04d447913de6372df49516171ff65579e58bfad17b9035ed34d0042da1375f"),
    "L_window": ({"alpha": 0.3, "beta": 0.8},
                 "372134c87cdba85f5d80caa32f28c1b58a634878bd41e9cc6ba9a939a85e3d4a"),
    "L_hat": ({"alpha": 0.4, "beta": 0.9},
              "f3b08666203e63d576555ddecd77f421dbb8977defe6ea1d76b690e19f81fb49"),
    "tau": ({}, "531525217caef1942ac969ceaf6c1c6611c9336f17df9334aa8e5c316ca7d2b0"),
    "rho": ({}, "372f96c1b4a54165f00f04597a9e4c428852d0881298f94e7af2f4b844b8c290"),
    "R": ({}, "9b1b95e0ee655c1285c61681da34aacb7f0edd4fd1cf96ef95ca4676b497d5ef"),
    "urn_marginal": ({"k": 11},
                     "b310a9a321db6fd381ace5b8e996e292eb18d9a5ecb93eea59a50f7448ac5dfe"),
    "eta_count": ({"a": 0.5, "b": 3.0},
                  "8e52824226519fb9b3892d01a3a614ca49fb2ed9aa7f78e8961db30cb8cb9040"),
    "urn_snapshot": ({"steps": [5, 20, 35]},
                     "125103391a11ebc440c90b49efa06bc960d518fd3187afc9989efb775aa1406a"),
    "window_pair": ({"window1": (0.0, 0.5), "window2": (0.5, 1.0)},
                    "7a26410830a01d391b4e4f6cc130119d0b4319a0b46987b3f193c674f2a4d3de"),
}


@pytest.mark.parametrize("threads", [1, 2])
def test_outputs_match_frozen_digests(threads):
    for stat, (params, expected) in FROZEN_DIGESTS.items():
        out = batch.simulate(stat, 40, 600, SEED, threads=threads, **params)
        arr = np.ascontiguousarray(out, dtype="<f8")
        digest = hashlib.sha256(repr(arr.shape).encode() + arr.tobytes()).hexdigest()
        assert digest == expected, stat


def test_thread_count_invariance():
    assert FROZEN_DIGESTS.keys() == batch.STATISTICS.keys()
    for stat, (params, _) in FROZEN_DIGESTS.items():
        reps = 3 * width(stat, 40, **params) + 7  # four chunks of unequal sizes
        a = batch.simulate(stat, 40, reps, SEED, threads=1, **params)
        for threads in (2, 8):
            b = batch.simulate(stat, 40, reps, SEED, threads=threads, **params)
            assert a.tobytes() == b.tobytes(), (stat, threads)


def invariance_params(stat, n):
    params = dict(FROZEN_DIGESTS[stat][0])
    if stat == "urn_marginal":
        params["k"] = n // 3
    elif stat == "urn_snapshot":
        params["steps"] = [1, n // 2, n]
    return params


def edge_cases(n):
    """(statistic, params) at the ends of eta_count's levels, of the horizon and of a block.

    Replicate 0 has c points below cut(c), for c in 0..n-1: time column c
    is level n-1-c, and eta_count reads U_(c_a) and U_(c_b).
    """
    rng = replicate_stream(SEED, 0)
    urn.sample_urn_path(n, rng)
    points = coalescent.sample_waiting_times(n, rng).t * math.sqrt(n)  # points[k] at level k

    def cut(c):
        return points[n - 1 - c] * (1 - 1e-9) if c < n - 1 else 1e12

    cases = [("eta_count", {"a": 1e6, "b": 2e6}),  # no point reaches a: no level
             ("eta_count", {"a": 1e-12, "b": 2e-12}),  # every point is past b at once
             ("eta_count", {"a": 1e-12, "b": 1e12}),  # every level, from n-1 down to 1
             ("urn_marginal", {"k": 0}), ("urn_marginal", {"k": n})]
    steps = {0, 1, n - 1, n}
    for edge in (4, 12):  # block edges at BLOCK = 4 and 12
        if edge < n - 1:
            # replicate 0 has points at time columns edge-1 and edge: levels n-edge and n-edge-1
            cases.append(("eta_count", {"a": points[n - edge] * (1 - 1e-9),
                                        "b": points[n - edge - 1] * (1 + 1e-9)}))
            cases.append(("eta_count", {"a": 1e-12, "b": cut(edge)}))  # c_b = edge
            cases.append(("eta_count", {"a": cut(edge), "b": cut(edge + 1)}))  # c_a = edge
        if edge + 1 < n - 1:
            cases.append(("eta_count", {"a": cut(edge + 1), "b": 1e12}))  # c_a = edge + 1
        if edge <= n:
            cases.append(("urn_snapshot", {"steps": [edge]}))  # the horizon ends on the edge
            steps |= {edge, edge + 1} & set(range(n + 1))
    return cases + [("urn_snapshot", {"steps": sorted(steps)})]


def test_width_and_block_invariance(monkeypatch):
    # With BLOCK = 12: n-1 = 5, 6, 7 and 13 cover n-1 = 1, 2, 3 (mod 4);
    # 2(n-1) = 12 fills one block at n = 7 and straddles two at n = 8; n-1 > 12
    # from n = 14.  The default BLOCK draws each replicate in one piece here.
    reps = 23
    # The urn chain is stepped TILE columns of a block at a time, and R
    # transforms TILE time columns at a time over the rows that still read
    # them (at each n here they need from 1 to n-1 columns), in pieces of
    # BLOCK words: TILE = 1 and 3 end tiles and prefixes on a tile edge, and
    # with BLOCK = 12 and TILE = 5 a tile ends early at each block edge.  At
    # n = 9 R's rows are 8 doubles, 64 bytes, wide, and TILE = 1 takes
    # one-column views of them.
    variants = [{"MAX_WIDTH": 1}, {"MAX_WIDTH": 7}, {"MAX_WIDTH": 16},  # 2 chunks: 12 and 11
                {"BLOCK": 4}, {"BLOCK": 12}, {"TILE": 1}, {"TILE": 3}, {"TILE": 64},
                {"BLOCK": 12, "TILE": 5}]
    for n in (6, 7, 8, 9, 14, 40):
        cases = [(stat, invariance_params(stat, n)) for stat in batch.STATISTICS]
        for stat, params in cases + edge_cases(n):
            expect = batch.simulate(stat, n, reps, SEED, **params).tobytes()
            for settings in variants:
                with monkeypatch.context() as m:
                    for name, value in settings.items():
                        m.setattr(batch, name, value)
                    got = batch.simulate(stat, n, reps, SEED, **params)
                assert got.tobytes() == expect, (stat, n, settings)


def traced_peak(*args, **params):
    """Traced peak of batch.simulate(*args, **params) over the memory traced
    before it, run on a new thread: the peak counts the making of that
    thread's pooled streams, whatever earlier tests have drawn."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    errors = []

    def target():
        try:
            batch.simulate(*args, **params)
        except BaseException as e:  # re-raised on the test's thread
            errors.append(e)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=300)
    assert not thread.is_alive()
    if errors:
        raise errors[0]
    return tracemalloc.get_traced_memory()[1] - before


def test_chunks_stay_within_the_byte_budget(monkeypatch):
    # The traced peak of one chunk of the full width stays within the budget
    # plus a few length-n vectors that a chunk shares among its replicates
    # (the level and rate arrays), so each statistic's stated bytes are
    # honest.  With no cap on the width, every width comes from those bytes.
    # R shares no length-n vector, so it must fit the budget itself.
    n, budget = 5000, 4 << 20
    slack = 8 * 8 * n + (64 << 10)
    monkeypatch.setattr(batch, "BUDGET", budget)
    monkeypatch.setattr(batch, "MAX_WIDTH", 1 << 40)
    cases = [(stat, invariance_params(stat, n)) for stat in batch.STATISTICS]
    cases.append(("urn_snapshot", {"steps": range(n + 1)}))  # a row of n+1 values per replicate
    tracemalloc.start()
    try:
        for stat, params in cases:
            peak = traced_peak(stat, n, width(stat, n, **params), SEED, **params)
            assert peak <= budget + (0 if stat == "R" else slack), (stat, peak)
    finally:
        tracemalloc.stop()


def test_block_reducers_hold_memory_flat_in_n():
    # tau, urn_snapshot and eta_count reduce each tile as it is stepped, and R
    # each piece of time uniforms as it is drawn, so one chunk's traced peak
    # per replicate does not grow with n, and at the larger n it stays within
    # twice a replicate's block of draws (8 * BLOCK bytes), the one large
    # buffer, with its pooled stream counted.  Each draws past a block at both
    # n: urn_snapshot stops at its last step below n, and R at its longest need.
    reps = 256  # one chunk at both n
    tracemalloc.start()
    try:
        for stat in ("tau", "urn_snapshot", "eta_count", "R"):
            peaks = []
            for n in (2000, 20_000):
                params = {"tau": {}, "urn_snapshot": {"steps": [1, n - 1, n]},
                          "eta_count": {"a": 1.0, "b": 2.0}, "R": {}}[stat]
                peaks.append(traced_peak(stat, n, reps, SEED, **params) / reps)
            assert abs(peaks[1] / peaks[0] - 1) <= 0.1, (stat, peaks)
            assert peaks[1] <= 16 * batch.BLOCK, (stat, peaks)
    finally:
        tracemalloc.stop()


def test_level_rows_grow_by_eight_bytes_per_level():
    # The L family keeps one float64 term per level and replicate, and the rest
    # of its chunk is bounded by a block: one chunk's traced peak per
    # replicate grows by about 8 bytes a level.
    reps = 256  # one chunk at both n
    tracemalloc.start()
    try:
        for stat, params in (("L", {}), ("L_hat", {"alpha": 0.4, "beta": 0.9})):
            peaks = [traced_peak(stat, n, reps, SEED, **params) / reps for n in (2000, 20_000)]
            assert (peaks[1] - peaks[0]) / 18_000 <= 8.5, (stat, peaks)
    finally:
        tracemalloc.stop()


def test_tau_hits_count_tau_on_every_path():
    # the hit count equals tau on every path of positive probability, in blocks of 1-3 steps
    for n in range(2, 10):
        paths = list(urn.exact_path_law(n))
        rows = np.array([path[1:n] for path in paths], dtype=float).T  # U_1..U_(n-1)
        expect = [urn.tau(urn.UrnPath(n, path)) for path in paths]
        for size in (1, 2, 3):
            hits = sum(batch._tau_hits(n, first, rows[first:first + size])
                       for first in range(0, n - 1, size))
            assert hits.tolist() == expect, (n, size)


class Words:
    """A stream that serves the given words, for the scalar samplers."""

    def __init__(self, words):
        self.words = iter(words.tolist())

    def random(self):
        return next(self.words)


def path_words(n):
    """Each path of urn.exact_path_law(n), and words per replicate that force it: step j's
    word is the midpoint of the urn._float_thresholds interval of its move, and the n-1
    time words after them are fixed."""
    paths = list(urn.exact_path_law(n))
    words = np.random.default_rng(n).random((len(paths), 2 * (n - 1)))
    for r, path in enumerate(paths):
        for j in range(n - 1):
            down, stay = urn._float_thresholds(n, j, path[j])
            lo, hi = {-1: (0.0, down), 0: (down, stay), 1: (stay, 1.0)}[path[j + 1] - path[j]]
            words[r, j] = (lo + hi) / 2
    return paths, words


def serve(words):
    """_uniform_rows over fixed words: row p is words[start + order[p]][offset:offset + draws]."""
    def uniform_rows(seed, stream_id, start, count, draws, offset=0, order=None, lengths=None):
        rows = np.arange(count) if order is None else order
        out = words[start + rows, offset:offset + draws].copy()
        if lengths is not None:
            out[np.arange(draws) >= lengths[:, None]] = 0.0
        return out
    return uniform_rows


def scalar_rho(n, w):
    return max(k for k in range(1, n) if moments.rho_cdf(n, k) <= w)


WINDOWS = [(0.0, 1.0), (0.0, 0.5), (0.3, 0.8), (0.5, 1.0), (0.6, 0.7), (0.4, 0.9)]
# per statistic: its keyword sets at n, and its value from the scalar samplers' path,
# times and history, driven by the same words, and from the words themselves
SCALAR = {
    "L": (lambda n: [{}],
          lambda path, times, hist, w: coalescent.total_external_length(times, hist)),
    "L_window": (lambda n: [{"alpha": a, "beta": b} for a, b in WINDOWS],
                 lambda path, times, hist, w, alpha, beta:
                 coalescent.window_external_length(times, hist, alpha, beta)),
    "L_hat": (lambda n: [{"alpha": a, "beta": b} for a, b in WINDOWS],
              lambda path, times, hist, w, alpha, beta:
              checked_hat_length(times, hist, alpha, beta)),
    "tau": (lambda n: [{}], lambda path, times, hist, w: urn.tau(path)),
    "rho": (lambda n: [{}], lambda path, times, hist, w: scalar_rho(hist.n, w[0])),
    "R": (lambda n: [{}], lambda path, times, hist, w: coalescent.sample_waiting_times(
        hist.n, Words(w[1:])).t[scalar_rho(hist.n, w[0])]),
    "urn_marginal": (lambda n: [{"k": k} for k in range(n + 1)],
                     lambda path, times, hist, w, k: path.u[k]),
    "eta_count": (lambda n: [{"a": 0.5, "b": 3.0}, {"a": 1e-9, "b": 1e9}],
                  lambda path, times, hist, w, a, b:
                  coalescent.scaled_point_pattern(times, hist).count(a, b)),
    "urn_snapshot": (lambda n: [{"steps": list(range(n + 1))}],
                     lambda path, times, hist, w, steps: [path.u[s] for s in steps]),
    "window_pair": (lambda n: [{"window1": WINDOWS[i], "window2": WINDOWS[i + 1]}
                               for i in range(len(WINDOWS) - 1)],
                    lambda path, times, hist, w, window1, window2:
                    [coalescent.window_external_length(times, hist, *window1),
                     coalescent.window_external_length(times, hist, *window2)]),
}
INTEGER = {"tau", "rho", "urn_marginal", "eta_count", "urn_snapshot"}


def scalar_cases(n, words):
    """Each row of words through the scalar samplers: (path, times, history, row)."""
    cases = []
    for w in words:
        rng = Words(w)
        path = urn.sample_urn_path(n, rng)
        times = coalescent.sample_waiting_times(n, rng)
        cases.append((path, times, coalescent.history_from_urn_path(path), w))
    return cases


def assert_matches_scalar(stat, n, cases, rel, abs):
    """stat at each of its SCALAR keyword sets against the scalar value of each case,
    integers exactly."""
    keywords, scalar = SCALAR[stat]
    for params in keywords(n):
        got = batch.simulate(stat, n, len(cases), SEED, **params)
        expect = np.array([scalar(*case, **params) for case in cases], dtype=float)
        if stat in INTEGER:
            assert got.tolist() == expect.tolist(), (stat, n, params)
        else:
            assert got == pytest.approx(expect, rel=rel, abs=abs), (stat, n, params)


def test_every_statistic_matches_scalar_on_every_path(monkeypatch):
    # Every path of positive probability at n = 2..9, through every statistic:
    # a level read one step off changes some path's value.
    assert SCALAR.keys() == batch.STATISTICS.keys()
    for n in range(2, 10):
        paths, words = path_words(n)
        monkeypatch.setattr(batch, "_uniform_rows", serve(words))
        cases = scalar_cases(n, words)
        assert [path.u for path, *_ in cases] == paths
        # L_hat is a difference of two sums: compare to the lengths' scale, n T_1
        scale = n * max(times.t[1] for _, times, _, _ in cases)
        for stat in SCALAR:
            assert_matches_scalar(stat, n, cases, rel=1e-12, abs=1e-12 * scale)


# n and replicates per statistic on real streams
REAL_STREAMS = {"L": (30, 100), "L_window": (60, 100), "L_hat": (40, 100), "tau": (25, 300),
                "rho": (25, 300), "R": (30, 300), "urn_marginal": (15, 200),
                "eta_count": (50, 200), "urn_snapshot": (40, 100), "window_pair": (60, 100)}


@pytest.mark.parametrize("stat", SCALAR)
def test_every_statistic_matches_scalar_on_real_streams(stat):
    # the words batch.simulate draws: each replicate's n-1 urn words, then its n-1 time words
    n, reps = REAL_STREAMS[stat]
    words = np.array([replicate_stream(SEED, rep).random(2 * (n - 1)) for rep in range(reps)])
    # L_hat is a difference of two sums
    assert_matches_scalar(stat, n, scalar_cases(n, words),
                          rel=1e-10 if stat == "L_hat" else 1e-12, abs=1e-12)


def test_width_at_a_million_fits_the_budget():
    n = 10 ** 6
    for stat, spec in batch.STATISTICS.items():
        levels = spec.levels(n, **invariance_params(stat, n))
        w = batch._width(spec, n, *levels)
        assert w >= 1 and w * batch._bytes(spec, n, *levels) <= batch.BUDGET, stat


def test_widths_are_full_at_the_shapes_verify_and_the_benchmark_run():
    # A byte statement that narrowed these chunks would slow verify silently.
    shapes = [(c.statistic, c.n, c.keywords) for c in verify.CRITERIA] + [("rho", 1000, {})]
    for stat, n, params in shapes:
        assert width(stat, n, **params) == batch.MAX_WIDTH, (stat, n)


def test_pool_size_is_capped_by_chunks_and_cpus(monkeypatch):
    pools = []  # max_workers of every process pool simulate starts

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    expected = [2] if len(os.sched_getaffinity(0)) >= 2 else []
    w = width("L", 20)
    batch.simulate("L", 20, w + 1, SEED, threads=8)  # two chunks by the budget
    assert pools == expected
    batch.simulate("L", 20, w + 1, SEED, threads=1)
    batch.simulate("L", 20, w, SEED, threads=8)  # one chunk
    assert pools == expected


def wait_for(path, timeout):
    """True once path exists, False after timeout seconds without it."""
    end = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() >= end:
            return False
        time.sleep(0.005)
    return True


def start_and_wait_for(started, path):
    open(started, "w").close()
    return wait_for(path, 60)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_hands_on_each_result_while_later_tasks_run(monkeypatch, tmp_path, threads):
    # Task 1 ends only once the caller holds task 0's result.  With two
    # workers task 0 ends only once task 1 has started, so that result is
    # handed on while task 1 runs; with one, task 1 starts when asked for.
    monkeypatch.setattr(batch, "_usable_cpus", lambda: 2)
    started, go = str(tmp_path / "started"), str(tmp_path / "go")
    results = batch.run([batch.Task(wait_for, (started, 60 if threads == 2 else 0)),
                         batch.Task(start_and_wait_for, (started, go))], threads)
    assert next(results) == (threads == 2)
    assert os.path.exists(started) == (threads == 2)
    open(go, "w").close()
    assert next(results)
    assert next(results, None) is None


def start_and_sleep(started):
    open(started, "w").close()
    time.sleep(0.05)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_closed_early_starts_no_more_tasks(monkeypatch, tmp_path, threads):
    # closing the results cancels the tasks no worker has taken and waits for the
    # rest: none starts after close returns (a pool queues a few ahead of its workers)
    monkeypatch.setattr(batch, "_usable_cpus", lambda: 2)
    results = batch.run([batch.Task(start_and_sleep, (str(tmp_path / str(i)),))
                         for i in range(40)], threads)
    next(results)
    results.close()
    started = len(os.listdir(tmp_path))
    time.sleep(0.2)
    assert len(os.listdir(tmp_path)) == started < 40


def test_worker_exception_reaches_caller(monkeypatch):
    def broken(*args):
        raise RuntimeError("urn step failed")

    monkeypatch.setattr(batch, "_urn_paths", broken)  # the forked workers inherit it
    with pytest.raises(RuntimeError, match="urn step failed"):
        batch.simulate("tau", 20, 3 * width("tau", 20), SEED, threads=2)


# (seed, stream_id, start, count): seeds outside 0..2^64-1 are masked, and the
# last rows sit at the top of the stream id and replicate ranges
EDGE_KEYS = [(SEED, 0, 0, 3), (-5, 3, 7, 4), (2 ** 70, 1, 100, 2),
             (SEED, 2 ** 16 - 1, 9, 2), (SEED, 5, 2 ** 48 - 512, 512)]


# offsets within the first Philox blocks and around a block of the engine
OFFSETS = (0, 1, 2, 3, 4, 5, batch.BLOCK - 1, batch.BLOCK, batch.BLOCK + 1)


@pytest.mark.parametrize("draws", [1, 2, 3, 4, 98, 1000])
def test_uniform_rows_match_replicate_streams(draws):
    # odd draw counts leave the Philox buffer part-used between replicates,
    # and an offset that is not a multiple of 4 starts inside a Philox block;
    # the ragged form takes the rows in reverse, row p holding 1 + p % draws
    for seed, stream_id, start, count in EDGE_KEYS:
        order, lengths = np.arange(count)[::-1], 1 + np.arange(count) % draws
        for offset in OFFSETS:
            rows = batch._uniform_rows(seed, stream_id, start, count, draws, offset)
            ragged = batch._uniform_rows(seed, stream_id, start, count, draws, offset,
                                         order, lengths)
            assert rows.shape == ragged.shape == (count, draws)
            for i in range(count):
                stream = replicate_stream(seed, start + i, stream_id)
                expect = stream.random(offset + draws)[offset:]
                assert rows[i].tobytes() == expect.tobytes(), (seed, stream_id, start + i, offset)
                p = count - 1 - i  # the ragged row of replicate start + i
                expect[lengths[p]:] = 0.0
                assert ragged[p].tobytes() == expect.tobytes(), (seed, stream_id, start + i, offset)


def stream_rows(seed, stream_id, start, count, draws, offset=0):
    return np.array([replicate_stream(seed, start + i, stream_id).random(offset + draws)[offset:]
                     for i in range(count)])


def test_uniform_rows_continue_only_the_chunk_they_left():
    # A thread's pooled streams draw on only where the last identity-ordered
    # call of the same chunk ended; any other call re-keys them.
    a, b = (SEED, 1, 0, 5), (SEED, 1, 5, 5)  # two chunks of one stream

    def check(chunk, draws, offset, *ragged):
        got = batch._uniform_rows(*chunk, draws, offset, *ragged)
        expect = stream_rows(*chunk, draws, offset)
        if ragged:
            order, lengths = ragged
            expect = expect[order]
            expect[np.arange(draws) >= lengths[:, None]] = 0.0
        assert got.tobytes() == expect.tobytes(), (chunk, draws, offset, ragged)

    # chunk A's first block, chunk B's, then chunk A where its block ended
    check(a, 10, 0)
    check(b, 10, 0)
    check(a, 7, 10)
    # a ragged call, as R makes, between two blocks of one chunk
    check(a, 9, 0)
    check(a, 9, 9, np.arange(5)[::-1], np.array([1, 3, 5, 7, 9]))
    check(a, 9, 9)
    # blocks that start inside a Philox block of four words: 3, 9 and 14
    check(a, 6, 3)
    check(a, 5, 9)
    check(a, 11, 14)
    assert batch._STREAMS.mark == (*a, 25)


def test_uniform_rows_continue_an_ordered_prefix(monkeypatch):
    # R draws its pieces in one order of rows, each piece by the rows that
    # drew the last one to its end, a prefix: those rows draw on with no key
    # lookup, and a re-key looks up one key (plan has checked the key range).
    a, b = (SEED, 2, 0, 6), (SEED, 2, 6, 6)  # two chunks of one stream
    order = np.array([4, 1, 5, 0, 3, 2])
    keys = []
    monkeypatch.setattr(batch, "replicate_key",
                        lambda *args: keys.append(args) or replicate_key(*args))

    def check(chunk, draws, offset, rows, lengths, lookups):
        keys.clear()
        got = batch._uniform_rows(*chunk, draws, offset, rows, np.array(lengths))
        expect = stream_rows(*chunk, draws, offset)[rows]
        expect[np.arange(draws) >= np.array(lengths)[:, None]] = 0.0
        assert got.tobytes() == expect.tobytes(), (chunk, draws, offset)
        assert len(keys) == lookups, (chunk, draws, offset)

    check(a, 9, 0, order, [9, 9, 9, 9, 4, 2], 1)  # a full piece: four rows reach its end
    assert batch._STREAMS.held.tolist() == [4, 1, 5, 0]
    check(a, 7, 9, order[:3], [7, 7, 1], 0)  # a prefix of them, drawn on at the offset
    check(a, 5, 16, order[1:3], [5, 5], 1)  # not a prefix: re-keyed
    check(a, 5, 21, order[1:3], [5, 5], 0)
    check(b, 7, 0, order[:4], [7] * 4, 1)  # another chunk
    check(a, 4, 26, order[1:2], [4], 1)  # the first chunk again: re-keyed at its offset
    assert batch._STREAMS.mark == (*a, 30)


def test_times_transform_one_column_views():
    # numpy 2.4.6's negative(v, out=v) reads a one-column view whose rows are
    # 64 bytes apart as if it were contiguous; each row keeps its own column.
    w = np.random.default_rng(1).random((3, 8))
    expect = batch._times(9, w[:, 7:8].copy(), 7, w[:, 0].copy())
    got = batch._times(9, w[:, 7:8], 7, w[:, 0].copy())
    assert got.tobytes() == expect.tobytes()
    assert (got > w[:, 0:1]).all()


@pytest.mark.parametrize("rows", [1, 7, 1536])
def test_numpy_sums_and_carries_rows_as_the_engine_assumes(rows):
    # Byte identity rests on two numpy behaviours, named here so that an
    # upgrade that breaks one fails by name: a reversed view of a row sums in
    # the pairwise order of a fresh reversed copy (the L family sums _levels'
    # row, and slices of it, so), and a cumsum carried from block to block
    # through its prior, on views of a wider block as in _times, equals one
    # cumsum of the whole row.
    rng = np.random.default_rng(SEED)
    for length in (1, 2, 7, 49, 128, 129, 199, 511, 512, 1536, 9999):
        a = rng.random((rows, length))
        fresh = np.concatenate([a[i:i + 64, ::-1].copy().sum(axis=1) for i in range(0, rows, 64)])
        assert a[:, ::-1].sum(axis=1).tobytes() == fresh.tobytes(), length
        whole = np.cumsum(a, axis=1)
        prior = np.zeros(rows)
        for first in range(0, length, batch.BLOCK):
            block = a[:, first:first + batch.BLOCK]
            block[:, 0] += prior
            np.cumsum(block, axis=1, out=block)
            prior = block[:, -1].copy()
        assert a.tobytes() == whole.tobytes(), length
        del a, whole


def test_rho_inverse_cdf_matches_the_searched_cdf():
    # rho from the root of k(k+1) = w n(n-1), against the search of the whole
    # cdf, at random w and at each cdf value and its float neighbours
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 9, 1000, 10 ** 6):
        ks = np.arange(1, n, dtype=float)
        cdf = (ks + 1.0) * ks / (n * (n - 1.0))
        edges = cdf[:-1] if n <= 1000 else cdf[rng.integers(0, n - 2, 10_000)]
        w = np.concatenate([rng.random(10_000), edges, np.nextafter(edges, 0),
                            np.nextafter(edges, 1), [0.0, np.nextafter(1.0, 0)]])
        expect = np.searchsorted(cdf, w, side="right") + 1
        assert batch._rho_inverse_cdf(n, w).tolist() == expect.tolist(), n


def test_threads_draw_from_their_own_streams():
    # each thread pools its own streams: three threads stepping long chains
    # at once, each with its own seed and switching every 10 us, give the
    # bytes of one thread
    seeds = (SEED, SEED + 1, SEED + 2)
    expect = [batch.simulate("tau", 3000, 64, seed).tobytes() for seed in seeds]
    start = threading.Barrier(len(seeds), timeout=60)

    def tau(seed):
        start.wait()
        return batch.simulate("tau", 3000, 64, seed).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(seeds)) as pool:
            got = [f.result(timeout=60) for f in [pool.submit(tau, seed) for seed in seeds]]
    finally:
        sys.setswitchinterval(interval)
    assert got == expect


def test_uniform_rows_reject_replicates_past_the_key_range(monkeypatch):
    # _uniform_rows trusts its rows to lie in the key range: plan refuses
    # replicates past it, on every stream, before any row is drawn.
    monkeypatch.setattr(batch, "_uniform_rows", _no_draws)
    for stream_id in (0, 5):
        replicate_key(SEED, 2 ** 48 - 1, stream_id)  # the last replicate has a key
        for statistic in ("rho", "L"):
            with pytest.raises(ValueError, match="replicate index must be an integer in"):
                batch.plan(statistic, 10, 2 ** 48 + 1, SEED, stream_id=stream_id)


def test_r_prefix_matches_whole_rows():
    # R draws and transforms only the n - rho time uniforms it reads; the
    # whole-row formula gives the same bits.  2000 replicates span two chunks.
    # R's pieces are BLOCK words of each stream, the first from word 0, rho's:
    # at n = 513, 514 and 1025 the longest needs end on the first word of a
    # piece or on its second.
    reps = 2000
    for n in (2, 3, 4, 5, 65, 66, 129, 513, 514, 1000, 1025):
        w = batch._uniform_rows(SEED, 3, 0, reps, n)
        rho = batch._rho_inverse_cdf(n, w[:, 0])
        expect = batch._times(n, w[:, 1:], 0, None)[:, ::-1][np.arange(reps), rho - 1]
        got = batch.simulate("R", n, reps, SEED, stream_id=3)
        assert got.tobytes() == expect.tobytes(), n


def scalar_eta_count(n, rep, a, b):
    rng = replicate_stream(SEED, rep)
    path = urn.sample_urn_path(n, rng)
    times = coalescent.sample_waiting_times(n, rng)
    hist = coalescent.history_from_urn_path(path)
    return coalescent.scaled_point_pattern(times, hist).count(a, b)


def test_eta_count_blocks_below_a_match_scalar(monkeypatch):
    # A block whose rows all end below a is counted whole without scaling it.
    # edge_cases puts a below every point (never taken), above every point
    # (taken on every block) and, for replicate 0 alone, just past the last
    # column of a block at BLOCK = 4 (taken up to that block) or on it.
    n = 40
    monkeypatch.setattr(batch, "BLOCK", 4)
    for stat, params in edge_cases(n):
        if stat != "eta_count":
            continue
        for reps in (1, 40):
            vals = batch.simulate(stat, n, reps, SEED, **params)
            assert vals.tolist() == [scalar_eta_count(n, rep, **params)
                                     for rep in range(reps)], (params, reps)


def test_window_pair_columns_match_single_windows():
    n = 80
    pair = batch.simulate("window_pair", n, 400, SEED,
                          window1=(0.0, 0.5), window2=(0.5, 1.0))
    col0 = batch.simulate("L_window", n, 400, SEED, alpha=0.0, beta=0.5)
    col1 = batch.simulate("L_window", n, 400, SEED, alpha=0.5, beta=1.0)
    assert pair[:, 0].tobytes() == col0.tobytes()
    assert pair[:, 1].tobytes() == col1.tobytes()


def test_urn_snapshot_is_two_dimensional():
    snap = batch.simulate("urn_snapshot", 30, 50, SEED, steps=[15])
    assert snap.shape == (50, 1)
    snap3 = batch.simulate("urn_snapshot", 30, 50, SEED, steps=[5, 15, 25])
    assert snap3.shape == (50, 3)
    marg = batch.simulate("urn_marginal", 30, 50, SEED, k=15)
    assert snap[:, 0].tobytes() == marg.tobytes()


def test_rho_frequencies():
    n, reps = 10, 50_000
    vals = batch.simulate("rho", n, reps, SEED).astype(int)
    pmf = [float(moments.rho_cdf(n, k + 1) - moments.rho_cdf(n, k))
           for k in range(1, n)]
    counts = np.bincount(vals, minlength=n)[1:n]
    chi2 = sum((counts[i] - reps * pmf[i]) ** 2 / (reps * pmf[i])
               for i in range(n - 1))
    p_value = float(gammaincc((n - 2) / 2.0, chi2 / 2.0))
    assert p_value > 0.001


def test_urn_marginal_frequencies():
    n, k, reps = 12, 5, 50_000
    vals = batch.simulate("urn_marginal", n, reps, SEED, k=k).astype(int)
    law = {u: float(p) for u, p in urn.exact_marginal(n)[k].items()}
    chi2 = sum((np.count_nonzero(vals == u) - reps * p) ** 2 / (reps * p)
               for u, p in law.items())
    p_value = float(gammaincc((len(law) - 1) / 2.0, chi2 / 2.0))
    assert p_value > 0.001


def test_urn_snapshot_matches_scalar_past_int32_range():
    # u*(balls-u) peaks near 27n^2/256, past 2^31 from n ~ 1.43e5
    n = 150_000
    steps = [n // 4, n // 2, 3 * n // 4]
    snap = batch.simulate("urn_snapshot", n, 2, SEED, steps=steps)
    for rep in range(2):
        path = urn.sample_urn_path(n, replicate_stream(SEED, rep))
        assert snap[rep].tolist() == [path.u[s] for s in steps]


def _no_draws(*args):
    raise AssertionError("bad input reached the random streams")


BAD_INPUTS = [
    (("L", 1, 10), {}),
    (("L", 10, 0), {}),
    (("no_such_statistic", 10, 10), {}),
    (("eta_count", 10, 10), {"a": 2.0, "b": 1.0}),
    (("L_window", 10, 10), {"alpha": 0.9, "beta": 0.2}),
    (("urn_snapshot", 10, 10), {"steps": [-1]}),
    (("urn_snapshot", 10, 10), {"steps": [11]}),
    (("urn_marginal", 10, 10), {"k": -1}),
    (("L_window", 10, 10), {"alhpa": 0.3, "beta": 0.8}),
    (("L", 10, 10), {"alpha": 0.3}),
    (("L", 10, 10), {"stream_id": -1}),
    (("L", 10, 10), {"stream_id": 1 << 16}),
    (("L", 10, 10), {"threads": 0}),
    (("L", 10, 10), {"threads": -3}),
    (("L", 10, 10), {"threads": 1.5}),
    (("rho", 3.5, 10), {}),
    (("L", 50.0, 10), {}),
    (("L", 10, 10.5), {}),
    (("rho", 10, True), {}),
    (("rho", 10, 2 ** 48 + 1), {}),  # replicates past the key range
    (("L", 10, 10), {"threads": True}),
    (("L", 20, 5), {"seed": 2 ** 64}),  # was masked to seed 0
    (("L", 20, 5), {"seed": -1}),  # was masked to seed 2^64 - 1
    (("L", 20, 5), {"seed": 7.5}),
    (("L", 20, 5), {"seed": "7"}),
]


def test_steps_are_refused_by_check_count(monkeypatch):
    monkeypatch.setattr(batch, "_uniform_rows", _no_draws)
    cases = [("urn_marginal", {"k": k}, k) for k in (99, -1, True, 2.0)]
    cases += [("urn_snapshot", {"steps": [s]}, s) for s in (11, -1, True)]
    for statistic, params, step in cases:
        with pytest.raises(ValueError) as refused:
            batch.simulate(statistic, 10, 10, SEED, **params)
        assert str(refused.value) == f"step k must be an integer in [0, 10], got {step!r}"
    for steps in ([], 5, (s for s in [1]), [[1]], [1, [2]]):  # not a nonempty sequence of steps
        with pytest.raises(ValueError, match="steps must be a nonempty sequence"):
            batch.simulate("urn_snapshot", 10, 10, SEED, steps=steps)


def test_chunks_check_nothing_plan_checked(monkeypatch):
    # plan turns each statistic's keywords into its levels once: a chunk reads them and
    # calls none of the level rules or checks again.
    tasks = {stat: batch.plan(stat, 40, 600, SEED, **invariance_params(stat, 40))
             for stat in batch.STATISTICS}
    expect = {stat: batch.simulate(stat, 40, 600, SEED, **invariance_params(stat, 40))
              for stat in batch.STATISTICS}

    def refuse(*args):
        raise AssertionError("a chunk checked its levels again")

    for name in ("window", "cuts", "check_interval", "check_count"):
        monkeypatch.setattr(batch, name, refuse)
    for stat, plan in tasks.items():
        got = np.concatenate(list(batch.run(plan)), axis=0)
        assert got.tobytes() == expect[stat].tobytes(), stat


def test_input_validation(monkeypatch):
    monkeypatch.setattr(batch, "_uniform_rows", _no_draws)
    for args, params in BAD_INPUTS:
        with pytest.raises(ValueError):
            batch.simulate(*args, **{"seed": SEED, **params})
