"""Vectorized replicate engine: determinism, worker pool, scalar agreement."""

import concurrent.futures
import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaincc

from kingman import batch, coalescent, moments, urn
from kingman.rng import replicate_stream

SEED = 2024


def scalar_L(n, rep, seed, stream_id=0):
    rng = replicate_stream(seed, rep, stream_id)
    path = urn.sample_urn_path(n, rng)
    times = coalescent.sample_waiting_times(n, rng)
    return coalescent.total_external_length(times,
                                            coalescent.history_from_urn_path(path))


def test_repeatable():
    a = batch.simulate("L", 20, 300, SEED)
    b = batch.simulate("L", 20, 300, SEED)
    assert a.tobytes() == b.tobytes()


def width(stat, n, **params):
    """Replicates per chunk that the byte budget gives stat at n, with no pool."""
    return batch._width(batch.STATISTICS[stat].draw, n, **params)


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
    """(statistic, params) at the ends of eta_count's band, of the horizon and of a block."""
    rng = replicate_stream(SEED, 0)
    urn.sample_urn_path(n, rng)
    points = coalescent.sample_waiting_times(n, rng).t * math.sqrt(n)  # points[k] at level k
    cases = [("eta_count", {"a": 1e6, "b": 2e6}),  # no point reaches a: an empty band
             ("eta_count", {"a": 1e-12, "b": 2e-12}),  # every point is past b at once
             ("eta_count", {"a": 1e-12, "b": 1e12}),  # every level, from n-1 down to 1
             ("urn_marginal", {"k": 0}), ("urn_marginal", {"k": n})]
    steps = {0, 1, n - 1, n}
    for edge in (4, 12):  # block edges at BLOCK = 4 and 12
        if edge < n - 1:
            # replicate 0 has points at time columns edge-1 and edge: levels n-edge and n-edge-1
            cases.append(("eta_count", {"a": points[n - edge] * (1 - 1e-9),
                                        "b": points[n - edge - 1] * (1 + 1e-9)}))
        if edge <= n:
            cases.append(("urn_snapshot", {"steps": [edge]}))  # the horizon ends on the edge
            steps |= {edge, edge + 1} & set(range(n + 1))
    return cases + [("urn_snapshot", {"steps": sorted(steps)})]


def test_width_and_block_invariance(monkeypatch):
    # With BLOCK = 12: n-1 = 5, 6, 7 and 13 cover n-1 = 1, 2, 3 (mod 4);
    # 2(n-1) = 12 fills one block at n = 7 and straddles two at n = 8; n-1 > 12
    # from n = 14.  The default BLOCK draws each replicate in one piece here.
    reps = 23
    # R transforms TILE time columns at a time over the rows that still read
    # them: at each n here its rows need from 1 to n-1 columns, and TILE = 1
    # and 3 end prefixes on a tile edge
    variants = [("MAX_WIDTH", 1), ("MAX_WIDTH", 7), ("MAX_WIDTH", 16),  # 2 chunks: 12 and 11
                ("BLOCK", 4), ("BLOCK", 12)]
    tiles = [("TILE", 1), ("TILE", 3), ("TILE", 64)]
    for n in (6, 7, 8, 14, 40):
        cases = [(stat, invariance_params(stat, n)) for stat in batch.STATISTICS]
        for stat, params in cases + edge_cases(n):
            expect = batch.simulate(stat, n, reps, SEED, **params).tobytes()
            for name, value in variants + (tiles if stat == "R" else []):
                with monkeypatch.context() as m:
                    m.setattr(batch, name, value)
                    got = batch.simulate(stat, n, reps, SEED, **params)
                assert got.tobytes() == expect, (stat, n, name, value)


def test_chunks_stay_within_the_byte_budget(monkeypatch):
    # The traced peak of one chunk of the full width stays within the budget
    # plus a few length-n vectors that a chunk shares among its replicates
    # (the level and rate arrays), so each Draw kind's byte count is honest.
    n, budget = 5000, 4 << 20
    slack = 8 * 8 * n + (64 << 10)
    monkeypatch.setattr(batch, "BUDGET", budget)
    cases = [(stat, invariance_params(stat, n)) for stat in batch.STATISTICS]
    cases.append(("urn_snapshot", {"steps": range(n + 1)}))  # a row of n+1 values per replicate
    tracemalloc.start()
    try:
        for stat, params in cases:
            reps = width(stat, n, **params)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            batch.simulate(stat, n, reps, SEED, **params)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak <= budget + slack, (stat, peak)
    finally:
        tracemalloc.stop()


def test_block_reducers_hold_memory_flat_in_n():
    # tau, urn_snapshot and eta_count reduce each block as it is stepped, so
    # one chunk's traced peak per replicate does not grow with n
    reps = 256  # one chunk at both n
    tracemalloc.start()
    try:
        for stat in ("tau", "urn_snapshot", "eta_count"):
            peaks = []
            for n in (2000, 20_000):
                params = {"a": 1.0, "b": 2.0} if stat == "eta_count" else invariance_params(stat, n)
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                batch.simulate(stat, n, reps, SEED, **params)
                peaks.append((tracemalloc.get_traced_memory()[1] - before) / reps)
            assert abs(peaks[1] / peaks[0] - 1) <= 0.1, (stat, peaks)
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


def test_width_at_a_million_fits_the_budget():
    n = 10 ** 6
    for stat, spec in batch.STATISTICS.items():
        params = invariance_params(stat, n)
        w = batch._width(spec.draw, n, **params)
        assert w >= 1 and w * spec.draw.bytes(n, **params) <= batch.BUDGET, stat


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


def test_uniform_rows_reject_replicates_past_the_key_range():
    for draws in (3, 5):  # the vector path and the re-keyed rows
        with pytest.raises(ValueError):
            batch._uniform_rows(SEED, 0, 2 ** 48 - 511, 512, draws)


def test_r_prefix_matches_whole_rows():
    # R draws and transforms only the n - rho time uniforms it reads; the
    # whole-row formula gives the same bits.  2000 replicates span two chunks.
    reps = 2000
    for n in (2, 3, 4, 5, 65, 66, 129, 1000):
        w = batch._uniform_rows(SEED, 3, 0, reps, n)
        rho = batch._rho_inverse_cdf(n, w[:, 0])
        expect = batch._times(n, w[:, 1:])[:, ::-1][np.arange(reps), rho - 1]
        got = batch.simulate("R", n, reps, SEED, stream_id=3)
        assert got.tobytes() == expect.tobytes(), n


def test_urn_marginal_matches_scalar_exactly():
    n, k = 15, 6
    vals = batch.simulate("urn_marginal", n, 200, SEED, k=k)
    for rep in range(200):
        rng = replicate_stream(SEED, rep)
        path = urn.sample_urn_path(n, rng)
        assert vals[rep] == path.u[k]


def test_total_length_matches_scalar():
    n = 30
    vals = batch.simulate("L", n, 100, SEED)
    for rep in range(100):
        assert vals[rep] == pytest.approx(scalar_L(n, rep, SEED), rel=1e-12)


def test_tau_matches_scalar_exactly():
    n = 25
    vals = batch.simulate("tau", n, 300, SEED)
    for rep in range(300):
        rng = replicate_stream(SEED, rep)
        path = urn.sample_urn_path(n, rng)
        assert vals[rep] == urn.tau(path)


def test_hat_length_matches_scalar():
    n, alpha, beta = 40, 0.4, 0.9
    vals = batch.simulate("L_hat", n, 100, SEED, alpha=alpha, beta=beta)
    for rep in range(100):
        rng = replicate_stream(SEED, rep)
        path = urn.sample_urn_path(n, rng)
        times = coalescent.sample_waiting_times(n, rng)
        hist = coalescent.history_from_urn_path(path)
        expect = coalescent.hat_external_length(times, hist, alpha, beta)
        assert vals[rep] == pytest.approx(expect, rel=1e-10, abs=1e-12)


def test_window_matches_scalar():
    n, alpha, beta = 60, 0.3, 0.8
    vals = batch.simulate("L_window", n, 100, SEED, alpha=alpha, beta=beta)
    for rep in range(100):
        rng = replicate_stream(SEED, rep)
        path = urn.sample_urn_path(n, rng)
        times = coalescent.sample_waiting_times(n, rng)
        hist = coalescent.history_from_urn_path(path)
        expect = coalescent.window_external_length(times, hist, alpha, beta)
        assert vals[rep] == pytest.approx(expect, rel=1e-12)


def test_eta_count_matches_scalar():
    n, a, b = 50, 0.5, 3.0
    vals = batch.simulate("eta_count", n, 200, SEED, a=a, b=b)
    for rep in range(200):
        rng = replicate_stream(SEED, rep)
        path = urn.sample_urn_path(n, rng)
        times = coalescent.sample_waiting_times(n, rng)
        hist = coalescent.history_from_urn_path(path)
        pattern = coalescent.scaled_point_pattern(times, hist)
        assert vals[rep] == pattern.count(a, b)


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
    law = {u: float(p) for u, p in urn.exact_marginal(n, k).items()}
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
]


def test_input_validation(monkeypatch):
    monkeypatch.setattr(batch, "_uniform_rows", _no_draws)
    for args, params in BAD_INPUTS:
        with pytest.raises(ValueError):
            batch.simulate(*args, SEED, **params)
