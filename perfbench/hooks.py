"""Per-layer tracing of kingman from outside the package.

The tracer wraps functions of ``kingman``'s modules and never edits them.
Each wrapped function is a span tagged with its layer.  Spans nest per
thread: a span's self time is its duration minus the durations of the spans
it directly contains, so on one thread the self times of all layers add up
to the time spent inside wrapped functions.  Pool threads keep their own
accumulators, merged when the metrics are read, so no lock is taken per
call.  Under a thread pool, times are summed over threads and include
waits for the interpreter lock.

A wrapper replaces the function under every name that binds it in any
``kingman`` module, because callers look names up where they were bound:
``batch`` binds ``replicate_stream`` at import, so patching ``rng`` alone
would miss every call the batch engine makes.

A function that no longer exists is recorded as absent, and every metric
built from it is reported as ``None`` instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
import time

# Statistical criteria of ``verify.statistical_suite`` are told apart by the
# stream id of their ``batch.simulate`` call (``verify._S_*``).  Stream ids
# fix the random streams, so they cannot change without changing outputs.
CRITERIA = {
    1: "total_length",
    2: "truncated_length_normality",
    3: "scaled_point_counts",
    4: "vanishing_window_bound",
    5: "tau_limit_ks",
    6: "single_branch_limit_ks",
    7: "gp_covariance",
    8: "window_independence",
}

EXACT_CHECKS = (
    "check_reversibility",
    "check_chain_moments",
    "check_hypergeometric",
    "check_permutation_representation",
    "check_box_scheme",
    "check_variance_identity",
    "check_martingale_identity",
    "check_tau_tail",
)

URN_ORACLES = (
    "exact_path_law",
    "exact_marginal",
    "exact_joint_marginal",
    "box_scheme_exact_law",
    "permutation_exact_law",
    "hypergeometric_pmf",
    "tau_exact_tail",
    "tau_exact_law",
)

# name -> unit; the order is the report order.
LAYER_METRICS = {
    "rng.streams": "count",
    "rng.stream_s": "s",
    "batch.chunks": "count",
    "batch.chunk_s": "s",
    "batch.draw_s": "s",
    "batch.urn_step_s": "s",
    "batch.times_s": "s",
    "batch.reduce_s": "s",
    "batch.uniform_mb_computed": "MB",
    "batch.pool_wait_s": "s",
    "urn.oracle_calls": "count",
    "urn.oracle_s": "s",
    "urn.transition_calls": "count",
    "moments.calls": "count",
    "moments.s": "s",
    "stats.self_s": "s",
    "stats.cdf_calls": "count",
    "cli.self_s": "s",
    **{f"verify.{name}_s": "s" for name in EXACT_CHECKS},
    **{f"verify.{name}_s": "s" for name in CRITERIA.values()},
}


def _public_functions(module) -> list[str]:
    return [name for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and not name.startswith("_")]


class Tracer:
    """Accumulates span counts and times for the functions it wraps."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()
        self._suite = None  # [criterion stream id or None, segment start]

    # -------------------------------------------------------- accumulation

    def _state(self):
        loc = self._local
        try:
            return loc.table, loc.stack
        except AttributeError:
            loc.table, loc.stack = {}, []
            with self._lock:
                self._tables.append(loc.table)
            return loc.table, loc.stack

    def _wrap(self, fn, key: str, layer: str, on_enter=None):
        tracer = self
        k_calls, k_s, k_self = key + ":calls", key + ":s", key + ":self"
        l_self, l_calls, l_s = layer + ":self", layer + ":outer_calls", layer + ":outer_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table, stack = tracer._state()
            if on_enter is not None:
                try:
                    on_enter(table, args, kwargs)
                except (IndexError, TypeError, KeyError):
                    tracer.absent.add(key + ":args")
            outer = all(frame[0] != layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                table[k_calls] = table.get(k_calls, 0) + 1
                table[k_s] = table.get(k_s, 0.0) + dur
                table[k_self] = table.get(k_self, 0.0) + own
                table[l_self] = table.get(l_self, 0.0) + own
                if outer:
                    table[l_calls] = table.get(l_calls, 0) + 1
                    table[l_s] = table.get(l_s, 0.0) + dur

        return wrapper

    def _patch(self, module, name: str, layer: str, on_enter=None) -> None:
        self._bind(module, name, lambda fn, key: self._wrap(fn, key, layer, on_enter))

    def _bind(self, module, name: str, make) -> None:
        """Replace ``module.name`` by ``make(fn, key)`` wherever it is bound."""
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        fn = getattr(module, name, None)
        if not callable(fn):
            self.absent.add(key)
            return
        wrapper = make(fn, key)
        for mod in [m for n, m in sys.modules.items()
                    if n == "kingman" or n.startswith("kingman.")]:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    # -------------------------------------------------------- observations

    def _on_uniform_rows(self, table, args, kwargs):
        # _uniform_rows(seed, stream_id, start, count, draws)
        mb = args[3] * args[4] * 8 / 1e6
        table["max:uniform_mb"] = max(table.get("max:uniform_mb", 0.0), mb)

    def _on_ks_statistic(self, table, args, kwargs):
        table["stats.cdf_points"] = table.get("stats.cdf_points", 0) + len(args[0])

    def _on_simulate(self, table, args, kwargs):
        # Inside the statistical suite, a new stream id starts a new criterion.
        suite = self._suite
        if suite is None:
            return
        sid = kwargs.get("stream_id", 0)
        if suite[0] is None:
            suite[0] = sid
        elif suite[0] != sid:
            now = time.perf_counter()
            self._close_segment(table, now)
            suite[0], suite[1] = sid, now

    def _close_segment(self, table, now):
        sid, start = self._suite
        key = f"criterion:{CRITERIA.get(sid, sid)}"
        table[key] = table.get(key, 0.0) + now - start

    def _segmented_suite(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def suite(*args, **kwargs):
            table, _ = tracer._state()
            tracer._suite = [None, time.perf_counter()]
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close_segment(table, time.perf_counter())
                tracer._suite = None

        return suite

    # ------------------------------------------------------------- control

    def install(self) -> None:
        """Wrap the layers.  ``kingman`` must already be imported."""
        from kingman import batch, cli, moments, rng, stats, urn, verify

        self._patch(rng, "replicate_stream", "rng")
        self._patch(batch, "simulate", "batch", self._on_simulate)
        self._patch(batch, "_chunk_kernel", "batch")
        self._patch(batch, "_uniform_rows", "batch", self._on_uniform_rows)
        self._patch(batch, "_urn_paths", "batch")
        self._patch(batch, "_times", "batch")
        for name in URN_ORACLES:
            self._patch(urn, name, "urn")
        self._patch(urn, "transition_probabilities", "urn.transition")
        for name in _public_functions(moments):
            self._patch(moments, name, "moments")
        for name in _public_functions(stats):
            on_enter = self._on_ks_statistic if name == "ks_statistic" else None
            self._patch(stats, name, "stats", on_enter)
        for name in _public_functions(cli):
            self._patch(cli, name, "cli")
        for name in EXACT_CHECKS:
            self._patch(verify, name, "verify")
        self._bind(verify, "statistical_suite", self._segmented_suite)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # ------------------------------------------------------------- reading

    def _merged(self) -> dict:
        merged: dict = {}
        with self._lock:
            tables = [dict(t) for t in self._tables]
        for table in tables:
            for key, value in table.items():
                if key.startswith("max:"):
                    merged[key] = max(merged.get(key, 0.0), value)
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged

    def metrics(self, threads: int = 1) -> dict:
        """Layer metrics, ``None`` where a wrapped function was absent.

        ``threads`` is the worker count every ``simulate`` call ran with;
        the pool-wait figure is threads x simulate wall minus the busy time
        of all chunks.
        """
        m = self._merged()
        absent = self.absent

        def get(key, *needs):
            if any(n in absent for n in needs):
                return None
            return m.get(key, 0)

        chunk_s = get("batch._chunk_kernel:s", "batch._chunk_kernel")
        sim_s = get("batch.simulate:s", "batch.simulate")
        out = {
            "rng.streams": get("rng.replicate_stream:calls", "rng.replicate_stream"),
            "rng.stream_s": get("rng.replicate_stream:s", "rng.replicate_stream"),
            "batch.chunks": get("batch._chunk_kernel:calls", "batch._chunk_kernel"),
            "batch.chunk_s": chunk_s,
            "batch.draw_s": get("batch._uniform_rows:self", "batch._uniform_rows"),
            "batch.urn_step_s": get("batch._urn_paths:s", "batch._urn_paths"),
            "batch.times_s": get("batch._times:s", "batch._times"),
            "batch.reduce_s": get("batch._chunk_kernel:self", "batch._chunk_kernel"),
            "batch.uniform_mb_computed": get("max:uniform_mb", "batch._uniform_rows",
                                             "batch._uniform_rows:args"),
            "batch.pool_wait_s": (None if chunk_s is None or sim_s is None
                                  else threads * sim_s - chunk_s),
            "urn.oracle_calls": m.get("urn:outer_calls", 0),
            "urn.oracle_s": m.get("urn:outer_s", 0.0),
            "urn.transition_calls": get("urn.transition_probabilities:calls",
                                        "urn.transition_probabilities"),
            "moments.calls": m.get("moments:outer_calls", 0),
            "moments.s": m.get("moments:outer_s", 0.0),
            "stats.self_s": m.get("stats:self", 0.0),
            "stats.cdf_calls": get("stats.cdf_points", "stats.ks_statistic",
                                   "stats.ks_statistic:args"),
            "cli.self_s": m.get("cli:self", 0.0),
        }
        if all(f"urn.{name}" in absent for name in URN_ORACLES):
            out["urn.oracle_calls"] = out["urn.oracle_s"] = None
        for name in EXACT_CHECKS:
            out[f"verify.{name}_s"] = get(f"verify.{name}:s", f"verify.{name}")
        for name in CRITERIA.values():
            out[f"verify.{name}_s"] = get(f"criterion:{name}",
                                          "verify.statistical_suite", "batch.simulate")
        return out


def median_metrics(samples: list[dict]) -> dict:
    """Per-metric median over traced passes; ``None`` stays ``None``."""
    out = {}
    for name in LAYER_METRICS:
        values = [s[name] for s in samples if s.get(name) is not None]
        out[name] = statistics.median(values) if values else None
    return out
