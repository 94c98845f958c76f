"""The kingman benchmark: three workloads against the public API and the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload many_short --seed 1 --seconds 12 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (``wall_s``, ``reps_per_s``, ``draws_per_s``,
``peak_rss_mb``, ``setup_s``, ``pass_frac``), measured untraced.  With
``--trace 1`` they are the per-layer ones of ``hooks.LAYER_METRICS`` plus
``trace.wall_s`` and ``trace.overhead_s`` (traced minus untraced wall).  The
line before it is the run's provenance.

Warm-up policy: the in-process workloads make one untimed warm-up call per
case, at the default seed and a small replicate count, before any timed
pass; ``verify_all`` is timed cold, because every CLI run pays import and
cold caches.  Timed passes repeat until ``--seconds`` have passed (at least
``MIN_PASSES``), and ``wall_s`` is the mean pass: total timed wall over passes.

Observed spread on a 2-CPU machine: ``few_long`` ranged 3.8-6.2 s over 9
back-to-back single passes, and 7.3-9.5 s at threads=2.  CPU speed there
swings by about 20% over a few seconds, so a run averages several passes:
over 40 passes of ``many_short``, windows of four spread 8% (quartile
distance over median) by their mean and 11% by their median.  Over ten
seeded runs at ``--seconds 12``, ``wall_s`` spread 11% on ``few_long``, 10% on
``many_short`` and 16% on ``verify_all``, whose single cold run at threads=2
took 46-62 s.

Every output is checked, and each check counts toward ``pass_frac``:
warm-up outputs against digests frozen in ``frozen.json``; pass outputs at
the default seed against frozen digests; a sample of replicates of every
pass against the scalar samplers (``reference.py``); verify reports by field
against the exact and by-design expectations, and at the default seed against
frozen ``name``, ``pass`` and ``statistic`` values.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hooks
import reference

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FROZEN = HERE / "frozen.json"

DEFAULT_SEED = 7  # verify's default seed; frozen values are taken at it
WARM_REPS = 600  # two chunks of the batch engine at this commit
MIN_PASSES = 3
DEADLINE_S = 170  # a run must end within 180 s; children are stopped before
SETUP_SPAWNS = 4

# One case is one batch.simulate call: (statistic, n, reps, params).

# many_short: the statistical suite's small-n shapes, single-threaded.  About
# 1.35e5 replicate streams per pass, most drawing at most 98 uniforms, so
# per-replicate stream construction (rng) dominates and the urn kernel does
# little.  Stream changes should move draws_per_s here.  Replicate counts are
# a quarter to a half of the suite's, so that three passes fit in a run.
MANY_SHORT = (
    ("L", 50, 50_000, {}),
    ("R", 1000, 25_000, {}),
    ("rho", 1000, 50_000, {}),
    ("window_pair", 200, 10_000, {"window1": (0.5, 0.75), "window2": (0.75, 1.0)}),
)

# few_long: n = 10^4 with a few thousand replicates, single-threaded.  Streams
# cost ~2% of the time; it goes to urn stepping, the waiting-time cumsum and
# the reductions, and the 512-wide chunk of 2(n-1) uniforms sets peak memory.
# Chunk-width and memory changes show here; stream changes should not.
FEW_LONG = (
    ("tau", 10_000, 1536, {}),
    ("eta_count", 10_000, 1536, {"a": 1.0, "b": 2.0}),
    ("urn_snapshot", 10_000, 1536, {"steps": [2500, 5000, 7500]}),
)

# verify_all: `kingman verify --suite all --threads 2` in a fresh process, as
# users run it.  The only workload that runs the exact oracles (urn DP,
# moments Fractions), stats, cli and the thread pool; threads=2 is this
# machine's CPU count, the in-process workloads are the 1-thread baseline.
VERIFY_THREADS = 2
# The simulate calls verify.statistical_suite makes: (statistic, n, reps).
VERIFY_SIMULATIONS = (
    ("L", 50, 100_000), ("L_hat", 50, 10_000), ("eta_count", 10_000, 10_000),
    ("urn_snapshot", 10_000, 10_000), ("tau", 10_000, 10_000), ("R", 1000, 100_000),
    ("urn_snapshot", 2000, 10_000), ("window_pair", 200, 10_000),
)
EXACT_REPORTS = 8  # the exact suite's lines come first and must all pass
BY_DESIGN_FAILURES = {"truncated_length_normality", "scaled_point_counts_poisson",
                      "scaled_point_counts_mean", "window_independence"}

WORKLOADS = {"many_short": MANY_SHORT, "few_long": FEW_LONG, "verify_all": None}
SAMPLED_REPLICATES = {"many_short": 16, "few_long": 3}

END_TO_END_UNITS = {"wall_s": "s", "reps_per_s": "1/s", "draws_per_s": "1/s",
                    "peak_rss_mb": "MiB", "setup_s": "s", "pass_frac": "ratio"}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def draws_per_replicate(statistic: str, n: int) -> int:
    """Uniforms one replicate consumes."""
    if statistic == "rho":
        return 1
    if statistic == "R":
        return n
    if statistic in ("tau", "urn_snapshot"):
        return n - 1
    return 2 * (n - 1)


def digest(out) -> str:
    arr = np.ascontiguousarray(out, dtype="<f8")
    return hashlib.sha256(repr(arr.shape).encode() + arr.tobytes()).hexdigest()


def load_kingman():
    if not (SRC / "kingman" / "__init__.py").is_file():
        die(f"kingman sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import kingman
    import kingman.cli
    import kingman.coalescent
    import kingman.rng

    if Path(kingman.__file__).resolve().parent != SRC / "kingman":
        die(f"imported kingman from {kingman.__file__}, not from {SRC}")
    return kingman


def provenance(seed: int, inputs) -> dict:
    def version(module):
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "kingman").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "git_sha": sha, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "seed": seed, "inputs": inputs,
    }


def time_left() -> float:
    left = DEADLINE_S - (time.perf_counter() - START)
    if left <= 0:
        die(f"no time left within the {DEADLINE_S} s deadline")
    return left


class SetupTimer:
    """Time from a fresh interpreter to `import kingman.cli` done.

    Samples are taken between the timed units of a run, so that their median
    covers the machine over the whole run rather than one moment of it.  The
    benchmark's own import of kingman has written the bytecode caches by then.
    """

    CODE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import kingman.cli"

    def __init__(self):
        self.times: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.CODE], cwd=ROOT, check=True,
                       timeout=time_left())
        self.times.append(time.perf_counter() - start)

    def median(self) -> float:
        while len(self.times) < SETUP_SPAWNS:
            self.sample()
        return statistics.median(self.times)


class Checks:
    """Counts checked operations and failed ones; reports failures on stderr."""

    def __init__(self):
        self.attempted = self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: check failed: {p}", file=sys.stderr)


# ---------------------------------------------------------------- in process

def timed_pass(km, pass_inputs: list[dict], tracer) -> tuple[float, list]:
    """Run one pass of simulate calls, each input being the call's keywords.

    The pass's wall is the sum of the calls' walls.
    """
    outputs, wall = [], 0.0
    if tracer:
        tracer.install()
    try:
        for inp in pass_inputs:
            t0 = time.perf_counter()
            out = km.batch.simulate(**inp)
            wall += time.perf_counter() - t0
            outputs.append(out)
    finally:
        if tracer:
            tracer.uninstall()
    return wall, outputs


def check_pass(km, workload: str, pass_inputs: list[dict], outputs: list,
               pass0_digests: list[str] | None, checks: Checks) -> None:
    keys = ("statistic", "n", "reps", "seed", "stream_id")
    for c, (inp, out) in enumerate(zip(pass_inputs, outputs)):
        stat, n, reps, seed, sid = (inp[k] for k in keys)
        params = {k: v for k, v in inp.items() if k not in keys}
        problems = []
        if len(out) != reps or not np.all(np.isfinite(out)):
            problems.append(f"{stat} shape {out.shape} or non-finite values")
        else:
            problems += reference.mismatches(km, stat, n, params, seed, sid, out,
                                             SAMPLED_REPLICATES[workload])
        if pass0_digests is not None and digest(out) != pass0_digests[c]:
            problems.append(f"{stat} pass-0 digest at seed {seed}")
        checks.record(problems)


def run_in_process(workload: str, seed: int, seconds: float, trace: bool):
    km = load_kingman()
    cases = WORKLOADS[workload]
    frozen = json.loads(FROZEN.read_text())
    checks = Checks()
    setup = None if trace else SetupTimer()

    # Untimed warm-up at fixed inputs, checked against frozen digests.
    for (stat, n, _, params), want in zip(cases, frozen["warmup"][workload]):
        out = km.batch.simulate(stat, n, WARM_REPS, DEFAULT_SEED, stream_id=0, **params)
        checks.record([] if digest(out) == want else [f"warm-up {stat} digest"])

    inputs, walls, traced_walls, layer_samples = [], [], [], []
    needed = 2 if trace else 1  # passes without which there is no result
    start = time.perf_counter()
    while ((len(inputs) < max(needed, MIN_PASSES) or time.perf_counter() - start < seconds)
           and (len(inputs) < needed or time_left() > 2 * max(walls + traced_walls))):
        p = len(inputs)
        pass_inputs = [dict(statistic=stat, n=n, reps=reps, seed=seed,
                            stream_id=1 + p * len(cases) + c, **params)
                       for c, (stat, n, reps, params) in enumerate(cases)]
        inputs.append(pass_inputs)
        if setup:
            setup.sample()
        tracer = hooks.Tracer() if trace and p % 2 == 1 else None
        wall, outputs = timed_pass(km, pass_inputs, tracer)
        if tracer:
            traced_walls.append(wall)
            layer_samples.append(tracer.metrics())
            if tracer.absent:
                print(f"perfbench: absent from the program: {sorted(tracer.absent)}",
                      file=sys.stderr)
        else:
            walls.append(wall)
        pass0 = frozen["pass0"][workload] if seed == DEFAULT_SEED and p == 0 else None
        check_pass(km, workload, pass_inputs, outputs, pass0, checks)

    print(json.dumps({"provenance": provenance(seed, inputs)}))
    if trace:
        metrics = hooks.median_metrics(layer_samples)
        metrics["trace.wall_s"] = statistics.mean(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.mean(walls)
        return checks, metrics
    wall = statistics.mean(walls)
    reps = sum(reps for _, _, reps, _ in cases)
    draws = sum(reps * draws_per_replicate(stat, n) for stat, n, reps, _ in cases)
    return checks, {
        "wall_s": wall, "reps_per_s": reps / wall, "draws_per_s": draws / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup.median(),
    }


# ---------------------------------------------------------------- verify_all

def run_verify_cli(seed: int, traced: bool):
    """One cold `kingman verify --suite all` run: (wall, stdout, code, record)."""
    cmd = [sys.executable, str(HERE / "cli_main.py"), *(["--trace"] if traced else []),
           "verify", "--suite", "all", "--seed", str(seed), "--threads", str(VERIFY_THREADS)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=time_left())
    wall = time.perf_counter() - start
    tagged = [line for line in proc.stderr.splitlines() if line.startswith("PERFBENCH ")]
    if not tagged:
        sys.stderr.write(proc.stderr)
        die(f"kingman verify exited with {proc.returncode} and no PERFBENCH record")
    return wall, proc.stdout, proc.returncode, json.loads(tagged[-1][len("PERFBENCH "):])


def check_verify(stdout: str, code: int, seed: int, frozen: list[dict], checks: Checks) -> None:
    lines = stdout.splitlines()
    reports = []
    for i, line in enumerate(lines[:-1]):
        try:
            reports.append(json.loads(line))
        except json.JSONDecodeError:
            reports.append({"name": f"unparsable line {i}"})
    names = [r.get("name") for r in reports]
    if names != [f["name"] for f in frozen]:
        checks.record([f"report names {names}"])
        return
    for i, (r, want) in enumerate(zip(reports, frozen)):
        problems = []
        if i < EXACT_REPORTS and r.get("pass") is not True:
            problems.append(f"exact check {r['name']} did not pass")
        if r["name"] in BY_DESIGN_FAILURES and r.get("pass") is not False:
            problems.append(f"by-design failure {r['name']} passed")
        if seed == DEFAULT_SEED:
            for field in ("name", "pass", "statistic"):
                if r.get(field) != want[field]:
                    problems.append(f"{r['name']}.{field} = {r.get(field)!r}, "
                                    f"frozen {want[field]!r}")
        checks.record(problems)
    failed = sum(r.get("pass") is not True for r in reports)
    summary = f"FAIL {failed}/{len(reports)}" if failed else f"PASS {len(reports)}/{len(reports)}"
    problems = []
    if not lines or lines[-1] != summary:
        problems.append(f"summary {lines[-1:]} != {summary!r}")
    if code != (1 if failed else 0):
        problems.append(f"exit code {code} with {failed} failed reports")
    checks.record(problems)


def run_verify_all(seed: int, seconds: float, trace: bool):
    load_kingman()  # fails early without sources, and writes bytecode caches
    frozen = json.loads(FROZEN.read_text())["verify"]
    checks = Checks()
    inputs = {"argv": ["verify", "--suite", "all", "--seed", seed,
                       "--threads", VERIFY_THREADS]}
    if trace:
        # Traced first: the untraced comparison run is made only if it can end
        # within the deadline, else trace.overhead_s is reported absent.
        traced_wall, stdout, code, record = run_verify_cli(seed, traced=True)
        check_verify(stdout, code, seed, frozen, checks)
        if record["absent"]:
            print(f"perfbench: absent from the program: {record['absent']}", file=sys.stderr)
        metrics = dict(record["layers"], **{"trace.wall_s": traced_wall,
                                            "trace.overhead_s": None})
        if time_left() > 1.2 * traced_wall:
            wall, stdout, code, _ = run_verify_cli(seed, traced=False)
            check_verify(stdout, code, seed, frozen, checks)
            metrics["trace.overhead_s"] = traced_wall - wall
        else:
            print("perfbench: no time left for the untraced comparison run", file=sys.stderr)
        print(json.dumps({"provenance": provenance(seed, inputs)}))
        return checks, metrics

    setup = SetupTimer()
    walls, rss = [], []
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start < seconds
                        and time_left() > 1.2 * max(walls)):
        setup.sample()
        wall, stdout, code, record = run_verify_cli(seed, traced=False)
        check_verify(stdout, code, seed, frozen, checks)
        walls.append(wall)
        rss.append(record["peak_rss_mb"])
    inputs["runs"] = len(walls)
    print(json.dumps({"provenance": provenance(seed, inputs)}))
    wall = statistics.median(walls)
    reps = sum(r for _, _, r in VERIFY_SIMULATIONS)
    draws = sum(r * draws_per_replicate(s, n) for s, n, r in VERIFY_SIMULATIONS)
    return checks, {
        "wall_s": wall, "reps_per_s": reps / wall, "draws_per_s": draws / wall,
        "peak_rss_mb": statistics.median(rss), "setup_s": setup.median(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not FROZEN.is_file():
        die(f"missing {FROZEN}")
    trace = bool(args.trace)
    try:
        if args.workload == "verify_all":
            checks, values = run_verify_all(args.seed, args.seconds, trace)
        else:
            checks, values = run_in_process(args.workload, args.seed, args.seconds, trace)
    except subprocess.SubprocessError as exc:
        die(f"child process failed: {exc}")
    if not trace:
        values["pass_frac"] = 1 - checks.failed / checks.attempted
    units = ({**hooks.LAYER_METRICS, "trace.wall_s": "s", "trace.overhead_s": "s"}
             if trace else END_TO_END_UNITS)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
