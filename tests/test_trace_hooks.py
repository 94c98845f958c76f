"""The benchmark (perfbench/) still finds what its tracer wraps, and the outputs it froze."""

import importlib.util
import json
import sys
from pathlib import Path

from kingman import batch, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HOOKS = PERFBENCH / "hooks.py"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_function_it_wraps():
    # A traced benchmark run reports a renamed or deleted function as null
    # metrics and still exits 0, so the tests look for one instead.
    hooks = load("perfbench_hooks", HOOKS)
    tracer = hooks.Tracer()
    tracer.install()
    try:
        batch.simulate("tau", 300, 20, 7)
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    assert [name for name, value in tracer.metrics().items() if value is None] == []


def load_run(monkeypatch):
    # run.py imports its sibling modules by their bare names
    for name in ("hooks", "reference"):
        monkeypatch.setitem(sys.modules, name, load(name, PERFBENCH / f"{name}.py"))
    return load("perfbench_run", PERFBENCH / "run.py")


def test_benchmark_warm_up_digests_hold(monkeypatch):
    # The benchmark checks its warm-up outputs against frozen digests and
    # counts a changed stream only as a lower pass_frac; here it fails.
    run = load_run(monkeypatch)
    frozen = json.loads((PERFBENCH / "frozen.json").read_text())["warmup"]
    for workload, cases in (("many_short", run.MANY_SHORT), ("few_long", run.FEW_LONG)):
        for (stat, n, _, params), want in zip(cases, frozen[workload], strict=True):
            out = batch.simulate(stat, n, run.WARM_REPS, run.DEFAULT_SEED, stream_id=0,
                                 **params)
            assert run.digest(out) == want, (workload, stat)


def test_benchmark_lists_the_criteria_verify_runs(monkeypatch):
    # perfbench keeps a copy of the criteria, which a change to verify.CRITERIA leaves stale
    run = load_run(monkeypatch)
    assert list(run.VERIFY_SIMULATIONS) == [(c.statistic, c.n, c.reps) for c in verify.CRITERIA]
    assert list(run.hooks.CRITERIA) == [c.stream_id for c in verify.CRITERIA]
