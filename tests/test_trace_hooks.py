"""The benchmark's tracer (perfbench/hooks.py) still finds what it wraps."""

import importlib.util
from pathlib import Path

from kingman import batch

HOOKS = Path(__file__).resolve().parents[1] / "perfbench" / "hooks.py"


def test_tracer_finds_every_function_it_wraps():
    # A traced benchmark run reports a renamed or deleted function as null
    # metrics and still exits 0, so the tests look for one instead.
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    tracer = hooks.Tracer()
    tracer.install()
    try:
        batch.simulate("tau", 300, 20, 7)
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    assert [name for name, value in tracer.metrics().items() if value is None] == []
