"""Run the ``kingman`` CLI from the source tree, as its console script does.

    python3 perfbench/cli_main.py [--trace] verify --suite all --seed 7 --threads 2

The CLI's own output and exit code are unchanged.  After it returns, one
line ``PERFBENCH {json}`` on stderr gives this process's peak RSS and, with
``--trace``, the per-layer metrics of ``hooks.Tracer``.  Nothing goes to
stdout, which carries the verify report stream.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    argv = sys.argv[1:]
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    from kingman.cli import main as kingman_main

    tracer = None
    if trace:
        import hooks

        tracer = hooks.Tracer()
        tracer.install()
    code = kingman_main(argv)
    sys.stdout.flush()
    record = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        threads = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1
        record["layers"] = tracer.metrics(threads)
        record["absent"] = sorted(tracer.absent)
    print("PERFBENCH " + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
