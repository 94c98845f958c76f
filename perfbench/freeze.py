"""Write ``frozen.json``: the reference outputs ``run.py`` checks against.

    python3 perfbench/freeze.py

It records, from the current sources, the digest of every warm-up output,
the digest of every pass-0 output at the default seed, and the ``name``,
``pass`` and ``statistic`` of every verify report at the default seed.
Re-freeze only when a change says why a stream had to change.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    km = run.load_kingman()
    seed = run.DEFAULT_SEED
    frozen = {"warmup": {}, "pass0": {}}
    for workload in ("many_short", "few_long"):
        cases = run.WORKLOADS[workload]
        frozen["warmup"][workload] = [
            run.digest(km.batch.simulate(stat, n, run.WARM_REPS, seed, stream_id=0, **params))
            for stat, n, _, params in cases]
        frozen["pass0"][workload] = [
            run.digest(km.batch.simulate(stat, n, reps, seed, stream_id=1 + c, **params))
            for c, (stat, n, reps, params) in enumerate(cases)]
    _, stdout, _, _ = run.run_verify_cli(seed, traced=False)
    frozen["verify"] = [{k: r[k] for k in ("name", "pass", "statistic")}
                        for r in map(json.loads, stdout.splitlines()[:-1])]
    run.FROZEN.write_text(json.dumps(frozen, indent=1) + "\n")


if __name__ == "__main__":
    main()
