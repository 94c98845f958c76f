"""Command-line front end: simulate, moments, verify, hist.

Exit codes: 0 success / all tests pass, 1 test failure, 2 usage error,
3 I/O error, 141 stdout's reader closed (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import __version__, batch
from .indexing import check_count, floor_pow
from .rng import DEFAULT_SEED

# one value per replicate fits the rep,value CSV; two-column statistics do not
STATISTICS = tuple(name for name, spec in batch.STATISTICS.items() if not spec.two_d)


def _required(args, what: str, fields: tuple[str, ...]) -> list:
    missing = [f for f in fields if getattr(args, f, None) is None]
    if missing:
        raise ValueError(f"{what} requires --" + ", --".join(missing))
    return [getattr(args, f) for f in fields]


def _refuse_others(args, what: str, takes: tuple[str, ...], offered: tuple[str, ...],
                   sep: str = ", ") -> None:
    """Refuse each option of offered that is given but that what does not take."""
    extra = [f"--{f}" for f in offered if f not in takes and getattr(args, f) is not None]
    if extra:
        names = sep.join(f"--{f}" for f in takes) or "no options"
        raise ValueError(f"{what} takes {names}; it does not take {', '.join(extra)}")


def _simulate(args) -> tuple[dict, Iterator[np.ndarray]]:
    """The statistic's keywords, checked, and its chunks' values as each is ready."""
    keywords = batch.STATISTICS[args.statistic].keywords
    _refuse_others(args, args.statistic, keywords, ("alpha", "beta", "a", "b", "k"))
    args.alpha = 0.0 if args.alpha is None else args.alpha  # L_window and L_hat: every level
    args.beta = 1.0 if args.beta is None else args.beta
    params = dict(zip(keywords, _required(args, args.statistic, keywords)))
    tasks = batch.plan(args.statistic, args.n, args.reps, args.seed, threads=args.threads, **params)
    return params, batch.run(tasks, args.threads)


def _metadata_lines(args, fields: tuple[str, ...]) -> list[str]:
    # thread count is deliberately omitted: output must not depend on it
    parts = [f"version={__version__}"]
    for f in fields:
        parts.append(f"{f}={getattr(args, f)}")
    return ["# kingman " + " ".join(parts)]


def _write(path: str | None, parts: Iterable[str]) -> None:
    """Write each of parts as it is made, to stdout for no path or "-": a file opens first."""
    if path is None or path == "-":
        sys.stdout.writelines(parts)
        sys.stdout.flush()  # a closed reader fails here, not at the interpreter's exit
        return
    with open(path, "w") as fh:
        fh.writelines(parts)


def cmd_simulate(args) -> int:
    params, chunks = _simulate(args)
    lines = _metadata_lines(args, ("seed", "n", "reps", "statistic"))
    lines += [f"# {key}={val}" for key, val in sorted(params.items())]
    reps = itertools.count()  # numbers replicates across chunks: zip asks for a value first
    rows = ("".join(f"{r},{args.n},{args.statistic},{float(v)!r}\n"
                    for v, r in zip(values.tolist(), reps)) for values in chunks)
    _write(args.out, itertools.chain(["\n".join(lines + ["rep,n,statistic,value\n"])], rows))
    return 0


# the moments functions kingman moments evaluates; each takes the options its signature names
_QUANTITIES = ("e_U", "cov_U", "e_X", "var_X", "cov_X", "e_T", "var_T", "fu_li_var", "rho_cdf",
               "e_L_window", "var_L_window_asymptotic", "var_L_window_exact", "e_hat", "var_hat")


def _evaluate_quantity(args) -> tuple[object, dict]:
    """The quantity's value, and the keywords it took that the CSV row has no column for;
    an option the quantity does not take is refused, so the row holds only its own."""
    import inspect

    from . import moments
    q = args.quantity
    if q not in _QUANTITIES:
        raise ValueError(f"unknown quantity {q!r}")
    takes = tuple(inspect.signature(getattr(moments, q)).parameters)[1:]  # after n
    if "m" in takes:  # e_hat and var_hat: m, or floor(n^alpha) for --alpha
        takes += ("alpha",)
    _refuse_others(args, q, takes, ("k", "l", "m", "alpha", "beta"),
                   " or " if "m" in takes else ", ")
    if "m" not in takes:
        return getattr(moments, q)(args.n, *_required(args, q, takes)), {}
    if args.m is not None and args.alpha is not None:
        raise ValueError(f"{q} takes --m or --alpha, not both")
    m = args.m if args.alpha is None else floor_pow(args.n, args.alpha)
    if m is None:
        raise ValueError(f"{q} requires --m or --alpha")
    return getattr(moments, q)(args.n, m), {"m": m}


def cmd_moments(args) -> int:
    from fractions import Fraction
    val, keywords = _evaluate_quantity(args)
    fval = float(val)
    if args.format == "csv":
        if isinstance(val, Fraction):
            num, den = str(val.numerator), str(val.denominator)
        else:
            num, den = "", ""
        lines = _metadata_lines(args, ("quantity", "n"))
        lines += [f"# {key}={value}" for key, value in keywords.items()]
        lines.append("quantity,n,k,l,alpha,beta,numerator,denominator,float_value")
        row = [args.quantity, str(args.n)]
        for f in ("k", "l", "alpha", "beta"):
            v = getattr(args, f, None)
            row.append("" if v is None else str(v))
        row += [num, den, repr(fval)]
        lines.append(",".join(row))
        _write(args.out, ["\n".join(lines) + "\n"])
    else:
        if isinstance(val, Fraction):
            text = f"{val.numerator}/{val.denominator}, {fval!r}\n"
        else:
            text = f"{fval!r} (asymptotic/numeric)\n"
        _write(args.out, [text])
    return 0


def cmd_verify(args) -> int:
    from . import verify
    reports = verify.run_suite(args.suite, seed=args.seed, threads=args.threads)
    passed = []

    def text():  # run once _write has opened the output
        for r in reports:
            passed.append(r.passed)
            yield r.to_json() + "\n"
        ok, total = sum(passed), len(passed)
        yield f"PASS {ok}/{total}\n" if ok == total else f"FAIL {total - ok}/{total}\n"

    _write(args.out, text())
    return 0 if all(passed) else 1


def _svg_histogram(edges: np.ndarray, counts: np.ndarray, title: str) -> str:
    width, height = 640, 400
    ml, mr, mt, mb = 60, 20, 30, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb
    cmax = max(int(counts.max()), 1)
    lo, hi = float(edges[0]), float(edges[-1])
    span = hi - lo or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{mt + plot_h}" x2="{ml + plot_w}" y2="{mt + plot_h}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + plot_h}" stroke="black"/>',
    ]
    for i, c in enumerate(counts):
        x0 = ml + plot_w * (edges[i] - lo) / span
        x1 = ml + plot_w * (edges[i + 1] - lo) / span
        h = plot_h * int(c) / cmax
        parts.append(
            f'<rect x="{x0:.2f}" y="{mt + plot_h - h:.2f}" width="{x1 - x0:.2f}" '
            f'height="{h:.2f}" fill="steelblue" stroke="none"/>')
    for frac in (0.0, 0.5, 1.0):
        x = ml + plot_w * frac
        parts.append(f'<text x="{x:.1f}" y="{mt + plot_h + 18}" text-anchor="middle" '
                     f'font-size="11">{lo + span * frac:.3g}</text>')
        y = mt + plot_h * (1 - frac)
        parts.append(f'<text x="{ml - 6}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{cmax * frac:.0f}</text>')
    parts.append(f'<text x="{width / 2:.1f}" y="{height - 8}" text-anchor="middle" '
                 f'font-size="12">value</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_hist(args) -> int:
    check_count("--bins", args.bins, 2)
    chunks = _simulate(args)[1]

    def text():  # drawn once _write has opened the output
        values = np.concatenate(list(chunks), axis=0)
        counts, edges = np.histogram(values, bins=args.bins,
                                     range=(float(values.min()), float(values.max())))
        if args.format == "svg":
            title = f"{args.statistic} n={args.n} reps={args.reps} seed={args.seed}"
            yield _svg_histogram(edges, counts, title)
            return
        lines = _metadata_lines(args, ("seed", "n", "reps", "statistic", "bins"))
        lines.append("bin_lo,bin_hi,count")
        for i, c in enumerate(counts):
            lines.append(f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(c)}")
        yield "\n".join(lines) + "\n"

    _write(args.out, text())
    return 0


THREADS_HELP = ("worker processes (default $KINGMAN_THREADS or 1), capped at the "
                "usable CPUs; the output is byte-identical for any value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kingman",
        description="External branch lengths of Kingman's coalescent: "
                    "simulation, exact moments, verification, histograms.")
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default goes through type=int like the flag: a bad value exits
    # 2 at parse time, and 0 reaches the same check as --threads 0
    threads = os.environ.get("KINGMAN_THREADS") or "1"

    def common(p):
        p.add_argument("--n", type=int, default=50, help="sample size (leaves)")
        p.add_argument("--reps", type=int, default=10_000, help="replicates")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--threads", type=int, default=threads, help=THREADS_HELP)
        p.add_argument("--statistic", choices=STATISTICS, default="L")
        p.add_argument("--alpha", type=float, default=None, help="window lower exponent (0)")
        p.add_argument("--beta", type=float, default=None, help="window upper exponent (1)")
        p.add_argument("--a", type=float, default=None, help="interval lower end")
        p.add_argument("--b", type=float, default=None, help="interval upper end")
        p.add_argument("--k", type=int, default=None, help="marginal step index")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_sim = sub.add_parser("simulate", help="simulate a statistic to CSV")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_mom = sub.add_parser("moments", help="print exact moments")
    p_mom.add_argument("--quantity", required=True)
    p_mom.add_argument("--n", type=int, required=True)
    p_mom.add_argument("--k", type=int, default=None)
    p_mom.add_argument("--l", type=int, default=None)
    p_mom.add_argument("--m", type=int, default=None)
    p_mom.add_argument("--alpha", type=float, default=None)
    p_mom.add_argument("--beta", type=float, default=None)
    p_mom.add_argument("--format", choices=("plain", "csv"), default="plain")
    p_mom.add_argument("--out", default=None)
    p_mom.set_defaults(func=cmd_moments)

    p_ver = sub.add_parser("verify", help="run acceptance suites")
    p_ver.add_argument("--suite", choices=("exact", "statistical", "all"), default="all")
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ver.add_argument("--threads", type=int, default=threads, help=THREADS_HELP)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_hist = sub.add_parser("hist", help="histogram of a simulated statistic")
    common(p_hist)
    p_hist.add_argument("--bins", type=int, default=60)
    p_hist.add_argument("--format", choices=("csv", "svg"), default="csv")
    p_hist.set_defaults(func=cmd_hist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and args.out in (None, "-"):
            # stdout's reader is gone: end quietly, as SIGPIPE ends a writer in a shell, with
            # stdout on the null device so that the final flush has nowhere to fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141  # 128 + SIGPIPE
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
