"""Command-line interface: formats, determinism, exit codes."""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kingman import __version__, batch, cli, moments, verify


def run_cli(args):
    return cli.main(args)


def read(path):
    return path.read_text()


def test_simulate_csv_shape(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--statistic", "L", "--n", "20", "--reps", "50",
                    "--seed", "3", "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")]
    assert header[0] == "rep,n,statistic,value"
    assert len(header) == 51
    first = header[1].split(",")
    assert first[:3] == ["0", "20", "L"]
    float(first[3])


def test_simulate_deterministic_across_threads(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["simulate", "--statistic", "tau", "--n", "100", "--reps", "600",
            "--seed", "9"]
    assert run_cli(base + ["--threads", "1", "--out", str(a)]) == 0
    assert run_cli(base + ["--threads", "8", "--out", str(b)]) == 0
    assert read(a) == read(b)


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_writes_the_chunks_in_replicate_order(tmp_path, capsys, threads):
    # four chunks of unequal sizes, written as they arrive, to a file and to stdout
    reps = 3 * batch._width(batch.STATISTICS["L_window"], 40) + 7
    values = batch.simulate("L_window", 40, reps, 9, alpha=0.25, beta=0.75)
    expect = "".join([f"# kingman version={__version__} seed=9 n=40 reps={reps} "
                      "statistic=L_window\n# alpha=0.25\n# beta=0.75\nrep,n,statistic,value\n"]
                     + [f"{r},40,L_window,{float(v)!r}\n" for r, v in enumerate(values)])
    out = tmp_path / "w.csv"
    argv = ["simulate", "--statistic", "L_window", "--n", "40", "--reps", str(reps), "--seed",
            "9", "--alpha", "0.25", "--beta", "0.75", "--threads", str(threads)]
    assert run_cli(argv + ["--out", str(out)]) == 0
    assert read(out) == expect
    capsys.readouterr()
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == expect


def test_simulate_holds_no_line_per_replicate(tmp_path):
    # each chunk's lines are written as the chunk arrives, so the traced peak
    # stays below the 8 bytes a replicate's value takes in one array
    reps = 200_000
    args = cli.build_parser().parse_args(["simulate", "--statistic", "rho", "--n", "10",
                                          "--reps", str(reps), "--out", str(tmp_path / "r.csv")])
    tracemalloc.start()
    try:
        assert cli.cmd_simulate(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / reps < 8, peak / reps


def test_simulate_opens_its_output_before_it_simulates(tmp_path, monkeypatch):
    def no_chunks(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(batch, "_chunk_kernel", no_chunks)
    for name in vars(verify).copy():  # the exact checks, which verify runs first
        if name.startswith("check_"):
            monkeypatch.setattr(verify, name, no_chunks)
    for argv in (["simulate", "--statistic", "L", "--n", "10", "--reps", "10"],
                 ["hist", "--statistic", "L", "--n", "10", "--reps", "10"],
                 ["verify", "--suite", "all"]):
        assert run_cli(argv + ["--out", str(tmp_path / "missing" / "out.csv")]) == 3, argv


def test_simulate_rejects_zero_threads():
    assert run_cli(["simulate", "--statistic", "L", "--n", "10", "--reps", "10",
                    "--threads", "0"]) == 2


def test_simulate_rejects_seeds_outside_64_bits():
    for seed in ("-1", str(2 ** 64)):
        assert run_cli(["simulate", "--statistic", "L", "--n", "10", "--reps", "10",
                        "--seed", seed]) == 2


def test_simulate_requires_statistic_params():
    assert run_cli(["simulate", "--statistic", "urn_marginal", "--n", "10",
                    "--reps", "10"]) == 2
    assert run_cli(["simulate", "--statistic", "eta_count", "--n", "10",
                    "--reps", "10"]) == 2
    assert run_cli(["simulate", "--statistic", "urn_marginal", "--n", "10",
                    "--reps", "10", "--k", "11"]) == 2


def test_simulate_window_statistic(tmp_path):
    out = tmp_path / "w.csv"
    assert run_cli(["simulate", "--statistic", "L_window", "--n", "50",
                    "--reps", "20", "--alpha", "0.25", "--beta", "0.75",
                    "--seed", "1", "--out", str(out)]) == 0
    assert "# alpha=0.25" in read(out)
    # without exponents, every level: the CSV of --alpha 0 --beta 1, metadata and all
    hat = ["simulate", "--statistic", "L_hat", "--n", "30", "--reps", "20", "--out"]
    assert run_cli(hat + [str(out)]) == 0 and "\n# alpha=0.0\n# beta=1.0\n" in read(out)
    assert run_cli(hat + [str(tmp_path / "b.csv"), "--alpha", "0", "--beta", "1"]) == 0
    assert read(tmp_path / "b.csv") == read(out)


def test_simulate_and_hist_refuse_options_their_statistic_does_not_take(tmp_path, capsys):
    # they were ignored, with exit 0
    cases = [(["tau", "--k", "5", "--a", "3"], "tau takes no options; it does not take --a, --k"),
             (["L", "--alpha", "0.7"], "L takes no options;"),
             (["urn_marginal", "--k", "3", "--beta", "0.5"], "urn_marginal takes --k;")]
    for command in ("simulate", "hist"):
        for argv, message in cases:
            out = tmp_path / "out"
            assert run_cli([command, "--out", str(out), "--statistic"] + argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and message in err and not out.exists(), (argv, err)


def test_moments_plain_fraction(tmp_path, capsys):
    assert run_cli(["moments", "--quantity", "e_T", "--n", "10", "--k", "2"]) == 0
    text = capsys.readouterr().out
    frac, fl = text.strip().split(", ")
    assert frac == "4/5"
    assert float(fl) == pytest.approx(0.8)


def test_moments_csv_format(tmp_path):
    out = tmp_path / "m.csv"
    assert run_cli(["moments", "--quantity", "fu_li_var", "--n", "50",
                    "--format", "csv", "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert lines[-2] == "quantity,n,k,l,alpha,beta,numerator,denominator,float_value"
    row = lines[-1].split(",")
    v = moments.fu_li_var(50)
    assert row[0] == "fu_li_var"
    assert int(row[6]) == v.numerator and int(row[7]) == v.denominator
    assert float(row[8]) == pytest.approx(float(v))


def test_moments_hat_via_alpha(capsys):
    assert run_cli(["moments", "--quantity", "e_hat", "--n", "50",
                    "--alpha", "0.5"]) == 0
    text = capsys.readouterr().out
    assert text.split(", ")[0] == "86/49"  # m = floor(sqrt(50)) = 7
    # the CSV records the m it used, in a keyword line above the unchanged header
    for quantity, chosen in (("e_hat", ["--alpha", "0.5"]), ("var_hat", ["--m", "7"])):
        assert run_cli(["moments", "--quantity", quantity, "--n", "50", "--format", "csv"]
                       + chosen) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:3] == ["# m=7",
                              "quantity,n,k,l,alpha,beta,numerator,denominator,float_value"]
        value = getattr(moments, quantity)(50, 7)
        assert lines[3].split(",")[6:8] == [str(value.numerator), str(value.denominator)]


def test_moments_usage_errors(capsys):
    assert run_cli(["moments", "--quantity", "e_T", "--n", "10"]) == 2
    assert run_cli(["moments", "--quantity", "nonsense", "--n", "10"]) == 2
    assert run_cli(["moments", "--quantity", "e_hat", "--n", "10"]) == 2
    assert run_cli(["moments", "--quantity", "var_L_window_exact", "--n", "10"]) == 2
    for quantity in ("e_hat", "var_hat"):  # m from one of the two, never both
        assert run_cli(["moments", "--quantity", quantity, "--n", "50", "--m", "3",
                        "--alpha", "0.5"]) == 2
    capsys.readouterr()
    for alpha in ("1000", "inf", "nan", "-1"):  # m = floor(n^alpha) needs alpha in [0, 1]
        assert run_cli(["moments", "--quantity", "e_hat", "--n", "50", "--alpha", alpha]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "exponent" in err and str(float(alpha)) in err, err


def test_moments_refuse_options_their_quantity_does_not_take(capsys):
    # the CSV row would record them as if they were used
    cases = [(["e_U", "--k", "2", "--l", "4", "--alpha", "0.5"], "e_U takes --k;"),
             (["cov_X", "--k", "2", "--l", "4", "--m", "3"], "cov_X takes --k, --l;"),
             (["fu_li_var", "--beta", "0.5"], "fu_li_var takes no options;"),
             (["e_hat", "--alpha", "0.5", "--beta", "0.9"], "e_hat takes --m or --alpha;"),
             (["var_hat", "--m", "3", "--k", "2"], "var_hat takes --m or --alpha;")]
    for fmt in ("plain", "csv"):
        for argv, message in cases:
            assert run_cli(["moments", "--n", "10", "--format", fmt, "--quantity"] + argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err, (fmt, argv)


def test_quantities_are_moments_functions_of_n_and_parsed_options():
    # a quantity whose function takes an option kingman moments never parses fails here
    parser = cli.build_parser()
    for quantity in cli._QUANTITIES:
        function = getattr(moments, quantity, None)
        assert inspect.isfunction(function), quantity
        names = list(inspect.signature(function).parameters)
        assert names[0] == "n" and set(names[1:]) <= {"k", "l", "m", "alpha", "beta"}, names
        for name in names[1:]:
            args = parser.parse_args(["moments", "--quantity", quantity, "--n", "5",
                                      f"--{name}", "1"])
            assert getattr(args, name) == 1, (quantity, name)


OPTION_VALUES = {"k": "1", "l": "2", "m": "1", "alpha": "0.5", "beta": "0.75"}


def quantity_options(quantity):
    """Each way to give a moments quantity its options, as arguments: the options its
    function names after n, with --m or --alpha for m."""
    takes = list(inspect.signature(getattr(moments, quantity)).parameters)[1:]
    return [[arg for name in chosen for arg in (f"--{name}", OPTION_VALUES[name])]
            for chosen in ([["m"], ["alpha"]] if "m" in takes else [takes])]


def test_moments_refuse_every_n_outside_their_domain(capsys):
    # a negative n to a fractional power was complex, and n = 0 or 1 divided by
    # zero: each ended in a traceback
    for quantity in cli._QUANTITIES:
        for options in quantity_options(quantity):
            for n in (-5, 0, 1):
                argv = ["moments", "--quantity", quantity, "--n", str(n)] + options
                code, err = run_cli(argv), capsys.readouterr().err
                assert code == 0 or (code == 2 and err.startswith("error: ")
                                     and err.count("\n") == 1), (argv, code, err)


def test_verify_rejects_zero_threads(monkeypatch, capsys, tmp_path):
    # refused before any check runs, although the exact suite never simulates,
    # and before the output is opened
    out = ["--out", str(tmp_path / "r.jsonl")]
    assert run_cli(["verify", "--suite", "exact", "--threads", "0"]) == 2
    assert run_cli(["verify", "--threads", "0"] + out) == 2
    monkeypatch.setenv("KINGMAN_THREADS", "0")
    assert run_cli(["verify", "--suite", "exact"]) == 2
    monkeypatch.delenv("KINGMAN_THREADS")
    for seed in ("-1", str(2 ** 64)):  # and so is a seed outside 0..2^64-1
        assert run_cli(["verify", "--suite", "exact", "--seed", seed]) == 2
        assert run_cli(["verify", "--seed", seed] + out) == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "r.jsonl").exists()


def test_hist_csv(tmp_path):
    out = tmp_path / "h.csv"
    assert run_cli(["hist", "--statistic", "L", "--n", "20", "--reps", "500",
                    "--seed", "4", "--bins", "10", "--out", str(out)]) == 0
    rows = [ln for ln in read(out).strip().splitlines() if not ln.startswith("#")]
    assert rows[0] == "bin_lo,bin_hi,count"
    assert len(rows) == 11
    assert sum(int(r.split(",")[2]) for r in rows[1:]) == 500
    lo = [float(r.split(",")[0]) for r in rows[1:]]
    assert lo == sorted(lo)


def test_hist_svg(tmp_path):
    out = tmp_path / "h.svg"
    assert run_cli(["hist", "--statistic", "tau", "--n", "50", "--reps", "300",
                    "--seed", "4", "--bins", "8", "--format", "svg",
                    "--out", str(out)]) == 0
    text = read(out)
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert text.count("<rect") == 8


def test_hist_usage_error():
    assert run_cli(["hist", "--statistic", "L", "--n", "20", "--reps", "100",
                    "--bins", "1"]) == 2


def test_io_error_exit_code(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_cli(["simulate", "--statistic", "L", "--n", "10", "--reps", "10",
                    "--out", str(missing_dir)]) == 3


def test_closed_stdout_reader_ends_the_command_quietly():
    # as `kingman ... | head -1` ends: exit 128 + SIGPIPE, nothing on stderr, whether the
    # reader closes after a line or before the first write
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    for argv, lines in ((["simulate", "--n", "10", "--reps", "100000", "--statistic", "rho"], 1),
                        (["moments", "--quantity", "e_U", "--n", "5", "--k", "2"], 0)):
        proc = subprocess.Popen([sys.executable, "-m", "kingman.cli"] + argv, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b""), argv
        assert all(line.startswith(b"# kingman") for line in head), head
    # a file that cannot take the output is still an I/O error
    if os.path.exists("/dev/full"):
        assert run_cli(["simulate", "--n", "10", "--reps", "10", "--out", "/dev/full"]) == 3


# valid calls at n = 7: each statistic and each quantity with its own options
STATISTIC_OPTIONS = {"L_window": ["--alpha", "0.25", "--beta", "0.75"],
                     "L_hat": ["--alpha", "0.25", "--beta", "0.75"],
                     "urn_marginal": ["--k", "3"], "eta_count": ["--a", "0.5", "--b", "2"]}
VALID_CALLS = [[command, "--statistic", statistic, "--n", "7", "--reps", "5", "--seed", "7",
                "--threads", "1"] + STATISTIC_OPTIONS.get(statistic, [])
               + (["--bins", "5"] if command == "hist" else [])
               for command in ("simulate", "hist") for statistic in cli.STATISTICS] + [
    ["moments", "--quantity", quantity, "--n", "7"] + options
    for quantity in cli._QUANTITIES for options in quantity_options(quantity)]
SIZES = ("-5", "-1", "0", "1", "2", "3", "7")  # n at and around the ends of every domain
# values an option can be given: in range, at the ends of a domain, too large, not finite,
# not a number
VALUES = st.sampled_from(SIZES[:-1] + ("0.25", "0.5", "-0", "1000", "1e308", "inf", "nan", "abc"))


@st.composite
def command_lines(draw):
    """The calls made from one valid call: at each n of SIZES, then at n = 7 with one
    option's value replaced by a drawn one, then with a drawn option added (one the call
    does not take, or a second of one it does), all with one drawn --out."""
    call = draw(st.sampled_from(VALID_CALLS))
    offered = ("k", "l", "m", "alpha", "beta") if call[0] == "moments" else \
        ("alpha", "beta", "a", "b", "k")
    lines = [call[:4] + [n] + call[5:] for n in SIZES]
    lines += [call[:i] + [draw(VALUES)] + call[i + 1:] for i in range(6, len(call), 2)]
    lines.append(call + ["--" + draw(st.sampled_from(offered)), draw(VALUES)])
    tail = draw(st.sampled_from(([], ["--format", "plain"], ["--format", "csv"]))) \
        if call[0] == "moments" else []
    tail += draw(st.sampled_from(([], ["--out", "-"], ["--out", "FILE"], ["--out", "MISSING"])))
    return [line + tail for line in lines]


def test_cli_boundary_contract(tmp_path, monkeypatch):
    # every run exits 0 having used every option it was given, or is refused by argparse,
    # or exits 2 or 3 with one error line and no traceback; a refused run leaves no file
    paths = {"FILE": tmp_path / "out", "MISSING": tmp_path / "no" / "out"}
    parser = cli.build_parser()  # one parser serves every call: building it is most of one
    monkeypatch.setattr(cli, "build_parser", lambda: parser)

    def check(argv):
        path = paths.get(argv[-1]) if argv[-2] == "--out" else None
        if path is not None:
            argv = argv[:-1] + [str(path)]
            path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning is an error too
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error
                assert exc.code == 2, (argv, exc.code)
                code = "usage"
        stdout, stderr = out.getvalue(), err.getvalue()
        if code == "usage":
            assert stderr.startswith("usage: kingman") and stdout == "", argv
            assert stderr.splitlines()[-1].startswith("kingman "), argv
        elif code == 0:
            takes = {arg[2:] for options in quantity_options(argv[2]) for arg in options[::2]} \
                if argv[0] == "moments" else batch.STATISTICS[argv[2]].keywords
            given_options = {flag[2:] for flag in argv[3::2]} - {
                "n", "reps", "seed", "threads", "bins", "format", "out"}
            assert given_options <= set(takes), (argv, takes)
            text = path.read_text() if path else stdout
            assert stderr == "" and text.endswith("\n") and stdout == ("" if path else text)
            if argv[0] == "simulate":
                reps = int(argv[argv.index("--reps") + 1])
                assert sum(not row.startswith("#") for row in text.splitlines()) == reps + 1
        else:
            assert code in (2, 3) and stdout == "", (argv, code)
            assert stderr.count("\n") == 1 and "Traceback" not in stderr, (argv, stderr)
            assert stderr.startswith("error: " if code == 2 else "I/O error: "), (argv, stderr)
        if code != 0 and path is not None:
            assert not path.exists(), argv

    @settings(max_examples=300, derandomize=True)
    @given(command_lines())
    def contract(lines):
        for argv in lines:
            check(argv)

    contract()


def test_threads_env_fallback(monkeypatch):
    sim = ["simulate", "--statistic", "L", "--n", "10", "--reps", "5"]
    monkeypatch.setenv("KINGMAN_THREADS", "6")
    assert cli.build_parser().parse_args(sim).threads == 6
    assert cli.build_parser().parse_args(["verify"]).threads == 6
    monkeypatch.setenv("KINGMAN_THREADS", "junk")  # refused like --threads junk
    with pytest.raises(SystemExit) as exc:
        run_cli(sim)
    assert exc.value.code == 2
    monkeypatch.setenv("KINGMAN_THREADS", "0")  # refused like --threads 0
    assert run_cli(sim) == 2
    monkeypatch.delenv("KINGMAN_THREADS")
    assert cli.build_parser().parse_args(sim).threads == 1


def test_simulate_repeat_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["simulate", "--statistic", "eta_count", "--n", "200", "--reps",
            "100", "--seed", "5", "--a", "1.0", "--b", "2.0"]
    assert run_cli(base + ["--out", str(a)]) == 0
    assert run_cli(base + ["--out", str(b)]) == 0
    assert read(a) == read(b)


COLD_START = textwrap.dedent("""
    import sys
    sys.modules["scipy"] = None  # any import of scipy now fails
    import numpy as np
    from kingman import cli

    # simulate and hist load numpy and batch; each other module loads with the command using it
    unused = ("kingman.verify", "kingman.stats", "kingman.moments", "kingman.urn",
              "kingman.coalescent", "fractions", "json")

    def loaded(names):
        return [name for name in names if name in sys.modules]

    assert loaded(unused) == [], loaded(unused)
    out = sys.argv[1]
    for argv in (["simulate", "--statistic", "L", "--n", "20", "--reps", "50"],
                 ["hist", "--statistic", "tau", "--n", "50", "--reps", "100", "--bins", "5"],
                 ["moments", "--quantity", "fu_li_var", "--n", "50"]):
        assert cli.main(argv + ["--out", out]) == 0, argv
        if argv[0] in ("simulate", "hist"):
            assert loaded(unused) == [], (argv, loaded(unused))
        else:
            assert loaded(("kingman.moments", "kingman.verify")) == ["kingman.moments"]

    import kingman
    assert kingman.verify.CRITERIA and not hasattr(kingman, "nope")  # AttributeError only

    from kingman import stats
    values = np.linspace(0.0005, 0.9995, 1000) ** 1.1
    ks = stats.ks_test(values, lambda x: x, name="ks", seed=0)
    chi = stats.chi_square_gof(np.arange(400) % 4, {0: 0.2, 1: 0.3, 2: 0.25, 3: 0.25},
                               name="chi", seed=0)
    scipy = [name for name in sys.modules if name.split(".")[0] == "scipy"]
    assert scipy == ["scipy"] and sys.modules["scipy"] is None, scipy
    import json
    print(json.dumps([[r.statistic, r.p_or_distance, r.params.get("cells")] for r in (ks, chi)]))
""")


def run_cold(script, out):
    # a fresh interpreter: this one has scipy loaded already
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script, str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cold_start_without_scipy(tmp_path):
    # every command, and both p-values, run with scipy unimportable
    (ks_d, ks_p, _), (chi_stat, chi_p, cells) = json.loads(run_cold(COLD_START, tmp_path / "out"))
    from scipy.special import gammaincc, kolmogorov
    assert ks_p == pytest.approx(float(kolmogorov(1000 ** 0.5 * ks_d)), rel=1e-13)
    assert chi_p == pytest.approx(float(gammaincc((cells - 1) / 2.0, chi_stat / 2.0)), rel=1e-13)


VERIFY_EXACT = textwrap.dedent("""
    import sys
    from kingman import cli
    argv = ["verify", "--suite", "exact", "--seed", "7", "--threads", "1", "--out", sys.argv[1]]
    assert cli.main(argv) == 0
    assert "scipy" not in sys.modules
""")


def test_verify_exact_suite(tmp_path):
    # also a cold start, so the exact suite runs once for both checks
    out = tmp_path / "verify.txt"
    run_cold(VERIFY_EXACT, out)
    *reports, last = read(out).strip().splitlines()
    assert last == "PASS 8/8"
    for ln in reports:
        obj = json.loads(ln)
        assert obj["pass"] is True and obj["seed"] == 7
