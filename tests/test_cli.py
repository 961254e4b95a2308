"""Command-line interface: artifacts, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from mpmath import mp

import feigenbaum as fb
from feigenbaum import cli
from feigenbaum.cli import _build_parser, _coefficient_strings, _taylor_resolutions, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_default_quadratic(capsys, tmp_path):
    out = tmp_path / "sol.json"
    code, _, _ = run(capsys, "solve", "--digits", "48", "--nodes", "24",
                     "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["alpha"].startswith("-2.50290")
    assert data["converged"] is True
    assert data["decay"]["healthy"] is True
    assert len(data["cheb_coefficients"]) == 24
    assert 1.7 <= float(data["convergence_exponent"]) <= 2.3


def test_solve_unpinned_t4_exit_code_and_hint(capsys):
    code, _, err = run(capsys, "solve", "--operator", "T4",
                       "--digits", "32", "--nodes", "16")
    assert code == 3
    # the warning line comes first, the structured error last
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["code"] == 3
    assert "g0=1" in payload["hint"] or "g0=1" in payload["message"]


def test_solve_pinned_t4(capsys, tmp_path):
    out = tmp_path / "sol.json"
    code, _, _ = run(capsys, "solve", "--operator", "T4", "--pin", "g0=1",
                     "--digits", "40", "--nodes", "20", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["alpha"].startswith("-2.50290787")
    assert data["scaling"]["definition"] == "-g(0)/g(g(0))"


def test_spectrum_pinned_t3_reports_delta(capsys):
    # the pinned solution is even, so delta's eigenfunction reads even
    code, out, _ = run(capsys, "spectrum", "--operator", "T3", "--pin", "g0=1",
                       "--digits", "24", "--nodes", "12")
    assert code == 0
    assert json.loads(out)["delta"].startswith("4.6692")


def test_solve_csv_format(capsys, tmp_path):
    out = tmp_path / "sol.csv"
    code, _, _ = run(capsys, "solve", "--digits", "32", "--nodes", "12",
                     "--format", "csv", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,cheb_coefficient,taylor_coefficient"
    assert len(lines) == 13


def test_spectrum_frozen_contains_unit_eigenvalue(capsys, tmp_path):
    out = tmp_path / "spec.json"
    code, _, _ = run(capsys, "spectrum", "--linearization", "frozen",
                     "--digits", "40", "--nodes", "20", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["linearization"] == "frozen"
    ones = [r for r in data["eigenvalues"]
            if abs(float(r["re"]) - 1) < 1e-10 and r["tag"] == "alpha_power"
            and r["k"] == 1]
    assert ones


def test_spectrum_lanford_recovers_conjecture(capsys, tmp_path):
    out = tmp_path / "spec.json"
    code, _, _ = run(capsys, "spectrum", "--basis", "lanford", "--dim", "15",
                     "--digits", "40", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    vals = [float(r["re"]) for r in data["eigenvalues"]]
    assert abs(vals[0] - 4.669201609) < 1e-8
    for bad in (6.264547831, -2.502907875, -0.399535280):
        assert all(abs(v - bad) > 1e-3 for v in vals)


def test_spectrum_family_comparison(capsys, tmp_path):
    out = tmp_path / "family.json"
    code, _, _ = run(capsys, "spectrum", "--operator", "T4",
                     "--mu", "1", "--mu", "1.2",
                     "--digits", "40", "--nodes", "20", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    # plumbing check at a coarse grid; the 1e-8 bound runs at n=32 in the
    # acceptance suite (trailing compared entries carry projection error here)
    assert float(data["max_pairwise_deviation"]) < 1e-3
    assert len(data["reports"]) == 2
    top = [float(r["eigenvalues"][0]["re"]) for r in data["reports"]]
    assert all(abs(v - 4.669201609) < 1e-6 for v in top)


def test_family_comparison_does_not_warn_about_the_pin(capsys):
    # the base solve of --mu is the unpinned T solve, which needs no pin
    code, _, err = run(capsys, "spectrum", "--operator", "T4", "--mu", "1", "--mu", "1.5",
                       "--digits", "24", "--nodes", "12")
    assert code == 0
    assert err == ""


def test_spectrum_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "spectrum", "--digits", "36", "--nodes", "16",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_default_passes(capsys, tmp_path):
    out = tmp_path / "verify.json"
    code, _, _ = run(capsys, "verify", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["all_ok"] is True
    names = [c["check"] for c in data["checks"]]
    assert "g'(1) = alpha" in names
    assert any("dichotomy" in n for n in names)
    skipped = [c for c in data["checks"] if c["ok"] is None]
    assert not skipped  # every form exists for the plain operator


def test_verify_passes_off_the_plain_operator(capsys, tmp_path):
    # the h(0) row exempts the dilation mode g - x g', whose eigenvalue
    # is 1 = alpha^0 under T3/T4
    out = tmp_path / "verify.json"
    assert run(capsys, "verify", "--operator", "T4", "--pin", "g0=1", "--out", str(out))[0] == 0
    assert json.loads(out.read_text())["all_ok"] is True


def test_verify_corrupted_solution_fails(capsys, tmp_path, quad32, ctx):
    corrupt = tmp_path / "bad.txt"
    with ctx.activate():
        lines = []
        for i, c in enumerate(quad32.solution_series.coeffs):
            bump = ctx.ten_pow(-6) if i == 2 else 0
            lines.append("%d\t%s" % (i, ctx.to_str(c + bump)))
    corrupt.write_text("\n".join(lines) + "\n")
    out = tmp_path / "verify.json"
    code, _, _ = run(capsys, "verify", "--seed-file", str(corrupt),
                     "--out", str(out))
    assert code == 4
    data = json.loads(out.read_text())
    assert data["all_ok"] is False
    assert any(c["ok"] is False for c in data["checks"])


def test_verify_t2_skips_even_k_forms(capsys, tmp_path):
    out = tmp_path / "verify.json"
    code, _, _ = run(capsys, "verify", "--operator", "T2", "--digits", "64",
                     "--nodes", "32", "--out", str(out))
    data = json.loads(out.read_text())
    skipped = [c["check"] for c in data["checks"] if c["ok"] is None]
    assert any("k=0" in n for n in skipped)
    assert any("NoExplicitForm" in n for n in skipped)


def test_verify_lanford_eigenfunctions_carry_no_fixed_part(capsys, tmp_path):
    # eigenvectors are directions: rebuilt with Lanford's fixed part 1 - p(x)
    # added, every eigenfunction would read h(0) = 1
    out = tmp_path / "verify.json"
    run(capsys, "verify", "--digits", "24", "--basis", "lanford", "--dim", "8",
        "--out", str(out))
    data = json.loads(out.read_text())
    row = next(c for c in data["checks"] if "dichotomy" in c["check"])
    assert row["ok"] is True
    assert float(row["residual"]) < 1e-20


def test_plotdata_decay_and_samples(capsys, tmp_path, quad32, ctx):
    sol = tmp_path / "sol.json"
    code, _, _ = run(capsys, "solve", "--out", str(sol))
    assert code == 0
    outdir = tmp_path / "plots"
    code, _, _ = run(capsys, "plotdata", "--solution", str(sol),
                     "--out", str(outdir))
    assert code == 0
    decay = (outdir / "decay.tsv").read_text().strip().splitlines()
    assert decay[0].startswith("#")
    rows = [line.split("\t") for line in decay[1:]]
    assert len(rows) == 32
    # the last coefficient carrying information sits near 10^-22.3; the
    # very last one vanishes by parity
    assert abs(float(rows[30][1]) - 22.34) < 0.1
    samples = (outdir / "solution.tsv").read_text().strip().splitlines()
    assert len(samples) == 202


def test_plotdata_eigenfunction_nonzero_at_origin(capsys, tmp_path):
    sol = tmp_path / "sol.json"
    spec = tmp_path / "spec.json"
    run(capsys, "solve", "--digits", "36", "--nodes", "16", "--out", str(sol))
    run(capsys, "spectrum", "--digits", "36", "--nodes", "16",
        "--include-vectors", "--out", str(spec))
    outdir = tmp_path / "plots"
    code, _, _ = run(capsys, "plotdata", "--digits", "36",
                     "--solution", str(sol), "--spectrum", str(spec),
                     "--out", str(outdir))
    assert code == 0
    ef1 = (outdir / "eigenfunction_01.tsv").read_text().strip().splitlines()
    assert len(ef1) == 202
    mid = ef1[1 + 100].split("\t")  # x = 0 row
    assert abs(float(mid[0])) < 1e-30
    assert abs(float(mid[1])) > 1e-3  # alpha^2 eigenfunction: h(0) != 0


def test_plotdata_missing_artifact(capsys, tmp_path):
    code, _, err = run(capsys, "plotdata", "--solution",
                       str(tmp_path / "absent.json"))
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["code"] == 2


def test_config_error_exit_code(capsys):
    code, _, err = run(capsys, "solve", "--basis", "cheb", "--constrain", "a0=1")
    assert code == 2


def test_lanford_constrain_config_error(capsys):
    code, _, err = run(capsys, "spectrum", "--basis", "lanford",
                       "--constrain", "a1=0")
    assert code == 2


def test_plotdata_coefficient_dump_round_trips(capsys, tmp_path):
    sol = tmp_path / "sol.json"
    run(capsys, "solve", "--digits", "36", "--nodes", "12", "--out", str(sol))
    outdir = tmp_path / "plots"
    code, _, _ = run(capsys, "plotdata", "--digits", "36",
                     "--solution", str(sol), "--out", str(outdir))
    assert code == 0
    dump = (outdir / "coefficients.tsv").read_text().strip().splitlines()
    assert len(dump) == 13
    # the dump is a loadable seed file: feed it back through solve
    seedfile = tmp_path / "seed.txt"
    seedfile.write_text("\n".join(dump[1:]) + "\n")
    out2 = tmp_path / "sol2.json"
    code, _, _ = run(capsys, "solve", "--digits", "36", "--nodes", "12",
                     "--seed-file", str(seedfile), "--out", str(out2))
    assert code == 0
    a = json.loads(sol.read_text())["cheb_coefficients"]
    b = json.loads(out2.read_text())["cheb_coefficients"]
    assert a == b


def test_even_seed_file_may_list_its_even_coefficients_only(capsys, tmp_path):
    # c0 = 0.5 (the series halves c0) and c2 = -0.75: the seed 1 - 1.5 x^2;
    # leaving out c1 = 0 changes nothing
    sparse, dense = tmp_path / "sparse.txt", tmp_path / "dense.txt"
    sparse.write_text("0\t0.5\n2\t-0.75\n")
    dense.write_text("0\t0.5\n1\t0\n2\t-0.75\n")
    reports = []
    for seed in (sparse, dense):
        out = tmp_path / (seed.stem + ".json")
        assert run(capsys, "solve", "--digits", "24", "--nodes", "12",
                   "--seed-file", str(seed), "--out", str(out))[0] == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["scaling"]["value"].startswith("-2.50290")


def test_plotdata_computes_at_the_solution_digits(capsys, tmp_path):
    sol = tmp_path / "sol.json"
    run(capsys, "solve", "--digits", "24", "--nodes", "12", "--out", str(sol))
    coeffs = json.loads(sol.read_text())["cheb_coefficients"]

    def plotdata(*flags):
        outdir = tmp_path / ("plots" + "".join(flags))
        code, _, _ = run(capsys, "plotdata", *flags, "--solution", str(sol),
                         "--out", str(outdir))
        assert code == 0
        return [[line.split("\t") for line in
                 (outdir / name).read_text().strip().splitlines()[1:]]
                for name in ("coefficients.tsv", "decay.tsv")]

    # without --digits: the artifact's 24 digits, so the dump repeats its
    # strings and the odd round-off coefficients sit at the 24-digit floor
    dump, decay = plotdata()
    assert [c for _, c in dump] == coeffs
    for k in range(1, 12, 2):
        assert abs(float(decay[k][1]) - 24.15) < 0.01
    # an explicit --digits still wins
    dump, decay = plotdata("--digits", "36")
    assert [c for _, c in dump] != coeffs
    assert abs(float(decay[1][1]) - 36.15) < 0.01


@pytest.mark.parametrize("values", [
    ["0.5657909435", "-8.6e-46", "-0.37", "3.1e-30", "0", "-2e-36"],
    # the largest entry rounds up to the next power of ten
    ["-0.99999999999999999999999999999999999999", "1e-40", "0.25"],
])
def test_coefficient_strings_absolute_resolution(values):
    ctx = fb.PrecisionCtx(36)
    strs = _coefficient_strings([ctx.mpf(v) for v in values], ctx)
    places = {len(s.partition(".")[2]) for s in strs}
    assert len(places) == 1 and places.pop() > 0
    zero = "0." + "0" * len(strs[0].partition(".")[2])
    # round-off below the resolution prints as the one unsigned zero
    assert strs[1] == zero
    assert "-" + zero not in strs
    assert _coefficient_strings([ctx.mpf(s) for s in strs], ctx) == strs


def test_solve_taylor_coefficients_print_to_their_resolution(capsys):
    ctx = fb.PrecisionCtx(24)
    code, out, _ = run(capsys, "solve", "--digits", "24", "--nodes", "12")
    assert code == 0
    data = json.loads(out)
    taylor = data["taylor_coefficients"]
    # g is even: its odd Taylor coefficients are round-off that the
    # Chebyshev-to-monomial conversion amplifies, and print as zero
    for s in taylor[1::2]:
        assert ctx.mpf(s) == 0 and not s.startswith("-")
    assert abs(float(taylor[0]) - 1) < 1e-6 and float(taylor[2]) < -1
    series = fb.ChebSeries(tuple(ctx.mpf(c) for c in data["cheb_coefficients"]))
    resolutions = _taylor_resolutions(series, ctx)
    assert _coefficient_strings([ctx.mpf(s) for s in taylor], ctx, resolutions) == taylor


@pytest.mark.parametrize("command", ["solve", "spectrum", "verify"])
def test_newton_defaults_to_the_exact_jacobian(command):
    assert _build_parser().parse_args([command]).jacobian == "exact"


def test_fd_jacobian_runs_agree_with_the_default(capsys, tmp_path):
    digits = 24
    ctx = fb.PrecisionCtx(digits)
    num = ctx.mpf
    tol = ctx.ten_pow(-digits // 2)
    flags = ["--digits", str(digits), "--nodes", "12"]
    reports = {}
    for command in ("solve", "spectrum"):
        for mode in ([], ["--jacobian", "fd"]):
            out = tmp_path / ("%s%d.json" % (command, len(mode)))
            code, _, _ = run(capsys, command, *flags, *mode, "--out", str(out))
            assert code == 0
            reports[command, bool(mode)] = json.loads(out.read_text())
    for command in ("solve", "spectrum"):
        exact, fd = reports[command, False], reports[command, True]
        assert abs(num(exact["alpha"]) - num(fd["alpha"])) <= tol
    exact, fd = reports["spectrum", False]["eigenvalues"], reports["spectrum", True]["eigenvalues"]
    assert len(exact) == len(fd)
    for a, b in zip(exact, fd):
        assert (a["tag"], a["k"], a["parity"]) == (b["tag"], b["k"], b["parity"])
        assert abs(num(a["re"]) - num(b["re"])) <= tol * max(1, abs(num(a["re"])))
        assert abs(num(a["im"]) - num(b["im"])) <= tol * max(1, abs(num(a["modulus"])))


def _last_error(err):
    """The {code, message, hint} object of the last stderr line."""
    payload = json.loads(err.strip().splitlines()[-1])
    assert set(payload) == {"code", "message", "hint"}
    return payload


def _raise(exc):
    def raising(*args, **kwargs):
        raise exc
    return raising


# argv with {name} standing for an artifact that _exit_code_artifacts writes,
# the expected exit code, what _run_newton raises instead of solving, and a
# part of the error message the case checks
EXIT_CASES = [
    pytest.param(["solve", "--pin", "g0"], 2, None, None, id="assign-without-equals"),
    pytest.param(["solve", "--basis", "monomial", "--constrain", "b1=0"], 2, None, None,
                 id="constrain-not-a-coefficient"),
    pytest.param(["solve", "--pin", "g1=0"], 2, None, None, id="pin-not-g0"),
    pytest.param(["solve", "--operator", "T4", "--pin", "g0=1", "--pin", "g0=1"], 2, None, None,
                 id="pin-twice"),
    pytest.param(["spectrum", "--basis", "monomial", "--dim", "11", "--constrain", "a0=1",
                  "--constrain", "a0=2"], 2, None, "a0", id="constrain-twice-monomial"),
    pytest.param(["spectrum", "--basis", "rational", "--dim", "11", "--constrain", "a0=1",
                  "--constrain", "a0=2"], 2, None, "a0", id="constrain-twice-rational"),
    pytest.param(["solve", "--seed-file", "{absent}"], 2, None, None, id="seed-file-missing"),
    pytest.param(["solve", "--seed-file", "{empty}"], 2, None, None, id="seed-file-empty"),
    pytest.param(["solve", "--seed-file", "{negative}"], 2, None, "{negative} line 3",
                 id="seed-file-negative-index"),
    pytest.param(["verify", "--seed-file", "{repeated}"], 2, None, "{repeated} line 2",
                 id="seed-file-repeated-index"),
    pytest.param(["solve", "--seed-file", "{threefields}"], 2, None, "{threefields} line 1",
                 id="seed-file-three-fields"),
    pytest.param(["spectrum", "--seed-file", "{badvalue}"], 2, None, "{badvalue} line 2",
                 id="seed-file-bad-value"),
    pytest.param(["solve", "--seed-file", "{badindex}"], 2, None, "{badindex} line 1",
                 id="seed-file-bad-index"),
    pytest.param(["solve", "--seed-file", "{huge}"], 2, None, "{huge} line 1",
                 id="seed-file-index-past-its-length"),
    pytest.param(["verify", "--seed-file", "{sparse}"], 2, None, "{sparse} line 2",
                 id="seed-file-index-past-twice-its-lines"),
    pytest.param(["solve", "--extremum-order", "2", "--basis", "lanford"], 2, None, None,
                 id="extremum-order-off-grid"),
    pytest.param(["solve", "--extremum-order", "2", "--operator", "T4"], 2, None, None,
                 id="extremum-order-off-T"),
    pytest.param(["verify", "--extremum-order", "2", "--jacobian", "fd"], 2, None, None,
                 id="extremum-order-with-fd"),
    pytest.param(["spectrum", "--mu", "1"], 2, None, None, id="mu-with-T"),
    pytest.param(["spectrum", "--operator", "T4", "--mu", "1", "--pin", "g0=1"], 2, None, None,
                 id="mu-with-pin"),
    pytest.param(["spectrum", "--operator", "T4", "--mu", "1", "--include-vectors"], 2, None, None,
                 id="mu-with-vectors"),
    pytest.param(["spectrum", "--operator", "T3", "--mu", "1", "--linearization", "frozen"],
                 2, None, None, id="mu-with-frozen"),
    pytest.param(["spectrum", "--operator", "T4", "--mu", "0.5"], 2, None,
                 "--mu needs |mu| >= 1", id="mu-below-one"),
    pytest.param(["spectrum", "--operator", "T4", "--mu", "1", "--mu", "inf"], 2, None,
                 "--mu needs finite values", id="mu-inf"),
    pytest.param(["spectrum", "--operator", "T3", "--mu", "nan"], 2, None,
                 "--mu needs finite values", id="mu-nan"),
    pytest.param(["spectrum", "--basis", "monomial", "--dim", "11", "--constrain", "a0=1/0"],
                 2, None, "--constrain a0", id="constrain-zero-denominator"),
    pytest.param(["spectrum", "--basis", "monomial", "--dim", "11", "--constrain", "a0=nan"],
                 2, None, "--constrain a0", id="constrain-nan"),
    pytest.param(["solve", "--operator", "T4", "--pin", "g0=nan"], 2, None,
                 "--pin g0 needs finite values", id="pin-nan"),
    pytest.param(["solve", "--operator", "T4", "--pin", "g0=inf"], 2, None,
                 "--pin g0 needs finite values", id="pin-inf"),
    pytest.param(["solve", "--operator", "T4", "--pin", "g0=1/0"], 2, None,
                 "--pin g0 needs finite values", id="pin-zero-denominator"),
    pytest.param(["solve", "--seed-file", "{nanvalue}"], 2, None, "{nanvalue} line 1",
                 id="seed-file-nan-value"),
    pytest.param(["verify", "--seed-file", "{infvalue}"], 2, None, "{infvalue} line 2",
                 id="seed-file-inf-value"),
    # numbers past the one bound |v| < 10^D exit 2 before their integer
    # form or their Fraction is made
    pytest.param(["solve", "--digits", "24", "--nodes", "8", "--seed-file", "{hugevalue}"], 2,
                 None, "{hugevalue} line 1", id="seed-file-huge-value"),
    pytest.param(["spectrum", "--operator", "T4", "--mu", "1", "--mu", "1e999999999999"], 2,
                 None, "--mu needs finite values with |v| < 10^64", id="mu-huge"),
    pytest.param(["solve", "--operator", "T4", "--pin", "g0=1e999999999999"], 2, None,
                 "--pin g0 needs finite values with |v| < 10^64", id="pin-huge"),
    pytest.param(["solve", "--basis", "monomial", "--dim", "8", "--constrain",
                  "a0=1e999999999999"], 2, None, "--constrain a0 needs finite values",
                 id="constrain-huge"),
    pytest.param(["solve", "--basis", "monomial", "--dim", "8", "--constrain",
                  "a0=1e-999999999999"], 2, None, "0 or 10^-64 < |v| < 10^64",
                 id="constrain-tiny"),
    pytest.param(["solve", "--basis", "monomial", "--dim", "8", "--constrain", "a0=1/-2"], 2,
                 None, "--constrain a0 needs a rational value", id="constrain-not-a-fraction"),
    pytest.param(["solve", "--digits", "24", "--nodes", "12", "--operator", "T4", "--pin",
                  "g0=0"], 3, None, "Newton Jacobian is singular (g(0) pinned to 0.0)",
                 id="pinned-singular-names-the-pin"),
    pytest.param(["plotdata"], 2, None, None, id="plotdata-without-solution"),
    pytest.param(["plotdata", "--solution", "{nocoeffs}"], 2, None, None,
                 id="solution-without-coefficients"),
    pytest.param(["plotdata", "--solution", "{sol}", "--spectrum", "{novectors}",
                  "--out", "{out}"], 2, None, None,
                 id="spectrum-without-vectors"),
    pytest.param(["plotdata", "--solution", "{sol}", "--spectrum", "{nobasis}",
                  "--out", "{out}"], 2, None, None,
                 id="spectrum-without-basis"),
    # an artifact's stored constraint is read under the same bound
    pytest.param(["plotdata", "--solution", "{sol}", "--spectrum", "{hugeconstraint}",
                  "--out", "{out}"], 2, None,
                 "spectrum artifact constraint a0 needs finite values with |v| < 10^24",
                 id="spectrum-constraint-huge"),
    pytest.param(["plotdata", "--solution", "{sol}", "--spectrum", "{tinyconstraint}",
                  "--out", "{out}"], 2, None,
                 "spectrum artifact constraint a0 needs a rational value, 0 or 10^-24",
                 id="spectrum-constraint-tiny"),
    pytest.param(["plotdata", "--solution", "{hugecoeff}", "--out", "{out}"], 2, None,
                 "solution artifact coefficients needs finite values with |v| < 10^24",
                 id="solution-coefficient-huge"),
    pytest.param(["plotdata", "--solution", "{sol}", "--spectrum", "{hugevector}",
                  "--out", "{out}"], 2, None,
                 "spectrum artifact vector_re needs finite values with |v| < 10^24",
                 id="spectrum-vector-huge"),
    pytest.param(["plotdata", "--solution", "{sol}", "--spectrum", "{short}",
                  "--out", "{out}"], 2, None, None,
                 id="vectors-off-the-basis-dimension"),
    # every artifact field is read by its type; digits and a basis dimension
    # are bounded by the artifact's own size before anything is made of them
    pytest.param(["plotdata", "--solution", "{digitsabc}"], 2, None,
                 "solution artifact needs digits of type int", id="solution-digits-not-an-int"),
    pytest.param(["plotdata", "--solution", "{digitsnull}"], 2, None,
                 "solution artifact needs digits of type int", id="solution-digits-null"),
    pytest.param(["plotdata", "--solution", "{digitshuge}"], 2, None,
                 "digits 10000000 must be at least 16 and at most the 24 significant digits",
                 id="solution-digits-past-its-coefficients"),
    pytest.param(["plotdata", "--solution", "{coeffsint}"], 2, None,
                 "solution artifact needs cheb_coefficients of type list of str",
                 id="solution-coefficients-not-a-list"),
    pytest.param(["plotdata", "--solution", "{sol}", "--spectrum", "{speclist}",
                  "--out", "{out}"], 2, None, "spectrum artifact needs eigenvalues of type list",
                 id="spectrum-not-an-object"),
    pytest.param(["plotdata", "--solution", "{sol}", "--spectrum", "{eigint}",
                  "--out", "{out}"], 2, None, "spectrum artifact needs eigenvalues of type list",
                 id="spectrum-eigenvalues-not-a-list"),
    pytest.param(["plotdata", "--solution", "{sol}", "--spectrum", "{vecint}",
                  "--out", "{out}"], 2, None, "row 1 needs vector_re of type list of str",
                 id="spectrum-vector-not-a-list"),
    pytest.param(["plotdata", "--solution", "{sol}", "--spectrum", "{laternovec}",
                  "--out", "{out}"], 2, None, "lacks eigenvectors",
                 id="spectrum-later-row-without-vector"),
    pytest.param(["plotdata", "--solution", "{sol}", "--spectrum", "{dimhuge}",
                  "--out", "{out}"], 2, None, "does not match the dimension 1000000000",
                 id="spectrum-dimension-past-its-vectors"),
    # the rational pool rounded to denominators <= 1000 repeats a node from
    # m = 149 on, which is a flag out of range, not a singular solve
    pytest.param(["spectrum", "--digits", "24", "--basis", "rational", "--dim", "160"], 2, None,
                 "order m = 160 repeats interpolation nodes", id="rational-order-past-its-pool"),
    pytest.param(["spectrum", "--nodes", "8", "--dim", "5"], 2, None,
                 "--dim applies to the coefficient bases only", id="dim-with-grid"),
    pytest.param(["solve", "--extremum-order", "2", "--dim", "5"], 2, None,
                 "--dim applies to the coefficient bases only", id="dim-with-extremum-order"),
    pytest.param(["solve"], 3, fb.NoConvergence("budget", history=(1, 2)), None,
                 id="newton-no-convergence"),
    pytest.param(["spectrum"], 5, fb.NoConvergence("QR sweep budget", index=3), None,
                 id="eigensolver-no-convergence"),
    pytest.param(["verify"], 3, fb.FeigenbaumError("plain"), None, id="plain-error"),
    # usage errors leave through the same JSON path
    pytest.param([], 2, None, None, id="no-subcommand"),
    pytest.param(["frobnicate"], 2, None, None, id="unknown-subcommand"),
    pytest.param(["spectrum", "--nodes", "abc"], 2, None, None, id="bad-int"),
    pytest.param(["solve", "--include-vectors"], 2, None, None, id="flag-of-another-subcommand"),
    pytest.param(["spectrum", "--basis", "chebyshev"], 2, None, None, id="bad-choice"),
]


def _exit_code_artifacts(tmp_path):
    coeffs = ["1." + "0" * 23] + ["0.0"] * 7  # 24 digits, as solve prints them
    vector = {"re": "1", "vector_re": ["1"] * 8}
    grid8 = {"kind": "cheb", "dimension": 8, "exact": False, "constraints": []}

    def pinned(a0):
        return {"kind": "monomial", "dimension": 8, "exact": False, "constraints": [[0, a0]]}
    files = {
        "empty": "",
        "negative": "0\t1.5\n# comment\n-1\t5\n",
        "repeated": "0\t1.5\n0\t2\n",
        "threefields": "0\t1.5\t2\n",
        "badvalue": "\n2\t-0.5x\n",
        "badindex": "a0\t1.5\n",
        "huge": "1000000000\t1\n",
        "sparse": "0\t1.5\n4\t-0.5\n",
        "nanvalue": "0\tnan\n",
        "infvalue": "0\t1.5\n2\tinf\n",
        "hugevalue": "0\t1e999999999999\n",
        "nocoeffs": "{}",
        "sol": json.dumps({"digits": 24, "cheb_coefficients": coeffs}),
        "novectors": json.dumps({"basis": grid8, "eigenvalues": [{"re": "1"}]}),
        "nobasis": json.dumps({"eigenvalues": [vector]}),
        "short": json.dumps({"basis": dict(grid8, dimension=12), "eigenvalues": [vector]}),
        "hugecoeff": json.dumps({"digits": 24, "cheb_coefficients": ["1e999999999999"] + coeffs}),
        "hugevector": json.dumps({"basis": grid8, "eigenvalues": [
            dict(vector, vector_re=["1e999999999999"] + vector["vector_re"][1:])]}),
        "hugeconstraint": json.dumps({"basis": pinned("1e999999999999"), "eigenvalues": [vector]}),
        "tinyconstraint": json.dumps({"basis": pinned("1e-999999999999"), "eigenvalues": [vector]}),
        "digitsabc": json.dumps({"digits": "abc", "cheb_coefficients": coeffs}),
        "digitsnull": json.dumps({"digits": None, "cheb_coefficients": coeffs}),
        "digitshuge": json.dumps({"digits": 10000000, "cheb_coefficients": coeffs}),
        "coeffsint": json.dumps({"digits": 24, "cheb_coefficients": 5}),
        "speclist": json.dumps([vector]),
        "eigint": json.dumps({"basis": grid8, "eigenvalues": 5}),
        "vecint": json.dumps({"basis": grid8, "eigenvalues": [dict(vector, vector_re=7)]}),
        "laternovec": json.dumps({"basis": grid8, "eigenvalues": [vector, {"re": "0.5"}]}),
        "dimhuge": json.dumps({"basis": dict(grid8, dimension=10 ** 9), "eigenvalues": [vector]}),
    }
    paths = {"absent": str(tmp_path / "absent.txt"), "out": str(tmp_path / "plots")}
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("argv, code, raises, says", EXIT_CASES)
def test_exit_code_contract(capsys, tmp_path, monkeypatch, argv, code, raises, says):
    paths = _exit_code_artifacts(tmp_path)
    if raises is not None:
        monkeypatch.setattr(cli, "_run_newton", _raise(raises))
    got, out, err = run(capsys, *[a.format(**paths) for a in argv])
    assert got == code and out == ""
    payload = _last_error(err)
    assert payload["code"] == code
    if says is not None:
        assert says.format(**paths) in payload["message"]


REMOVED_FLAGS = [
    ("solve", ["--linearization", "frozen"]),
    ("solve", ["--mu", "1"]),
    ("verify", ["--mu", "1"]),
    ("verify", ["--linearization", "frozen"]),
] + [("plotdata", flag) for flag in (
    ["--nodes", "8"], ["--operator", "T4"], ["--linearization", "frozen"],
    ["--basis", "lanford"], ["--dim", "8"], ["--constrain", "a0=1"],
    ["--pin", "g0=1"], ["--extremum-order", "2"], ["--mu", "1"],
    ["--seed-file", "seed.txt"], ["--jacobian", "fd"], ["--format", "csv"],
)]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                         ids=["%s%s" % (c, f[0]) for c, f in REMOVED_FLAGS])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, command, flag):
    code, out, err = run(capsys, command, *flag)
    assert code == 2 and out == ""
    payload = _last_error(err)
    assert payload["code"] == 2
    assert "unrecognized arguments: " + " ".join(flag) in payload["message"]


def test_plotdata_takes_the_basis_from_the_spectrum_artifact(capsys, tmp_path):
    # a Lanford spectrum needs no basis flags: its descriptor rebuilds the
    # Lanford cardinals, whose directions vanish at 0 (Chebyshev cardinals
    # of the same dimension would not)
    sol, spec = tmp_path / "sol.json", tmp_path / "spec.json"
    lanford = ["--digits", "24", "--basis", "lanford", "--dim", "8"]
    assert run(capsys, "solve", *lanford, "--out", str(sol))[0] == 0
    assert run(capsys, "spectrum", *lanford, "--include-vectors", "--out", str(spec))[0] == 0
    outdir = tmp_path / "plots"
    code, _, _ = run(capsys, "plotdata", "--solution", str(sol), "--spectrum", str(spec),
                     "--out", str(outdir))
    assert code == 0
    rows = json.loads(spec.read_text())["eigenvalues"]
    assert len(list(outdir.glob("eigenfunction_*.tsv"))) == len(rows)
    ef1 = (outdir / "eigenfunction_01.tsv").read_text().strip().splitlines()
    x, h0 = (float(v) for v in ef1[1 + 100].split("\t"))
    assert abs(x) < 1e-20
    assert abs(h0) < 1e-20


def test_singular_pinned_solve_hints_at_another_pin(capsys):
    # the user has pinned g(0) already: the hint must not ask for a pin
    code, _, err = run(capsys, "solve", "--digits", "24", "--nodes", "12", "--pin", "g0=0")
    payload = _last_error(err)
    assert code == 3 and "g(0) pinned to 0.0" in payload["message"]
    assert "--pin g0=1" not in payload["hint"] and "another --pin g0 value" in payload["hint"]


@pytest.mark.parametrize("lines, skipped", [
    ("0\t2\n1\t0\n2\t0\n", ["k=%d (full)" % k for k in (0, 2, 3, 4, 5)]),  # g = 1
    ("0\t0\n1\t1\n2\t0\n", ["k=0 (full)", "k=0 (frozen)"]),                # g = x
])
def test_verify_lists_a_vanishing_closed_form_as_skipped(tmp_path, lines, skipped):
    # h = 0 has no relative residual: the row is skipped, not a traceback
    seed = tmp_path / "g.txt"
    seed.write_text(lines)
    path = [str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-m", "feigenbaum.cli", "verify", "--digits", "24",
                           "--seed-file", str(seed)], capture_output=True, text=True, env=env)
    assert done.returncode == 4 and "Traceback" not in done.stderr
    rows = json.loads(done.stdout)["checks"]
    assert [r["check"] for r in rows if r["ok"] is None] == [
        "eigenfunction %s [skipped: NoExplicitForm]" % name for name in skipped]


def test_verify_g1_zero_is_a_solver_error(capsys, tmp_path):
    # g = 0.5 - 0.5 x has g(1) = 0: alpha = 1/g(1) is undefined
    seed = tmp_path / "g.txt"
    seed.write_text("0\t1\n1\t-0.5\n")
    code, _, err = run(capsys, "verify", "--digits", "16", "--seed-file", str(seed))
    assert code == 3
    assert "g(1) = 0" in _last_error(err)["message"]
