"""Command-line interface: artifacts, exit codes, determinism."""

import json
import os

import pytest
from mpmath import mp

import feigenbaum as fb
from feigenbaum.cli import _coefficient_strings, _taylor_resolutions, main


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
    assert data["alpha"].startswith("-2.502907875")
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
    code, _, _ = run(capsys, "plotdata", "--digits", "36", "--nodes", "16",
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
