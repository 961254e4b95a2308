"""Command-line front end.

Four subcommands drive the pipelines and write machine-readable files:

* ``solve``     Newton solve; writes coefficients, scaling constant,
                iteration history, and the coefficient-decay report.
* ``spectrum``  full pipeline through eigenvalue classification.
* ``verify``    residual table for the closed-form eigenfunctions and
                the internal consistency checks; exit 4 on failure.
* ``plotdata``  TSV emitters (coefficient decay, function and
                eigenfunction samples) for external plotting.

Outputs are deterministic and no timestamps enter the data sections.
Coefficient vectors (``cheb_coefficients`` of ``solve`` and the
``coefficients.tsv`` dump) print as fixed-point decimals to the absolute
resolution 10^-D * max|c_k|, D the configured digits, so entries below it
(the odd coefficients of the even g, say) print as an unsigned zero.
The ``taylor_coefficients`` t_j print the same way, each to the
resolution 10^-D * max|c_k| * sum_k |T_k[j]| that the conversion from
Chebyshev coefficients leaves it.  Every other number carries D
significant digits.  Failures print a structured JSON object
{code, message, hint} on stderr.  Exit codes: 0 success, 2 configuration
error, 3 solver failure, 4 verification failure, 5 eigensolver failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction

from . import __version__
from .bases import BasisKind, BasisSpec, build_basis
from .chebyshev import (
    ChebSeries,
    _cheb_monomial_coeffs,
    decay_report,
    eval_series,
    series_derivative,
    series_to_monomial,
)
from .errors import (
    ConfigError,
    FeigenbaumError,
    MissingArtifact,
    NoConvergence,
    SingularJacobian,
)
from .families import default_seed, family_spectrum_check, solve_extremum_order
from .numerics import PrecisionCtx, mpf_to_fraction
from .operators import Linearization, OperatorSpec, Variant
from .solver import (
    JacobianMode,
    NewtonConfig,
    assemble_jacobian,
    convergence_diagnostics,
    newton_solve,
)
from .spectrum import (
    expected_explicit_eigenvalue,
    spectrum_at,
    verify_explicit,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4
EXIT_EIG = 5


def _error(code: int, message: str, hint: str = "") -> int:
    sys.stderr.write(json.dumps({"code": code, "message": message, "hint": hint}) + "\n")
    return code


def _write(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_assign(item: str, what: str):
    if "=" not in item:
        raise ConfigError("%s expects NAME=VALUE, got %r" % (what, item))
    name, value = item.split("=", 1)
    return name.strip(), value.strip()


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="feigenbaum",
        description="Period-doubling fixed points and the spectrum of the "
                    "linearized doubling operator, at arbitrary precision.",
    )
    p.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--digits", type=int, default=64, help="decimal digits (default 64)")
        sp.add_argument("--nodes", type=int, default=32, help="Chebyshev grid size (default 32)")
        sp.add_argument("--operator", choices=[v.value for v in Variant], default="T")
        sp.add_argument("--linearization", choices=["full", "frozen"], default="full")
        sp.add_argument("--basis", choices=[k.value for k in BasisKind], default="cheb")
        sp.add_argument("--dim", type=int, default=None,
                        help="expansion order m for the coefficient bases")
        sp.add_argument("--constrain", action="append", default=[],
                        metavar="aK=V", help="pin a monomial basis coefficient (repeatable)")
        sp.add_argument("--pin", action="append", default=[],
                        metavar="g0=V", help="pin g(0) in the Newton solve (repeatable)")
        sp.add_argument("--extremum-order", type=int, default=1, dest="extremum_order",
                        help="k for an order-2k extremum (default 1, quadratic)")
        sp.add_argument("--mu", action="append", default=[],
                        help="scaling-family parameter (repeatable; spectrum command)")
        sp.add_argument("--seed-file", default=None, dest="seed_file",
                        help="coefficient file: index TAB value per line")
        sp.add_argument("--jacobian", choices=["fd", "exact"], default="fd")
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        return sp

    common(sub.add_parser("solve", help="Newton solve of the fixed-point equation"))
    sp = common(sub.add_parser("spectrum", help="spectrum of the linearized operator"))
    sp.add_argument("--include-vectors", action="store_true", dest="include_vectors",
                    help="embed eigenvector node values in the report")
    common(sub.add_parser("verify", help="closed-form eigenfunction and consistency checks"))
    pd = common(sub.add_parser("plotdata", help="emit TSV plot data"))
    pd.add_argument("--solution", default=None, help="solution artifact from `solve`")
    pd.add_argument("--spectrum", default=None, dest="spectrum_file",
                    help="spectrum artifact from `spectrum --include-vectors`")
    return p


def _operator_spec(args) -> OperatorSpec:
    lin = (Linearization.FULL_DERIVATIVE if args.linearization == "full"
           else Linearization.FROZEN_ALPHA)
    return OperatorSpec(Variant(args.operator), lin)


def _basis_spec(args) -> BasisSpec:
    kind = BasisKind(args.basis)
    if kind is BasisKind.CHEB_GRID:
        if args.constrain:
            raise ConfigError("--constrain applies to the coefficient bases only")
        return BasisSpec(kind, args.nodes)
    order = args.dim if args.dim is not None else (
        15 if kind in (BasisKind.LANFORD, BasisKind.EVEN_MONOMIAL) else 31)
    constraints = []
    for item in args.constrain:
        name, value = _parse_assign(item, "--constrain")
        if not name.startswith("a") or not name[1:].isdigit():
            raise ConfigError("--constrain pins monomial coefficients: a0=1, a1=0, ...")
        constraints.append((int(name[1:]), Fraction(value)))
    return BasisSpec(kind, order, tuple(constraints))


def _newton_config(args, ctx) -> NewtonConfig:
    pins = []
    for item in args.pin:
        name, value = _parse_assign(item, "--pin")
        if name != "g0":
            raise ConfigError("--pin supports g0=VALUE (the value of g at 0)")
        pins.append((0, ctx.mpf(value)))
    mode = JacobianMode.EXACT if args.jacobian == "exact" else JacobianMode.FINITE_DIFFERENCE
    return NewtonConfig(jacobian_mode=mode, pin=tuple(pins))


def _load_coefficients(path, ctx) -> ChebSeries:
    coeffs = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                idx, val = line.split()
                coeffs[int(idx)] = ctx.mpf(val)
    except OSError as exc:
        raise MissingArtifact("cannot read coefficient file: %s" % exc) from exc
    if not coeffs:
        raise MissingArtifact("coefficient file %s is empty" % path)
    n = max(coeffs) + 1
    return ChebSeries(tuple(coeffs.get(i, ctx.mpf(0)) for i in range(n)))


def _warn_family(args):
    if args.operator in ("T3", "T4") and not args.pin:
        sys.stderr.write(
            "warning: %s keeps a one-parameter solution family; Newton will "
            "fail without --pin g0=1\n" % args.operator
        )


def _run_newton(args, ctx):
    """NewtonResult of the configured run."""
    config = _newton_config(args, ctx)
    seed = (_load_coefficients(args.seed_file, ctx) if args.seed_file
            else default_seed(args.extremum_order, ctx))
    if args.extremum_order != 1:
        if BasisKind(args.basis) is not BasisKind.CHEB_GRID:
            raise ConfigError("higher extremum orders run on the Chebyshev grid")
        return solve_extremum_order(
            args.extremum_order, args.nodes, ctx, config=config, seed=seed)
    basis = build_basis(_basis_spec(args), ctx)
    return newton_solve(_operator_spec(args), basis, seed, config, ctx)


def _canonical_alpha(series: ChebSeries, ctx):
    return 1 / eval_series(series, 1, ctx)


def _floor_log10(x: Fraction) -> int:
    """floor(log10 x) of a positive rational, exactly."""
    e = len(str(x.numerator)) - len(str(x.denominator))
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    return e


def _coefficient_strings(coeffs, ctx, resolutions=None) -> list:
    """Fixed-point strings of one coefficient vector, entry j rounded to
    the decimal place of its absolute resolution r_j: a value of size
    10^D * r_j keeps D significant digits (D = ``ctx.decimal_digits``).

    By default every r_j is 10^-D * max|c_k|: only that absolute
    resolution means anything for the coefficients of one function, and
    digits below it are round-off that would change from one solve to the
    next.  Entries below their resolution print as an unsigned zero.  The
    strings are exact and parse back through ``ctx.mpf`` to values that
    print the same strings again.
    """
    D = ctx.decimal_digits
    exact = [mpf_to_fraction(c) for c in coeffs]
    if resolutions is None:
        top = max(abs(x) for x in exact)
        place = D - 1 - _floor_log10(top) if top else D - 1
        # the largest entry rounds up to a power of ten: one digit fewer,
        # so that the printed strings give back the same place
        if top and round(top * Fraction(10) ** place) >= 10 ** D:
            place -= 1
        places = [place] * len(exact)
    else:
        places = [-1 - _floor_log10(r) if r else D - 1 for r in resolutions]
    return [format(Decimal("%de%d" % (round(x * Fraction(10) ** p), -p)), "f")
            for x, p in zip(exact, places)]


def _taylor_resolutions(series: ChebSeries, ctx) -> list:
    """Absolute resolution of each Taylor coefficient t_j of the series:
    r_j = 10^-D * max_k|c_k| * sum_k |T_k[j]|, the most that errors of
    10^-D * max|c_k| in the Chebyshev coefficients carry into t_j through
    the integer monomial coefficients T_k[j] of T_k."""
    m = len(series.coeffs)
    growth = [0] * m
    for k in range(m):
        for j, t in enumerate(_cheb_monomial_coeffs(k)):
            growth[j] += abs(t)
    unit = max(abs(mpf_to_fraction(c)) for c in series.coeffs) / 10 ** ctx.decimal_digits
    return [unit * g for g in growth]


def _solution_payload(result, ctx) -> dict:
    series = result.solution_series
    decay = decay_report(series, ctx)
    diag = convergence_diagnostics(result)
    return {
        "digits": ctx.decimal_digits,
        "operator": result.spec.variant.value,
        "basis": result.basis.describe(ctx),
        "alpha": ctx.to_str(_canonical_alpha(series, ctx)),
        "scaling": {"value": ctx.to_str(result.scaling.value),
                    "definition": result.scaling.definition},
        "converged": result.converged,
        "stopped_by": result.stopped_by,
        "iteration_history": [ctx.to_str(u) for u in result.iteration_history],
        "convergence_exponent": None if diag.exponent is None else ctx.to_str(diag.exponent),
        "cheb_coefficients": _coefficient_strings(series.coeffs, ctx),
        "taylor_coefficients": _coefficient_strings(
            series_to_monomial(series, ctx), ctx, _taylor_resolutions(series, ctx)),
        "decay": {
            "log10_inverse_magnitudes": [ctx.to_str(v) for v in decay.log_inv_magnitudes],
            "rate": ctx.to_str(decay.rate),
            "tail_magnitude": ctx.to_str(decay.tail_magnitude),
            "healthy": decay.healthy,
        },
    }


def _emit(payload: dict, args, csv_rows=None):
    if args.format == "json":
        _write(args.out, json.dumps(payload, indent=2) + "\n")
        return
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in csv_rows or []:
        writer.writerow(row)
    _write(args.out, buf.getvalue())


def cmd_solve(args) -> int:
    ctx = PrecisionCtx(args.digits)
    _warn_family(args)
    result = _run_newton(args, ctx)
    payload = _solution_payload(result, ctx)
    rows = [["index", "cheb_coefficient", "taylor_coefficient"]]
    for i in range(len(result.solution_series.coeffs)):
        rows.append([i, payload["cheb_coefficients"][i], payload["taylor_coefficients"][i]])
    _emit(payload, args, rows)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    ctx = PrecisionCtx(args.digits)
    _warn_family(args)
    spec = _operator_spec(args)
    if args.mu:
        if spec.variant not in (Variant.T3, Variant.T4):
            raise ConfigError("--mu family comparison pairs with T3/T4")
        base_args = argparse.Namespace(**{**vars(args), "operator": "T", "pin": []})
        base = _run_newton(base_args, ctx)
        cmp = family_spectrum_check(
            base.solution_series, [ctx.mpf(m) for m in args.mu], spec.variant,
            ctx, n=args.nodes,
        )
        _emit(cmp.to_json_dict(ctx), args,
              [["mu", "max_pairwise_deviation"]]
              + [[ctx.to_str(m.mu), ctx.to_str(cmp.max_pairwise_deviation)]
                 for m in cmp.members])
        return EXIT_OK
    result = _run_newton(args, ctx)
    report = spectrum_at(result.solution_series, spec, ctx, basis=result.basis)
    payload = report.to_json_dict(ctx, include_vectors=getattr(args, "include_vectors", False))
    rows = [["index", "re", "im", "modulus", "residual", "tag", "k", "parity", "match_error"]]
    for i, r in enumerate(payload["eigenvalues"]):
        rows.append([i + 1, r["re"], r["im"], r["modulus"], r["residual"],
                     r["tag"], r["k"], r["parity"], r["match_error"]])
    _emit(payload, args, rows)
    return EXIT_OK


def _verify_checks(args, ctx):
    """(name, residual, bound) rows; residual None marks a skipped form."""
    spec = _operator_spec(args)
    if args.seed_file:
        # verify a stored solution exactly as provided, without repair
        g = _load_coefficients(args.seed_file, ctx)
        n = len(g.coeffs)
        result = None
    else:
        result = _run_newton(args, ctx)
        g = result.solution_series
        n = result.n

    rows = []
    alpha = _canonical_alpha(g, ctx)
    gp = series_derivative(g, ctx)
    rows.append(("g'(1) = alpha", abs(eval_series(gp, 1, ctx) - alpha),
                 ctx.ten_pow(-20)))

    bound = ctx.ten_pow(-15)
    for k in (-1, 0, 2, 3, 4, 5):
        for lin in (Linearization.FULL_DERIVATIVE, Linearization.FROZEN_ALPHA):
            sp = OperatorSpec(spec.variant, lin)
            name = "eigenfunction k=%s (%s)" % (k, lin.value)
            try:
                lam = expected_explicit_eigenvalue(sp, k, alpha, ctx)
                rows.append((name, verify_explicit(g, sp, k, lam, ctx), bound))
            except FeigenbaumError as exc:
                rows.append((name + " [skipped: %s]" % type(exc).__name__, None, None))

    report = spectrum_at(g, spec, ctx, basis=result.basis if result else None, n=n)
    basis = result.basis if result else build_basis(
        BasisSpec(BasisKind.CHEB_GRID, n), ctx)
    lead = report.records[: (2 * n) // 3]
    worst = ctx.mpf(0)
    for r in lead:
        if r.tag == "alpha_power" and r.k == -1:
            continue
        h = basis.direction_series([v.real for v in r.vector], ctx)
        worst = max(worst,
                    abs(eval_series(h, 0, ctx)) / max(abs(v) for v in r.vector))
    rows.append(("h(0) dichotomy (non-alpha^2)", worst, ctx.ten_pow(-10)))

    step, _ = NewtonConfig().resolved(ctx)
    full = OperatorSpec(spec.variant, Linearization.FULL_DERIVATIVE)
    fd = assemble_jacobian(full, g, n, NewtonConfig(), ctx, basis=basis)
    ex = assemble_jacobian(full, g, n,
                           NewtonConfig(jacobian_mode=JacobianMode.EXACT),
                           ctx, basis=basis)
    dmax = max(abs(fd[i][j] - ex[i][j]) for i in range(n) for j in range(n))
    rows.append(("finite-difference vs exact Jacobian", dmax, 10 * step))
    return rows


def cmd_verify(args) -> int:
    ctx = PrecisionCtx(args.digits)
    if args.seed_file is None:
        _warn_family(args)
    rows = _verify_checks(args, ctx)
    table = []
    ok_all = True
    for name, res, bound in rows:
        if res is None:
            table.append({"check": name, "residual": None, "bound": None, "ok": None})
            continue
        ok = bool(res <= bound)
        ok_all = ok_all and ok
        table.append({"check": name, "residual": ctx.to_str(res),
                      "bound": ctx.to_str(bound), "ok": ok})
    payload = {"digits": ctx.decimal_digits, "operator": args.operator,
               "all_ok": ok_all, "checks": table}
    csv_rows = [["check", "residual", "bound", "ok"]] + [
        [t["check"], t["residual"], t["bound"], t["ok"]] for t in table
    ]
    _emit(payload, args, csv_rows)
    return EXIT_OK if ok_all else EXIT_VERIFY


def _tsv(path, header, rows):
    lines = ["# " + "\t".join(header)]
    lines += ["\t".join(str(c) for c in row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def cmd_plotdata(args) -> int:
    ctx = PrecisionCtx(args.digits)
    if not args.solution:
        raise MissingArtifact("plotdata needs --solution (and optionally --spectrum)")
    try:
        with open(args.solution) as fh:
            sol = json.load(fh)
    except OSError as exc:
        raise MissingArtifact("cannot read solution artifact: %s" % exc) from exc
    if "cheb_coefficients" not in sol:
        raise MissingArtifact("solution artifact lacks cheb_coefficients")
    coeffs = ChebSeries(tuple(ctx.mpf(c) for c in sol["cheb_coefficients"]))
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    decay = decay_report(coeffs, ctx)
    _tsv(os.path.join(out, "coefficients.tsv"), ["k", "coefficient"],
         list(enumerate(_coefficient_strings(coeffs.coeffs, ctx))))
    _tsv(os.path.join(out, "decay.tsv"), ["k", "log10_inv_coefficient"],
         [(k, ctx.to_str(v)) for k, v in enumerate(decay.log_inv_magnitudes)])
    pts = [ctx.mpf(-1) + ctx.mpf(2) * i / 200 for i in range(201)]
    _tsv(os.path.join(out, "solution.tsv"), ["x", "g(x)"],
         [(ctx.to_str(x), ctx.to_str(eval_series(coeffs, x, ctx))) for x in pts])
    if args.spectrum_file:
        try:
            with open(args.spectrum_file) as fh:
                srep = json.load(fh)
        except OSError as exc:
            raise MissingArtifact("cannot read spectrum artifact: %s" % exc) from exc
        rows = srep.get("eigenvalues", [])
        if not rows or "vector_re" not in rows[0]:
            raise MissingArtifact(
                "spectrum artifact lacks eigenvectors; rerun spectrum "
                "with --include-vectors"
            )
        basis = build_basis(_basis_spec(args), ctx)
        for i, r in enumerate(rows):
            vec = [ctx.mpf(v) for v in r["vector_re"]]
            if len(vec) != basis.dim:
                raise MissingArtifact(
                    "eigenvector length %d does not match basis dimension %d; "
                    "pass the flags the spectrum ran with" % (len(vec), basis.dim)
                )
            h = basis.direction_series(vec, ctx)
            _tsv(os.path.join(out, "eigenfunction_%02d.tsv" % (i + 1)),
                 ["x", "h(x)"],
                 [(ctx.to_str(x), ctx.to_str(eval_series(h, x, ctx))) for x in pts])
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "spectrum": cmd_spectrum,
        "verify": cmd_verify,
        "plotdata": cmd_plotdata,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, MissingArtifact, ValueError) as exc:
        return _error(EXIT_CONFIG, str(exc), "check flag combinations; --help lists them")
    except SingularJacobian as exc:
        return _error(EXIT_SOLVER, str(exc), "use --pin g0=1 to select a family member")
    except NoConvergence as exc:
        if exc.history is not None:
            return _error(EXIT_SOLVER, str(exc), "try a different seed or more iterations")
        return _error(EXIT_EIG, str(exc), "raise --digits or lower the grid size")
    except FeigenbaumError as exc:
        return _error(EXIT_SOLVER, str(exc), "")


if __name__ == "__main__":
    sys.exit(main())
