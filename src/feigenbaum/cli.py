"""Command-line front end.

Four subcommands drive the pipelines and write machine-readable files;
each accepts only the flags it reads (``--help`` lists them):

* ``solve``     Newton solve; writes coefficients, scaling constant,
                iteration history, and the coefficient-decay report.
* ``spectrum``  full pipeline through eigenvalue classification.
* ``verify``    residual table for the closed-form eigenfunctions and
                the internal consistency checks; exit 4 on failure.
* ``plotdata``  TSV emitters (coefficient decay, function and
                eigenfunction samples) for external plotting, at the
                solution artifact's digits unless ``--digits`` is given,
                in the basis the spectrum artifact's descriptor names.

Outputs are deterministic and no timestamps enter the data sections.
Coefficient vectors (``cheb_coefficients`` of ``solve`` and the
``coefficients.tsv`` dump) print as fixed-point decimals to the absolute
resolution 10^-D * max|c_k|, D the configured digits, so entries below it
(the odd coefficients of the even g, say) print as an unsigned zero.
The ``taylor_coefficients`` t_j print the same way, each to the
resolution 10^-D * max|c_k| * sum_k |T_k[j]| that the conversion from
Chebyshev coefficients leaves it.  Every other number carries D
significant digits.  Failures, usage errors included, print a structured
JSON object {code, message, hint} on stderr.  Exit codes: 0 success, 2
configuration or usage error, 3 solver failure, 4 verification failure,
5 eigensolver failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal
from fractions import Fraction

from . import __version__
from .bases import BasisKind, BasisSpec, build_basis, chebgrid, spec_from_description
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
from .families import family_spectrum_check, solve_extremum_order
from .fixed import mpf_to_fraction
from .numerics import PrecisionCtx
from .operators import Linearization, OperatorSpec, Variant, scaling_of, uses_inverse_g1
from .solver import (
    JacobianMode,
    NewtonConfig,
    assemble_jacobian,
    convergence_diagnostics,
    default_seed,
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


def _read(path, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise MissingArtifact("cannot read %s: %s" % (what, exc)) from exc


def _parse_assign(item: str, what: str):
    if "=" not in item:
        raise ConfigError("%s expects NAME=VALUE, got %r" % (what, item))
    name, value = item.split("=", 1)
    return name.strip(), value.strip()


_BOUND = ("every number given (--pin, --constrain, --mu, seed-file and artifact values) is "
          "finite with |v| < 10^D at --digits D; a nonzero constraint, kept exact, has "
          "|v| > 10^-D")


def _finite_value(text: str, ctx, flag: str):
    """The value ``text`` of ``flag`` at context precision, under the one
    bound :data:`_BOUND` (a larger value's integers would not fit in memory)."""
    try:
        x = ctx.mpf(text)
    except (ValueError, ZeroDivisionError):
        x = ctx.mp.nan
    if not ctx.mp.isfinite(x) or abs(x) >= ctx.ten_pow(ctx.decimal_digits):
        raise ConfigError("%s needs finite values with |v| < 10^%d, got %r"
                          % (flag, ctx.decimal_digits, text))
    return x


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError: main's JSON error path, exit 2."""

    def error(self, message):
        raise ConfigError("%s: %s" % (self.prog, message))


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="feigenbaum",
        description="Period-doubling fixed points and the spectrum of the "
                    "linearized doubling operator, at arbitrary precision; " + _BOUND + ".",
    )
    p.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = p.add_subparsers(dest="command", required=True)

    def pipeline(sp, seed_help="coefficient file: index TAB value per line"):
        sp.epilog = _BOUND + "."
        sp.add_argument("--digits", type=int, default=64, help="decimal digits (default 64)")
        sp.add_argument("--nodes", type=int, default=32, help="Chebyshev grid size (default 32)")
        sp.add_argument("--operator", choices=[v.value for v in Variant], default="T")
        sp.add_argument("--basis", choices=[k.value for k in BasisKind], default="cheb")
        sp.add_argument("--dim", type=int, default=None,
                        help="expansion order m for the coefficient bases")
        sp.add_argument("--constrain", action="append", default=[],
                        metavar="aK=V", help="pin a monomial basis coefficient (repeatable)")
        sp.add_argument("--pin", action="append", default=[],
                        metavar="g0=V", help="pin g(0) in the Newton solve (once)")
        sp.add_argument("--extremum-order", type=int, default=1, dest="extremum_order",
                        help="k for an order-2k extremum (default 1, quadratic)")
        sp.add_argument("--seed-file", default=None, dest="seed_file", help=seed_help)
        sp.add_argument("--jacobian", choices=["exact", "fd"], default="exact",
                        help="Newton Jacobian: exact (default) or centered "
                             "finite differences (a cross-check)")
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        return sp

    pipeline(sub.add_parser("solve", help="Newton solve of the fixed-point equation"))
    sp = pipeline(sub.add_parser("spectrum", help="spectrum of the linearized operator"))
    sp.add_argument("--linearization", choices=["full", "frozen"], default="full")
    sp.add_argument("--mu", action="append", default=[],
                    help="scaling-family parameter, |mu| >= 1 (repeatable)")
    sp.add_argument("--include-vectors", action="store_true", dest="include_vectors",
                    help="embed eigenvector node values in the report")
    pipeline(sub.add_parser("verify", help="closed-form eigenfunction and consistency checks"),
             seed_help="the g to check as given (index TAB value per line), on the grid "
                       "of its length: with no Newton run, --nodes --basis --dim "
                       "--constrain --pin --extremum-order --jacobian are ignored")
    pd = sub.add_parser("plotdata", help="emit TSV plot data", epilog=_BOUND + ".")
    pd.add_argument("--solution", default=None, help="solution artifact from `solve`")
    pd.add_argument("--spectrum", default=None, dest="spectrum_file",
                    help="spectrum artifact from `spectrum --include-vectors`")
    pd.add_argument("--digits", type=int, default=None,
                    help="decimal digits (default the solution's)")
    pd.add_argument("--out", default=None, help="output directory (default .)")
    return p


def _basis_spec(args, ctx) -> BasisSpec:
    kind = BasisKind(args.basis)
    if kind is BasisKind.CHEB_GRID:
        if args.constrain or args.dim is not None:
            raise ConfigError("%s applies to the coefficient bases only"
                              % ("--constrain" if args.constrain else "--dim"))
        return BasisSpec(kind, args.nodes)
    order = args.dim if args.dim is not None else (
        15 if kind in (BasisKind.LANFORD, BasisKind.EVEN_MONOMIAL) else 31)
    constraints = []
    for item in args.constrain:
        name, value = _parse_assign(item, "--constrain")
        if not name.startswith("a") or not name[1:].isdigit():
            raise ConfigError("--constrain pins monomial coefficients: a0=1, a1=0, ...")
        constraints.append((int(name[1:]), _exact_value(value, ctx, "--constrain " + name)))
    return BasisSpec(kind, order, tuple(constraints))


def _exact_value(text, ctx, what: str) -> Fraction:
    """The exact value of the constraint ``text`` named ``what``, under the
    bound :data:`_BOUND`: ``Fraction`` spells out 10^|e| of an exponent e,
    so it reads only a value inside the bound."""
    v, D = _finite_value(text, ctx, what), ctx.decimal_digits
    try:
        if 0 < abs(v) <= ctx.ten_pow(-D):
            raise ValueError(text)
        return Fraction(text) if v else Fraction(0)
    except ValueError:
        raise ConfigError("%s needs a rational value, 0 or 10^-%d < |v| < 10^%d, got %r"
                          % (what, D, D, text)) from None


def _newton_config(args, ctx) -> NewtonConfig:
    pin_g0 = None
    for item in args.pin:
        name, value = _parse_assign(item, "--pin")
        if name != "g0":
            raise ConfigError("--pin supports g0=VALUE (the value of g at 0)")
        if pin_g0 is not None:
            raise ConfigError("--pin g0=VALUE may be given once")
        pin_g0 = _finite_value(value, ctx, "--pin g0")
    return NewtonConfig(jacobian_mode=JacobianMode(args.jacobian), pin_g0=pin_g0)


def _load_coefficients(path, ctx) -> ChebSeries:
    """The series of a coefficient file: "index TAB value" per line,
    blank and # lines skipped.  Each value is finite, and each index is
    given once and is below twice the number N of such lines, so an even
    g may list its even coefficients only; an index not given is a zero
    coefficient.  The series thus has fewer than 2N terms, however large
    an index the file names.  A line that breaks this raises ConfigError
    naming the file and line."""
    entries = []
    for lineno, line in enumerate(_read(path, "coefficient file").splitlines(), 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        try:
            idx, val = int(fields[0]), _finite_value(fields[-1], ctx, path)
        except (ValueError, ConfigError):
            idx = val = None
        entries.append((lineno, line, idx if len(fields) == 2 else None, val))
    if not entries:
        raise MissingArtifact("coefficient file %s is empty" % path)
    coeffs = {}
    for lineno, line, idx, val in entries:
        if idx is None or not 0 <= idx < 2 * len(entries) or idx in coeffs:
            raise ConfigError(
                "coefficient file %s line %d: %r is not 'index TAB value' with a "
                "finite value below 10^%d in modulus and an index in 0..%d given once"
                % (path, lineno, line.strip(), ctx.decimal_digits, 2 * len(entries) - 1))
        coeffs[idx] = val
    n = max(coeffs) + 1
    return ChebSeries(tuple(coeffs.get(i, ctx.mpf(0)) for i in range(n)))


def _run_newton(args, ctx, variant: Variant):
    """NewtonResult of the configured run for the operator ``variant``,
    with g(0) pinned when ``--pin`` is given.  An unpinned T3/T4 run is
    warned about first: its Newton system is degenerate."""
    config = _newton_config(args, ctx)
    if args.extremum_order >= 2 and (variant is not Variant.T
                                     or config.jacobian_mode is not JacobianMode.EXACT):
        raise ConfigError("higher extremum orders solve T with the exact Jacobian: "
                          "--operator and --jacobian fd do not apply")
    if not uses_inverse_g1(variant) and config.pin_g0 is None:
        sys.stderr.write(
            "warning: %s keeps a one-parameter solution family; Newton will "
            "fail without --pin g0=1\n" % variant.value
        )
    seed = (_load_coefficients(args.seed_file, ctx) if args.seed_file
            else default_seed(args.extremum_order, ctx))
    spec = _basis_spec(args, ctx)  # the grid rejects --dim and --constrain
    if args.extremum_order != 1:
        if spec.kind is not BasisKind.CHEB_GRID:
            raise ConfigError("higher extremum orders run on the Chebyshev grid")
        return solve_extremum_order(
            args.extremum_order, args.nodes, ctx, config=config, seed=seed)
    return newton_solve(OperatorSpec(variant), build_basis(spec, ctx), seed, config, ctx)


def _floor_log10(x: Fraction) -> int:
    """floor(log10 x) of a positive rational, exactly."""
    # x lies in (10^(e-1), 10^(e+1)): its floor is e - 1 or e
    e = len(str(x.numerator)) - len(str(x.denominator))
    return e - 1 if Fraction(10) ** e > x else e


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
        "alpha": ctx.to_str(scaling_of(Variant.T, series, ctx).value),
        "scaling": {"value": ctx.to_str(result.scaling.value),
                    "definition": result.scaling.definition},
        "converged": True,
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
    result = _run_newton(args, ctx, Variant(args.operator))
    payload = _solution_payload(result, ctx)
    rows = [["index", "cheb_coefficient", "taylor_coefficient"]]
    for i in range(len(result.solution_series.coeffs)):
        rows.append([i, payload["cheb_coefficients"][i], payload["taylor_coefficients"][i]])
    _emit(payload, args, rows)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    ctx = PrecisionCtx(args.digits)
    spec = OperatorSpec(Variant(args.operator), Linearization(args.linearization))
    if args.mu:
        if uses_inverse_g1(spec.variant):
            raise ConfigError("--mu family comparison pairs with T3/T4")
        if (args.pin or args.include_vectors
                or spec.linearization is not Linearization.FULL_DERIVATIVE):
            raise ConfigError("--mu compares full-derivative spectra along the family of "
                              "the unpinned T solution: --pin, --include-vectors and "
                              "--linearization frozen do not apply")
        mus = [_finite_value(m, ctx, "--mu") for m in args.mu]
        if any(abs(m) < 1 for m in mus):
            raise ConfigError("--mu needs |mu| >= 1: g_mu(x) = mu g(x/mu) would "
                              "evaluate g outside [-1, 1]")
        base = _run_newton(args, ctx, Variant.T)
        cmp = family_spectrum_check(base.solution_series, mus, spec.variant, ctx, n=args.nodes)
        _emit(cmp.to_json_dict(ctx), args,
              [["mu", "max_pairwise_deviation"]]
              + [[ctx.to_str(mu), ctx.to_str(cmp.max_pairwise_deviation)]
                 for mu in cmp.mus])
        return EXIT_OK
    result = _run_newton(args, ctx, spec.variant)
    report = spectrum_at(result.solution_series, spec, ctx, basis=result.basis)
    payload = report.to_json_dict(ctx, include_vectors=args.include_vectors)
    rows = [["index", "re", "im", "modulus", "residual", "tag", "k", "parity", "match_error"]]
    for i, r in enumerate(payload["eigenvalues"]):
        rows.append([i + 1, r["re"], r["im"], r["modulus"], r["residual"],
                     r["tag"], r["k"], r["parity"], r["match_error"]])
    _emit(payload, args, rows)
    return EXIT_OK


def _verify_checks(args, ctx):
    """(name, residual, bound) rows; residual None marks a skipped form."""
    variant = Variant(args.operator)
    if args.seed_file:
        # verify a stored solution exactly as provided, without repair
        g = _load_coefficients(args.seed_file, ctx)
    else:
        result = _run_newton(args, ctx, variant)
        g = result.solution_series
    alpha = scaling_of(Variant.T, g, ctx).value
    basis = chebgrid(len(g.coeffs), ctx) if args.seed_file else result.basis
    n = basis.dim

    rows = []
    gp = series_derivative(g, ctx)
    rows.append(("g'(1) = alpha", abs(eval_series(gp, 1, ctx) - alpha),
                 ctx.ten_pow(-20)))

    bound = ctx.ten_pow(-15)
    for k in (-1, 0, 2, 3, 4, 5):
        for lin in (Linearization.FULL_DERIVATIVE, Linearization.FROZEN_ALPHA):
            sp = OperatorSpec(variant, lin)
            name = "eigenfunction k=%s (%s)" % (k, lin.value)
            try:
                lam = expected_explicit_eigenvalue(sp, k, alpha, ctx)
                rows.append((name, verify_explicit(g, sp, k, lam, ctx), bound))
            except FeigenbaumError as exc:
                rows.append((name + " [skipped: %s]" % type(exc).__name__, None, None))

    # every eigenfunction of the full derivative but the dilation mode
    # g - x g' (lambda = alpha^2 under T/T2, 1 = alpha^0 under T3/T4)
    # vanishes at 0
    full = OperatorSpec(variant, Linearization.FULL_DERIVATIVE)
    dilation_k = 1 if expected_explicit_eigenvalue(full, -1, alpha, ctx) == 1 else -1
    report = spectrum_at(g, full, ctx, basis=basis)
    worst = ctx.mpf(0)
    for r in report.records[: (2 * n) // 3]:
        if r.tag == "alpha_power" and r.k == dilation_k:
            continue
        h = basis.direction_series([v.real for v in r.vector], ctx)
        worst = max(worst,
                    abs(eval_series(h, 0, ctx)) / max(abs(v) for v in r.vector))
    rows.append(("h(0) dichotomy (non-alpha^2)", worst, ctx.ten_pow(-10)))

    step, _ = NewtonConfig().resolved(ctx)
    fd = assemble_jacobian(full, g, n,
                           NewtonConfig(jacobian_mode=JacobianMode.FINITE_DIFFERENCE),
                           ctx, basis=basis)
    ex = assemble_jacobian(full, g, n,
                           NewtonConfig(jacobian_mode=JacobianMode.EXACT),
                           ctx, basis=basis)
    dmax = max(abs(fd[i][j] - ex[i][j]) for i in range(n) for j in range(n))
    rows.append(("finite-difference vs exact Jacobian", dmax, 10 * step))
    return rows


def cmd_verify(args) -> int:
    ctx = PrecisionCtx(args.digits)
    table = [{"check": name, "residual": None, "bound": None, "ok": None} if res is None
             else {"check": name, "residual": ctx.to_str(res), "bound": ctx.to_str(bound),
                   "ok": bool(res <= bound)} for name, res, bound in _verify_checks(args, ctx)]
    ok_all = all(t["ok"] is not False for t in table)
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


def _field(obj: dict, key: str, kind, what: str, items=None):
    """obj[key] of a JSON object obj if it has the JSON type ``kind`` (a
    list's entries the type ``items`` when given), else MissingArtifact
    naming ``what``."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if (not isinstance(value, kind) or isinstance(value, bool)
            or items and not all(isinstance(v, items) for v in value)):
        raise MissingArtifact("%s needs %s of type %s" % (
            what, key, kind.__name__ + (" of " + items.__name__ if items else "")))
    return value


def cmd_plotdata(args) -> int:
    if not args.solution:
        raise MissingArtifact("plotdata needs --solution (and optionally --spectrum)")
    sol = json.loads(_read(args.solution, "solution artifact"))
    texts = _field(sol, "cheb_coefficients", list, "solution artifact", str)
    D = args.digits
    if D is None:
        # solve prints the largest coefficient inside |v| < 10^D with D
        # significant digits: they bound D before any D-digit arithmetic
        D = _field(sol, "digits", int, "solution artifact") if "digits" in sol else 64
        exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[])  # bad strings become NaN
        top = max((d for d in map(exact.create_decimal, texts)
                   if d.is_finite() and d.adjusted() < D), key=Decimal.copy_abs, default=0)
        carried = len(top.as_tuple().digits) if top else 0
        if not 16 <= D <= carried:
            raise ConfigError("solution artifact digits %d must be at least 16 and at most the %d "
                              "significant digits of its largest coefficient" % (D, carried))
    ctx = PrecisionCtx(D)
    coeffs = ChebSeries(tuple(_finite_value(c, ctx, "solution artifact coefficients")
                              for c in texts))
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
        srep = json.loads(_read(args.spectrum_file, "spectrum artifact"))
        rows = _field(srep, "eigenvalues", list, "spectrum artifact", dict)
        if not rows or not all("vector_re" in r for r in rows):
            raise MissingArtifact("spectrum artifact lacks eigenvectors; rerun spectrum "
                                  "with --include-vectors")
        vectors = [_field(r, "vector_re", list, "spectrum artifact row %d" % (i + 1), str)
                   for i, r in enumerate(rows)]
        desc = dict(_field(srep, "basis", dict, "spectrum artifact"))
        dim = _field(desc, "dimension", int, "spectrum artifact basis")
        for vec in vectors:  # before a basis of that dimension is built
            if len(vec) != dim:
                raise MissingArtifact("eigenvector length %d does not match the dimension %d "
                                      "of the artifact's basis" % (len(vec), dim))
        try:
            desc["constraints"] = [
                (p, _exact_value(v, ctx, "spectrum artifact constraint a%s" % p))
                for p, v in desc["constraints"]]
            basis = build_basis(spec_from_description(desc), ctx)
        except (KeyError, TypeError) as exc:
            raise MissingArtifact("spectrum artifact lacks a basis descriptor: %r" % exc) from exc
        for i, vec in enumerate(vectors):
            h = basis.direction_series(
                [_finite_value(v, ctx, "spectrum artifact vector_re") for v in vec], ctx)
            _tsv(os.path.join(out, "eigenfunction_%02d.tsv" % (i + 1)),
                 ["x", "h(x)"],
                 [(ctx.to_str(x), ctx.to_str(eval_series(h, x, ctx))) for x in pts])
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {
        "solve": cmd_solve,
        "spectrum": cmd_spectrum,
        "verify": cmd_verify,
        "plotdata": cmd_plotdata,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (ConfigError, MissingArtifact, ValueError) as exc:
        return _error(EXIT_CONFIG, str(exc), "check flag combinations; --help lists them")
    except SingularJacobian as exc:
        return _error(EXIT_SOLVER, str(exc), "try another --pin g0 value or seed" if args.pin
                      else "use --pin g0=1 to select a family member")
    except NoConvergence as exc:
        if exc.history is not None:
            return _error(EXIT_SOLVER, str(exc), "try a different seed or more iterations")
        return _error(EXIT_EIG, str(exc), "raise --digits or lower the grid size")
    except FeigenbaumError as exc:
        return _error(EXIT_SOLVER, str(exc), "")


if __name__ == "__main__":
    sys.exit(main())
