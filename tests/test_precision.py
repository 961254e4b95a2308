"""Precision ownership: every value computes at the precision of the
PrecisionCtx that made it, independent of mpmath's global ``mp``."""

import ast
import json
import pathlib
import sys
import threading

from mpmath import mp

import feigenbaum as fb
from feigenbaum.cli import main

PACKAGE = pathlib.Path(fb.__file__).parent


def test_spectrum_modulus_carries_report_precision(capsys):
    # the modulus column used to be computed at 53 bits and printed to D digits
    digits = 24
    assert main(["spectrum", "--digits", str(digits), "--nodes", "12"]) == 0
    rows = json.loads(capsys.readouterr().out)["eigenvalues"]
    with mp.workprec(300):
        for row in rows:
            re, im, modulus = (mp.mpf(row[k]) for k in ("re", "im", "modulus"))
            assert abs(modulus - mp.hypot(re, im)) <= mp.mpf(10) ** (2 - digits) * modulus


def test_convergence_exponent_is_fitted_at_context_precision(quad32, ctx):
    got = fb.convergence_diagnostics(quad32).exponent
    history = list(quad32.iteration_history)
    if quad32.stopped_by == "plateau":
        history = history[:-1]
    with mp.workprec(ctx.prec_bits):
        pairs = [(mp.log(u), mp.log(v)) for u, v in zip(history, history[1:])
                 if 0 < u <= mp.mpf("1e-2") and v > 0]
        xb = mp.fsum(x for x, _ in pairs) / len(pairs)
        yb = mp.fsum(y for _, y in pairs) / len(pairs)
        want = (mp.fsum((x - xb) * (y - yb) for x, y in pairs)
                / mp.fsum((x - xb) ** 2 for x, _ in pairs))
    assert got._mpf_ == want._mpf_


def _apply_bits(ctx, points=2000):
    """Raw mantissa tuples of T(g) at ``points`` points, g = 1 - 1.5 x^2."""
    g = fb.monomial_to_series([ctx.mpf(1), ctx.mpf(0), ctx.mpf("-1.5")], ctx)
    xs = [ctx.mpf(i) / (points // 2) - 1 for i in range(points)]
    return [v._mpf_ for v in fb.apply_at_points(fb.Variant.T, g, xs, ctx)]


def test_threads_at_different_precisions_do_not_interfere():
    contexts = (fb.PrecisionCtx(64), fb.PrecisionCtx(16))
    reference = [_apply_bits(c) for c in contexts]
    results = [[] for _ in contexts]
    start = threading.Barrier(len(contexts))

    def work(slot, c):
        start.wait()
        for _ in range(3):
            results[slot].append(_apply_bits(c))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i, c)) for i, c in enumerate(contexts)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for slot, runs in enumerate(results):
        assert len(runs) == 3
        for run in runs:
            wrong = sum(a != b for a, b in zip(run, reference[slot]))
            assert wrong == 0, "%d of %d values differ at %r" % (
                wrong, len(run), contexts[slot])


def _is_activate_method(node, parents):
    return (isinstance(node, ast.FunctionDef) and node.name == "activate"
            and isinstance(parents.get(node), ast.ClassDef)
            and parents[node].name == "PrecisionCtx")


def test_package_never_switches_global_precision():
    # mpmath's global mp, its workprec and PrecisionCtx.activate() are for
    # callers only: a package value made under them would compute at the
    # global precision, not at its context's
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        exempt = set()
        for node in ast.walk(tree):
            if _is_activate_method(node, parents):
                exempt.update(ast.walk(node))
        for node in ast.walk(tree):
            if node in exempt:
                continue
            bad = (
                isinstance(node, ast.ImportFrom) and node.module == "mpmath"
                and any(a.name == "mp" for a in node.names)
            ) or (
                isinstance(node, ast.Attribute) and node.attr == "mp"
                and isinstance(node.value, ast.Name) and node.value.id == "mpmath"
            ) or (
                isinstance(node, ast.Attribute) and node.attr == "workprec"
            ) or (
                isinstance(node, ast.Name) and node.id == "workprec"
            ) or (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "activate"
            )
            if bad:
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []


def test_direction_series_converts_caller_values(ctx):
    # a global-mp mpc as left operand used to give the sum its context
    coeffs = fb.chebgrid(8, ctx).direction_series([mp.mpc(1)] * 8, ctx).coeffs
    assert all(c.context is ctx.mp for c in coeffs)
