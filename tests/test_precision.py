"""Precision ownership: every value computes at the precision of the
PrecisionCtx that made it, independent of mpmath's global ``mp``."""

import ast
import json
import pathlib
import random
import sys
import threading

from mpmath import mp

import feigenbaum as fb
from feigenbaum.bases import _coefficient_basis, even_half
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
    floor = ctx.ten_pow(-ctx.decimal_digits)
    with mp.workprec(ctx.prec_bits):
        pairs = [(mp.log(u), mp.log(v)) for u, v in zip(history, history[1:])
                 if floor < u <= mp.mpf("1e-2") and v > floor]
        xb = mp.fsum(x for x, _ in pairs) / len(pairs)
        yb = mp.fsum(y for _, y in pairs) / len(pairs)
        want = (mp.fsum((x - xb) * (y - yb) for x, y in pairs)
                / mp.fsum((x - xb) ** 2 for x, _ in pairs))
    assert got._mpf_ == want._mpf_


def _apply_bits(ctx, points=2000, g=None):
    """Raw mantissa tuples of T(g) at ``points`` points, by default for a
    new g = 1 - 1.5 x^2."""
    if g is None:
        g = fb.monomial_to_series([ctx.mpf(1), ctx.mpf(0), ctx.mpf("-1.5")], ctx)
    xs = [ctx.mpf(i) / (points // 2) - 1 for i in range(points)]
    return [v._mpf_ for v in fb.apply_at_points(fb.Variant.T, g, xs, ctx)]


def _eig_bits(ctx, n=10):
    """Raw tuples of every eigenvalue, vector entry and residual of a fixed
    random n x n matrix, some of its eigenvalues complex."""
    rng = random.Random(5)
    A = [[ctx.mpf(rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
    raw = [getattr(x, "_mpf_", None) or x._mpc_ for p in fb.eig_dense(A, ctx)
           for x in (p.value, *p.vector, p.residual)]
    assert len(raw) == n * (n + 2)
    return raw


def _linearization_bits(ctx):
    """Raw tuples of every entry of L on the 13-node grid, its even half
    and the Lanford basis of order 6, full and frozen, for a g with odd
    terms."""
    g = fb.monomial_to_series([ctx.mpf(1), ctx.mpf("0.03"), ctx.mpf("-1.5"),
                               ctx.mpf("0.01")], ctx)
    grid = fb.chebgrid(13, ctx)
    bases = (grid, even_half(grid, ctx), fb.build_basis(fb.BasisSpec(fb.BasisKind.LANFORD, 6), ctx))
    return [x._mpf_ for basis in bases for lin in fb.Linearization
            for row in fb.linearization_matrix(fb.OperatorSpec(fb.Variant.T4, lin), g, basis, ctx)
            for x in row]


def _assert_threads_match_serial(bits):
    """bits(ctx) at 64 and at 16 digits, three times in each of two
    threads started together, gives what it gives made serially."""
    contexts = (fb.PrecisionCtx(64), fb.PrecisionCtx(16))
    reference = [bits(c) for c in contexts]
    results = [[] for _ in contexts]
    start = threading.Barrier(len(contexts))

    def work(slot, c):
        start.wait()
        for _ in range(3):
            results[slot].append(bits(c))

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


def _series_bits(ctx):
    """Raw tuples of every coefficient that to_series and direction_series
    (of a real and of a complex vector) give on the 13-node grid, its even
    half and the Lanford basis of order 6, and that grid_to_series gives
    on the grid."""
    rng = random.Random(11)
    grid = fb.chebgrid(13, ctx)
    lanford = fb.build_basis(fb.BasisSpec(fb.BasisKind.LANFORD, 6), ctx)
    out = []
    for basis in (grid, even_half(grid, ctx), lanford):
        real = [ctx.mpf(rng.uniform(-1, 1)) for _ in range(basis.dim)]
        cplx = [ctx.mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(basis.dim)]
        for s in (basis.to_series(real, ctx), basis.direction_series(real, ctx),
                  basis.direction_series(cplx, ctx)):
            out += [getattr(c, "_mpf_", None) or c._mpc_ for c in s.coeffs]
    values = tuple(ctx.mpf(rng.uniform(-1, 1)) for _ in range(13))
    return out + [c._mpf_ for c in fb.grid_to_series(fb.GridFn(values), ctx).coeffs]


def test_threads_at_different_precisions_do_not_interfere():
    _assert_threads_match_serial(_apply_bits)


def test_eig_dense_in_threads_at_different_precisions_matches_serial():
    _assert_threads_match_serial(_eig_bits)


def test_linearization_matrix_in_threads_at_different_precisions_matches_serial():
    _assert_threads_match_serial(_linearization_bits)


def test_series_maps_in_threads_at_different_precisions_match_serial():
    _assert_threads_match_serial(_series_bits)


def test_threads_sharing_a_series_agree():
    # a ChebSeries makes the integer form of its coefficients on its first
    # evaluation: threads that race to make it must all see the same values
    ctx = fb.PrecisionCtx(64)
    reference = _apply_bits(ctx, points=200)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            g = fb.monomial_to_series([ctx.mpf(1), ctx.mpf(0), ctx.mpf("-1.5")], ctx)
            start = threading.Barrier(4)

            def work():
                start.wait()
                results.append(_apply_bits(ctx, points=200, g=g))

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 12
    assert all(run == reference for run in results)


def _basis_use_bits(ctx):
    """Raw tuples of the nodes of the rational a0 = 1, a1 = 0 basis of
    order 12, of a series through node values, and its cardinals' kernel
    integers at a few points."""
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.RATIONAL_NODE_MONOMIAL, 12,
                                        ((0, 1), (1, 0))), ctx)
    values = [ctx.mpf(i) / 7 for i in range(basis.dim)]
    unit, rows = basis.cardinal_ints([ctx.mpf(i) / 5 - 1 for i in range(11)], ctx)
    return ([x._mpf_ for x in basis.nodes] + [unit] + [v for row in rows for v in row]
            + [c._mpf_ for c in basis.to_series(values, ctx).coeffs])


def test_threads_racing_on_a_cold_basis_cache_agree():
    # on a cold cache each thread may build the basis, and threads sharing
    # one race to make its cardinals' integer forms: all must see the
    # values of a serial build
    _coefficient_basis.cache_clear()
    reference = _basis_use_bits(fb.PrecisionCtx(64))
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _coefficient_basis.cache_clear()
            start = threading.Barrier(4)

            def work():
                ctx = fb.PrecisionCtx(64)
                start.wait()
                results.append(_basis_use_bits(ctx))

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 12
    assert all(run == reference for run in results)


def _cold_kernel_rows(digits):
    """The cardinal rows, as the kernel's integers, of the rational a1 = 0
    basis of order 12 (a gap in its powers, so its kernel takes an
    auxiliary node) built at the given digits, at points inside and
    beyond [-1, 1]."""
    ctx = fb.PrecisionCtx(digits)
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.RATIONAL_NODE_MONOMIAL, 12, ((1, 0),)), ctx)
    return basis.cardinal_ints([ctx.mpf(i) / 5 - 1 for i in range(11)] + [ctx.mpf("1.2")], ctx)


def test_two_precisions_building_cold_kernels_at_once_match_a_sequential_run():
    # two threads each build the basis at its own precision on a cold cache
    # at the same moment, kernel included, and take its rows
    _coefficient_basis.cache_clear()
    reference = {D: _cold_kernel_rows(D) for D in (24, 64)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _coefficient_basis.cache_clear()
            start, results = threading.Barrier(2), {}

            def work(digits):
                start.wait()
                results[digits] = _cold_kernel_rows(digits)

            threads = [threading.Thread(target=work, args=(D,)) for D in (24, 64)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == reference
    finally:
        sys.setswitchinterval(interval)


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


RAW_NAMES = {"_mpf_", "_mpc_", "libmp", "make_mpf", "make_mpc"}


def _touches_raw_representation(node):
    if isinstance(node, ast.Attribute):
        return node.attr in RAW_NAMES
    if isinstance(node, ast.Constant):
        return node.value in RAW_NAMES  # hasattr(x, "_mpf_") and the like
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("mpmath.libmp") or (
            node.module == "mpmath" and any(a.name == "libmp" for a in node.names))
    if isinstance(node, ast.Import):
        return any(a.name.startswith("mpmath.libmp") for a in node.names)
    return False


def test_raw_mpmath_representation_stays_in_the_kernel():
    # mpmath's raw tuples and libmp belong to the integer kernels of
    # fixed.py; everywhere else values are mpf/mpc of a PrecisionCtx
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "fixed.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        offenders += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                      if _touches_raw_representation(node)]
    assert offenders == []


def test_direction_series_converts_caller_values(ctx):
    # a global-mp mpc as left operand used to give the sum its context
    coeffs = fb.chebgrid(8, ctx).direction_series([mp.mpc(1)] * 8, ctx).coeffs
    assert all(c.context is ctx.mp for c in coeffs)
