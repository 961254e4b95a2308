"""Operator variants, scaling constants, linearizations, closed forms."""

import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import feigenbaum as fb
from feigenbaum import chebyshev, operators
from feigenbaum.bases import even_half
from feigenbaum.chebyshev import ChebSeries, _eval
from feigenbaum.fixed import KERNEL_GUARD_BITS, ROW_GUARD_BITS, mpf_to_fraction
from feigenbaum.spectrum import expected_explicit_eigenvalue

FULL = fb.Linearization.FULL_DERIVATIVE
FROZEN = fb.Linearization.FROZEN_ALPHA


def _series(ctx, *vals):
    return ChebSeries(tuple(ctx.mpf(v) for v in vals))


def test_scaling_constant_one_for_unit_function(ctx):
    one = _series(ctx, 2)
    s = fb.scaling_of(fb.Variant.T, one, ctx)
    assert s.value == 1
    assert s.definition == "1/g(1)"


def test_scaling_alpha_at_fixed_point(alpha64):
    assert abs(alpha64 - mp.mpf("-2.502907875")) < mp.mpf("1e-8")


def test_scaling_t3_is_negative_alpha(g32, alpha64, ctx):
    s = fb.scaling_of(fb.Variant.T3, g32, ctx)
    assert s.definition == "-g(0)/g(g(0))"
    assert abs(s.value + alpha64) < ctx.ten_pow(-20)


def test_scaling_divide_by_zero(ctx):
    one_minus_x = _series(ctx, 2, -1)  # g(1) = 0 and g(g(0)) = g(1) = 0
    with pytest.raises(fb.DivideByZero):
        fb.scaling_of(fb.Variant.T, one_minus_x, ctx)
    with pytest.raises(fb.DivideByZero):
        fb.scaling_of(fb.Variant.T3, one_minus_x, ctx)


def test_apply_constant_function_fixed(ctx):
    one = _series(ctx, 2)
    out = fb.apply_at_points(fb.Variant.T, one, fb.cheb_nodes(6, ctx), ctx)
    assert all(abs(v - 1) < ctx.ten_pow(-60) for v in out)


def test_apply_fixed_point_residual(g32, ctx):
    pts = fb.cheb_nodes(32, ctx)
    out = fb.apply_at_points(fb.Variant.T, g32, pts, ctx)
    with ctx.activate():
        err = max(abs(fb.eval_series(g32, x, ctx) - v) for x, v in zip(pts, out))
    assert err < ctx.ten_pow(-20)


def test_apply_t_equals_t2_on_even_solution(g32, ctx):
    pts = fb.cheb_nodes(32, ctx)
    a = fb.apply_at_points(fb.Variant.T, g32, pts, ctx)
    b = fb.apply_at_points(fb.Variant.T2, g32, pts, ctx)
    with ctx.activate():
        scale = max(abs(v) for v in a)
        err = max(abs(x - y) for x, y in zip(a, b))
    assert err <= ctx.ten_pow(-64 + 8) * scale


@pytest.mark.parametrize("variant", list(fb.Variant))
def test_directional_derivative_consistency(variant, g32, ctx):
    """(T(g+eh) - T(g))/e matches the full linearization to O(e).

    The Taylor remainder constant stays bounded for unit-sup-norm h and
    the error scales linearly when e shrinks 100x; a dropped term in the
    derivative would leave an O(1) mismatch instead.
    """
    rng = random.Random(17)
    pts = fb.cheb_nodes(32, ctx)
    spec = fb.OperatorSpec(variant, FULL)
    with ctx.activate():
        base = fb.apply_at_points(variant, g32, pts, ctx)
        for _ in range(3):
            h = ChebSeries(tuple(ctx.mpf(rng.uniform(-1, 1)) for _ in range(32)))
            sup = max(abs(fb.eval_series(h, x, ctx)) for x in pts)
            h = ChebSeries(tuple(c / sup for c in h.coeffs))
            lin = fb.linearized_apply_at(spec, g32, h, pts, ctx)
            errs = {}
            for eps in (ctx.ten_pow(-21), ctx.ten_pow(-23)):
                pert = ChebSeries(tuple(c + eps * e for c, e in zip(g32.coeffs, h.coeffs)))
                bumped = fb.apply_at_points(variant, pert, pts, ctx)
                err = max(abs((bumped[i] - base[i]) / eps - lin[i]) for i in range(32))
                errs[eps] = err
                assert err <= 1000 * eps
            ratio = errs[ctx.ten_pow(-21)] / errs[ctx.ten_pow(-23)]
            assert 50 < ratio < 200


def test_frozen_vs_full_difference_is_scaling_term(g32, alpha64, ctx):
    """full - frozen equals the rank-one correction evaluated directly."""
    rng = random.Random(23)
    pts = fb.cheb_nodes(32, ctx)
    h = ChebSeries(tuple(ctx.mpf(rng.uniform(-1, 1)) for _ in range(32)))
    full = fb.linearized_apply_at(fb.OperatorSpec(fb.Variant.T, FULL), g32, h, pts, ctx)
    froz = fb.linearized_apply_at(fb.OperatorSpec(fb.Variant.T, FROZEN), g32, h, pts, ctx)
    with ctx.activate():
        gp = fb.series_derivative(g32, ctx)
        a = alpha64
        h1 = fb.eval_series(h, 1, ctx)
        scale = max(abs(v) for v in full)
        for i, x in enumerate(pts):
            y = x / a
            gy = fb.eval_series(g32, y, ctx)
            corr = a * (
                fb.eval_series(gp, gy, ctx) * fb.eval_series(gp, y, ctx) * x
                - a * fb.eval_series(g32, gy, ctx)
            ) * h1
            assert abs((full[i] - froz[i]) - corr) <= ctx.ten_pow(-64 + 8) * scale


def test_linearized_apply_returns_grid(g32, ctx):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    h = fb.explicit_eigenfunction(spec, g32, -1, ctx)
    out = fb.linearized_apply_at(spec, g32, h, fb.cheb_nodes(32, ctx), ctx)
    assert len(out) == 32


def test_explicit_eigenfunction_rejects_k1(g32, ctx):
    for spec in (fb.OperatorSpec(fb.Variant.T, FULL), fb.OperatorSpec(fb.Variant.T, FROZEN)):
        with pytest.raises(fb.InvalidIndex):
            fb.explicit_eigenfunction(spec, g32, 1, ctx)
        with pytest.raises(fb.InvalidIndex):
            fb.explicit_eigenfunction(spec, g32, -2, ctx)


def test_frozen_power_k0_is_one_minus_derivative(g32, ctx):
    h = fb.explicit_eigenfunction(fb.OperatorSpec(fb.Variant.T, FROZEN), g32, 0, ctx)
    gp = fb.series_derivative(g32, ctx)
    with ctx.activate():
        for x in fb.cheb_nodes(8, ctx):
            want = 1 - fb.eval_series(gp, x, ctx)
            assert abs(fb.eval_series(h, x, ctx) - want) < ctx.ten_pow(-50)


def test_dilation_mode_nonzero_at_origin(g32, ctx):
    h = fb.explicit_eigenfunction(fb.OperatorSpec(fb.Variant.T, FULL), g32, -1, ctx)
    h0 = fb.eval_series(h, 0, ctx)
    g0 = fb.eval_series(g32, 0, ctx)
    assert abs(h0 - g0) < ctx.ten_pow(-50)
    assert abs(h0) > mp.mpf("0.9")


def test_full_power_k0_vanishes_at_origin(g32, ctx):
    # h(0) = g(0) - 1: zero for the normalized solution, matching the
    # dichotomy that only the dilation mode may keep h(0) != 0
    h = fb.explicit_eigenfunction(fb.OperatorSpec(fb.Variant.T, FULL), g32, 0, ctx)
    assert abs(fb.eval_series(h, 0, ctx)) < ctx.ten_pow(-20)


@pytest.mark.parametrize("k", [0, 2, 3, 4, 5])
def test_full_power_eigen_residual(k, g32, alpha64, ctx):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    lam = expected_explicit_eigenvalue(spec, k, alpha64, ctx)
    res = fb.verify_explicit(g32, spec, k, lam, ctx)
    assert res <= mp.mpf("1e-15")


def test_explicit_eigenvalue_dilation_values(g32, alpha64, ctx):
    full_t = fb.OperatorSpec(fb.Variant.T, FULL)
    full_t4 = fb.OperatorSpec(fb.Variant.T4, FULL)
    froz_t = fb.OperatorSpec(fb.Variant.T, FROZEN)
    with ctx.activate():
        want = alpha64 ** 2
        assert expected_explicit_eigenvalue(full_t, -1, alpha64, ctx) == want
    assert expected_explicit_eigenvalue(full_t4, -1, alpha64, ctx) == 1
    assert expected_explicit_eigenvalue(froz_t, -1, alpha64, ctx) == 1


def _matrix_bases(ctx):
    specs = (
        fb.BasisSpec(fb.BasisKind.LANFORD, 8),
        fb.BasisSpec(fb.BasisKind.EVEN_MONOMIAL, 8),
        fb.BasisSpec(fb.BasisKind.MONOMIAL_FULL, 11),
        fb.BasisSpec(fb.BasisKind.RATIONAL_NODE_MONOMIAL, 11),
        fb.BasisSpec(fb.BasisKind.RATIONAL_NODE_MONOMIAL, 11, ((0, 1), (1, 0))),
    )
    # odd n puts a node within round-off of 0, the T3/T4 dc point
    return [fb.chebgrid(12, ctx), fb.chebgrid(13, ctx)] + [fb.build_basis(s, ctx) for s in specs]


@pytest.mark.parametrize("lin", [FULL, FROZEN])
@pytest.mark.parametrize("variant", list(fb.Variant))
def test_linearization_matrix_matches_columns(variant, lin, ctx32):
    """The one-pass matrix equals the linearization applied to each
    cardinal in turn, in every basis; g has odd terms, so no parity
    symmetry hides a misplaced sign."""
    ctx = ctx32
    g = fb.monomial_to_series(
        [ctx.mpf(1), ctx.mpf("0.05"), ctx.mpf("-1.5"), ctx.mpf("0.02")], ctx)
    spec = fb.OperatorSpec(variant, lin)
    for basis in _matrix_bases(ctx):
        L = fb.linearization_matrix(spec, g, basis, ctx)
        cols = [fb.linearized_apply_at(spec, g, card, basis.nodes, ctx)
                for card in basis.cardinals]
        d = basis.dim
        assert len(L) == d and all(len(row) == d for row in L)
        norm = max(sum(abs(cols[j][i]) for j in range(d)) for i in range(d))
        err = max(abs(L[i][j] - cols[j][i]) for i in range(d) for j in range(d))
        assert err <= ctx.ten_pow(-ctx.decimal_digits + 8) * norm, basis.spec


# ----------------------------------------------------------------------
# The integer rows and the one rounding of L, against an mpf oracle at 2p
# bits on the same p-bit inputs (nodes, weights, cardinal coefficients,
# and the per-point scalars of the formula)

KINDS = ("cheb", "even-half", "lanford", "rational", "monomial",
         # coefficient bases whose unknown powers have a gap (a1 or a2 pinned,
         # so that the kernel takes an auxiliary node) or lose their top one
         "rational-a1", "rational-a2", "rational-top", "monomial-a1", "monomial-a2",
         "monomial-top")


def _draw_basis(kind, n, ctx):
    """The basis of a kind at size n; "cheb" at n = 2, below the smallest
    grid basis, is the kernel of the 2-node grid itself."""
    if kind == "cheb" and n == 2:
        kernel = chebyshev._tables(2, ctx.prec_bits)[2]
        return SimpleNamespace(dim=2, nodes=fb.cheb_nodes(2, ctx), cardinal_ints=lambda points, ctx:
                               (kernel.U, kernel.rows(points, ctx.mp)))
    if kind in ("cheb", "even-half"):
        grid = fb.chebgrid(max(n, 3), ctx)
        return grid if kind == "cheb" else even_half(grid, ctx)
    m = max(4, n // 3)
    if kind == "lanford":
        return fb.build_basis(fb.BasisSpec(fb.BasisKind.LANFORD, m), ctx)
    name, _, pin = kind.partition("-")
    pins = {"": ((0, 1), (1, 0)) if name == "rational" else (), "a1": ((1, 0),),
            "a2": ((2, 0),), "top": ((m, 0),)}[pin]
    return fb.build_basis(fb.BasisSpec(fb.BasisKind(name), m, pins), ctx)


def _grid_oracle(basis, points, ctx, hi, fold):
    """(rows, bounds) of the grid's cardinals at 2p bits, from the p-bit
    roots and the p-bit weights (-1)^j sin(theta_j) the kernel holds, and
    the kernel's error bound for each entry:
    2^(1-U) (2 + |l_j| + (1 + n |l_j|) / |S|), S = sum_k w_k / (z - x_k)."""
    grid = basis.full if fold else basis
    n, nodes = grid.dim, grid.nodes
    private = mpmath.MPContext()
    private.prec = ctx.prec_bits
    w = [(-1) ** j * private.sin((2 * j - 1) * private.pi / (2 * n)) for j in range(1, n + 1)]
    unit = hi.mpf(2) ** (1 - ctx.prec_bits - ROW_GUARD_BITS)
    rows, bounds = [], []
    for z in points:
        if z in nodes:
            rows.append([hi.mpf(z == x) for x in nodes])
            bounds.append([hi.mpf(0)] * n)
            continue
        t = [hi.mpf(wj) / (hi.mpf(z) - hi.mpf(x)) for wj, x in zip(w, nodes)]
        s = hi.fsum(t)
        row = [v / s for v in t]
        rows.append(row)
        bounds.append([unit * (2 + abs(v) + (1 + n * abs(v)) / abs(s)) for v in row])
    if not fold:
        return rows, bounds
    pairs = [(j, n - 1 - j) if 2 * j + 1 < n else (j,) for j in range(basis.dim)]
    return ([[sum(r[k] for k in ks) for ks in pairs] for r in rows],
            [[sum(b[k] for k in ks) for ks in pairs] for b in bounds])


def _clenshaw_oracle(basis, points, ctx, hi):
    """(rows, bounds) of the cardinal series by Clenshaw at 2p bits, and
    the kernel's documented bound (3m + 2) 2^-G m 2^-p sum|a_k| rho^m."""
    rows, bounds = [], []
    for z in points:
        x = hi.mpf(z)
        rho = abs(x) + hi.sqrt(x * x - 1) if abs(x) > 1 else 1
        row, bound = [], []
        for card in basis.cardinals:
            a = [hi.mpf(c) for c in card.coeffs]
            m = len(a)
            b1 = b2 = hi.mpf(0)
            for c in reversed(a[1:]):
                b1, b2 = c + 2 * x * b1 - b2, b1
            row.append(a[0] / 2 + x * b1 - b2)
            bound.append((3 * m + 2) * m * hi.mpf(2) ** -(ctx.prec_bits + KERNEL_GUARD_BITS)
                         * hi.fsum(abs(c) for c in a) * rho ** m)
        rows.append(row)
        bounds.append(bound)
    return rows, bounds


def _exact_oracle(basis, points, ctx, hi):
    """(rows, bounds) of a coefficient basis: its cardinals
    card_j(z) = sum_k E_kj z^(p_k), E its interpolation entries, each summed
    exactly from E and z at their exact values and then taken at 2p bits,
    and the kernel's error bound of :mod:`feigenbaum.fixed` for each entry,
    2^-U (1 + 2^(1-K) (|q_j| + |v|^s (sum_i |l_i| ((1 + Delta) |y_ij| + 1)
    + (1 + Delta) Lambda |q_j|))), taken at 2p bits on the kernel's nodes v_i
    (the basis's nodes in v, then its auxiliary nodes): l_i are their
    Lagrange cardinals at v, Lambda = sum_i |l_i(v)|, Delta = max_i |v - v_i|,
    y_ij = card_j / v^s at v_i and q_j = card_j(z) / v^s.  The kernel
    interpolates y_ij = delta_ij / v_i^s at the basis's nodes; where E is
    not the exact inverse of the Vandermonde V (the monomial kind's float
    inverse) the bound adds what that leaves, |v|^s sum_i |l_i| |R_ij| / |v_i|^s
    with R = V E - I, which is zero for the exact kinds."""
    kernel = basis.kernel
    s, K, U, d, step = kernel.s, kernel.K, kernel.U, basis.dim, 1 + kernel.square
    E = [[mpf_to_fraction(a) for a in row] for row in basis.matrix.entries]
    qs = [p // step for p in basis.spec.powers]
    vs = [Fraction(x, kernel.L << kernel.E) for x in kernel.X]

    def cards(v):  # card_j at a point whose v is given, exact
        vq = [v ** q for q in qs]
        return [sum(E[k][j] * vq[k] for k in range(d)) for j in range(d)]

    def at_hi(f):
        return hi.mpf(f.numerator) / f.denominator

    at = [cards(u) for u in vs]
    y = [[at_hi(c) / at_hi(u) ** s for c in row] for u, row in zip(vs, at)]
    y[:d] = [[hi.mpf(i == j) / at_hi(u) ** s for j in range(d)] for i, u in enumerate(vs[:d])]
    left = [[abs(at_hi(c - (i == j))) / abs(at_hi(u)) ** s for j, c in enumerate(row)]
            for i, (u, row) in enumerate(zip(vs, at[:d]))]
    rows, bounds, unit = [], [], hi.mpf(2) ** -U
    for z in points:
        v = mpf_to_fraction(z) ** step
        rows.append([at_hi(c) for c in cards(v)])
        if v in vs:  # the kernel's value at a node is exact but for its floor
            i = vs.index(v)
            bounds.append([unit + (abs(at_hi(v)) ** s * r if i < d else 0)
                           for r in (left[i] if i < d else [0] * d)])
            continue
        t = [1 / (at_hi(v - u) * hi.fprod(at_hi(u - w) for w in vs if w != u)) for u in vs]
        total = hi.fsum(t)
        ls = [a / total for a in t]
        lam = hi.fsum(abs(a) for a in ls)
        delta = max(abs(at_hi(v - u)) for u in vs)
        vp = abs(at_hi(v)) ** s
        bound = []
        for j in range(d):
            q = hi.fsum(a * row[j] for a, row in zip(ls, y))
            kern = abs(q) + vp * (hi.fsum(abs(a) * ((1 + delta) * abs(row[j]) + 1)
                                          for a, row in zip(ls, y)) + (1 + delta) * lam * abs(q))
            lost = vp * hi.fsum(abs(a) * row[j] for a, row in zip(ls, left))
            bound.append(unit * (1 + kern * hi.mpf(2) ** (1 - K)) + lost)
        bounds.append(bound)
    return rows, bounds


def _row_oracle(kind, basis, points, ctx, hi):
    if kind in ("cheb", "even-half"):
        return _grid_oracle(basis, points, ctx, hi, fold=kind == "even-half")
    if kind == "series":
        return _clenshaw_oracle(basis, points, ctx, hi)
    return _exact_oracle(basis, points, ctx, hi)


def _special_points(basis, ctx, rng):
    """A node, points within 2^-p of nodes, random points of [-1, 1], and
    points with 1 < |z| <= 1.3."""
    x = basis.nodes[rng.randrange(basis.dim)]
    tiny = ctx.mpf(2) ** -ctx.prec_bits
    near = [x + tiny * rng.uniform(-1, 1), basis.nodes[-1] * (1 - tiny), x + abs(x) * tiny]
    inside = [ctx.mpf(rng.uniform(-1, 1)) for _ in range(3)]
    outside = [ctx.mpf(rng.choice((-1, 1)) * rng.uniform(1.0001, 1.3)) for _ in range(2)]
    return [x, ctx.mpf(0)] + near + inside + outside


@settings(max_examples=30, deadline=None)
@given(st.integers(16, 96), st.integers(2, 40), st.sampled_from(KINDS), st.integers(0, 10 ** 9))
def test_cardinal_ints_match_the_oracle(D, n, kind, seed):
    ctx = fb.PrecisionCtx(D)
    hi = mpmath.MPContext()
    hi.prec = 2 * ctx.prec_bits
    basis = _draw_basis(kind, n, ctx)
    points = _special_points(basis, ctx, random.Random(seed))
    U, ints = basis.cardinal_ints(points, ctx)
    assert U >= ctx.prec_bits + ROW_GUARD_BITS
    rows, bounds = _row_oracle(kind, basis, points, ctx, hi)
    scale = hi.mpf(2) ** -U
    # on [-1, 1] an exact coefficient basis's rows are within two units of
    # its exact cardinals; elsewhere, and for the monomial kind's float
    # inverse, within the oracle's bound
    few = kind not in ("cheb", "even-half") and not kind.startswith("monomial")
    for z, got, want, bound in zip(points, ints, rows, bounds):
        for a, b, e in zip(got, want, bound):
            slack = abs(b) * 2 ** -(2 * ctx.prec_bits - 8)
            assert abs(a * scale - b) <= e + slack, (kind, z)
            assert not few or abs(z) > 1 or abs(a * scale - b) <= 2 * scale + slack, (kind, z)
    # the mpf rows round each integer once
    if n == 2 and kind == "cheb":
        return
    assert basis.cardinal_rows(points, ctx) == [[ctx.mpf(v * scale) for v in row] for row in ints]


def _oracle_matrix(spec, g, kind, basis, points, ctx, hi):
    """(L, tolerances): the formula of ``operators._linearized_rows`` at 2p
    bits on the same p-bit scalars, with the oracle rows, and for each
    entry half a unit in its p-th bit plus the rows' error bounds carried
    through the formula."""
    s_out, s_in = operators._SIGNS[spec.variant]
    gp = fb.series_derivative(g, ctx)
    c, z, beta = operators._scaling_variation(spec.variant, g, gp, ctx)
    sc = s_out * c
    ys = [s_in * x / c for x in points]
    gys = [_eval(g, y) for y in ys]
    (ry, by), (rgy, bgy), (rz, bz) = (_row_oracle(kind, basis, pts, ctx, hi) for pts in (ys, gys, z))
    full = spec.linearization is FULL
    L, tols = [], []
    half_ulp = hi.mpf(2) ** -ctx.prec_bits
    for y, gy, hy, ey, hgy, egy in zip(ys, gys, ry, by, rgy, bgy):
        gpgy = _eval(gp, gy)
        a, b = hi.mpf(sc) * hi.mpf(gpgy), hi.mpf(sc)
        row = [a * u + b * v for u, v in zip(hy, hgy)]
        tol = [abs(a) * u + abs(b) * v for u, v in zip(ey, egy)]
        if full:
            dF = hi.mpf(s_out * (_eval(g, gy) - gpgy * _eval(gp, y) * y))
            for bk, hz, ez in zip(beta, rz, bz):
                row = [r + hi.mpf(bk) * dF * u for r, u in zip(row, hz)]
                tol = [t + abs(hi.mpf(bk) * dF) * u for t, u in zip(tol, ez)]
        L.append(row)
        tols.append([t + half_ulp * abs(r) + (abs(a) + abs(b)) * 2 ** -(2 * ctx.prec_bits - 8)
                     for t, r in zip(tol, row)])
    return L, tols


@settings(max_examples=30, deadline=None)
@given(st.integers(16, 96), st.integers(3, 40), st.sampled_from(KINDS),
       st.sampled_from(list(fb.Variant)), st.sampled_from([FULL, FROZEN]),
       st.integers(0, 10 ** 9))
def test_linearization_matrix_matches_the_oracle(D, n, kind, variant, lin, seed):
    # at the nodes (the matrix) and at points near nodes and beyond [-1, 1];
    # g has odd terms, so T-T4 all differ
    ctx = fb.PrecisionCtx(D)
    hi = mpmath.MPContext()
    hi.prec = 2 * ctx.prec_bits
    rng = random.Random(seed)
    g = fb.monomial_to_series([ctx.mpf(1), ctx.mpf(rng.uniform(-0.05, 0.05)), ctx.mpf("-1.5"),
                               ctx.mpf(rng.uniform(-0.05, 0.05))], ctx)
    spec = fb.OperatorSpec(variant, lin)
    basis = _draw_basis(kind, n, ctx)
    points = list(basis.nodes) + _special_points(basis, ctx, rng)
    got = operators._linearized_rows(spec, g, points,
                                     lambda zs: basis.cardinal_ints(zs, ctx), ctx)
    assert got[:basis.dim] == fb.linearization_matrix(spec, g, basis, ctx)
    want, tols = _oracle_matrix(spec, g, kind, basis, points, ctx, hi)
    for grow, wrow, trow in zip(got, want, tols):
        for a, b, t in zip(grow, wrow, trow):
            assert a.context is ctx.mp
            assert abs(hi.mpf(a) - b) <= t


@settings(max_examples=20, deadline=None)
@given(st.integers(16, 96), st.integers(1, 30), st.sampled_from(list(fb.Variant)),
       st.sampled_from([FULL, FROZEN]), st.booleans(), st.integers(0, 10 ** 9))
def test_linearized_apply_at_matches_the_oracle(D, m, variant, lin, complex_h, seed):
    # one direction h through the same kernel: its exact Clenshaw values as
    # the row, a complex h as its real and imaginary parts
    ctx = fb.PrecisionCtx(D)
    hi = mpmath.MPContext()
    hi.prec = 2 * ctx.prec_bits
    rng = random.Random(seed)
    g = fb.monomial_to_series([ctx.mpf(1), ctx.mpf(rng.uniform(-0.05, 0.05)), ctx.mpf("-1.5")],
                              ctx)
    parts = [ChebSeries(tuple(ctx.mpf(rng.uniform(-1, 1)) * ctx.ten_pow(rng.randint(-30, 3))
                              for _ in range(m))) for _ in range(1 + complex_h)]
    h = parts[0] if not complex_h else ChebSeries(tuple(
        ctx.mp.mpc(a, b) for a, b in zip(parts[0].coeffs, parts[1].coeffs)))
    spec = fb.OperatorSpec(variant, lin)
    points = _special_points(fb.chebgrid(max(m, 3), ctx), ctx, rng)
    got = fb.linearized_apply_at(spec, g, h, points, ctx)
    want, tols = _oracle_matrix(spec, g, "series", SimpleNamespace(cardinals=parts), points,
                                ctx, hi)
    for a, b, t in zip(got, want, tols):
        pieces = (a.real, a.imag) if complex_h else (a,)
        assert isinstance(a, ctx.mp.mpc if complex_h else ctx.mp.mpf)
        for piece, w, tol in zip(pieces, b, t):
            assert abs(hi.mpf(piece) - w) <= tol
