"""Operator variants, scaling constants, linearizations, closed forms."""

import random

import pytest
from mpmath import mp

import feigenbaum as fb
from feigenbaum.chebyshev import ChebSeries
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
