"""Basis construction, exact interpolation matrices, constraint handling."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

import feigenbaum as fb


def test_lanford_matrix_is_exact_inverse(ctx):
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.LANFORD, 15), ctx)
    assert basis.matrix.exact
    assert basis.dim == 15
    assert basis.exact_nodes == tuple(Fraction(i, 15) for i in range(1, 16))
    res = basis.matrix.residual_vs_vandermonde()
    assert all(v == 0 for row in res for v in row)


def test_direction_series_is_the_linear_part_of_to_series(ctx):
    # Lanford's fixed part 1 enters g once; directions carry none of it
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.LANFORD, 6), ctx)
    rng = random.Random(5)
    v = [ctx.mpf(rng.uniform(-1, 1)) for _ in range(basis.dim)]
    affine = basis.to_series(v, ctx)
    fixed = basis.to_series([ctx.mpf(0)] * basis.dim, ctx)
    linear = basis.direction_series(v, ctx)
    with ctx.activate():
        assert abs(fb.eval_series(fixed, 0, ctx) - 1) < ctx.ten_pow(-60)
        assert fb.eval_series(basis.direction_series([0] * basis.dim, ctx), 0, ctx) == 0
        for a, f, d in zip(affine.coeffs, fixed.coeffs, linear.coeffs):
            assert abs(a - f - d) < ctx.ten_pow(-60)
        for j, x in enumerate(basis.nodes):
            assert abs(fb.eval_series(linear, x, ctx) - v[j]) < ctx.ten_pow(-55)


def test_lanford_rejects_extra_constraints():
    with pytest.raises(fb.ConfigError):
        fb.BasisSpec(fb.BasisKind.LANFORD, 15, ((0, 1),))


def test_even_basis_small_recovers_quartic(ctx):
    # m = 2: nodes {0, 1/2, 1}, powers {1, x^2, x^4}
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.EVEN_MONOMIAL, 2), ctx)
    assert [str(x) for x in basis.exact_nodes] == ["0", "1/2", "1"]
    with ctx.activate():
        vals = [x ** 4 for x in basis.nodes]
        coeffs = fb.coeffs_from_values(basis, vals, ctx)
        assert abs(coeffs[0]) < ctx.ten_pow(-60)
        assert abs(coeffs[1]) < ctx.ten_pow(-60)
        assert abs(coeffs[2] - 1) < ctx.ten_pow(-60)


def test_monomial_constraints_reduce_dimension():
    spec = fb.BasisSpec(fb.BasisKind.MONOMIAL_FULL, 12, ((0, 1), (1, 0)))
    assert spec.dimension == 11
    assert fb.BasisSpec(fb.BasisKind.MONOMIAL_FULL, 12).dimension == 13


def test_monomial_constraint_power_validated():
    with pytest.raises(fb.ConfigError):
        fb.BasisSpec(fb.BasisKind.MONOMIAL_FULL, 12, ((13, 1),))


def test_dimension_floor_enforced():
    with pytest.raises(fb.ConfigError):
        fb.BasisSpec(fb.BasisKind.LANFORD, 2)


def test_rational_nodes_respect_denominator_cap(ctx):
    basis = fb.build_basis(
        fb.BasisSpec(fb.BasisKind.RATIONAL_NODE_MONOMIAL, 19, denominator_cap=1000), ctx)
    assert basis.matrix.exact
    assert len(set(basis.exact_nodes)) == basis.dim
    for x in basis.exact_nodes:
        assert x.denominator <= 1000
    # rational approximants sit close to the true Chebyshev nodes
    true = fb.cheb_nodes(20, ctx)
    with ctx.activate():
        for approx, exact in zip(basis.exact_nodes, true):
            assert abs(ctx.mpf(approx) - exact) < mp.mpf("1e-3")
    res = basis.matrix.residual_vs_vandermonde()
    assert all(v == 0 for row in res for v in row)


def test_constrained_basis_skips_origin_node(ctx):
    # even-count unknowns of odd-count grid: the x = 0 node would zero
    # out every basis monomial once the constant is pinned
    basis = fb.build_basis(
        fb.BasisSpec(fb.BasisKind.MONOMIAL_FULL, 12, ((0, 1), (1, 0))), ctx)
    assert all(x != 0 for x in basis.nodes)
    assert basis.dim == 11


def test_coeffs_from_values_constant_lanford(ctx):
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.LANFORD, 8), ctx)
    coeffs = fb.coeffs_from_values(basis, [ctx.mpf(1)] * 8, ctx)
    assert all(abs(c) < ctx.ten_pow(-60) for c in coeffs)


def test_coeffs_from_values_constant_even(ctx):
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.EVEN_MONOMIAL, 7), ctx)
    coeffs = fb.coeffs_from_values(basis, [ctx.mpf(1)] * 8, ctx)
    assert abs(coeffs[0] - 1) < ctx.ten_pow(-60)
    assert all(abs(c) < ctx.ten_pow(-60) for c in coeffs[1:])


def test_coeffs_round_trip_random_polynomial(ctx):
    rng = random.Random(9)
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.RATIONAL_NODE_MONOMIAL, 9), ctx)
    with ctx.activate():
        want = [ctx.mpf(rng.uniform(-2, 2)) for _ in range(10)]
        vals = []
        for x in basis.nodes:
            acc = mp.mpf(0)
            for c in reversed(want):
                acc = acc * x + c
            vals.append(acc)
        got = fb.coeffs_from_values(basis, vals, ctx)
        for a, b in zip(want, got):
            assert abs(a - b) <= ctx.ten_pow(-56)


def test_to_series_matches_coeffs(ctx):
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.LANFORD, 6), ctx)
    rng = random.Random(2)
    with ctx.activate():
        vals = [ctx.mpf(rng.uniform(0, 1)) for _ in range(6)]
        series = basis.to_series(vals, ctx)
        coeffs = fb.coeffs_from_values(basis, vals, ctx)
        # evaluate both forms at a non-node point
        x = ctx.mpf("0.3721")
        direct = 1 + sum(c * x ** (2 * (k + 1)) for k, c in enumerate(coeffs))
        assert abs(fb.eval_series(series, x, ctx) - direct) < ctx.ten_pow(-55)


def test_basis_descriptor_round_trips_to_json(ctx):
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.LANFORD, 8), ctx)
    d = basis.describe(ctx)
    assert d["kind"] == "lanford"
    assert d["dimension"] == 8
    assert d["exact"] is True
    assert d["nodes"][0] == "1/8"


def test_lanford_solution_leading_coefficient(lanford_report, quad32, ctx):
    # leading quadratic Taylor coefficient of the fixed point, from the
    # ChebGrid pipeline, as the sanity band for the Lanford coefficients
    taylor = fb.series_to_monomial(quad32.solution_series, ctx)
    assert abs(taylor[2] + mp.mpf("1.5276")) < mp.mpf("0.01")
    # the Lanford basis run reaches the same polynomial
    assert lanford_report.basis_descriptor["kind"] == "lanford"


def test_chebgrid_identity_pairing(ctx, g32):
    basis = fb.chebgrid(32, ctx)
    series = basis.to_series(list(g32.coeffs and fb.series_to_grid(g32, 32, ctx).values), ctx)
    with ctx.activate():
        err = max(abs(a - b) for a, b in zip(series.coeffs, g32.coeffs))
    assert err < ctx.ten_pow(-60)
