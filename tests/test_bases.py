"""Basis construction, exact interpolation matrices, constraint handling."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import feigenbaum as fb
from feigenbaum.bases import _coefficient_basis, even_half, spec_from_description
from feigenbaum.fixed import ROW_GUARD_BITS, mpf_to_fraction


def _coeffs(basis, values, ctx):
    """Coefficients of the basis's unknown powers for the polynomial
    through the node values, read from its Taylor coefficients."""
    taylor = fb.series_to_monomial(basis.to_series(values, ctx), ctx)
    return [taylor[p] for p in basis.spec.powers]


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


def _half_unit(x, p):
    """Half a unit in the p-th bit of the nonzero rational x."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if abs(x) >= Fraction(2) ** e:
        e += 1  # 2^(e-1) <= |x| < 2^e
    return Fraction(2) ** (e - 1 - p)


def _assert_rounded_once(series, weights, cards, base, ctx):
    """Every coefficient of ``series``, in each part, is within half a unit
    in its p-th bit of the exact sum over the cardinals' integer
    coefficients floor(a 2^U), U = p + ROW_GUARD_BITS: sum_j w_j I_jk plus
    the base series' I_k, all times 2^-U."""
    U, p = ctx.prec_bits + ROW_GUARD_BITS, ctx.prec_bits

    def ints(s):
        return [(mpf_to_fraction(a).numerator << U) // mpf_to_fraction(a).denominator
                for a in s.coeffs]

    rows = [ints(c) for c in cards]
    fixed = ints(base) if base is not None else [0] * len(rows[0])
    complex_ = any(isinstance(w, ctx.mp.mpc) for w in weights)
    assert all(isinstance(c, ctx.mp.mpc if complex_ else ctx.mp.mpf) for c in series.coeffs)
    for part in ("real", "imag") if complex_ else ("real",):
        ws = [mpf_to_fraction(getattr(w, part)) for w in weights]
        for k, c in enumerate(series.coeffs):
            exact = Fraction(sum(w * row[k] for w, row in zip(ws, rows))
                             + (fixed[k] if part == "real" else 0), 2 ** U)
            got = mpf_to_fraction(getattr(c, part))
            assert got == exact if exact == 0 else abs(got - exact) <= _half_unit(exact, p)


def _basis_under_test(which, size, ctx):
    if which in ("cheb", "even half"):
        grid = fb.chebgrid(size, ctx)
        return grid if which == "cheb" else even_half(grid, ctx)
    if which == "lanford":
        return fb.build_basis(fb.BasisSpec(fb.BasisKind.LANFORD, size), ctx)
    if which == "rational pinned":
        return fb.build_basis(fb.BasisSpec(fb.BasisKind.RATIONAL_NODE_MONOMIAL, size + 2,
                                           ((0, 1), (1, 0))), ctx)
    return fb.build_basis(fb.BasisSpec(fb.BasisKind.MONOMIAL_FULL, size), ctx)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["cheb", "even half", "lanford", "rational pinned", "monomial"]),
       st.integers(3, 12), st.sampled_from([16, 24, 64]), st.booleans(),
       st.integers(0, 10 ** 9))
def test_series_coefficients_are_rounded_once(which, size, digits, complex_, seed):
    # to_series and direction_series sum the integer cardinal coefficients
    # exactly and round each coefficient once, a complex vector part by part
    ctx = fb.PrecisionCtx(digits)
    basis = _basis_under_test(which, size, ctx)
    rng, bits = random.Random(seed), ctx.prec_bits

    def value():
        return ctx.mp.ldexp(rng.randrange(-2 ** bits, 2 ** bits), rng.randint(-20, 20) - bits)

    values = [value() for _ in range(basis.dim)]
    weights = [v - f for v, f in zip(values, basis.fixed_at_nodes)]
    _assert_rounded_once(basis.to_series(values, ctx), weights, basis.cardinals,
                         basis.fixed_series, ctx)
    vector = [ctx.mp.mpc(value(), value()) if complex_ else value() for _ in range(basis.dim)]
    _assert_rounded_once(basis.direction_series(vector, ctx), vector, basis.cardinals, None, ctx)


def test_lanford_rejects_extra_constraints():
    with pytest.raises(fb.ConfigError):
        fb.BasisSpec(fb.BasisKind.LANFORD, 15, ((0, 1),))


def test_even_basis_small_recovers_quartic(ctx):
    # m = 2: nodes {0, 1/2, 1}, powers {1, x^2, x^4}
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.EVEN_MONOMIAL, 2), ctx)
    assert [str(x) for x in basis.exact_nodes] == ["0", "1/2", "1"]
    with ctx.activate():
        vals = [x ** 4 for x in basis.nodes]
        coeffs = _coeffs(basis, vals, ctx)
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


@pytest.mark.parametrize("kind", [fb.BasisKind.MONOMIAL_FULL, fb.BasisKind.RATIONAL_NODE_MONOMIAL])
def test_power_pinned_twice_rejected(kind):
    with pytest.raises(fb.ConfigError, match="a0"):
        fb.BasisSpec(kind, 11, ((0, 1), (0, 2)))


def test_pinned_top_power_lies_above_the_unknowns(ctx):
    # the series reaches x^12 although the unknown powers stop at x^11
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.MONOMIAL_FULL, 12, ((12, 1),)), ctx)
    g = basis.to_series([x ** 12 for x in basis.nodes], ctx)
    x = ctx.mpf("0.3")
    assert abs(fb.eval_series(g, x, ctx) - x ** 12) < ctx.ten_pow(-50)


def test_dimension_floor_enforced():
    with pytest.raises(fb.ConfigError):
        fb.BasisSpec(fb.BasisKind.LANFORD, 2)


def test_float_monomial_matrix_does_not_verify_rationally(ctx):
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.MONOMIAL_FULL, 8), ctx)
    assert not basis.matrix.exact
    with pytest.raises(ValueError, match="only exact matrices verify rationally"):
        basis.matrix.residual_vs_vandermonde()


def test_only_the_full_grid_mirrors_its_nodes(ctx):
    grid = fb.chebgrid(12, ctx)
    assert grid.mirror_nodes and not even_half(grid, ctx).mirror_nodes


def test_rational_nodes_respect_denominator_cap(ctx):
    basis = fb.build_basis(
        fb.BasisSpec(fb.BasisKind.RATIONAL_NODE_MONOMIAL, 19), ctx)
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


def test_coeffs_of_constant_lanford(ctx):
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.LANFORD, 8), ctx)
    coeffs = _coeffs(basis, [ctx.mpf(1)] * 8, ctx)
    assert all(abs(c) < ctx.ten_pow(-60) for c in coeffs)


def test_coeffs_of_constant_even(ctx):
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.EVEN_MONOMIAL, 7), ctx)
    coeffs = _coeffs(basis, [ctx.mpf(1)] * 8, ctx)
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
        got = _coeffs(basis, vals, ctx)
        for a, b in zip(want, got):
            assert abs(a - b) <= ctx.ten_pow(-56)


def test_to_series_matches_coeffs(ctx):
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.LANFORD, 6), ctx)
    rng = random.Random(2)
    with ctx.activate():
        vals = [ctx.mpf(rng.uniform(0, 1)) for _ in range(6)]
        series = basis.to_series(vals, ctx)
        coeffs = _coeffs(basis, vals, ctx)
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


@pytest.mark.parametrize("n", [12, 13])
def test_chebgrid_cardinal_rows_at_nodes_are_the_identity(n, ctx):
    basis = fb.chebgrid(n, ctx)
    E = basis.cardinal_rows(basis.nodes, ctx)
    assert E == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [12, 13])
def test_chebgrid_cardinal_rows_sum_to_one(n, ctx):
    basis = fb.chebgrid(n, ctx)
    rng = random.Random(n)
    pts = [ctx.mpf(rng.uniform(-1, 1)) for _ in range(20)] + [ctx.mpf(0), ctx.mpf(1)]
    for row in basis.cardinal_rows(pts, ctx):
        assert abs(ctx.mp.fsum(row) - 1) <= ctx.ten_pow(-ctx.decimal_digits + 5)


def test_chebgrid_cardinal_rows_match_cardinal_series(ctx):
    basis = fb.chebgrid(12, ctx)
    rng = random.Random(3)
    pts = [ctx.mpf(rng.uniform(-1.5, 1.5)) for _ in range(10)]
    for z, row in zip(pts, basis.cardinal_rows(pts, ctx)):
        for card, v in zip(basis.cardinals, row):
            assert abs(v - fb.eval_series(card, z, ctx)) <= ctx.ten_pow(-ctx.decimal_digits + 8)


@pytest.mark.parametrize("kind, order, constraints", [
    ("cheb", 16, ()),
    ("lanford", 8, ()),
    ("even", 7, ()),
    ("monomial", 11, ()),
    ("monomial", 12, ((0, 1), (1, 0))),
    ("rational", 15, ((0, 1), (1, 0))),
    ("rational", 11, ((1, 0),)),
    ("even", 2, ()),
    ("lanford", 3, ()),
    ("rational", 12, ((0, 1),)),
])
def test_basis_descriptor_round_trips(kind, order, constraints):
    ctx = fb.PrecisionCtx(24)
    spec = fb.BasisSpec(fb.BasisKind(kind), order, constraints)
    basis = fb.build_basis(spec, ctx)
    assert len(basis.nodes) == spec.dimension
    described = basis.describe(ctx)
    # as a report stores it: through JSON, constraints as [power, "value"]
    rebuilt = spec_from_description(json.loads(json.dumps(described)))
    assert rebuilt == spec
    assert fb.build_basis(rebuilt, ctx).describe(ctx) == described


COEFFICIENT_SPECS = [
    fb.BasisSpec(fb.BasisKind.LANFORD, 8),
    fb.BasisSpec(fb.BasisKind.EVEN_MONOMIAL, 7),
    fb.BasisSpec(fb.BasisKind.MONOMIAL_FULL, 12, ((0, 1), (1, 0))),
    fb.BasisSpec(fb.BasisKind.RATIONAL_NODE_MONOMIAL, 15, ((0, 1), (1, 0))),
]


def test_contexts_of_one_precision_share_a_coefficient_basis():
    spec = COEFFICIENT_SPECS[0]
    basis = fb.build_basis(spec, fb.PrecisionCtx(64))
    assert fb.build_basis(spec, fb.PrecisionCtx(64)) is basis
    assert fb.build_basis(spec, fb.PrecisionCtx(24)) is not basis


def _basis_bits(basis):
    """Every node, interpolation entry, cardinal and fixed-part coefficient,
    fixed-part node value and the condition estimate, as raw tuples (an
    exact entry as its Fraction), and the integers of the cardinals'
    kernel."""
    raw = lambda x: getattr(x, "_mpf_", x)  # noqa: E731
    series = basis.cardinals + ((basis.fixed_series,) if basis.fixed_series else ())
    return ([raw(x) for x in basis.nodes + basis.fixed_at_nodes],
            basis.matrix.nodes, [raw(a) for row in basis.matrix.entries for a in row],
            [c._mpf_ for s in series for c in s.coeffs], raw(basis.condition_estimate),
            vars(basis.kernel))


@pytest.mark.parametrize("digits", [24, 64])
@pytest.mark.parametrize("spec", COEFFICIENT_SPECS, ids=lambda s: s.kind.value)
def test_cached_coefficient_basis_is_an_uncached_build_bit_for_bit(spec, digits):
    cached = fb.build_basis(spec, fb.PrecisionCtx(digits))
    assert _basis_bits(cached) == _basis_bits(_coefficient_basis.__wrapped__(spec, digits))
