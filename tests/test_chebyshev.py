"""Nodes, transforms, Clenshaw, differentiation, decay diagnostics."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import feigenbaum as fb
from feigenbaum import chebyshev
from feigenbaum.bases import _coefficient_basis
from feigenbaum.chebyshev import ChebSeries, GridFn, _eval
from feigenbaum.fixed import mpf_to_fraction


def _series(ctx, *vals):
    return ChebSeries(tuple(ctx.mpf(v) for v in vals))


def test_nodes_n2(ctx):
    x = fb.cheb_nodes(2, ctx)
    with ctx.activate():
        assert abs(x[0] - mp.sqrt(2) / 2) < ctx.ten_pow(-60)
        assert abs(x[1] + mp.sqrt(2) / 2) < ctx.ten_pow(-60)


def test_nodes_are_roots_of_t4(ctx):
    t4 = _series(ctx, 0, 0, 0, 0, 1)
    for x in fb.cheb_nodes(4, ctx):
        assert abs(fb.eval_series(t4, x, ctx)) < ctx.ten_pow(-60)


def test_nodes_symmetric_n32(ctx):
    x = fb.cheb_nodes(32, ctx)
    assert len(x) == 32
    for i in range(32):
        assert abs(x[i] + x[31 - i]) < ctx.ten_pow(-70)


def test_nodes_decreasing_in_open_interval(ctx):
    x = fb.cheb_nodes(9, ctx)
    assert all(-1 < v < 1 for v in x)
    assert all(x[i] > x[i + 1] for i in range(8))


def test_transform_constant(ctx):
    f = GridFn((ctx.mpf(1),) * 6)
    s = fb.grid_to_series(f, ctx)
    assert abs(s.coeffs[0] - 2) < ctx.ten_pow(-60)
    assert all(abs(c) < ctx.ten_pow(-60) for c in s.coeffs[1:])


def test_transform_picks_out_t3(ctx):
    t3 = _series(ctx, 0, 0, 0, 1)
    f = fb.series_to_grid(t3, 8, ctx)
    s = fb.grid_to_series(f, ctx)
    for k, c in enumerate(s.coeffs):
        target = 1 if k == 3 else 0
        assert abs(c - target) < ctx.ten_pow(-60)


def test_series_to_grid_constant(ctx):
    g = fb.series_to_grid(_series(ctx, 2), 4, ctx)
    assert all(abs(v - 1) < ctx.ten_pow(-60) for v in g.values)


def test_series_to_grid_t5_closed_form(ctx):
    t5 = _series(ctx, 0, 0, 0, 0, 0, 1)
    g = fb.series_to_grid(t5, 8, ctx)
    with ctx.activate():
        for i, v in enumerate(g.values, start=1):
            theta = (2 * i - 1) * mp.pi / 16
            assert abs(v - mp.cos(5 * theta)) < ctx.ten_pow(-60)


def test_series_to_grid_requires_room(ctx):
    with pytest.raises(ValueError):
        fb.series_to_grid(_series(ctx, 1, 2, 3), 2, ctx)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_transform_round_trip(seed):
    ctx = fb.PrecisionCtx(64)
    rng = random.Random(seed)
    f = GridFn(tuple(ctx.mpf(rng.uniform(-3, 3)) for _ in range(16)))
    back = fb.series_to_grid(fb.grid_to_series(f, ctx), 16, ctx)
    with ctx.activate():
        scale = max(abs(v) for v in f.values)
        err = max(abs(a - b) for a, b in zip(f.values, back.values))
        assert err <= ctx.ten_pow(-64 + 6) * max(scale, mp.mpf(1))


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 40), st.sampled_from([16, 24, 40, 64]), st.integers(0, 10 ** 9))
def test_grid_to_series_is_the_grid_basis_to_series(n, digits, seed):
    # one map from node values to a series: the transform and the grid
    # basis sum the same integer cardinals, so they agree bit for bit
    ctx = fb.PrecisionCtx(digits)
    rng, bits = random.Random(seed), ctx.prec_bits
    vals = [ctx.mp.ldexp(rng.randrange(-2 ** bits, 2 ** bits), rng.randint(-20, 20) - bits)
            for _ in range(n)]
    got = fb.grid_to_series(GridFn(tuple(vals)), ctx).coeffs
    want = fb.chebgrid(n, ctx).to_series(vals, ctx).coeffs
    assert [c._mpf_ for c in got] == [c._mpf_ for c in want]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_even_functions_have_even_series(seed):
    ctx = fb.PrecisionCtx(64)
    rng = random.Random(seed)
    nodes = fb.cheb_nodes(12, ctx)
    with ctx.activate():
        coef = [ctx.mpf(rng.uniform(-2, 2)) for _ in range(4)]
        vals = tuple(coef[0] + coef[1] * x ** 2 + coef[2] * x ** 4 + coef[3] * x ** 6
                     for x in nodes)
        s = fb.grid_to_series(GridFn(vals), ctx)
        scale = max(abs(v) for v in vals)
        for k in range(1, 12, 2):
            assert abs(s.coeffs[k]) <= ctx.ten_pow(-64 + 6) * max(scale, mp.mpf(1))


@settings(max_examples=40, deadline=None)
@given(st.integers(16, 100), st.integers(1, 40), st.integers(0, 10 ** 9))
def test_eval_complex_coefficients_match_real_and_imaginary_parts(digits, m, seed):
    # one Clenshaw serves eigenvectors too: on complex coefficients it must
    # give bit for bit the pair of real evaluations
    ctx = fb.PrecisionCtx(digits)
    rng = random.Random(seed)
    with ctx.activate():
        re = [mp.mpf(rng.uniform(-2, 2)) / rng.randint(1, 999) for _ in range(m)]
        im = [mp.mpf(rng.uniform(-2, 2)) / rng.randint(1, 999) for _ in range(m)]
        x = mp.mpf(rng.uniform(-1.5, 1.5)) / 3
        z = _eval(ChebSeries(tuple(mp.mpc(a, b) for a, b in zip(re, im))), x)
        want = mp.mpc(_eval(ChebSeries(tuple(re)), x), _eval(ChebSeries(tuple(im)), x))
    assert isinstance(z, mp.mpc)
    assert z._mpc_ == want._mpc_


def _mpf_clenshaw(coeffs, x):
    """The Clenshaw recurrence in mpf arithmetic, at the precision of the
    coefficients' context: the oracle of the integer kernel."""
    b1 = b2 = coeffs[0] * 0
    for c in reversed(coeffs[1:]):
        b1, b2 = c + 2 * x * b1 - b2, b1
    return coeffs[0] / 2 + x * b1 - b2


@settings(max_examples=60, deadline=None)
@given(st.integers(16, 200), st.integers(1, 80), st.integers(-40, 40),
       st.integers(0, 3), st.integers(0, 10 ** 9),
       st.one_of(st.floats(-1.5, 1.5), st.sampled_from([0.0, 1.0, -1.0, "int 0"])))
def test_kernel_error_is_within_the_clenshaw_bound(digits, m, scale, decay, seed, x):
    # against the recurrence at 300 more bits on the same coefficients and
    # point, the error stays under m 2^-p sum|c_k| rho(x)^m, whatever the
    # magnitude of the series
    ctx = fb.PrecisionCtx(digits)
    rng = random.Random(seed)
    coeffs = [ctx.mpf(rng.uniform(-1, 1)) * ctx.ten_pow(scale - decay * k) for k in range(m)]
    point = 0 if x == "int 0" else ctx.mpf(x)
    got = _eval(ChebSeries(tuple(coeffs)), point)
    assert got.context is ctx.mp
    ref = mpmath.MPContext()
    ref.prec = ctx.prec_bits + 300
    exact = _mpf_clenshaw([ref.mpf(c) for c in coeffs], ref.mpf(point))
    ax = abs(ref.mpf(point))
    rho = ax + ref.sqrt(ax ** 2 - 1) if ax > 1 else 1
    bound = m * ref.mpf(2) ** -ctx.prec_bits * ref.fsum(abs(c) for c in coeffs) * rho ** m
    assert abs(ref.mpf(got) - exact) <= bound


def test_series_converts_its_coefficients_once(monkeypatch, ctx):
    made = []
    real = chebyshev._FixedSeries

    def counting(coeffs):
        made.append(len(coeffs))
        return real(coeffs)

    # a fresh basis, so that no earlier test has evaluated its cardinals
    basis = _coefficient_basis.__wrapped__(fb.BasisSpec(fb.BasisKind.LANFORD, 6),
                                           ctx.decimal_digits)
    monkeypatch.setattr(chebyshev, "_FixedSeries", counting)
    points = [ctx.mpf(j) / 7 for j in range(-7, 8)]
    first = [[_eval(c, z) for c in basis.cardinals] for z in points]
    assert made == [len(c) for c in basis.cardinals]
    assert [[_eval(c, z) for c in basis.cardinals] for z in points] == first
    assert len(made) == basis.dim


def test_eval_pure_t1(ctx):
    s = _series(ctx, 0, 1)
    assert abs(fb.eval_series(s, ctx.mpf("0.3"), ctx) - ctx.mpf("0.3")) < ctx.ten_pow(-60)


def test_eval_matches_grid_values(ctx):
    rng = random.Random(3)
    f = GridFn(tuple(ctx.mpf(rng.uniform(-1, 1)) for _ in range(10)))
    s = fb.grid_to_series(f, ctx)
    nodes = fb.cheb_nodes(10, ctx)
    for x, v in zip(nodes, f.values):
        assert abs(fb.eval_series(s, x, ctx) - v) < ctx.ten_pow(-64 + 6)


def test_eval_against_monomial_oracle(ctx):
    # exact small-degree polynomial: 2 - x + 3x^2 + x^5
    mono = [2, -1, 3, 0, 0, 1]
    s = fb.monomial_to_series([ctx.mpf(c) for c in mono], ctx)
    rng = random.Random(11)
    with ctx.activate():
        for _ in range(10):
            x = ctx.mpf(rng.uniform(-1, 1))
            horner = mp.mpf(0)
            for c in reversed(mono):
                horner = horner * x + c
            assert abs(fb.eval_series(s, x, ctx) - horner) < ctx.ten_pow(-64 + 8)


def test_eval_outside_interval_is_polynomial_continuation(ctx):
    s = _series(ctx, 0, 0, 1)  # T2 = 2x^2 - 1
    with ctx.activate():
        x = mp.mpf("1.7")
        assert abs(fb.eval_series(s, x, ctx) - (2 * x ** 2 - 1)) < ctx.ten_pow(-60)


def test_derivative_of_constant_is_zero(ctx):
    d = fb.series_derivative(_series(ctx, 4), ctx)
    assert all(c == 0 for c in d.coeffs)


def test_derivative_of_t2(ctx):
    d = fb.series_derivative(_series(ctx, 0, 0, 1), ctx)
    # (2x^2 - 1)' = 4x
    assert abs(d.coeffs[0]) < ctx.ten_pow(-60)
    assert abs(d.coeffs[1] - 4) < ctx.ten_pow(-60)


def test_derivative_of_t3(ctx):
    d = fb.series_derivative(_series(ctx, 0, 0, 0, 1), ctx)
    # T3' = 12x^2 - 3 = 3 + 6 T2 in halved convention (a0 = 6)
    assert [float(c) for c in d.coeffs] == [6.0, 0.0, 6.0]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_derivative_matches_finite_differences(seed):
    ctx = fb.PrecisionCtx(64)
    rng = random.Random(seed)
    s = ChebSeries(tuple(ctx.mpf(rng.uniform(-1, 1)) for _ in range(9)))
    d = fb.series_derivative(s, ctx)
    with ctx.activate():
        h = ctx.ten_pow(-64 // 3)
        for _ in range(10):
            x = ctx.mpf(rng.uniform(-0.9, 0.9))
            fd = (fb.eval_series(s, x + h, ctx) - fb.eval_series(s, x - h, ctx)) / (2 * h)
            exact = fb.eval_series(d, x, ctx)
            scale = max(abs(exact), mp.mpf(1))
            assert abs(fd - exact) <= ctx.ten_pow(-64 // 3 + 4) * scale


def test_decay_flat_series_degraded(ctx):
    s = ChebSeries((ctx.mpf(1),) * 12)
    rep = fb.decay_report(s, ctx)
    assert not rep.healthy


def test_decay_requires_length(ctx):
    with pytest.raises(ValueError):
        fb.decay_report(_series(ctx, 1, 2), ctx)


def test_decay_geometric_series_healthy(ctx):
    with ctx.activate():
        s = ChebSeries(tuple(mp.mpf(4) ** -k for k in range(40)))
    rep = fb.decay_report(s, ctx)
    assert rep.healthy and rep.rate > 0


def test_decay_noise_injection_degrades(g32, ctx):
    rng = random.Random(5)
    with ctx.activate():
        noisy = ChebSeries(tuple(
            c + ctx.ten_pow(-10) * ctx.mpf(rng.uniform(-1, 1)) for c in g32.coeffs
        ))
    rep = fb.decay_report(noisy, ctx)
    assert not rep.healthy
    assert rep.tail_magnitude > ctx.ten_pow(-11)


def test_decay_ignores_round_off_below_the_resolution(g32, ctx):
    # the odd coefficients of the even g are round-off: noise below the
    # absolute resolution 10^-D max|a_k| must not move the diagnostic
    rng = random.Random(11)
    noise = ctx.ten_pow(-ctx.decimal_digits - 5)
    noisy = ChebSeries(tuple(
        c + noise * ctx.mpf(rng.uniform(-1, 1)) if k % 2 else c
        for k, c in enumerate(g32.coeffs)
    ))
    clean, rep = fb.decay_report(g32, ctx), fb.decay_report(noisy, ctx)
    assert rep.rate == clean.rate
    assert rep.log_inv_magnitudes == clean.log_inv_magnitudes


def test_monomial_round_trip(ctx):
    mono = [ctx.mpf(v) for v in (1, 0, -3, 2, 0, 5)]
    s = fb.monomial_to_series(mono, ctx)
    back = fb.series_to_monomial(s, ctx)
    for a, b in zip(mono, back):
        assert abs(a - b) < ctx.ten_pow(-58)


def test_converged_solution_tail_coefficient(g32, ctx):
    # the last even-index coefficient of the n = 32 fixed point
    with ctx.activate():
        want = mp.mpf("4.571053006e-23")
        assert abs(abs(g32.coeffs[30]) - want) <= mp.mpf("1e-9") * want
        # and the very last coefficient vanishes by parity
        assert abs(g32.coeffs[31]) < ctx.ten_pow(-60)


def test_converged_solution_taylor_tail(g32, ctx):
    with ctx.activate():
        taylor = fb.series_to_monomial(g32, ctx)
        want = mp.mpf("2.454065396e-14")
        assert abs(taylor[30] - want) <= mp.mpf("1e-9") * want


def test_converged_solution_value_at_one(g32, ctx):
    with ctx.activate():
        g1 = fb.eval_series(g32, 1, ctx)
        assert abs(g1 - mp.mpf("-0.3995352805")) < mp.mpf("1e-10")


def test_decay_report_converged_solution(g32, ctx):
    rep = fb.decay_report(g32, ctx)
    assert rep.healthy
    with ctx.activate():
        assert abs(rep.tail_magnitude - mp.mpf("4.571053006e-23")) \
            <= mp.mpf("1e-31")
        assert abs(rep.log_inv_magnitudes[30] - mp.mpf("22.34")) < mp.mpf("0.01")


def _exact_chebyshev(coeffs):
    """Exact Chebyshev coefficients (halved-a_0 convention) of sum c_p x^p,
    by Horner's rule in the Chebyshev basis with x T_0 = T_1 and
    x T_k = (T_(k+1) + T_(k-1)) / 2 on Fractions."""
    size = len(coeffs)
    acc = [Fraction(0)] * size  # acc[k] multiplies T_k
    for c in reversed(coeffs):
        times_x = [Fraction(0)] * (size + 1)
        for k, b in enumerate(acc):
            if k == 0:
                times_x[1] += b
            else:
                times_x[k + 1] += b / 2
                times_x[k - 1] += b / 2
        assert times_x[size] == 0
        acc = times_x[:size]
        acc[0] += c
    return [2 * acc[0]] + acc[1:]


@settings(max_examples=60, deadline=None)
@given(st.integers(16, 96), st.integers(1, 32), st.integers(0, 10 ** 9))
def test_monomial_to_series_rounds_the_exact_coefficients_once(digits, m, seed):
    # Fractions, integers and mpf (taken at their exact binary values),
    # trailing zeros dropped: each coefficient is the exact one rounded to
    # the nearest at p bits
    ctx = fb.PrecisionCtx(digits)
    rng = random.Random(seed)
    draws = [Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6)),
             rng.randint(-5, 5), ctx.mpf(rng.uniform(-1, 1)) / 3, 0]
    coeffs = [rng.choice(draws[:3]) if rng.random() < 0.8 else 0 for _ in range(m)]
    coeffs += [0] * rng.randint(0, 2)
    s = fb.monomial_to_series(coeffs, ctx)
    exact = [mpf_to_fraction(c) for c in coeffs]
    while len(exact) > 1 and exact[-1] == 0:
        exact.pop()
    want = _exact_chebyshev(exact) + [Fraction(0)] * (2 - len(exact))
    assert len(s.coeffs) == len(want)
    for got, q in zip(s.coeffs, want):
        assert got.context is ctx.mp
        if not q:
            assert got == 0
            continue
        # a unit in the p-th bit of |q| (2^(e-p) with 2^(e-1) <= |q| < 2^e)
        e = q.numerator.bit_length() - q.denominator.bit_length()
        e += abs(q) >= Fraction(2) ** e
        assert abs(mpf_to_fraction(got) - q) <= Fraction(2) ** (e - ctx.prec_bits) / 2
