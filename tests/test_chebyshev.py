"""Nodes, transforms, Clenshaw, differentiation, decay diagnostics."""

import random

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import feigenbaum as fb
from feigenbaum.chebyshev import ChebSeries, GridFn, _eval


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
        z = _eval([mp.mpc(a, b) for a, b in zip(re, im)], x)
        want = mp.mpc(_eval(re, x), _eval(im, x))
    assert isinstance(z, mp.mpc)
    assert z._mpc_ == want._mpc_


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
        fb.decay_report(_series(ctx, 1, 2, 3), ctx)


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
