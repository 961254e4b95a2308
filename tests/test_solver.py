"""Newton iteration, Jacobian assembly, pinning, convergence control."""

import pytest
from mpmath import mp

import feigenbaum as fb
from feigenbaum.chebyshev import ChebSeries, sup_distance
from feigenbaum.solver import JacobianMode

FULL = fb.Linearization.FULL_DERIVATIVE
FROZEN = fb.Linearization.FROZEN_ALPHA


def _series(ctx, *vals):
    return ChebSeries(tuple(ctx.mpf(v) for v in vals))


def test_residual_constant_function_zero(ctx):
    r = fb.residual(fb.Variant.T, _series(ctx, 2), 8, ctx)
    assert all(abs(v) < ctx.ten_pow(-60) for v in r.values)


def test_residual_at_converged_solution(g32, ctx):
    r = fb.residual(fb.Variant.T, g32, 32, ctx)
    assert max(abs(v) for v in r.values) < ctx.ten_pow(-20)


def test_residual_of_seed_nonzero_finite(quad_seed, ctx):
    r = fb.residual(fb.Variant.T, quad_seed, 16, ctx)
    mx = max(abs(v) for v in r.values)
    assert mp.isfinite(mx) and mx > ctx.mpf("0.01")


def test_jacobian_constant_family_spectrum(ctx):
    # frozen linearization at g = 1: dT maps h -> h(1), so I - A has one
    # zero eigenvalue and ones elsewhere
    spec = fb.OperatorSpec(fb.Variant.T, FROZEN)
    A = fb.assemble_jacobian(spec, _series(ctx, 2), 8,
                             fb.NewtonConfig(jacobian_mode=JacobianMode.EXACT), ctx)
    pairs = fb.eig_dense(A, ctx.ten_pow(-30), ctx)
    eigs = sorted(float(p.value.real) for p in pairs)
    assert abs(eigs[0]) < 1e-50
    assert all(abs(e - 1) < 1e-50 for e in eigs[1:])


def test_jacobian_columns_finite(quad_seed, ctx):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    A = fb.assemble_jacobian(spec, quad_seed, 12, fb.NewtonConfig(), ctx)
    assert all(mp.isfinite(A[i][j]) for i in range(12) for j in range(12))


def test_fd_vs_exact_jacobian(g32, ctx):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    cfg = fb.NewtonConfig()
    step, _ = cfg.resolved(ctx)
    fd = fb.assemble_jacobian(spec, g32, 32, cfg, ctx)
    ex = fb.assemble_jacobian(spec, g32, 32,
                              fb.NewtonConfig(jacobian_mode=JacobianMode.EXACT), ctx)
    worst = max(abs(fd[i][j] - ex[i][j]) for i in range(32) for j in range(32))
    assert worst <= 10 * step


def test_newton_converges_quadratic(quad32, ctx):
    assert quad32.converged
    assert abs(quad32.scaling.value - mp.mpf("-2.502907875")) < mp.mpf("1e-8")
    assert len(quad32.iteration_history) <= 40
    # update norms decrease strictly before the round-off tail
    hist = quad32.iteration_history
    assert all(hist[i + 1] < hist[i] for i in range(len(hist) - 2))


def test_newton_restart_is_immediate(quad32, ctx):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    res = fb.newton_solve(spec, None, quad32.solution_series,
                          fb.NewtonConfig(), ctx, n=32)
    assert len(res.iteration_history) <= 1


def test_newton_fd_and_exact_agree(quad32, quad_seed, ctx):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    res = fb.newton_solve(spec, None, quad_seed,
                          fb.NewtonConfig(jacobian_mode=JacobianMode.EXACT), ctx, n=32)
    err = max(abs(a - b) for a, b in
              zip(res.solution_grid.values, quad32.solution_grid.values))
    assert err <= ctx.ten_pow(-52)


def test_newton_monomial_matches_chebgrid(quad32, quad_seed, ctx):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    basis = fb.build_basis(fb.BasisSpec(fb.BasisKind.MONOMIAL_FULL, 31), ctx)
    res = fb.newton_solve(spec, basis, quad_seed, fb.NewtonConfig(), ctx)
    assert sup_distance(res.solution_series, quad32.solution_series, ctx) \
        <= ctx.ten_pow(-32)


def test_unpinned_t4_raises_singular_jacobian(quad_seed, ctx):
    spec = fb.OperatorSpec(fb.Variant.T4, FULL)
    with pytest.raises(fb.SingularJacobian):
        fb.newton_solve(spec, None, quad_seed, fb.NewtonConfig(), ctx, n=24)


def test_unpinned_t3_raises_singular_jacobian(quad_seed, ctx):
    spec = fb.OperatorSpec(fb.Variant.T3, FULL)
    with pytest.raises(fb.SingularJacobian):
        fb.newton_solve(spec, None, quad_seed, fb.NewtonConfig(), ctx, n=24)


def test_pinned_t4_matches_plain_solution(quad32, quad_seed, ctx):
    spec = fb.OperatorSpec(fb.Variant.T4, FULL)
    res = fb.newton_solve(spec, None, quad_seed,
                          fb.NewtonConfig(pin=((0, 1),)), ctx, n=32)
    assert res.converged
    g0 = fb.eval_series(res.solution_series, 0, ctx)
    assert abs(g0 - 1) < ctx.ten_pow(-50)
    assert sup_distance(res.solution_series, quad32.solution_series, ctx) \
        <= ctx.ten_pow(-15)


def test_pinned_t4_keeps_full_operator_residual_small(quad_seed, ctx):
    spec = fb.OperatorSpec(fb.Variant.T4, FULL)
    res = fb.newton_solve(spec, None, quad_seed,
                          fb.NewtonConfig(pin=((0, 1),)), ctx, n=32)
    r = fb.residual(fb.Variant.T4, res.solution_series, 32, ctx)
    assert max(abs(v) for v in r.values) < ctx.ten_pow(-20)


def test_newton_budget_exhaustion(quad_seed, ctx):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    with pytest.raises(fb.NoConvergence) as err:
        fb.newton_solve(spec, None, quad_seed,
                        fb.NewtonConfig(max_iterations=2), ctx, n=16)
    assert len(err.value.history) == 2


def test_diagnostics_quadratic_run(quad32):
    rep = fb.convergence_diagnostics(quad32)
    assert rep.exponent is not None
    assert 1.7 <= float(rep.exponent) <= 2.3


def test_diagnostics_single_step_absent():
    rep = fb.convergence_diagnostics([mp.mpf("1e-30")])
    assert rep.exponent is None


def test_diagnostics_linear_history():
    hist = [mp.mpf(2) ** -k for k in range(1, 26)]
    rep = fb.convergence_diagnostics(hist)
    assert abs(float(rep.exponent) - 1.0) < 0.05
