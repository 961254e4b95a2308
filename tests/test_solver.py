"""Newton iteration, Jacobian assembly, pinning, convergence control."""

from types import SimpleNamespace

import pytest
from mpmath import mp

import feigenbaum as fb
from feigenbaum import solver
from feigenbaum.chebyshev import ChebSeries
from feigenbaum.solver import JacobianMode

FULL = fb.Linearization.FULL_DERIVATIVE
FROZEN = fb.Linearization.FROZEN_ALPHA


def _series(ctx, *vals):
    return ChebSeries(tuple(ctx.mpf(v) for v in vals))


def sup_distance(a, b, ctx, samples=201):
    """Max |a - b| over a uniform sample of [-1, 1]."""
    pts = [ctx.mpf(-1) + ctx.mpf(2) * i / (samples - 1) for i in range(samples)]
    return max(abs(fb.eval_series(a, x, ctx) - fb.eval_series(b, x, ctx)) for x in pts)


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
    pairs = fb.eig_dense(A, ctx)
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
                          fb.NewtonConfig(pin_g0=1), ctx, n=32)
    g0 = fb.eval_series(res.solution_series, 0, ctx)
    assert abs(g0 - 1) < ctx.ten_pow(-50)
    assert sup_distance(res.solution_series, quad32.solution_series, ctx) \
        <= ctx.ten_pow(-15)


def test_pinned_t4_keeps_full_operator_residual_small(quad_seed, ctx):
    spec = fb.OperatorSpec(fb.Variant.T4, FULL)
    res = fb.newton_solve(spec, None, quad_seed,
                          fb.NewtonConfig(pin_g0=1), ctx, n=32)
    r = fb.residual(fb.Variant.T4, res.solution_series, 32, ctx)
    assert max(abs(v) for v in r.values) < ctx.ten_pow(-20)


def test_newton_budget_exhaustion(quad_seed, ctx, monkeypatch):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    for budget in (2, 3):
        monkeypatch.setattr(solver, "MAX_ITERATIONS", budget)
        with pytest.raises(fb.NoConvergence) as err:
            fb.newton_solve(spec, None, quad_seed,
                            fb.NewtonConfig(), ctx, n=16)
        assert len(err.value.history) == budget


def test_newton_stops_at_the_plateau(monkeypatch):
    # with no update tolerance only the plateau rule can stop the loop:
    # once the updates are round-off, one fails to halve its predecessor
    monkeypatch.setattr(fb.NewtonConfig, "resolved",
                        lambda self, ctx: (ctx.ten_pow(-(ctx.decimal_digits // 2)), 0))
    ctx = fb.PrecisionCtx(24)
    seed = fb.monomial_to_series([ctx.mpf(1), ctx.mpf(0), ctx.mpf("-1.5")], ctx)
    res = fb.newton_solve(fb.OperatorSpec(fb.Variant.T, FULL), None, seed,
                          fb.NewtonConfig(jacobian_mode=JacobianMode.EXACT), ctx, n=12)
    assert res.stopped_by == "plateau"
    hist = res.iteration_history
    assert hist[-2] <= ctx.ten_pow(-12)
    assert hist[-1] > hist[-2] / 2


def test_diagnostics_quadratic_run(quad32):
    rep = fb.convergence_diagnostics(quad32)
    assert rep.exponent is not None
    assert 1.7 <= float(rep.exponent) <= 2.3


def _result_with(history):
    """Stand-in for a NewtonResult at 64 digits stopped by the update tolerance."""
    return SimpleNamespace(iteration_history=tuple(history), stopped_by="update_tol",
                           ctx=fb.PrecisionCtx(64))


def test_diagnostics_single_step_absent():
    rep = fb.convergence_diagnostics(_result_with([mp.mpf("1e-30")]))
    assert rep.exponent is None


def test_diagnostics_linear_history():
    hist = [mp.mpf(2) ** -k for k in range(1, 26)]
    rep = fb.convergence_diagnostics(_result_with(hist))
    assert abs(float(rep.exponent) - 1.0) < 0.05


def test_diagnostics_ignore_round_off_norms():
    # the last update of a converged solve is round-off: norms at or below
    # the absolute resolution 10^-D must not steer the fitted exponent
    ctx = fb.PrecisionCtx(64)
    steps = [ctx.mpf(v) for v in ("1e-3", "4e-6", "3e-11", "2e-21", "9e-42")]
    want = fb.convergence_diagnostics(_result_with(steps)).exponent
    for last in (ctx.mpf("8.6e-69"), ctx.mpf("4.6e-69"), ctx.ten_pow(-64)):
        rep = fb.convergence_diagnostics(_result_with(steps + [last]))
        assert rep.exponent == want
    moved = fb.convergence_diagnostics(_result_with(steps + [ctx.mpf("1e-63")]))
    assert moved.exponent != want


def test_diagnostics_drop_the_last_norm_of_a_plateau_run():
    # the update that tripped the plateau rule is round-off, however large,
    # and stays out of the fit
    steps = [mp.mpf(v) for v in ("1e-3", "4e-6", "3e-11", "2e-21")]
    want = fb.convergence_diagnostics(_result_with(steps)).exponent
    plateau = SimpleNamespace(iteration_history=tuple(steps) + (mp.mpf("1e-20"),),
                              stopped_by="plateau", ctx=fb.PrecisionCtx(64))
    assert fb.convergence_diagnostics(plateau).exponent == want
    plateau.stopped_by = "update_tol"
    assert fb.convergence_diagnostics(plateau).exponent != want


def _iterated_dims(monkeypatch):
    """Record the dimension of every basis the Newton loop runs on."""
    dims = []
    loop = solver._iterate

    def spy(spec, basis, *rest):
        dims.append(basis.dim)
        return loop(spec, basis, *rest)

    monkeypatch.setattr(solver, "_iterate", spy)
    return dims


def _full_grid_solve(monkeypatch, *args, **kw):
    """newton_solve with the even half switched off."""
    with monkeypatch.context() as m:
        m.setattr(solver, "_even_half", lambda *a: None)
        return fb.newton_solve(*args, **kw)


@pytest.mark.parametrize("n, mode", [(12, JacobianMode.EXACT), (13, JacobianMode.EXACT),
                                     (12, JacobianMode.FINITE_DIFFERENCE)],
                         ids=["12-exact", "13-exact", "12-fd"])
def test_even_half_matches_the_full_grid(quad_seed, ctx, monkeypatch, n, mode):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    args = (spec, None, quad_seed, fb.NewtonConfig(jacobian_mode=mode), ctx)
    dims = _iterated_dims(monkeypatch)
    half = fb.newton_solve(*args, n=n)
    assert dims == [n - n // 2]
    full = _full_grid_solve(monkeypatch, *args, n=n)
    assert half.basis.dim == n and half.basis.mirror_nodes
    assert len(half.iteration_history) == len(full.iteration_history)
    gate = ctx.ten_pow(-(ctx.decimal_digits // 2))
    for a, b in ((half.solution_series.coeffs, full.solution_series.coeffs),
                 (half.solution_grid.values, full.solution_grid.values)):
        assert len(a) == len(b) == n
        assert max(abs(x - y) for x, y in zip(a, b)) < gate
    values = half.solution_grid.values
    assert all(values[i] == values[n - 1 - i] for i in range(n))
    if n % 2 == 0:
        assert all(c == 0 for c in half.solution_series.coeffs[1::2])


def test_unpinned_t4_degenerates_on_the_half_alone(quad_seed, ctx, monkeypatch):
    # the family tangent g - x g' is even: the full grid would degenerate too
    spec = fb.OperatorSpec(fb.Variant.T4, FULL)
    dims = _iterated_dims(monkeypatch)
    with pytest.raises(fb.SingularJacobian):
        fb.newton_solve(spec, None, quad_seed, fb.NewtonConfig(), ctx, n=24)
    assert dims == [12]


@pytest.mark.parametrize("n", [12, 13])
def test_pinned_solves_run_on_the_even_half(quad_seed, ctx, monkeypatch, n):
    spec = fb.OperatorSpec(fb.Variant.T4, FULL)
    config = fb.NewtonConfig(jacobian_mode=JacobianMode.EXACT, pin_g0=1)
    dims = _iterated_dims(monkeypatch)
    got = fb.newton_solve(spec, None, quad_seed, config, ctx, n=n)
    assert dims == [n - n // 2]
    values = got.solution_grid.values
    assert all(values[i] == values[n - 1 - i] for i in range(n))
    if n % 2 == 0:
        assert all(c == 0 for c in got.solution_series.coeffs[1::2])
    g0 = fb.eval_series(got.solution_series, 0, ctx)
    assert abs(g0 - 1) < ctx.ten_pow(-ctx.decimal_digits)


def test_full_grid_solves_are_unchanged(quad_seed, ctx, monkeypatch):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    coeffs = list(quad_seed.coeffs)
    coeffs[1] += ctx.mpf("0.1")
    config = fb.NewtonConfig(jacobian_mode=JacobianMode.EXACT)
    args = (spec, None, ChebSeries(tuple(coeffs)), config, ctx)
    dims = _iterated_dims(monkeypatch)
    got = fb.newton_solve(*args, n=12)
    assert dims == [12]
    want = _full_grid_solve(monkeypatch, *args, n=12)
    assert got.solution_grid == want.solution_grid
    assert got.solution_series == want.solution_series
    assert got.iteration_history == want.iteration_history
