"""Newton iteration on Phi(g) = g - T(g) over a chosen discretization,
with finite-difference and exact Jacobians, convergence control, and
coefficient pinning.

The Newton state is the vector of function values at the discretization
nodes; the reconstruction of the polynomial from those values is the
basis's affair (:mod:`feigenbaum.bases`).  Pinning replaces one residual
row with a (linear) constraint on a Taylor coefficient of the solution,
which keeps the system square and selects one member when the operator
carries a one-parameter solution family.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from mpmath import mp

from .bases import BasisSpec, Discretization, build_basis, chebgrid
from .chebyshev import ChebSeries, GridFn, _eval, cheb_nodes, series_to_monomial
from .errors import NoConvergence, SingularJacobian, SingularMatrix
from .numerics import DEGENERACY_RATIO, PrecisionCtx, lu_factor, lu_solve_factored, vec_norm_inf
from .operators import (
    Linearization,
    OperatorSpec,
    Variant,
    apply_at_points,
    linearized_apply_at,
    scaling_of,
)


class JacobianMode(enum.Enum):
    FINITE_DIFFERENCE = "fd"
    EXACT = "exact"


@dataclass
class NewtonConfig:
    """Iteration knobs.  The finite-difference step and the update
    tolerance derive from the precision context: see :meth:`resolved`."""

    max_iterations: int = 40
    jacobian_mode: JacobianMode = JacobianMode.FINITE_DIFFERENCE
    pin: tuple = ()  # ((taylor power, value), ...)

    def resolved(self, ctx: PrecisionCtx):
        """(finite-difference step, update tolerance) = (10**(-D//2), 10**(-D+10))."""
        D = ctx.decimal_digits
        return ctx.ten_pow(-(D // 2)), ctx.ten_pow(-D + 10)


@dataclass
class NewtonResult:
    """Converged solution plus the iteration trace."""

    solution_grid: GridFn
    solution_series: ChebSeries
    iteration_history: tuple
    converged: bool
    scaling: object
    spec: OperatorSpec
    basis: Discretization
    ctx: PrecisionCtx
    stopped_by: str = "update_tol"

    @property
    def n(self) -> int:
        return self.basis.dim

    @property
    def jacobian_at_solution(self) -> list:
        """I - dT(g) at the solution under ``spec.linearization``, exact
        mode and unpinned: the matrix the spectrum is taken of."""
        return _jacobian(self.spec, self.basis, self.solution_grid.values,
                         self.solution_series,
                         NewtonConfig(jacobian_mode=JacobianMode.EXACT), self.ctx)


def residual(variant: Variant, g: ChebSeries, n: int, ctx: PrecisionCtx) -> GridFn:
    """g(x_i) - T(g)(x_i) at the n Chebyshev roots."""
    return GridFn(tuple(_residual(variant, g, cheb_nodes(n, ctx), ctx)))


def _residual(variant, g, points, ctx, values=None):
    """g(x) - T(g)(x) over the points; ``values`` supplies g there when the
    caller carries it (the Newton state), else it is evaluated."""
    image = apply_at_points(variant, g, points, ctx)
    with ctx.activate():
        if values is None:
            values = [_eval(g.coeffs, x) for x in points]
        return [values[i] - image[i] for i in range(len(points))]


def _jacobian(spec, basis, values, series, config, ctx):
    """Matrix of I - dT(g) in the basis; g is ``series``, with node
    values ``values``.

    Finite-difference mode differentiates Phi = I - T directly, so it
    always captures the full derivative (the scaling constant varies with
    the perturbed g); a frozen linearization therefore always goes through
    the exact column formula.
    """
    d = basis.dim
    exact = (config.jacobian_mode is JacobianMode.EXACT
             or spec.linearization is Linearization.FROZEN_ALPHA)
    step, _ = config.resolved(ctx)
    cols = []
    with ctx.activate():
        one, zero = mp.mpf(1), mp.mpf(0)
        for j, card in enumerate(basis.cardinals):
            if exact:
                img = linearized_apply_at(spec, series, card, basis.nodes, ctx)
                cols.append([(one if i == j else zero) - img[i] for i in range(d)])
            else:
                # centered differences: the forward one-sided quotient carries a
                # (step/2)|d2 Phi| truncation term with constants near 10^2 here,
                # which would dominate the cross-mode agreement budget
                res = []
                for sgn in (1, -1):
                    h = sgn * step
                    pert = ChebSeries(tuple(c + h * e for c, e in zip(series.coeffs, card.coeffs)))
                    pvals = list(values)
                    pvals[j] = pvals[j] + h
                    res.append(_residual(spec.variant, pert, basis.nodes, ctx, pvals))
                cols.append([(res[0][i] - res[1][i]) / (2 * step) for i in range(d)])
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def assemble_jacobian(spec: OperatorSpec, g: ChebSeries, n: int, config: NewtonConfig,
                      ctx: PrecisionCtx, basis: Discretization = None) -> list:
    """Matrix of I - dT(g) in the active basis (Chebyshev grid of size n
    by default); see :func:`_jacobian` for the mode choice."""
    basis = basis if basis is not None else chebgrid(n, ctx)
    with ctx.activate():
        values = [_eval(g.coeffs, x) for x in basis.nodes]
    return _jacobian(spec, basis, values, g, config, ctx)


def _pin_rows(basis: Discretization, pins, ctx: PrecisionCtx):
    """(row index, jacobian row, power, value) per pin.

    The replaced rows are those whose nodes sit nearest the origin, the
    point the constraints address.
    """
    if not pins:
        return []
    order = sorted(range(basis.dim), key=lambda i: (abs(basis.nodes[i]), i))
    rows = []
    with ctx.activate():
        taylor_of_card = [series_to_monomial(c, ctx) for c in basis.cardinals]
        for slot, (power, value) in enumerate(pins):
            row = [taylor_of_card[j][power] for j in range(basis.dim)]
            rows.append((order[slot], row, int(power), ctx.mpf(value)))
    return rows


def newton_solve(spec: OperatorSpec, basis, seed: ChebSeries,
                 config: NewtonConfig, ctx: PrecisionCtx,
                 n: int = None) -> NewtonResult:
    """Iterate g_{k+1} = g_k - A_k^{-1} Phi(g_k) until the update stalls
    at round-off or drops below the stop threshold.

    ``basis`` may be a Discretization, a BasisSpec, or None (Chebyshev
    grid of size n).
    Raises :class:`SingularJacobian` when the Jacobian degenerates (the
    operator keeps a solution family: unpinned T3/T4) and
    :class:`NoConvergence` (history attached) when the budget runs out.
    The result's :attr:`NewtonResult.jacobian_at_solution` rebuilds the
    final Jacobian in exact mode under ``spec.linearization``, unpinned.
    """
    config = config or NewtonConfig()
    if basis is None:
        basis = chebgrid(n if n else 32, ctx)
    elif isinstance(basis, BasisSpec):
        basis = build_basis(basis, ctx)
    _, update_tol = config.resolved(ctx)
    D = ctx.decimal_digits
    with ctx.activate():
        values = [_eval(seed.coeffs, x) for x in basis.nodes]
    pins = _pin_rows(basis, config.pin, ctx)

    history = []
    converged = False
    stopped_by = "budget"
    prev_u = None
    plateau_gate = ctx.ten_pow(-(D // 2))
    for _ in range(config.max_iterations):
        series = basis.to_series(values, ctx)
        rhs = _residual(spec.variant, series, basis.nodes, ctx, values)
        A = _jacobian(OperatorSpec(spec.variant, Linearization.FULL_DERIVATIVE),
                      basis, values, series, config, ctx)
        with ctx.activate():
            for ridx, row, power, value in pins:
                A[ridx] = list(row)
                rhs[ridx] = series_to_monomial(series, ctx)[power] - value
        try:
            fac = lu_factor(A, ctx)
        except SingularMatrix as exc:
            raise SingularJacobian(
                "Newton Jacobian is singular (solution family; pin g(0) "
                "to select a member): %s" % exc
            ) from exc
        if fac.pivot_ratio * basis.condition_estimate < DEGENERACY_RATIO:
            raise SingularJacobian(
                "Newton Jacobian degenerate (pivot ratio %s): the operator "
                "has eigenvalue 1, i.e. a one-parameter solution family; "
                "pin g(0) to select a member" % mp.nstr(fac.pivot_ratio, 3)
            )
        delta = lu_solve_factored(fac, rhs, ctx)
        with ctx.activate():
            values = [values[i] - delta[i] for i in range(basis.dim)]
            u = vec_norm_inf(delta)
        history.append(u)
        if u <= update_tol:
            converged = True
            stopped_by = "update_tol"
            break
        if prev_u is not None and prev_u <= plateau_gate and u > prev_u / 2:
            converged = True
            stopped_by = "plateau"
            break
        prev_u = u

    series = basis.to_series(values, ctx)
    final_res = _residual(spec.variant, series, basis.nodes, ctx, values)
    with ctx.activate():
        # judge convergence on the system actually solved: pinned rows carry
        # the constraint residual (the displaced collocation row re-acquires
        # truncation-scale error, which is not a convergence failure)
        for ridx, _row, power, value in pins:
            final_res[ridx] = series_to_monomial(series, ctx)[power] - value
        res_norm = vec_norm_inf(final_res)
        scale = max(mp.mpf(1), vec_norm_inf(values))
    if not converged or res_norm > ctx.ten_pow(-D + 12) * scale:
        raise NoConvergence(
            "Newton did not converge (last residual %s)" % mp.nstr(res_norm, 5),
            history=tuple(history),
        )
    return NewtonResult(
        solution_grid=GridFn(tuple(values)),
        solution_series=series,
        iteration_history=tuple(history),
        converged=converged,
        scaling=scaling_of(spec.variant, series, ctx),
        spec=spec,
        basis=basis,
        ctx=ctx,
        stopped_by=stopped_by,
    )


@dataclass
class ConvergenceReport:
    """Fitted p in log u_{k+1} = p log u_k + c over the pre-plateau tail."""

    exponent: object  # mpf or None when too few points
    pairs_used: int = 0


def convergence_diagnostics(result) -> ConvergenceReport:
    """Quadratic-convergence check from the update-norm history.

    Fits the slope of log u_{k+1} against log u_k over consecutive
    pre-plateau updates already in the asymptotic regime (u_k <= 1e-2).
    """
    if isinstance(result, (tuple, list)):
        history, stopped_by = list(result), "update_tol"
    else:
        history, stopped_by = list(result.iteration_history), result.stopped_by
    if stopped_by == "plateau" and len(history) > 1:
        history = history[:-1]
    cut = mp.mpf("1e-2")
    pairs = [
        (mp.log(history[i]), mp.log(history[i + 1]))
        for i in range(len(history) - 1)
        if 0 < history[i] <= cut and history[i + 1] > 0
    ]
    if len(pairs) < 2:
        return ConvergenceReport(None, len(pairs))
    xb = mp.fsum(x for x, _ in pairs) / len(pairs)
    yb = mp.fsum(y for _, y in pairs) / len(pairs)
    num = mp.fsum((x - xb) * (y - yb) for x, y in pairs)
    den = mp.fsum((x - xb) ** 2 for x, y in pairs)
    return ConvergenceReport(num / den, len(pairs))
