"""Newton iteration on Phi(g) = g - T(g) over a chosen discretization,
with finite-difference and exact Jacobians, convergence control, and
g(0) pinning.

The Newton state is the vector of function values at the discretization
nodes; the reconstruction of the polynomial from those values is the
basis's affair (:mod:`feigenbaum.bases`).  Pinning replaces one residual
row with the linear constraint g(0) = v, which keeps the system square
and selects one member when the operator carries a one-parameter
solution family.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .bases import Discretization, chebgrid, even_half
from .chebyshev import ChebSeries, GridFn, _eval, cheb_nodes, monomial_to_series
from .errors import NoConvergence, SingularJacobian, SingularMatrix
from .numerics import (DEGENERACY_RATIO, PrecisionCtx, ls_slope, lu_factor,
                       lu_solve_factored, vec_norm_inf)
from .operators import (
    Linearization,
    OperatorSpec,
    Variant,
    apply_at_points,
    linearization_matrix,
    scaling_of,
)


class JacobianMode(enum.Enum):
    FINITE_DIFFERENCE = "fd"
    EXACT = "exact"


MAX_ITERATIONS = 40


@dataclass
class NewtonConfig:
    """Iteration knobs.  ``pin_g0`` is the value g(0) is pinned to, or
    None for the plain collocation system.  The finite-difference step
    and the update tolerance derive from the precision context (see
    :meth:`resolved`), and the budget is ``MAX_ITERATIONS`` Newton steps."""

    jacobian_mode: JacobianMode = JacobianMode.FINITE_DIFFERENCE
    pin_g0: object = None

    def resolved(self, ctx: PrecisionCtx):
        """(finite-difference step, update tolerance) = (10**(-D//2), 10**(-D+10))."""
        D = ctx.decimal_digits
        return ctx.ten_pow(-(D // 2)), ctx.ten_pow(-D + 10)


@dataclass
class NewtonResult:
    """Converged solution plus the iteration trace; ``solution_grid`` holds
    the node values of ``basis`` (Lanford's i/m, say, not Chebyshev roots)."""

    solution_grid: GridFn
    solution_series: ChebSeries
    iteration_history: tuple
    scaling: object
    spec: OperatorSpec
    basis: Discretization
    ctx: PrecisionCtx
    stopped_by: str = "update_tol"

    @property
    def jacobian_at_solution(self) -> list:
        """I - dT(g) at the solution under ``spec.linearization``, exact
        mode and unpinned: the matrix the spectrum is taken of."""
        return _jacobian(self.spec, self.basis, self.solution_grid.values,
                         self.solution_series,
                         NewtonConfig(jacobian_mode=JacobianMode.EXACT), self.ctx)


def default_seed(k: int, ctx: PrecisionCtx) -> ChebSeries:
    """Seed polynomial for the extremum-order-2k branch.

    1 - 1.5 x^2 for the quadratic branch.  For k >= 2 the leading
    coefficient is 1.7: the nearby 1.8 puts the first Newton step outside
    the basin (verified by iteration traces), while 1.7 converges with a
    clean quadratic tail.
    """
    if k < 1:
        raise ValueError("extremum order index k must be >= 1")
    coeffs = [ctx.mpf(0)] * (2 * k + 1)
    coeffs[0], coeffs[2 * k] = ctx.mpf(1), ctx.mpf("-1.5" if k == 1 else "-1.7")
    return monomial_to_series(coeffs, ctx)


def residual(variant: Variant, g: ChebSeries, n: int, ctx: PrecisionCtx) -> GridFn:
    """g(x_i) - T(g)(x_i) at the n Chebyshev roots."""
    return GridFn(tuple(_residual(variant, g, cheb_nodes(n, ctx), ctx)))


def _residual(variant, g, points, ctx, values=None):
    """g(x) - T(g)(x) over the points; ``values`` supplies g there when the
    caller carries it (the Newton state), else it is evaluated."""
    image = apply_at_points(variant, g, points, ctx)
    if values is None:
        values = [_eval(g, x) for x in points]
    return [values[i] - image[i] for i in range(len(points))]


def _jacobian(spec, basis, values, series, config, ctx):
    """Matrix of I - dT(g) in the basis; g is ``series``, with node
    values ``values``.

    Exact mode is I - L with L from :func:`linearization_matrix`.
    Finite-difference mode differentiates Phi = I - T directly, so it
    always captures the full derivative (the scaling constant varies with
    the perturbed g); a frozen linearization therefore always goes
    through the exact matrix.
    """
    d = basis.dim
    if (config.jacobian_mode is JacobianMode.EXACT
            or spec.linearization is Linearization.FROZEN_ALPHA):
        L = linearization_matrix(spec, series, basis, ctx)
        one, zero = ctx.mpf(1), ctx.mpf(0)
        return [[(one if i == j else zero) - L[i][j] for j in range(d)] for i in range(d)]
    step, _ = config.resolved(ctx)
    cols = []
    for j, card in enumerate(basis.cardinals):
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
    values = [_eval(g, x) for x in basis.nodes]
    return _jacobian(spec, basis, values, g, config, ctx)


def _pin_row(basis: Discretization, value, ctx: PrecisionCtx):
    """(row index, jacobian row, value) of the pin g(0) = value.

    The row, d g(0) / d values, replaces the collocation row of the node
    nearest the origin.  On the even half of the grid that node is
    unique; mirror-image nodes of a full grid are equally near, and
    distances compare in double precision so that round-off in the nodes
    does not break that tie: the lower index wins.
    """
    ridx = min(range(basis.dim), key=lambda i: (float(abs(basis.nodes[i])), i))
    return ridx, basis.cardinal_rows([ctx.mpf(0)], ctx)[0], ctx.mpf(value)


def _even_half(basis: Discretization, values, ctx: PrecisionCtx):
    """The :class:`~feigenbaum.bases.EvenHalf` of a mirror-node basis when
    the node values are mirror-symmetric to the eigensolver gate
    ``ctx.eig_gate`` relative to their sup norm, else None (Newton keeps
    ``basis``)."""
    if not basis.mirror_nodes:
        return None
    n = basis.dim
    gate = ctx.eig_gate * vec_norm_inf(values)
    if any(abs(values[i] - values[n - 1 - i]) > gate for i in range(n // 2)):
        return None
    return even_half(basis, ctx)


def newton_solve(spec: OperatorSpec, basis, seed: ChebSeries,
                 config: NewtonConfig, ctx: PrecisionCtx,
                 n: int = None) -> NewtonResult:
    """Iterate g_{k+1} = g_k - A_k^{-1} Phi(g_k) until the update stalls
    at round-off or drops below the stop threshold.

    ``basis`` is a Discretization, or None for the Chebyshev grid of
    size n (default 32).  With ``config.pin_g0`` set, one collocation row
    is replaced by g(0) = pin_g0 (see :func:`_pin_row`).
    On a mirror-node basis (the Chebyshev grid) from a seed whose node
    values are even to 10**(-D//2-4), pinned or not, the iteration runs
    on the basis's :class:`~feigenbaum.bases.EvenHalf`, ceil(n/2)
    unknowns, where T and the pin keep g even; the result carries the
    mirrored n node values and the full grid as its basis.  Any other
    seed iterates on the full basis.
    Raises :class:`SingularJacobian` when the Jacobian degenerates (a
    solution family, unpinned T3/T4, or a pin that isolates none) and
    :class:`NoConvergence` (history attached) when the budget runs out.
    The result's :attr:`NewtonResult.jacobian_at_solution` rebuilds the
    final Jacobian in exact mode under ``spec.linearization``, unpinned.
    """
    config = config or NewtonConfig()
    if basis is None:
        basis = chebgrid(n if n else 32, ctx)
    values = [_eval(seed, x) for x in basis.nodes]
    half = _even_half(basis, values, ctx)
    run = basis if half is None else half
    values, series, history, stopped_by = _iterate(spec, run, values[:run.dim], config, ctx)
    if half is not None:
        values = half.mirrored(values)
    return NewtonResult(
        solution_grid=GridFn(tuple(values)),
        solution_series=series,
        iteration_history=tuple(history),
        scaling=scaling_of(spec.variant, series, ctx),
        spec=spec,
        basis=basis,
        ctx=ctx,
        stopped_by=stopped_by,
    )


def _iterate(spec, basis, values, config, ctx):
    """The Newton loop of :func:`newton_solve` on ``basis`` from the node
    values of the seed, pinned there by ``config.pin_g0``: (node values,
    series, update norms, stop reason) at convergence.  The residual of
    the pass that stops the loop is judged on the system solved: a pinned
    row carries the constraint, not the displaced collocation row, whose
    truncation-scale error is no convergence failure."""
    _, update_tol = config.resolved(ctx)
    pin = None if config.pin_g0 is None else _pin_row(basis, config.pin_g0, ctx)
    why = ("g(0) pinned to %s" % ctx.mp.nstr(config.pin_g0, 8) if pin
           else "solution family; pin g(0) to select a member")
    full = OperatorSpec(spec.variant, Linearization.FULL_DERIVATIVE)
    D = ctx.decimal_digits
    plateau_gate = ctx.ten_pow(-(D // 2))
    history = []
    stopped_by = None
    while True:
        series = basis.to_series(values, ctx)
        rhs = _residual(spec.variant, series, basis.nodes, ctx, values)
        if pin:
            ridx, row, g0 = pin
            rhs[ridx] = _eval(series, 0) - g0
        if stopped_by or len(history) == MAX_ITERATIONS:
            break
        A = _jacobian(full, basis, values, series, config, ctx)
        if pin:
            A[ridx] = list(row)
        try:
            fac = lu_factor(A, ctx)
        except SingularMatrix as exc:
            raise SingularJacobian("Newton Jacobian is singular (%s): %s" % (why, exc)) from exc
        if fac.pivot_ratio * basis.condition_estimate < DEGENERACY_RATIO:
            raise SingularJacobian("Newton Jacobian degenerate (pivot ratio %s): %s" % (
                ctx.mp.nstr(fac.pivot_ratio, 3), why if pin else
                "the operator has eigenvalue 1, i.e. a one-parameter " + why))
        delta = lu_solve_factored(fac, rhs, ctx)
        values = [values[i] - delta[i] for i in range(basis.dim)]
        u = vec_norm_inf(delta)
        if u <= update_tol:
            stopped_by = "update_tol"
        elif history and history[-1] <= plateau_gate and u > history[-1] / 2:
            stopped_by = "plateau"
        history.append(u)

    res_norm = vec_norm_inf(rhs)
    scale = max(ctx.mpf(1), vec_norm_inf(values))
    if not stopped_by or res_norm > ctx.ten_pow(-D + 12) * scale:
        raise NoConvergence(
            "Newton did not converge (last residual %s)" % ctx.mp.nstr(res_norm, 5),
            history=tuple(history),
        )
    return values, series, history, stopped_by


@dataclass
class ConvergenceReport:
    """Fitted p in log u_{k+1} = p log u_k + c over the pre-plateau tail."""

    exponent: object  # mpf or None when too few points


def convergence_diagnostics(result) -> ConvergenceReport:
    """Quadratic-convergence check from the update-norm history of a
    :class:`NewtonResult` (``iteration_history``, ``stopped_by`` and
    ``ctx``).

    Fits the slope of log u_{k+1} against log u_k over consecutive
    pre-plateau updates already in the asymptotic regime (u_k <= 1e-2),
    at the precision the update norms carry.  A norm at or below the
    absolute resolution 10^-D is round-off, not a step of the iteration,
    and stays out of the fit.
    """
    history = list(result.iteration_history)
    if result.stopped_by == "plateau" and len(history) > 1:
        history = history[:-1]
    if not history:
        return ConvergenceReport(None)
    mpx = history[0].context
    cut = mpx.mpf("1e-2")
    floor = result.ctx.ten_pow(-result.ctx.decimal_digits)
    pairs = [
        (mpx.log(history[i]), mpx.log(history[i + 1]))
        for i in range(len(history) - 1)
        if floor < history[i] <= cut and history[i + 1] > floor
    ]
    if len(pairs) < 2:
        return ConvergenceReport(None)
    xs, ys = zip(*pairs)
    return ConvergenceReport(ls_slope(xs, ys, mpx))
