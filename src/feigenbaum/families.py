"""Scaling families of fixed points and branches with higher-order
extrema.

Every solution g spawns the one-parameter family g_mu(x) = mu g(x/mu);
the family solves the fixed-scaling equation and the T3/T4 forms, whose
linearizations therefore carry the eigenvalue 1 with eigenfunction
g_mu - x g_mu' (the family tangent), and the whole spectrum is constant
along the family.  Separate branches exist for extremum orders 2k,
k = 2, 3, ...; the quartic branch (k = 2) has its own constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from mpmath import mp

from .chebyshev import (
    ChebSeries,
    GridFn,
    _eval,
    cheb_nodes,
    grid_to_series,
    monomial_to_series,
    series_derivative,
    series_to_monomial,
)
from .errors import WrongBranch
from .numerics import PrecisionCtx, vec_norm_inf
from .operators import (
    Linearization,
    OperatorSpec,
    Variant,
    linearized_apply_at,
    scaling_of,
)
from .solver import JacobianMode, NewtonConfig, newton_solve, residual
from .spectrum import compute_spectrum, spectrum_at


@dataclass(frozen=True)
class FamilyMember:
    """One member g_mu of a scaling family (mu = g_mu(0) when g(0) = 1)."""

    mu: object
    series: ChebSeries
    extrapolated: bool = False


def family_member(g: ChebSeries, mu, ctx: PrecisionCtx,
                  allow_extrapolation: bool = False) -> ChebSeries:
    """Coefficients of mu * g(x/mu) on g's working grid.

    |mu| < 1 evaluates g outside [-1, 1] (polynomial continuation) and is
    refused unless ``allow_extrapolation`` is set.
    """
    with ctx.activate():
        mu = ctx.mpf(mu)
        if mu == 0:
            raise ValueError("mu must be nonzero")
        if abs(mu) < 1 and not allow_extrapolation:
            raise ValueError("|mu| < 1 extrapolates g; pass allow_extrapolation=True")
        n = max(len(g.coeffs), 2)
        vals = tuple(mu * _eval(g.coeffs, x / mu) for x in cheb_nodes(n, ctx))
        return grid_to_series(GridFn(vals), ctx)


@dataclass(frozen=True)
class FamilyComparison:
    """Spectra along a scaling family plus the invariance diagnostics."""

    variant: Variant
    members: tuple           # FamilyMember per mu
    reports: tuple           # SpectrumReport per mu
    scalings: tuple          # operator scaling constant at each member
    fixed_point_residuals: tuple
    unit_eigenfunction_residuals: tuple  # || dT4 h - h || / ||h||, h = g_mu - x g_mu'
    max_pairwise_deviation: object       # over the compared leading eigenvalues
    compared: int

    def to_json_dict(self, ctx: PrecisionCtx) -> dict:
        return {
            "operator": self.variant.value,
            "mu": [ctx.to_str(m.mu) for m in self.members],
            "scaling": [ctx.to_str(s) for s in self.scalings],
            "fixed_point_residuals": [ctx.to_str(r) for r in self.fixed_point_residuals],
            "unit_eigenfunction_residuals": [
                ctx.to_str(r) for r in self.unit_eigenfunction_residuals
            ],
            "max_pairwise_deviation": ctx.to_str(self.max_pairwise_deviation),
            "compared": self.compared,
            "reports": [r.to_json_dict(ctx) for r in self.reports],
        }


def family_spectrum_check(g: ChebSeries, mu_list, variant: Variant,
                          ctx: PrecisionCtx, n: int = None, compared: int = 8,
                          allow_extrapolation: bool = False) -> FamilyComparison:
    """Spectra of the full derivative at each g_mu, with pairwise matching.

    Verifies that each member is a genuine fixed point of the family
    operator, that the spectrum is constant along the family, and that
    the eigenvalue-1 eigenfunction is the family tangent g_mu - x g_mu'.
    """
    if variant not in (Variant.T3, Variant.T4):
        raise ValueError("scaling families pair with the T3/T4 forms")
    spec = OperatorSpec(variant, Linearization.FULL_DERIVATIVE)
    n = n if n else max(len(g.coeffs), 8)
    pts = cheb_nodes(n, ctx)

    members, reports, scalings, residuals, unit_res = [], [], [], [], []
    with ctx.activate():
        one = mp.mpf(1)
        for mu in mu_list:
            gm = family_member(g, mu, ctx, allow_extrapolation=allow_extrapolation)
            members.append(FamilyMember(ctx.mpf(mu), gm, abs(ctx.mpf(mu)) < 1))
            scalings.append(scaling_of(variant, gm, ctx).value)
            residuals.append(vec_norm_inf(residual(variant, gm, n, ctx).values))
            gv = [_eval(gm.coeffs, x) for x in pts]
            reports.append(spectrum_at(gm, spec, ctx, n=n))
            gp = series_derivative(gm, ctx)
            hv = [gv[i] - pts[i] * _eval(gp.coeffs, pts[i]) for i in range(n)]
            h = grid_to_series(GridFn(tuple(hv)), ctx)
            himg = linearized_apply_at(spec, gm, h, pts, ctx)
            unit_res.append(
                vec_norm_inf([himg[i] - one * hv[i] for i in range(n)])
                / vec_norm_inf(hv)
            )
        dev = mp.mpf(0)
        for a in range(len(reports)):
            for b in range(a + 1, len(reports)):
                ea, eb = reports[a].eigenvalues, reports[b].eigenvalues
                for i in range(min(compared, len(ea), len(eb))):
                    dev = max(dev, abs(ea[i] - eb[i]))
    return FamilyComparison(
        variant=variant,
        members=tuple(members),
        reports=tuple(reports),
        scalings=tuple(scalings),
        fixed_point_residuals=tuple(residuals),
        unit_eigenfunction_residuals=tuple(unit_res),
        max_pairwise_deviation=dev,
        compared=compared,
    )


def default_seed(k: int, ctx: PrecisionCtx) -> ChebSeries:
    """Seed polynomial for the extremum-order-2k branch.

    1 - 1.5 x^2 for the quadratic branch.  For k >= 2 the leading
    coefficient is 1.7: the nearby 1.8 puts the first Newton step outside
    the basin (verified by iteration traces), while 1.7 converges with a
    clean quadratic tail.
    """
    if k < 1:
        raise ValueError("extremum order index k must be >= 1")
    if k == 1:
        coeffs = [ctx.mpf(1), ctx.mpf(0), ctx.mpf("-1.5")]
    else:
        coeffs = [ctx.mpf(0)] * (2 * k + 1)
        coeffs[0] = ctx.mpf(1)
        coeffs[2 * k] = ctx.mpf("-1.7")
    return monomial_to_series(coeffs, ctx)


def solve_extremum_order(k: int, n: int, ctx: PrecisionCtx,
                         config: NewtonConfig = None, seed: ChebSeries = None):
    """Fixed point with extremum order 2k on the Chebyshev grid of size n.

    Defaults to the exact Jacobian for k >= 2 (finite differences sit
    badly with the flat extremum).  Checks the converged branch: Taylor
    coefficients of x^1 .. x^(2k-1) must vanish to 10**(-D/4), else
    :class:`WrongBranch`.  (The interpolant's truncation tail amplified
    by ~n^3 lands near 1e-20 in those coefficients at n = 70, so a
    10**(-D/2) cut would reject genuine branch members; the wrong branch
    shows order-one coefficients, 16 orders away.)  Returns
    (NewtonResult, SpectrumReport).
    """
    config = config or NewtonConfig()
    if k >= 2:
        config = replace(config, jacobian_mode=JacobianMode.EXACT)
    seed = seed if seed is not None else default_seed(k, ctx)
    spec = OperatorSpec(Variant.T, Linearization.FULL_DERIVATIVE)
    result = newton_solve(spec, None, seed, config, ctx, n=n)

    taylor = series_to_monomial(result.solution_series, ctx)
    with ctx.activate():
        bound = ctx.ten_pow(-(ctx.decimal_digits // 4))
        bad = [j for j in range(1, 2 * k) if abs(taylor[j]) > bound]
    if bad:
        raise WrongBranch(
            "converged solution has nonvanishing Taylor coefficients at "
            "orders %s; not an order-%d extremum" % (bad, 2 * k)
        )
    report = compute_spectrum(result, None, ctx)
    return result, report
