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

from dataclasses import dataclass
from itertools import permutations

from .bases import chebgrid
from .chebyshev import ChebSeries, _eval, interpolant, series_to_monomial
from .errors import WrongBranch
from .numerics import PrecisionCtx, vec_norm_inf
from .operators import Linearization, OperatorSpec, Variant, scaling_of, uses_inverse_g1
from .solver import JacobianMode, NewtonConfig, default_seed, newton_solve, residual
from .spectrum import spectrum_at, verify_explicit


def family_member(g: ChebSeries, mu, ctx: PrecisionCtx) -> ChebSeries:
    """Coefficients of mu * g(x/mu) on g's working grid.

    Raises ValueError for a mu that is not finite, and for |mu| < 1, which
    would evaluate g outside [-1, 1] (polynomial continuation), mu = 0
    included.
    """
    mu = ctx.mpf(mu)
    if not ctx.mp.isfinite(mu):
        raise ValueError("mu must be finite")
    if abs(mu) < 1:
        raise ValueError("|mu| < 1 extrapolates g outside [-1, 1]")
    return interpolant(lambda x: mu * _eval(g, x / mu), max(len(g.coeffs), 2), ctx)


@dataclass(frozen=True)
class FamilyComparison:
    """Spectra along a scaling family plus the invariance diagnostics."""

    variant: Variant
    mus: tuple               # the family parameters, in the context
    reports: tuple           # SpectrumReport per mu
    scalings: tuple          # operator scaling constant at each member
    fixed_point_residuals: tuple
    unit_eigenfunction_residuals: tuple  # || dT4 h - h || / ||h||, h = g_mu - x g_mu'
    max_pairwise_deviation: object       # leading eigenvalue to nearest of another member
    compared: int

    def to_json_dict(self, ctx: PrecisionCtx) -> dict:
        return {
            "operator": self.variant.value,
            "mu": [ctx.to_str(mu) for mu in self.mus],
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
                          ctx: PrecisionCtx, n: int = None,
                          compared: int = 8) -> FamilyComparison:
    """Spectra of the full derivative at each g_mu, with pairwise matching.

    Verifies that each member is a genuine fixed point of the family
    operator, that the spectrum is constant along the family, and that
    the eigenvalue-1 eigenfunction is the family tangent g_mu - x g_mu'.
    The spectra are compared by matching each of the leading ``compared``
    eigenvalues of every member to the nearest eigenvalue of each other
    member, so a complex pair in one member shifts no later row.
    The spectra and fixed-point residuals are taken on the n-point grid;
    the tangent residual, ``verify_explicit``'s dilation mode with
    lambda = 1, on g_mu's own grid of len(g.coeffs) points, which is n
    whenever g was solved at n.  Each mu must be finite with |mu| at
    least 1 (see :func:`family_member`).
    """
    if uses_inverse_g1(variant):
        raise ValueError("scaling families pair with the T3/T4 forms")
    spec = OperatorSpec(variant, Linearization.FULL_DERIVATIVE)
    n = n if n else max(len(g.coeffs), 8)
    grid = chebgrid(n, ctx)

    mus = tuple(ctx.mpf(mu) for mu in mu_list)
    reports, scalings, residuals, unit_res = [], [], [], []
    for mu in mus:
        gm = family_member(g, mu, ctx)
        scalings.append(scaling_of(variant, gm, ctx).value)
        residuals.append(vec_norm_inf(residual(variant, gm, n, ctx).values))
        reports.append(spectrum_at(gm, spec, ctx, grid))
        unit_res.append(verify_explicit(gm, spec, -1, 1, ctx))
    dev = max((min(abs(lam - nu) for nu in rb.eigenvalues)
               for ra, rb in permutations(reports, 2)
               for lam in ra.eigenvalues[:compared]), default=ctx.mpf(0))
    return FamilyComparison(
        variant=variant,
        mus=mus,
        reports=tuple(reports),
        scalings=tuple(scalings),
        fixed_point_residuals=tuple(residuals),
        unit_eigenfunction_residuals=tuple(unit_res),
        max_pairwise_deviation=dev,
        compared=compared,
    )


def solve_extremum_order(k: int, n: int, ctx: PrecisionCtx,
                         config: NewtonConfig = None, seed: ChebSeries = None):
    """Fixed point with extremum order 2k on the Chebyshev grid of size n.

    ``config`` defaults to the exact Jacobian (finite differences sit
    badly with the flat extremum of k >= 2).  Checks the converged
    branch: Taylor coefficients of x^1 .. x^(2k-1) must vanish to
    10**(-D/4), else :class:`WrongBranch`.  (The interpolant's truncation
    tail amplified by ~n^3 lands near 1e-20 in those coefficients at
    n = 70, so a 10**(-D/2) cut would reject genuine branch members; the
    wrong branch shows order-one coefficients, 16 orders away.)
    """
    config = config or NewtonConfig(jacobian_mode=JacobianMode.EXACT)
    seed = seed if seed is not None else default_seed(k, ctx)
    spec = OperatorSpec(Variant.T, Linearization.FULL_DERIVATIVE)
    result = newton_solve(spec, None, seed, config, ctx, n=n)

    taylor = series_to_monomial(result.solution_series, ctx)
    bound = ctx.ten_pow(-(ctx.decimal_digits // 4))
    bad = [j for j in range(1, 2 * k) if abs(taylor[j]) > bound]
    if bad:
        raise WrongBranch(
            "converged solution has nonvanishing Taylor coefficients at "
            "orders %s; not an order-%d extremum" % (bad, 2 * k)
        )
    return result
