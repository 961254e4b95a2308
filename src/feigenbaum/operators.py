"""The four doubling-operator variants, their scaling constants, the
frozen-scaling and full (Frechet) linearizations, and the closed-form
eigenfunctions built from g and g'.

The variants share one shape,

    F(g)(x) = s_out * c * g(g(s_in * x / c)),

with (s_out, s_in) = (+,+), (+,-), (-,+), (-,-) for T, T2, T3, T4 and
the scaling constant c = 1/g(1) for T/T2 or c = -g(0)/g(g(0)) for
T3/T4.  The full derivative adds the rank-one term coming from the
variation of c with g; the frozen linearization drops it.

Compositions are evaluated pointwise through Clenshaw from the series
of g, g' and h, never by resampling intermediate results, so every
nodal value of the (degree ~ m^2) image polynomial is exact up to
round-off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from mpmath import mp

from .chebyshev import (
    ChebSeries,
    GridFn,
    _eval,
    cheb_nodes,
    grid_to_series,
    series_derivative,
)
from .errors import DivideByZero, InvalidIndex
from .numerics import PrecisionCtx


class Variant(enum.Enum):
    T = "T"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"


class Linearization(enum.Enum):
    FROZEN_ALPHA = "frozen"
    FULL_DERIVATIVE = "full"


@dataclass(frozen=True)
class OperatorSpec:
    variant: Variant
    linearization: Linearization = Linearization.FULL_DERIVATIVE


@dataclass(frozen=True)
class ScalingConstant:
    """The operator's rescaling constant with its defining expression."""

    value: object
    definition: str  # "1/g(1)" or "-g(0)/g(g(0))"


_SIGNS = {
    Variant.T: (1, 1),
    Variant.T2: (1, -1),
    Variant.T3: (-1, 1),
    Variant.T4: (-1, -1),
}


def uses_inverse_g1(variant: Variant) -> bool:
    return variant in (Variant.T, Variant.T2)


def scaling_of(variant: Variant, g: ChebSeries, ctx: PrecisionCtx) -> ScalingConstant:
    """c = 1/g(1) for T/T2, c = -g(0)/g(g(0)) for T3/T4."""
    with ctx.activate():
        if uses_inverse_g1(variant):
            g1 = _eval(g.coeffs, mp.mpf(1))
            if g1 == 0:
                raise DivideByZero("g(1) = 0: scaling 1/g(1) undefined")
            return ScalingConstant(1 / g1, "1/g(1)")
        g0 = _eval(g.coeffs, mp.mpf(0))
        gg0 = _eval(g.coeffs, g0)
        if gg0 == 0:
            raise DivideByZero("g(g(0)) = 0: scaling -g(0)/g(g(0)) undefined")
        return ScalingConstant(-g0 / gg0, "-g(0)/g(g(0))")


def apply_at_points(variant: Variant, g: ChebSeries, points, ctx: PrecisionCtx):
    """Values of the doubling operator at arbitrary points."""
    s_out, s_in = _SIGNS[variant]
    c = scaling_of(variant, g, ctx).value
    with ctx.activate():
        gc = g.coeffs
        out = []
        for x in points:
            y = s_in * x / c
            out.append(s_out * c * _eval(gc, _eval(gc, y)))
        return out


def apply(variant: Variant, g: ChebSeries, n: int, ctx: PrecisionCtx) -> GridFn:
    """The operator image sampled at the n Chebyshev roots."""
    return GridFn(tuple(apply_at_points(variant, g, cheb_nodes(n, ctx), ctx)))


def _scaling_variation(variant, g, gp, h, ctx):
    """Directional derivative of the scaling constant c along h."""
    gc, gpc, hc = g.coeffs, gp.coeffs, h.coeffs
    if uses_inverse_g1(variant):
        g1 = _eval(gc, mp.mpf(1))
        if g1 == 0:
            raise DivideByZero("g(1) = 0")
        c = 1 / g1
        return c, -(c ** 2) * _eval(hc, mp.mpf(1))
    u = _eval(gc, mp.mpf(0))          # g(0)
    w = _eval(gc, u)                  # g(g(0))
    if w == 0:
        raise DivideByZero("g(g(0)) = 0")
    c = -u / w
    h0 = _eval(hc, mp.mpf(0))
    dw = _eval(gpc, u) * h0 + _eval(hc, u)
    return c, -h0 / w + u * dw / w ** 2


def linearized_apply_at(
    spec: OperatorSpec, g: ChebSeries, h: ChebSeries, points, ctx: PrecisionCtx
):
    """Values of the linearized operator applied to h, at given points.

    Frozen: s_out c (g'(g(y)) h(y) + h(g(y))), y = s_in x / c.
    Full:   adds dc * d/dc [s_out c g(g(s_in x / c))], the rank-one
    correction from the variation of the scaling constant.
    """
    s_out, s_in = _SIGNS[spec.variant]
    full = spec.linearization is Linearization.FULL_DERIVATIVE
    with ctx.activate():
        gp = series_derivative(g, ctx)
        c, dc = _scaling_variation(spec.variant, g, gp, h, ctx)
        gc, gpc, hc = g.coeffs, gp.coeffs, h.coeffs
        out = []
        for x in points:
            y = s_in * x / c
            gy = _eval(gc, y)
            val = s_out * c * (_eval(gpc, gy) * _eval(hc, y) + _eval(hc, gy))
            if full:
                dF_dc = s_out * (
                    _eval(gc, gy) - _eval(gpc, gy) * _eval(gpc, y) * (s_in * x / c)
                )
                val += dc * dF_dc
            out.append(val)
        return out


def linearized_apply(
    spec: OperatorSpec, g: ChebSeries, h: ChebSeries, n: int, ctx: PrecisionCtx
) -> GridFn:
    """Linearized operator image of h at the n Chebyshev roots."""
    pts = cheb_nodes(n, ctx)
    return GridFn(tuple(linearized_apply_at(spec, g, h, pts, ctx)))


class EigenfunctionKind(enum.Enum):
    """Closed-form eigenfunction families.

    FULL_POWER   g - x g' - g^k + x^k g'   (full derivative, eigenvalue c^(1-k))
    DILATION     g - x g'                  (tangent of mu -> mu g(x/mu))
    FROZEN_POWER g^k - x^k g'              (frozen linearization, c^(1-k))
    """

    FULL_POWER = "full_power"
    DILATION = "dilation"
    FROZEN_POWER = "frozen_power"


def explicit_eigenfunction(
    kind: EigenfunctionKind, g: ChebSeries, k: int, ctx: PrecisionCtx
) -> ChebSeries:
    """Closed-form eigenfunction sampled on g's working grid.

    For the power families k must be a non-negative integer other than 1
    (k = 1 degenerates: the FULL_POWER form vanishes identically and the
    FROZEN_POWER form coincides with DILATION).
    """
    if kind is not EigenfunctionKind.DILATION:
        if k == 1:
            raise InvalidIndex("k = 1 is excluded for the power families")
        if k < 0:
            raise InvalidIndex("k must be a non-negative integer")
    n = max(len(g.coeffs), 2)
    nodes = cheb_nodes(n, ctx)
    with ctx.activate():
        gp = series_derivative(g, ctx)
        vals = []
        for x in nodes:
            gx = _eval(g.coeffs, x)
            gpx = _eval(gp.coeffs, x)
            if kind is EigenfunctionKind.DILATION:
                vals.append(gx - x * gpx)
            elif kind is EigenfunctionKind.FULL_POWER:
                vals.append(gx - x * gpx - gx ** k + x ** k * gpx)
            else:
                vals.append(gx ** k - x ** k * gpx)
        return grid_to_series(GridFn(tuple(vals)), ctx)


def explicit_eigenvalue(kind: EigenfunctionKind, spec: OperatorSpec, k: int, alpha, ctx):
    """Eigenvalue paired with :func:`explicit_eigenfunction`.

    ``alpha`` is the canonical spatial constant 1/g(1).  Power families
    give alpha**(1-k); the dilation mode gives alpha**2 for the full
    derivative of T/T2 (no solution family there) and 1 everywhere a
    scaling family exists (T3/T4, and every frozen linearization, whose
    dilation mode is the k = 1 power form).
    """
    with ctx.activate():
        alpha = mp.mpf(alpha)
        if kind is EigenfunctionKind.DILATION:
            full = spec.linearization is Linearization.FULL_DERIVATIVE
            if full and spec.variant in (Variant.T, Variant.T2):
                return alpha ** 2
            return mp.mpf(1)
        return alpha ** (1 - k)
