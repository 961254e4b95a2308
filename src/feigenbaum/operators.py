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
round-off.  The collocation matrix of a linearization takes the same
formula once per point, with h(z) replaced by the row of cardinal
values the discretization gives at z.  Those rows, and their
combination into the entries of the matrix, run on integers in
:mod:`feigenbaum.fixed`: every entry is rounded once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .chebyshev import ChebSeries, _eval, _eval_rows, interpolant, series_derivative
from .errors import DivideByZero, InvalidIndex, NoExplicitForm
from .fixed import ROW_GUARD_BITS, combine_rows
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
    """T/T2, scaled by 1/g(1).  The others, scaled by -g(0)/g(g(0)), which
    every mu g(x/mu) shares, carry a one-parameter family of fixed points."""
    return variant in (Variant.T, Variant.T2)


def sign_reversed(variant: Variant) -> bool:
    """T2/T3, with s_out s_in = -1, whose eigenvalues are powers of -alpha
    where those of T/T4 are powers of alpha."""
    s_out, s_in = _SIGNS[variant]
    return s_out * s_in < 0


def scaling_of(variant: Variant, g: ChebSeries, ctx: PrecisionCtx) -> ScalingConstant:
    """c = 1/g(1) for T/T2, c = -g(0)/g(g(0)) for T3/T4."""
    if uses_inverse_g1(variant):
        g1 = _eval(g, ctx.mpf(1))
        if g1 == 0:
            raise DivideByZero("g(1) = 0: scaling 1/g(1) undefined")
        return ScalingConstant(1 / g1, "1/g(1)")
    g0 = _eval(g, ctx.mpf(0))
    gg0 = _eval(g, g0)
    if gg0 == 0:
        raise DivideByZero("g(g(0)) = 0: scaling -g(0)/g(g(0)) undefined")
    return ScalingConstant(-g0 / gg0, "-g(0)/g(g(0))")


def apply_at_points(variant: Variant, g: ChebSeries, points, ctx: PrecisionCtx):
    """Values of the doubling operator at arbitrary points."""
    s_out, s_in = _SIGNS[variant]
    c = scaling_of(variant, g, ctx).value
    out = []
    for x in points:
        y = s_in * x / c
        out.append(s_out * c * _eval(g, _eval(g, y)))
    return out


def _scaling_variation(variant, g, gp, ctx):
    """The scaling constant c and its directional derivative along h as a
    linear functional dc(h) = sum_k beta_k h(z_k): (c, z, beta)."""
    c = scaling_of(variant, g, ctx).value
    if uses_inverse_g1(variant):
        return c, (ctx.mpf(1),), (-(c ** 2),)
    zero = ctx.mpf(0)
    u = _eval(g, zero)          # g(0)
    w = _eval(g, u)             # g(g(0))
    # c = -u/w, and w varies by g'(u) h(0) + h(u)
    return c, (zero, u), (-1 / w + u * _eval(gp, u) / w ** 2, u / w ** 2)


def _linearized_rows(spec, g, points, rows_at, ctx):
    """Values of the linearized operator on several directions h_j at once:
    entry [i][j] is (L h_j)(points[i]), where ``rows_at(zs)`` gives (U, E)
    with E[i][j] 2^-U = h_j(zs[i]), E of integers and U the same for
    every call.

    Frozen: s_out c (g'(g(y)) h(y) + h(g(y))), y = s_in x / c.
    Full:   adds dc(h) * dF/dc, the rank-one correction from the variation
    dc of the scaling constant, with dF/dc = d/dc [s_out c g(g(s_in x / c))]
    = s_out (g(g(y)) - g'(g(y)) g'(y) y).

    Everything that does not depend on h is computed once per point, as
    ``mpf``; the sum over h's values is taken exactly on integers by
    :func:`feigenbaum.fixed.combine_rows`, so each entry is rounded once.
    """
    s_out, s_in = _SIGNS[spec.variant]
    gp = series_derivative(g, ctx)
    c, z, beta = _scaling_variation(spec.variant, g, gp, ctx)
    sc = s_out * c
    ys = [s_in * x / c for x in points]
    gys = [_eval(g, y) for y in ys]
    U, at_y = rows_at(ys)
    at_gy = rows_at(gys)[1]
    full = spec.linearization is Linearization.FULL_DERIVATIVE
    at_z = rows_at(z)[1] if full else ()
    terms = []
    for y, gy, hy, hgy in zip(ys, gys, at_y, at_gy):
        gpgy = _eval(gp, gy)
        row = [((sc, gpgy), hy), ((sc,), hgy)]
        if full:
            dF_dc = s_out * (_eval(g, gy) - gpgy * _eval(gp, y) * y)
            # dc(h) dF/dc = sum_k (beta_k dF/dc) h(z_k)
            row += [((b, dF_dc), hz) for b, hz in zip(beta, at_z)]
        terms.append(row)
    return combine_rows(terms, U, ctx.mp)


def linearized_apply_at(
    spec: OperatorSpec, g: ChebSeries, h: ChebSeries, points, ctx: PrecisionCtx
):
    """Values of the linearized operator applied to h, at given points
    (see :func:`_linearized_rows` for the formula); complex for a complex h."""
    U = ctx.prec_bits + ROW_GUARD_BITS
    rows = _linearized_rows(spec, g, points, lambda zs: _eval_rows(h, zs, U), ctx)
    return [row[0] if len(row) == 1 else ctx.mp.mpc(*row) for row in rows]


def linearization_matrix(spec: OperatorSpec, g: ChebSeries, basis, ctx: PrecisionCtx):
    """Collocation matrix of the linearization at g in a discretization:
    entry [i][j] is (L cardinal_j)(node_i), with the cardinal values coming
    from :meth:`Discretization.cardinal_ints`."""
    return _linearized_rows(spec, g, basis.nodes,
                            lambda zs: basis.cardinal_ints(zs, ctx), ctx)


def _explicit_form(spec: OperatorSpec, k: int) -> str:
    """Which closed form (spec, k) indexes: "dilation" for k = -1, else
    "frozen" or "full" after the linearization.

    Raises :class:`InvalidIndex` for k = 1 (the full form vanishes
    identically and the frozen one is the dilation mode) and for k < -1,
    and :class:`NoExplicitForm` for even k under the sign-reversed
    variants T2/T3, where no closed form is known.
    """
    if k == -1:
        return "dilation"
    if k == 1 or k < -1:
        raise InvalidIndex("k must be -1 (the dilation mode) or a non-negative "
                           "integer other than 1")
    if sign_reversed(spec.variant) and k % 2 == 0:
        raise NoExplicitForm(
            "no closed-form eigenfunction for %s with even k" % spec.variant.value
        )
    return "frozen" if spec.linearization is Linearization.FROZEN_ALPHA else "full"


def explicit_eigenfunction(
    spec: OperatorSpec, g: ChebSeries, k: int, ctx: PrecisionCtx
) -> ChebSeries:
    """Closed-form eigenfunction indexed by k, sampled on g's working grid:

    k = -1   g - x g'                  (dilation mode, tangent of mu -> mu g(x/mu))
    frozen   g^k - x^k g'
    full     g - x g' - g^k + x^k g'

    See :func:`_explicit_form` for the (spec, k) that have none.
    """
    form = _explicit_form(spec, k)
    gp = series_derivative(g, ctx)

    def h(x):
        gx, gpx = _eval(g, x), _eval(gp, x)
        if form == "dilation":
            return gx - x * gpx
        if form == "full":
            return gx - x * gpx - gx ** k + x ** k * gpx
        return gx ** k - x ** k * gpx

    return interpolant(h, max(len(g.coeffs), 2), ctx)
