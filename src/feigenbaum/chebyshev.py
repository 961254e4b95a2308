"""Chebyshev function representation: nodes, grid/series transforms,
Clenshaw evaluation, differentiation, and coefficient-decay diagnostics.

A function is carried either as its values at the n Chebyshev roots
x_i = cos((2i-1) pi / 2n) (:class:`GridFn`) or as coefficients of

    f(x) = a_0/2 + sum_{k>=1} a_k T_k(x)

(:class:`ChebSeries`).  The transform between the two is the direct
O(n^2) discrete cosine sum: at extended precision and n <= 128 this is
both exact enough and fast enough, and it avoids FFT bookkeeping.

Every series value comes from one Clenshaw kernel that runs on Python
integers, not on ``mpf`` values (mpmath's pure-Python backend spends
most of an ``mpf`` operation normalizing the result).  With p the
precision of the coefficients' context and G = :data:`KERNEL_GUARD_BITS`:

* representation: the coefficients become integers C_k = floor(a_k 2^S)
  and the point becomes X = floor(x 2^(p+G)), both through mpmath's own
  ``libmp.to_fixed``; the recurrence is
  b_k = C_k + ((2 X b_(k+1)) >> (p+G)) - b_(k+2), and the value
  (b_0 - b_2) 2^(-S-1) is rounded once, to p bits, by
  ``libmp.from_man_exp`` into an ``mpf`` of the coefficients' context;
* scale: S = p + G - e with 2^e > max|a_k| >= 2^(e-1), so the largest
  coefficient keeps p + G bits whatever its magnitude, and a tiny series
  keeps its relative accuracy;
* guard bits: each shift and each coefficient truncates by less than
  one unit 2^-S <= 2^(1-p-G) max|a_k|, and the point by less than
  2^-(p+G); the recurrence carries a unit made at step k into the value
  with a weight of at most (k+1) rho^k, rho = |x| + sqrt(x^2 - 1) for
  |x| > 1, else 1, and |f'(x)| <= m^2 rho^m sum|a_k|.  For m
  coefficients the kernel's own error is therefore below (3m + 2) 2^-G
  times the m 2^-p sum|a_k| rho^m that an ``mpf`` recurrence at p bits
  may lose (a 0.004 part of it at m = 80); what is left is the final
  rounding to p bits;
* complex coefficients: the real and the imaginary parts are two real
  series, each with its own scale, so a complex value is bit for bit the
  pair of real values.

A :class:`ChebSeries` converts its coefficients once, on its first
evaluation, and keeps the integer form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import mpmath
from mpmath.libmp import from_man_exp, fzero, to_fixed

from .numerics import PrecisionCtx, ls_slope


@dataclass(frozen=True)
class GridFn:
    """Values of a function at the n Chebyshev roots (n = len(values))."""

    values: tuple

    @property
    def n(self) -> int:
        return len(self.values)

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValueError("GridFn needs at least two values")


@dataclass(frozen=True)
class ChebSeries:
    """Coefficients a_0 .. a_{m-1}; f = a_0/2 + sum_{k>=1} a_k T_k."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("ChebSeries needs at least one coefficient")

    def __len__(self):
        return len(self.coeffs)

    @cached_property
    def _fixed(self):
        """Integer form of the coefficients for the Clenshaw kernel."""
        return _FixedSeries(self.coeffs)


@dataclass(frozen=True)
class DecayReport:
    """Exponential-decay diagnostic of a coefficient sequence.

    ``log_inv_magnitudes[k]`` is log10(1/|a_k|), ``rate`` the
    least-squares slope of that sequence over k >= 1, and
    ``tail_magnitude`` the larger of the last two |a_k| (for functions of
    pure parity the very last coefficient vanishes identically, so the
    pair captures the meaningful tail).  healthy <=> rate > 0 and
    tail <= 10**(-D/3).  In the logarithms |a_k| is clamped from below at
    the absolute resolution 10^-D * max|a_j| (10^-2D for the zero series):
    coefficients under it are round-off, such as the odd ones of an even
    function, and must not steer the fit.
    """

    log_inv_magnitudes: tuple
    rate: object
    tail_magnitude: object
    healthy: bool


@lru_cache(maxsize=64)
def _tables(n: int, prec_bits: int):
    """Nodes x_i, cosine table cos(k theta_i) and barycentric weights
    (-1)^i sin(theta_i) at the given precision.

    Every context of that precision shares the entries, so they are made
    in a context private to this cache."""
    private = mpmath.MPContext()
    private.prec = prec_bits
    thetas = [(2 * i - 1) * private.pi / (2 * n) for i in range(1, n + 1)]
    nodes = tuple(private.cos(t) for t in thetas)
    cosk = tuple(
        tuple(private.cos(k * t) for t in thetas) for k in range(n)
    )
    weights = tuple((-1) ** i * private.sin(t) for i, t in enumerate(thetas, 1))
    return nodes, cosk, weights


def cheb_nodes(n: int, ctx: PrecisionCtx):
    """The n Chebyshev roots cos((2i-1) pi / 2n), decreasing in i."""
    if n < 2:
        raise ValueError("need n >= 2 nodes")
    return _tables(n, ctx.prec_bits)[0]


def barycentric_rows(points, n: int, ctx: PrecisionCtx):
    """Values l_j(z) of the n Lagrange cardinals of the Chebyshev roots at
    each point z, one row per point, from the second (true) barycentric
    formula l_j(z) = (w_j/(z - x_j)) / sum_k w_k/(z - x_k) (Berrut &
    Trefethen, SIAM Rev. 46 (2004) 501-517).  O(n) per point, and
    forward stable near the nodes (Higham, IMA J. Numer. Anal. 24 (2004)
    547-556); a point equal to a node gives that node's unit row."""
    nodes, _, weights = _tables(n, ctx.prec_bits)
    weights = [ctx.mpf(w) for w in weights]
    one, zero = ctx.mpf(1), ctx.mpf(0)
    rows = []
    for z in points:
        try:
            terms = [w / (z - x) for w, x in zip(weights, nodes)]
        except ZeroDivisionError:
            rows.append([one if z == x else zero for x in nodes])
            continue
        total = ctx.mp.fsum(terms)
        rows.append([t / total for t in terms])
    return rows


# Bits the Clenshaw kernel carries beyond the coefficients' precision.
KERNEL_GUARD_BITS = 16


def _finite(raw):
    if raw[3] < 0:
        raise ValueError("Clenshaw needs finite coefficients and points")
    return raw


def _raw(v, mpx):
    """mpmath's raw (sign, mantissa, exponent, bits) tuple of a finite real."""
    return _finite(v._mpf_ if hasattr(v, "_mpf_") else mpx.convert(v)._mpf_)


def _fixed_part(raws, bits):
    """(S, C_0, (C_(m-1), ..., C_1)) of one real coefficient sequence,
    with C_k = floor(a_k 2^S) and S = bits minus the exponent of the
    largest |a_k|."""
    top = max((exp + bc for _, man, exp, bc in raws if man), default=0)
    fixed = [to_fixed(r, bits - top) for r in raws]
    return bits - top, fixed[0], tuple(reversed(fixed[1:]))


def _clenshaw(part, X, shift, prec):
    """Raw value at p bits of one real part at the integer point X."""
    S, c0, rest = part
    b1 = b2 = 0
    for c in rest:
        b1, b2 = c + ((X * b1) >> shift) - b2, b1
    return from_man_exp(c0 + ((X * b1) >> shift) - 2 * b2, -S - 1, prec, "n")


class _FixedSeries:
    """Integer form of a real or complex coefficient sequence, evaluated
    by the kernel of the module docstring at the precision of the context
    of the first coefficient, an mpmath number."""

    def __init__(self, coeffs):
        mpx = coeffs[0].context
        self.mpx, self.prec = mpx, mpx.prec
        self.point_bits = self.prec + KERNEL_GUARD_BITS
        bits = self.point_bits
        if any(hasattr(c, "_mpc_") for c in coeffs):
            pairs = [c._mpc_ if hasattr(c, "_mpc_") else (_raw(c, mpx), fzero)
                     for c in coeffs]
            self.parts = tuple(_fixed_part([_finite(pair[i]) for pair in pairs], bits)
                               for i in (0, 1))
        else:
            self.parts = (_fixed_part([_raw(c, mpx) for c in coeffs], bits),)

    def fix(self, x):
        """The point x as the integer floor(x 2^(p+G))."""
        if isinstance(x, int):
            return x << self.point_bits
        return to_fixed(_raw(x, self.mpx), self.point_bits)

    def value(self, X):
        """Value at the point whose integer form is X."""
        shift, prec = self.point_bits - 1, self.prec
        if len(self.parts) == 1:
            return self.mpx.make_mpf(_clenshaw(self.parts[0], X, shift, prec))
        return self.mpx.make_mpc(tuple(_clenshaw(p, X, shift, prec) for p in self.parts))


def _eval(series: ChebSeries, x):
    """Clenshaw value at x (an mpf or an int) of a series of real or
    complex coefficients, whose integer form is made once and kept; see
    the module docstring for the kernel."""
    fixed = series._fixed
    return fixed.value(fixed.fix(x))


def _eval_rows(series, points):
    """[[s(z) for s in series] for z in points] for series of one
    precision: each point is converted to integer form once, and each
    series once in its life."""
    fixed = [s._fixed for s in series]
    fix = fixed[0].fix
    return [[f.value(X) for f in fixed] for X in map(fix, points)]


def eval_series(s: ChebSeries, x, ctx: PrecisionCtx):
    """Value of the series at x (polynomial continuation outside [-1,1])."""
    return _eval(s, ctx.mpf(x))


def grid_to_series(f: GridFn, ctx: PrecisionCtx) -> ChebSeries:
    """Discrete Fourier-Chebyshev transform: a_k = (2/n) sum_i f_i T_k(x_i)."""
    n = f.n
    cosk = _tables(n, ctx.prec_bits)[1]
    two_over_n = ctx.mpf(2) / n
    vals = f.values
    coeffs = tuple(
        two_over_n * ctx.mp.fsum(vals[i] * cosk[k][i] for i in range(n))
        for k in range(n)
    )
    return ChebSeries(coeffs)


def interpolant(f, n: int, ctx: PrecisionCtx) -> ChebSeries:
    """Series of the polynomial through f at the n Chebyshev roots: the
    :func:`grid_to_series` of f sampled there."""
    return grid_to_series(GridFn(tuple(f(x) for x in cheb_nodes(n, ctx))), ctx)


def series_to_grid(s: ChebSeries, n: int, ctx: PrecisionCtx) -> GridFn:
    """Values of the series at the n Chebyshev roots (n >= len(s))."""
    if n < len(s):
        raise ValueError("grid must be at least as fine as the series")
    nodes = cheb_nodes(n, ctx)
    return GridFn(tuple(_eval(s, x) for x in nodes))


def series_derivative(s: ChebSeries, ctx: PrecisionCtx) -> ChebSeries:
    """Coefficients of f' via the backward recurrence c'_{k-1} = c'_{k+1} + 2k c_k."""
    m = len(s.coeffs)
    if m == 1:
        return ChebSeries((ctx.mpf(0),))
    # the recurrence is self-consistent in the halved-a0 convention:
    # c0 never enters (k >= 1) and d0 comes out already halved
    d = [ctx.mpf(0)] * (m + 1)
    for k in range(m - 1, 0, -1):
        d[k - 1] = d[k + 1] + 2 * k * s.coeffs[k]
    out = d[: m - 1]
    return ChebSeries(tuple(out))


def decay_report(s: ChebSeries, ctx: PrecisionCtx) -> DecayReport:
    """Exponential-decay diagnostic; see :class:`DecayReport`."""
    m = len(s.coeffs)
    if m < 3:
        raise ValueError("decay diagnostics need at least 3 coefficients")
    D = ctx.decimal_digits
    floor = ctx.ten_pow(-D) * max(abs(c) for c in s.coeffs) or ctx.ten_pow(-2 * D)
    mags = tuple(
        ctx.mp.log10(1 / max(abs(c), floor)) for c in s.coeffs
    )
    rate = ls_slope(range(1, m), mags[1:], ctx.mp)
    tail = max(abs(s.coeffs[-1]), abs(s.coeffs[-2]))
    healthy = bool(rate > 0 and tail <= ctx.mpf(10) ** (-ctx.mpf(D) / 3))
    return DecayReport(mags, rate, tail, healthy)


# ----------------------------------------------------------------------
# Monomial (Taylor) conversions, used by the alternative bases, the
# scaling family, and reporting.


@lru_cache(maxsize=256)
def _cheb_monomial_coeffs(k: int):
    """Integer monomial coefficients of T_k, low power first."""
    if k == 0:
        return (1,)
    if k == 1:
        return (0, 1)
    prev2, prev1 = (1,), (0, 1)
    for _ in range(2, k + 1):
        cur = [0] + [2 * c for c in prev1]
        for j, c in enumerate(prev2):
            cur[j] -= c
        prev2, prev1 = prev1, tuple(cur)
    return prev1


def series_to_monomial(s: ChebSeries, ctx: PrecisionCtx):
    """Taylor coefficients (low power first) of the series polynomial."""
    m = len(s.coeffs)
    out = [ctx.mpf(0)] * m
    out[0] = s.coeffs[0] / 2
    for k in range(1, m):
        ck = s.coeffs[k]
        if ck == 0:
            continue
        for j, t in enumerate(_cheb_monomial_coeffs(k)):
            if t:
                out[j] += ck * t
    return tuple(out)


def monomial_to_series(coeffs, ctx: PrecisionCtx) -> ChebSeries:
    """Chebyshev series of a polynomial given by Taylor coefficients."""
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()

    def horner(x):
        acc = ctx.mpf(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    return interpolant(horner, max(len(coeffs), 2), ctx)
