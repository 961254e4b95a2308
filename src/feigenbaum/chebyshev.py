"""Chebyshev function representation: nodes, grid/series transforms,
Clenshaw evaluation, differentiation, and coefficient-decay diagnostics.

A function is carried either as its values at the n Chebyshev roots
x_i = cos((2i-1) pi / 2n) (:class:`GridFn`) or as coefficients of

    f(x) = a_0/2 + sum_{k>=1} a_k T_k(x)

(:class:`ChebSeries`).  Values go to a series as a sum of cardinals,
on the grid l_j with coefficients (2/n) cos(k theta_j), the discrete
cosine transform: :func:`_cardinal_sum` adds their integer coefficients
at one unit, each coefficient exactly, and rounds it once (the kernel of
:mod:`feigenbaum.fixed`).  The grid's cardinals and their integer form
are made once per node count and precision.

Every series value comes from one Clenshaw kernel that runs on Python
integers, not on ``mpf`` values: that of :mod:`feigenbaum.fixed`, whose
docstring gives its scaling and error.

A :class:`ChebSeries` converts its coefficients once, on its first
evaluation, and keeps the integer form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import mpmath

from .fixed import (ROW_GUARD_BITS, BarycentricCardinals, _FixedSeries, combine_rows,
                    fixed_ints, mpf_to_fraction, round_fraction)
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

    @cached_property
    def _ints(self):
        """(U, [floor(a_k 2^U)]) of real coefficients at the unit of the
        linearization rows, U = p + ``ROW_GUARD_BITS`` for the precision p
        of their context: the form a cardinal is summed in."""
        U = self.coeffs[0].context.prec + ROW_GUARD_BITS
        return U, fixed_ints(self.coeffs, U)


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
    """At the given precision: the nodes x_i; the grid's cardinals, with
    coefficients (2/n) cos(k theta_j), their integer form made; the integer
    kernel of their values (:class:`feigenbaum.fixed.BarycentricCardinals`, the
    second barycentric formula of Berrut & Trefethen, SIAM Rev. 46 (2004)
    501-517), weights (-1)^i sin(theta_i); the even half's cardinals
    l_j + l_(n-1-j), the grid's doubled on even k and zero on odd k; and
    the condition estimate (n/2) ||C||_inf ||C^T||_inf of the cardinals'
    coefficient matrix C, from the integers and rounded once.

    Every context of that precision shares the entries, so they are made
    in a context private to this cache."""
    private = mpmath.MPContext()
    private.prec = prec_bits
    thetas = [(2 * i - 1) * private.pi / (2 * n) for i in range(1, n + 1)]
    nodes = tuple(private.cos(t) for t in thetas)
    two_over_n = private.mpf(2) / n
    cards = tuple(ChebSeries(tuple(two_over_n * private.cos(k * t) for k in range(n)))
                  for t in thetas)
    even = tuple(c if 2 * j + 1 == n else ChebSeries(tuple(
        private.zero if k % 2 else 2 * a for k, a in enumerate(c.coeffs)))
        for j, c in enumerate(cards[:n - n // 2]))
    weights = [(-1) ** i * private.sin(t) for i, t in enumerate(thetas, 1)]
    U, ints = cards[0]._ints[0], [c._ints[1] for c in cards]
    row_sum, col_sum = (max(sum(map(abs, r)) for r in m) for m in (ints, zip(*ints)))
    cond = round_fraction(n * row_sum * col_sum, 1 << (2 * U + 1), private)
    kernel = BarycentricCardinals(nodes, weights, prec_bits + ROW_GUARD_BITS)
    return nodes, cards, kernel, even, cond


def cheb_nodes(n: int, ctx: PrecisionCtx):
    """The n Chebyshev roots cos((2i-1) pi / 2n), decreasing in i."""
    if n < 2:
        raise ValueError("need n >= 2 nodes")
    return _tables(n, ctx.prec_bits)[0]


def _eval(series: ChebSeries, x):
    """Clenshaw value at x (an mpf or an int) of a series of real or
    complex coefficients, whose integer form is made once and kept; see
    :mod:`feigenbaum.fixed` for the kernel."""
    fixed = series._fixed
    return fixed.value(fixed.fix(x))


def _eval_rows(series: ChebSeries, points, U):
    """(unit, rows) with rows[i] the exact Clenshaw kernel values of the
    series at points[i] (a complex series gives its real and then its
    imaginary part) as integers at the unit 2^-unit, unit = max(U, the
    series' own unit), so that no bit of the kernel's values is lost."""
    fixed = series._fixed
    unit = max(U, fixed.unit)
    return unit, [fixed.ints(X, unit) for X in map(fixed.fix, points)]


def eval_series(s: ChebSeries, x, ctx: PrecisionCtx):
    """Value of the series at x (polynomial continuation outside [-1,1])."""
    return _eval(s, ctx.mpf(x))


def _cardinal_sum(cards, weights, ctx: PrecisionCtx, base=None) -> ChebSeries:
    """sum_j weights[j] cards[j], plus the series ``base`` if given, for
    real cardinals of one precision: each coefficient summed exactly over
    their integer forms and rounded once to the context precision by
    :func:`feigenbaum.fixed.combine_rows`, a complex weight's real and
    imaginary parts apart, the weights taken exactly in the context."""
    ws = [ctx.mp.convert(w) for w in weights]
    parts = [[w.real for w in ws]] + ([[w.imag for w in ws]] if any(
        isinstance(w, ctx.mp.mpc) for w in ws) else [])
    terms = [[((w,), c._ints[1]) for w, c in zip(part, cards)] for part in parts]
    if base is not None:
        terms[0].append(((1,), base._ints[1]))
    out = combine_rows(terms, cards[0]._ints[0], ctx.mp)
    return ChebSeries(tuple(out[0] if len(out) == 1 else map(ctx.mp.mpc, *out)))


def grid_to_series(f: GridFn, ctx: PrecisionCtx) -> ChebSeries:
    """Discrete Fourier-Chebyshev transform a_k = (2/n) sum_i f_i T_k(x_i),
    the values' sum of the grid's cardinals."""
    return _cardinal_sum(_tables(f.n, ctx.prec_bits)[1], f.values, ctx)


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
    """Chebyshev series of the polynomial sum_p c_p x^p given by its
    Taylor coefficients (Fractions, integers, or reals taken at their
    exact binary value), trailing zeros dropped and at least two terms:

        a_j = sum_p c_p 2^(1-p) C(p, (p-j)/2),  p >= j, p - j even,

    the binomial expansion of x^p in the halved-a_0 convention, computed
    exactly over one common denominator and rounded once to the context
    precision."""
    qs = [mpf_to_fraction(c) for c in coeffs]
    while len(qs) > 1 and qs[-1] == 0:
        qs.pop()
    top = len(qs) - 1
    den = math.lcm(*(q.denominator for q in qs))
    # c_p 2^(1-p) times den 2^top, an integer
    nums = [q.numerator * (den // q.denominator) << (top + 1 - p) for p, q in enumerate(qs)]
    out = [round_fraction(sum(nums[p] * math.comb(p, (p - j) // 2)
                              for p in range(j, top + 1, 2)), den << top, ctx.mp)
           for j in range(top + 1)]
    return ChebSeries(tuple(out + [ctx.mpf(0)] * (2 - len(out))))
