"""Chebyshev function representation: nodes, grid/series transforms,
Clenshaw evaluation, differentiation, and coefficient-decay diagnostics.

A function is carried either as its values at the n Chebyshev roots
x_i = cos((2i-1) pi / 2n) (:class:`GridFn`) or as coefficients of

    f(x) = a_0/2 + sum_{k>=1} a_k T_k(x)

(:class:`ChebSeries`).  The transform between the two is the direct
O(n^2) discrete cosine sum: at extended precision and n <= 128 this is
both exact enough and fast enough, and it avoids FFT bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp

from .numerics import PrecisionCtx, vec_norm_inf


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


@dataclass(frozen=True)
class DecayReport:
    """Exponential-decay diagnostic of a coefficient sequence.

    ``log_inv_magnitudes[k]`` is log10(1/|a_k|) (clamped at 2D digits),
    ``rate`` the least-squares slope of that sequence over k >= 1, and
    ``tail_magnitude`` the larger of the last two |a_k| (for functions of
    pure parity the very last coefficient vanishes identically, so the
    pair captures the meaningful tail).  healthy <=> rate > 0 and
    tail <= 10**(-D/3).
    """

    log_inv_magnitudes: tuple
    rate: object
    tail_magnitude: object
    healthy: bool


@lru_cache(maxsize=64)
def _tables(n: int, prec_bits: int):
    """Nodes x_i and cosine table cos(k theta_i) at the given precision."""
    with mp.workprec(prec_bits):
        thetas = [(2 * i - 1) * mp.pi / (2 * n) for i in range(1, n + 1)]
        nodes = tuple(mp.cos(t) for t in thetas)
        cosk = tuple(
            tuple(mp.cos(k * t) for t in thetas) for k in range(n)
        )
    return nodes, cosk


def cheb_nodes(n: int, ctx: PrecisionCtx):
    """The n Chebyshev roots cos((2i-1) pi / 2n), decreasing in i."""
    if n < 2:
        raise ValueError("need n >= 2 nodes")
    return _tables(n, ctx.prec_bits)[0]


def _eval(coeffs, x):
    """Clenshaw recurrence over real or complex coefficients; caller
    holds the precision context."""
    m = len(coeffs)
    if m == 1:
        return coeffs[0] / 2
    b1 = b2 = mp.mpf(0)
    x2 = 2 * x
    for k in range(m - 1, 0, -1):
        b1, b2 = coeffs[k] + x2 * b1 - b2, b1
    return coeffs[0] / 2 + x * b1 - b2


def eval_series(s: ChebSeries, x, ctx: PrecisionCtx):
    """Value of the series at x (polynomial continuation outside [-1,1])."""
    with ctx.activate():
        return _eval(s.coeffs, mp.mpf(x))


def grid_to_series(f: GridFn, ctx: PrecisionCtx) -> ChebSeries:
    """Discrete Fourier-Chebyshev transform: a_k = (2/n) sum_i f_i T_k(x_i)."""
    n = f.n
    _, cosk = _tables(n, ctx.prec_bits)
    with ctx.activate():
        two_over_n = mp.mpf(2) / n
        vals = f.values
        coeffs = tuple(
            two_over_n * mp.fsum(vals[i] * cosk[k][i] for i in range(n))
            for k in range(n)
        )
    return ChebSeries(coeffs)


def series_to_grid(s: ChebSeries, n: int, ctx: PrecisionCtx) -> GridFn:
    """Values of the series at the n Chebyshev roots (n >= len(s))."""
    if n < len(s):
        raise ValueError("grid must be at least as fine as the series")
    nodes = cheb_nodes(n, ctx)
    with ctx.activate():
        return GridFn(tuple(_eval(s.coeffs, x) for x in nodes))


def series_derivative(s: ChebSeries, ctx: PrecisionCtx) -> ChebSeries:
    """Coefficients of f' via the backward recurrence c'_{k-1} = c'_{k+1} + 2k c_k."""
    m = len(s.coeffs)
    with ctx.activate():
        if m == 1:
            return ChebSeries((mp.mpf(0),))
        # the recurrence is self-consistent in the halved-a0 convention:
        # c0 never enters (k >= 1) and d0 comes out already halved
        d = [mp.mpf(0)] * (m + 1)
        for k in range(m - 1, 0, -1):
            d[k - 1] = d[k + 1] + 2 * k * s.coeffs[k]
        out = d[: m - 1]
    return ChebSeries(tuple(out))


def decay_report(s: ChebSeries, ctx: PrecisionCtx) -> DecayReport:
    """Exponential-decay diagnostic; see :class:`DecayReport`."""
    m = len(s.coeffs)
    if m < 8:
        raise ValueError("decay diagnostics need at least 8 coefficients")
    D = ctx.decimal_digits
    with ctx.activate():
        floor = ctx.ten_pow(-2 * D)
        mags = tuple(
            mp.log10(1 / max(abs(c), floor)) for c in s.coeffs
        )
        # least-squares slope of log10(1/|a_k|) against k, k >= 1
        ks = list(range(1, m))
        ys = mags[1:]
        kbar = mp.fsum(ks) / len(ks)
        ybar = mp.fsum(ys) / len(ys)
        num = mp.fsum((k - kbar) * (y - ybar) for k, y in zip(ks, ys))
        den = mp.fsum((k - kbar) ** 2 for k in ks)
        rate = num / den
        tail = max(abs(s.coeffs[-1]), abs(s.coeffs[-2]))
        healthy = bool(rate > 0 and tail <= mp.mpf(10) ** (-mp.mpf(D) / 3))
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
    with ctx.activate():
        out = [mp.mpf(0)] * m
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
    n = max(len(coeffs), 2)
    nodes = cheb_nodes(n, ctx)
    with ctx.activate():
        vals = []
        for x in nodes:
            acc = mp.mpf(0)
            for c in reversed(coeffs):
                acc = acc * x + c
            vals.append(acc)
        return grid_to_series(GridFn(tuple(vals)), ctx)


def sup_distance(a: ChebSeries, b: ChebSeries, ctx: PrecisionCtx, samples: int = 201):
    """Max |a-b| over a uniform sample of [-1, 1]."""
    with ctx.activate():
        pts = [mp.mpf(-1) + mp.mpf(2) * i / (samples - 1) for i in range(samples)]
        return vec_norm_inf([
            _eval(a.coeffs, x) - _eval(b.coeffs, x) for x in pts
        ])
