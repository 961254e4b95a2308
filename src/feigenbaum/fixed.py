"""Fixed-point kernels on Python integers, and the one home of mpmath's raw
representation.

mpmath's pure-Python backend spends most of an ``mpf`` operation
normalizing its result, so the package's hot loops run on Python integers
at a fixed binary point instead.  Only their inputs and results pass
through mpmath's raw (sign, mantissa, exponent, bit count) tuples and
``libmp``'s ``to_fixed`` and ``from_man_exp``, a layout private to mpmath
1.3; no other module of the package reads it.  This module imports
nothing from the package.

Clenshaw kernel.  With p the precision of the coefficients' context and
G = :data:`KERNEL_GUARD_BITS`:

* representation: the coefficients become integers C_k = floor(a_k 2^S)
  and the point becomes X = floor(x 2^(p+G)), both through ``to_fixed``;
  the recurrence is b_k = C_k + ((2 X b_(k+1)) >> (p+G)) - b_(k+2), and the
  value (b_0 - b_2) 2^(-S-1) is rounded once, to p bits, by
  ``from_man_exp`` into an ``mpf`` of the coefficients' context;
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

Schur kernel: Householder reflectors, the Hessenberg reduction and the
Francis double-shift sweep on integer rows at a width of F bits; the
eigensolver in :mod:`feigenbaum.numerics` drives them and states their
width, scaling and error.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from mpmath.libmp import from_man_exp, fzero, to_fixed

# Bits the Clenshaw kernel carries beyond the coefficients' precision.
KERNEL_GUARD_BITS = 16


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpf (binary float), as a Fraction."""
    sign, man, exp, _ = x._mpf_
    man = -man if sign else man
    if exp >= 0:
        return Fraction(man * (1 << exp))
    return Fraction(man, 1 << (-exp))


def _finite(raw):
    if raw[3] < 0:
        raise ValueError("fixed-point kernels need finite values")
    return raw


def _raw(v, mpx):
    """mpmath's raw (sign, mantissa, exponent, bits) tuple of a finite real."""
    return _finite(v._mpf_ if hasattr(v, "_mpf_") else mpx.convert(v)._mpf_)


def _to_fixed(raws, bits):
    """(S, [floor(a 2^S) for each a]) with S = bits minus the exponent of
    the largest |a|, so that every integer is below 2^bits in modulus."""
    top = max((exp + bc for _, man, exp, bc in raws if man), default=0)
    return bits - top, [to_fixed(r, bits - top) for r in raws]


# ----------------------------------------------------------------------
# Clenshaw kernel


def _fixed_part(raws, bits):
    """(S, C_0, (C_(m-1), ..., C_1)) of one real coefficient sequence,
    with C_k = floor(a_k 2^S) and S = bits minus the exponent of the
    largest |a_k|."""
    S, fixed = _to_fixed(raws, bits)
    return S, fixed[0], tuple(reversed(fixed[1:]))


def _clenshaw(part, X, shift, prec):
    """Raw value at p bits of one real part at the integer point X."""
    S, c0, rest = part
    b1 = b2 = 0
    for c in rest:
        b1, b2 = c + ((X * b1) >> shift) - b2, b1
    return from_man_exp(c0 + ((X * b1) >> shift) - 2 * b2, -S - 1, prec, "n")


class _FixedSeries:
    """Integer form of a real or complex coefficient sequence, evaluated
    by the Clenshaw kernel of the module docstring at the precision of the
    context of the first coefficient, an mpmath number."""

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


# ----------------------------------------------------------------------
# Schur kernel


def fixed_rows(rows, bits, mpx):
    """(S, integer rows floor(a 2^S)) of a square matrix of finite reals,
    with S = bits minus the exponent of its largest |a|: one power of two
    for the whole matrix, and every entry below 2^bits in modulus."""
    S, flat = _to_fixed([_raw(a, mpx) for row in rows for a in row], bits)
    n = len(rows)
    return S, [flat[i:i + n] for i in range(0, n * n, n)]


def mpf_rows(rows, S, mpx):
    """The integer rows times 2^-S as rows of ``mpf`` of the context mpx,
    each entry rounded once to its precision."""
    prec = mpx.prec
    return [[mpx.make_mpf(from_man_exp(a, -S, prec, "n")) for a in row] for row in rows]


def _reflector(v, F):
    """(s, u, w) of the Householder reflector P = I - u w^T that sends the
    integer vector v (not all zero) to (-s, 0, ..., 0): u = y / s and
    w = y / y_0 at the unit 2^-F, y = v + s e_0.

    v is first shifted by an exact power of two to F + 2 bits, so s comes
    from ``math.isqrt`` with F + 1 correct bits and P is orthogonal to
    about 2^-F however small v is; s is returned in the unit of v."""
    shift = F + 2 - max(abs(x) for x in v).bit_length()
    y = [x << shift for x in v] if shift >= 0 else [x >> -shift for x in v]
    s = math.isqrt(sum(x * x for x in y))
    if y[0] < 0:
        s = -s
    y[0] += s
    u = [(x << F) // s for x in y]
    w = [1 << F] + [(x << F) // y[0] for x in y[1:]]
    return (s >> shift if shift >= 0 else s << -shift), u, w


def _reflect_rows(rows, u, w, j, F):
    """rows <- P rows in the columns j, j + 1, ..., for P = I - u w^T."""
    ts = [sum(map(mul, w, col)) >> F for col in zip(*(row[j:] for row in rows))]
    for c, row in zip(u, rows):
        row[j:] = [x - ((t * c) >> F) for x, t in zip(row[j:], ts)]


def _reflect_cols(rows, u, w, k, F):
    """row <- row P in the columns k .. k + len(u) - 1 of each row, for
    P = I - u w^T (symmetric, so row P = row - (row . u) w^T)."""
    m = len(u)
    for row in rows:
        seg = row[k:k + m]
        t = sum(map(mul, u, seg)) >> F
        row[k:k + m] = [x - ((t * c) >> F) for x, c in zip(seg, w)]


def _hessenberg(H, F):
    """Reduce the integer matrix H (rows, overwritten) to upper Hessenberg
    form by Householder reflectors; returns the orthogonal Z at the unit
    2^-F, with H_in = Z H_out Z^T."""
    n = len(H)
    Z = [[1 << F if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(n - 2):
        v = [H[i][k] for i in range(k + 1, n)]
        if not any(v[1:]):
            continue
        s, u, w = _reflector(v, F)
        _reflect_rows(H[k + 1:], u, w, k + 1, F)
        _reflect_cols(H + Z, u, w, k + 1, F)
        H[k + 1][k] = -s
        for i in range(k + 2, n):
            H[i][k] = 0
    return Z


def _francis_step(H, Z, l, hi, exceptional, F):
    """One implicit double-shift QR sweep on the active block H[l..hi] of
    the integer Hessenberg H (Golub & Van Loan, Algorithm 7.5.1, in the
    scaling of EISPACK's hqr2): reflectors of 3-vectors, the last of a
    2-vector, chase the bulge down the block.  They act on whole rows and
    columns of H and on Z, so that Z H Z^T stays the input matrix."""
    n = len(H)
    x, y = H[hi][hi], H[hi - 1][hi - 1]
    prod = H[hi][hi - 1] * H[hi - 1][hi]  # at the squared unit
    if exceptional:  # EISPACK's ad hoc shifts, which break a cycle of sweeps
        e = abs(H[hi][hi - 1]) + abs(H[hi - 1][hi - 2])
        x = y = x + 3 * e // 4
        prod = -7 * e * e // 16
    # H[l+1][l] times the first column of (H - s1)(H - s2), s1 + s2 = x + y,
    # s1 s2 = x y - prod: exact, at the squared unit
    a, b = H[l][l], H[l + 1][l]
    v = [(x - a) * (y - a) - prod + H[l][l + 1] * b,
         (H[l + 1][l + 1] - a - (x - a) - (y - a)) * b,
         H[l + 2][l + 1] * b]
    for k in range(l, hi):
        m = min(3, hi + 1 - k)
        if k > l:
            v = [H[i][k - 1] for i in range(k, k + m)]
        if not any(v):
            continue
        s, u, w = _reflector(v, F)
        if k > l:
            H[k][k - 1] = -s
            for i in range(k + 1, k + m):
                H[i][k - 1] = 0
        _reflect_rows(H[k:k + m], u, w, k, F)
        _reflect_cols(H[:min(hi, k + 3) + 1] + Z, u, w, k, F)
