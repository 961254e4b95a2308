"""Numeric substrate: precision contexts, dense linear algebra, exact
rational elimination, and a dense nonsymmetric eigensolver.

All floating-point work runs on mpmath ``mpf``/``mpc`` scalars made by a
:class:`PrecisionCtx`.  Each context owns a private mpmath context at its
precision, and a value computes at the precision of the context that
made it (in a binary operation, the left operand's), so package code
never consults mpmath's process-global precision.  Matrices are plain
lists of rows.  Exact work uses ``fractions.Fraction``.

The LU and its solves run in :func:`feigenbaum.fixed.lu_rows` and
:func:`feigenbaum.fixed.lu_solve_rows`, ``mpf`` arithmetic on raw tuples
that is bit for bit that of ``mpf`` loops.  The eigensolver
:func:`eig_dense` checks, conjugates and sorts the eigenpairs of the
integer kernel :class:`feigenbaum.fixed.SchurForm`: eigenvalues from
Francis sweeps that find eigenvalues only, each vector from one step of
inverse iteration on the Hessenberg matrix; its module docstring states
the widths, deflation, units and error.

Everything here is a pure function of its inputs given a context, so
values can move freely between threads.  They do not pickle; exchange
results as reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath

from .errors import ExactlySingular, NoConvergence, SingularMatrix
from .fixed import SchurForm, lu_rows, lu_solve_rows

GUARD_BITS = 32

# LU pivot-to-norm ratio below which a Jacobian is treated as structurally
# degenerate (solution family present) rather than merely ill-conditioned.
DEGENERACY_RATIO = 1e-12


class PrecisionCtx:
    """Working-precision descriptor.

    ``decimal_digits`` is the number of decimal digits all reported
    quantities are carried to; the binary working precision adds
    :data:`GUARD_BITS` guard bits on top of the exact conversion.
    ``mp`` is the mpmath context at that precision that makes every value
    of this context; its precision is never changed.
    """

    def __init__(self, decimal_digits: int = 64):
        if decimal_digits < 16:
            raise ValueError("decimal_digits must be at least 16")
        self.decimal_digits = int(decimal_digits)
        self.prec_bits = math.ceil(self.decimal_digits * math.log2(10)) + GUARD_BITS
        self.mp = mpmath.MPContext()
        self.mp.prec = self.prec_bits

    def activate(self):
        """Context manager putting mpmath's global ``mp`` at this precision,
        for a caller's own arithmetic on global ``mp`` values; the package
        itself does not need it."""
        return mpmath.mp.workprec(self.prec_bits)

    def mpf(self, x):
        if isinstance(x, Fraction):
            return self.mp.mpf(x.numerator) / x.denominator
        return self.mp.mpf(x)

    def ten_pow(self, e: int):
        """10**e at context precision (e may be negative)."""
        return self.mp.mpf(10) ** e

    @cached_property
    def eig_gate(self):
        """10**(-D//2-4), made once per context: the eigensolver's relative
        gate, also that of an even seed and of eigenfunction parity
        (``spectrum.eigenfunction_parity``)."""
        return self.ten_pow(-(self.decimal_digits // 2) - 4)

    def to_str(self, x) -> str:
        """Decimal string of a real value with ``decimal_digits`` significant
        digits (reports print complex values as their .real and .imag)."""
        return self.mp.nstr(self.mp.mpf(x), self.decimal_digits, strip_zeros=False)

    def __repr__(self):
        return "PrecisionCtx(decimal_digits=%d)" % self.decimal_digits

    def __eq__(self, other):
        return (
            isinstance(other, PrecisionCtx)
            and other.decimal_digits == self.decimal_digits
        )

    def __hash__(self):
        return hash(("PrecisionCtx", self.decimal_digits))


def ls_slope(xs, ys, mpx):
    """Least-squares slope of ys against xs (sequences of one length),
    with the sums of the mpmath context ``mpx``."""
    xb = mpx.fsum(xs) / len(xs)
    yb = mpx.fsum(ys) / len(ys)
    num = mpx.fsum((x - xb) * (y - yb) for x, y in zip(xs, ys))
    den = mpx.fsum((x - xb) ** 2 for x in xs)
    return num / den


# ----------------------------------------------------------------------
# Dense linear solves at context precision


def mat_norm_inf(A):
    return max((sum(abs(x) for x in row) for row in A), default=0)


def vec_norm_inf(v):
    return max((abs(x) for x in v), default=0)


def identity_rows(n, ctx: PrecisionCtx):
    one, zero = ctx.mpf(1), ctx.mpf(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


@dataclass
class LUFactors:
    """Row-pivoted LU factorization with pivot diagnostics; ``lu`` holds
    the factor rows in the kernel's form, read only by
    :func:`lu_solve_factored`."""

    lu: list
    perm: list
    min_pivot: object
    norm: object

    @property
    def pivot_ratio(self):
        return self.min_pivot / self.norm if self.norm > 0 else 0


def lu_factor(A, ctx: PrecisionCtx) -> LUFactors:
    """Partial-pivoted LU of a square matrix (rows of mpf), by the kernel
    :func:`feigenbaum.fixed.lu_rows`, bit for bit ``mpf`` arithmetic.

    Raises :class:`SingularMatrix` when a pivot falls below
    ``10**(-D+8) * ||A||_inf``, which signals either genuine rank loss or
    a solution family.
    """
    lu, perm, min_pivot, norm, stop = lu_rows(A, ctx.ten_pow(-ctx.decimal_digits + 8), ctx.mp)
    if stop is not None:
        k, piv, floor = stop
        raise SingularMatrix("pivot %s at column %d below tolerance %s"
                             % (ctx.mp.nstr(piv, 5), k, ctx.mp.nstr(floor, 5)))
    return LUFactors(lu, perm, min_pivot, norm)


def lu_solve_factored(fac: LUFactors, b, ctx: PrecisionCtx):
    """x with A x = b for the factors of A, as ``mpf`` of the context, by
    :func:`feigenbaum.fixed.lu_solve_rows`."""
    return lu_solve_rows(fac.lu, fac.perm, b, ctx.mp)


# ----------------------------------------------------------------------
# Exact rational solve (fraction-free elimination)


def solve_linear_exact(A, B):
    """Solve A X = B exactly over the rationals.

    Rows are scaled to integers, eliminated fraction-free (Bareiss), and
    back-substituted in Fractions, so A X = B holds exactly.  Raises
    :class:`ExactlySingular` when det A = 0.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("A must be square")
    if len(B) != n:
        raise ValueError("row counts of A and B must agree")
    w = len(B[0])
    M = []
    for i in range(n):
        row = [Fraction(x) for x in A[i]] + [Fraction(x) for x in B[i]]
        scale = math.lcm(*(f.denominator for f in row))
        M.append([int(f * scale) for f in row])

    prev = 1
    for k in range(n):
        prow = next((r for r in range(k, n) if M[r][k] != 0), None)
        if prow is None:
            raise ExactlySingular("zero pivot column %d" % k)
        M[k], M[prow] = M[prow], M[k]
        pk = M[k][k]
        for r in range(k + 1, n):
            mrk = M[r][k]
            rowr, rowk = M[r], M[k]
            for c in range(k + 1, n + w):
                num = rowr[c] * pk - mrk * rowk[c]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("fraction-free division not exact")
                rowr[c] = q
            rowr[k] = 0
        prev = pk

    X = [[Fraction(0)] * w for _ in range(n)]
    for c in range(w):
        for i in range(n - 1, -1, -1):
            s = Fraction(M[i][n + c])
            for j in range(i + 1, n):
                s -= M[i][j] * X[j][c]
            X[i][c] = s / M[i][i]
    return X


# ----------------------------------------------------------------------
# Dense nonsymmetric eigensolver


@dataclass
class EigenPair:
    """One eigenvalue with its right eigenvector and the residual
    ``||M v - lambda v||_inf``.  The vector is scaled so that its pivot,
    the first component whose modulus is within ``eig_gate`` of the
    largest, is +1; its sup-norm is 1 to within that gate.

    A real eigenvalue is an ``mpf`` with a real vector.  A complex one is
    an ``mpc``; its conjugate is a pair of its own with the conjugate
    vector and the same residual.
    """

    value: object
    vector: tuple
    residual: object


def eig_dense(M, ctx: PrecisionCtx):
    """All eigenpairs (:class:`EigenPair`) of a square real matrix, from
    :class:`feigenbaum.fixed.SchurForm` and its mirror split, sorted by
    descending modulus, then descending real and imaginary part (so a
    conjugate pair comes +im first).  Each pair is checked against
    ``||M v - lambda v||_inf <= eig_gate * ||M||_inf``; a violation raises
    :class:`NoConvergence`, and so does a block that does not converge,
    naming its bottom row as a row of M.  An empty matrix has none.
    """
    if not M:
        return []
    mp, gate = ctx.mp, ctx.eig_gate
    form = SchurForm([[ctx.mpf(x) for x in row] for row in M], gate, mp)
    if form.failed is not None:
        raise NoConvergence("QR found no deflation in %d sweeps at row %d"
                            % (form.budget, form.failed), index=form.failed)
    pairs = []
    for i, lam in enumerate(form.values):
        if i - 1 in form.tops:
            continue  # the conjugate of the pair at i - 1
        pair = form.eigenpair(i)
        if pair is None:
            raise NoConvergence("zero eigenvector", index=i)
        vec, res = pair
        if form.norm > 0 and res > gate * form.norm:
            raise NoConvergence("eigenpair %d residual %s exceeds tolerance"
                                % (i, mp.nstr(res, 5)), index=i)
        pairs.append(EigenPair(lam, vec, res))
        if i in form.tops:
            pairs.append(EigenPair(lam.conjugate(), tuple(v.conjugate() for v in vec), res))

    pairs.sort(key=lambda p: (-abs(p.value), -p.value.real, -p.value.imag))
    return pairs
