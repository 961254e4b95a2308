"""Numeric substrate: precision contexts, dense linear algebra, exact
rational elimination, and a dense nonsymmetric eigensolver.

All floating-point work runs on mpmath ``mpf``/``mpc`` scalars made by a
:class:`PrecisionCtx`.  Each context owns a private mpmath context at its
precision, and a value computes at the precision of the context that
made it (in a binary operation, the left operand's), so package code
never consults mpmath's process-global precision.  Matrices are plain
lists of rows.  Exact work uses ``fractions.Fraction``.

The eigensolver works in real arithmetic: Householder reduction to
Hessenberg form, Francis double-shift QR to real Schur form (Golub & Van
Loan, *Matrix Computations*, section 7.5), and one rotation per 2x2
block to a triangular factor, complex only in the rows and columns of
complex-conjugate pairs.  Real eigenvalues therefore come out as ``mpf``
with real eigenvectors.

Everything here is a pure function of its inputs given a context, so
values can move freely between threads.  They do not pickle; exchange
results as reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import ExactlySingular, NoConvergence, SingularMatrix

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

    def to_str(self, x) -> str:
        """Decimal string with ``decimal_digits`` significant digits."""
        if hasattr(x, "_mpc_"):
            if x.imag == 0:
                x = x.real
            else:
                return "(%s %s %sj)" % (
                    self.mp.nstr(x.real, self.decimal_digits, strip_zeros=False),
                    "+" if x.imag >= 0 else "-",
                    self.mp.nstr(abs(x.imag), self.decimal_digits, strip_zeros=False),
                )
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


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpf (binary float), as a Fraction."""
    sign, man, exp, _ = x._mpf_
    man = -man if sign else man
    if exp >= 0:
        return Fraction(man * (1 << exp))
    return Fraction(man, 1 << (-exp))


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
    """Row-pivoted LU factorization with pivot diagnostics."""

    lu: list
    perm: list
    min_pivot: object
    norm: object

    @property
    def pivot_ratio(self):
        return self.min_pivot / self.norm if self.norm > 0 else 0


def lu_factor(A, ctx: PrecisionCtx, pivot_floor=None) -> LUFactors:
    """Partial-pivoted LU of a square matrix (rows of mpf).

    Raises :class:`SingularMatrix` when a pivot falls below
    ``pivot_floor`` (default ``10**(-D+8) * ||A||_inf``), which signals
    either genuine rank loss or a solution family.
    """
    n = len(A)
    lu = [list(row) for row in A]
    norm = mat_norm_inf(lu)
    if pivot_floor is None:
        pivot_floor = ctx.ten_pow(-ctx.decimal_digits + 8) * norm
    perm = list(range(n))
    min_pivot = ctx.mp.inf
    for k in range(n):
        piv, prow = abs(lu[k][k]), k
        for r in range(k + 1, n):
            if abs(lu[r][k]) > piv:
                piv, prow = abs(lu[r][k]), r
        if piv <= pivot_floor:
            raise SingularMatrix(
                "pivot %s at column %d below tolerance %s"
                % (ctx.mp.nstr(piv, 5), k, ctx.mp.nstr(pivot_floor, 5))
            )
        if prow != k:
            lu[k], lu[prow] = lu[prow], lu[k]
            perm[k], perm[prow] = perm[prow], perm[k]
        if piv < min_pivot:
            min_pivot = piv
        pk = lu[k][k]
        for r in range(k + 1, n):
            f = lu[r][k] / pk
            lu[r][k] = f
            if f:
                rowr, rowk = lu[r], lu[k]
                for c in range(k + 1, n):
                    rowr[c] -= f * rowk[c]
    return LUFactors(lu, perm, min_pivot, norm)


def lu_solve_factored(fac: LUFactors, b, ctx: PrecisionCtx):
    n = len(fac.lu)
    y = [b[fac.perm[i]] for i in range(n)]
    for i in range(n):
        row = fac.lu[i]
        y[i] -= sum(row[j] * y[j] for j in range(i))
    x = y
    for i in range(n - 1, -1, -1):
        row = fac.lu[i]
        x[i] = (x[i] - sum(row[j] * x[j] for j in range(i + 1, n))) / row[i]
    return x


def solve_linear(A, b, ctx: PrecisionCtx):
    """Solve A x = b by pivoted elimination at context precision."""
    if len(A) != len(b) or any(len(row) != len(A) for row in A):
        raise ValueError("solve_linear needs a square system")
    return lu_solve_factored(lu_factor(A, ctx), list(b), ctx)


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
        if prow != k:
            M[k], M[prow] = M[prow], M[k]
            # keep determinant-sign bookkeeping consistent for Bareiss
            for c in range(len(M[k])):
                M[prow][c] = -M[prow][c]
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
    """One eigenvalue with its right eigenvector (unit sup-norm, largest
    component rotated to +1) and the residual ``||M v - lambda v||_inf``.

    A real eigenvalue is an ``mpf`` with a real vector.  A complex one is
    an ``mpc``; its conjugate is a pair of its own with the conjugate
    vector and the same residual.
    """

    value: object
    vector: tuple
    residual: object


def _hessenberg(H, ctx: PrecisionCtx):
    """Reduce H (rows, overwritten) to upper Hessenberg form by Householder
    reflectors; returns the orthogonal Z with H_in = Z H_out Z^T."""
    n = len(H)
    mp = ctx.mp
    zero = ctx.mpf(0)
    Z = identity_rows(n, ctx)
    for k in range(n - 2):
        v = [H[i][k] for i in range(k + 1, n)]
        if not any(v[1:]):
            continue
        s = mp.sqrt(mp.fdot(v, v))
        if v[0] < 0:
            s = -s
        v[0] += s
        beta = 1 / (s * v[0])  # P = I - beta v v^T sends column k to -s e_(k+1)
        rows = H[k + 1:]
        for j in range(k + 1, n):
            t = beta * mp.fdot(v, [row[j] for row in rows])
            for row, vi in zip(rows, v):
                row[j] -= t * vi
        for row in H + Z:
            t = beta * mp.fdot(v, row[k + 1:])
            if t:
                for i, vi in enumerate(v, k + 1):
                    row[i] -= t * vi
        H[k + 1][k] = -s
        for i in range(k + 2, n):
            H[i][k] = zero
    return Z


def _francis_step(H, Z, l, hi, exceptional, ctx: PrecisionCtx):
    """One implicit double-shift QR sweep on the active block H[l..hi]
    (Golub & Van Loan, Algorithm 7.5.1, in the scaling of EISPACK's
    hqr2): 3-element Householder reflectors chase the bulge down the
    block.  They act on whole rows and columns of H and on Z, so that
    Z H Z^T stays the input matrix."""
    n = len(H)
    zero = ctx.mpf(0)
    x, y = H[hi][hi], H[hi - 1][hi - 1]
    w = H[hi][hi - 1] * H[hi - 1][hi]
    if exceptional:  # EISPACK's ad hoc shifts, which break a cycle of sweeps
        e = abs(H[hi][hi - 1]) + abs(H[hi - 1][hi - 2])
        x = y = x + 3 * e / 4
        w = -7 * e * e / 16
    # first column of (H - s1)(H - s2), s1 + s2 = x + y, s1 s2 = x y - w,
    # divided by H[l+1][l]
    a = H[l][l]
    p = ((x - a) * (y - a) - w) / H[l + 1][l] + H[l][l + 1]
    q = H[l + 1][l + 1] - a - (x - a) - (y - a)
    r = H[l + 2][l + 1]
    for k in range(l, hi):
        last = k == hi - 1
        if k > l:
            p, q = H[k][k - 1], H[k + 1][k - 1]
            r = zero if last else H[k + 2][k - 1]
        s = ctx.mp.sqrt(p * p + q * q + r * r)
        if not s:
            continue
        if p < 0:
            s = -s
        if k > l:
            H[k][k - 1], H[k + 1][k - 1] = -s, zero
            if not last:
                H[k + 2][k - 1] = zero
        # P = I - u v^T with u = (p+s, q, r)/s, v = (p+s, q, r)/(p+s)
        p += s
        x, y, z = p / s, q / s, r / s
        q, r = q / p, r / p
        h0, h1 = H[k], H[k + 1]
        if last:
            for j in range(k, n):
                t = h0[j] + q * h1[j]
                h0[j] -= t * x
                h1[j] -= t * y
            for row in H[:hi + 1] + Z:
                t = x * row[k] + y * row[k + 1]
                row[k] -= t
                row[k + 1] -= t * q
        else:
            h2 = H[k + 2]
            for j in range(k, n):
                t = h0[j] + q * h1[j] + r * h2[j]
                h0[j] -= t * x
                h1[j] -= t * y
                h2[j] -= t * z
            for row in H[:min(hi, k + 3) + 1] + Z:
                t = x * row[k] + y * row[k + 1] + z * row[k + 2]
                row[k] -= t
                row[k + 1] -= t * q
                row[k + 2] -= t * r


def _real_schur(H, Z, ctx: PrecisionCtx):
    """Francis QR of the Hessenberg H (overwritten) to real Schur form:
    upper triangular but for 2x2 diagonal blocks, each the last of its
    active block to converge.

    The deflation test is mpmath's (``hessenberg_qr``): H[k+1][k] becomes 0
    when below eps / (100 n) * (|H[k][k]| + |H[k+1][k+1]|), that sum
    replaced by the norm ||H||_F / n when below eps / (100 n) times it.
    Every tenth sweep without deflation takes exceptional shifts; after
    4 * dps sweeps without one (mpmath's budget), :class:`NoConvergence`
    names the bottom row of the active block.
    """
    n = len(H)
    mp = ctx.mp
    norm = mp.sqrt(mp.fsum(
        x * x for i, row in enumerate(H) for x in row[max(i - 1, 0):])) / n
    if not norm:
        return
    eps = mp.eps / (100 * n)
    zero = ctx.mpf(0)
    budget = 4 * mp.dps
    hi, lo, its = n - 1, 0, 0
    while hi > 0:
        l = hi
        while l > 0:
            s = abs(H[l - 1][l - 1]) + abs(H[l][l])
            if s < eps * norm:
                s = norm
            if abs(H[l][l - 1]) < eps * s:
                H[l][l - 1] = zero
                break
            l -= 1
        if l != lo:  # a new deflation: a new budget
            lo, its = l, 0
        if l >= hi - 1:
            hi = l - 1
            continue
        if its == budget:
            raise NoConvergence(
                "QR found no deflation in %d sweeps at row %d" % (its, hi), index=hi)
        its += 1
        _francis_step(H, Z, l, hi, its % 10 == 0, ctx)


def _rotate(T, Z, k, cs, sn):
    """T <- U^H T U and Z <- Z U for the rotation U = [[cs, -sn], [sn, conj(cs)]]
    in the plane (k, k+1), with sn real and |cs|^2 + sn^2 = 1."""
    cc = cs.conjugate()
    t0, t1 = T[k], T[k + 1]
    for j in range(k, len(T)):
        a, b = t0[j], t1[j]
        t0[j] = cc * a + sn * b
        t1[j] = cs * b - sn * a
    for row in T[:k + 2] + Z:
        a, b = row[k], row[k + 1]
        row[k] = cs * a + sn * b
        row[k + 1] = cc * b - sn * a


def _triangularize(T, Z, ctx: PrecisionCtx):
    """Make the real Schur form T triangular.  A 2x2 block with real
    eigenvalues splits by one real rotation; a complex pair by one unitary
    complex rotation (``rsf2csf``), which makes only those two rows and
    columns of T and those two columns of Z complex.  Returns the
    positions k holding the +im eigenvalue of a pair; T[k+1][k+1] is its
    exact conjugate."""
    mp = ctx.mp
    zero = ctx.mpf(0)
    tops = set()
    for k in range(len(T) - 1):
        c = T[k + 1][k]
        if not c:
            continue
        a, b, d = T[k][k], T[k][k + 1], T[k + 1][k + 1]
        p = (a - d) / 2
        disc = p * p + b * c
        if disc >= 0:
            # eigenvalue d + z with no cancellation in z; eigenvector (z, c)
            z = p + mp.sqrt(disc) if p >= 0 else p - mp.sqrt(disc)
            tau = mp.hypot(z, c)
            _rotate(T, Z, k, z / tau, c / tau)
        else:
            # eigenvalue d + mu, mu = p + i omega; eigenvector (mu, c)
            mu = mp.mpc(p, mp.sqrt(-disc))
            tau = mp.hypot(abs(mu), c)
            _rotate(T, Z, k, mu / tau, c / tau)
            T[k][k] = d + mu
            T[k + 1][k + 1] = T[k][k].conjugate()
            tops.add(k)
        T[k + 1][k] = zero
    return tops


def _eigenvector(T, Z, i, ctx: PrecisionCtx):
    """Z x, where x solves (T - T[i][i]) x = 0 with x[i] = 1 by back
    substitution on the triangular T.  Divisors smaller than
    smin = max(eps |T[i][i]|, smlnum) are replaced by smin, the guard of
    mpmath's ``eig_tr_r`` (after LAPACK's ``ctrevc``)."""
    mp = ctx.mp
    s = T[i][i]
    smin = max(mp.eps * abs(s), mp.ldexp(mp.one, -30 * mp.prec) * len(T) / mp.eps)
    x = [mp.one] * (i + 1)
    for j in range(i - 1, -1, -1):
        t = T[j][j] - s
        if abs(t) < smin:
            t = smin
        x[j] = -mp.fdot(T[j][j + 1:i + 1], x[j + 1:]) / t
    return [mp.fdot(row[:i + 1], x) for row in Z]


def eig_dense(M, tol, ctx: PrecisionCtx):
    """All eigenpairs of a square real matrix, sorted by descending
    modulus, then descending real and imaginary part (so a conjugate pair
    comes +im first).

    Real arithmetic at context precision on lists of rows: Householder
    reduction to Hessenberg form, Francis double-shift QR to real Schur
    form, one rotation per remaining 2x2 block to a triangular factor, and
    eigenvectors by back substitution.  Real eigenvalues come back as
    ``mpf`` with real vectors, complex ones as exact conjugate pairs.  Each
    pair is checked against
    ``||M v - lambda v||_inf <= tol * ||M||_inf * ||v||_inf``; a violation
    or an exhausted QR budget raises :class:`NoConvergence`.
    """
    n = len(M)
    tol = ctx.mpf(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    mp = ctx.mp
    A = [[ctx.mpf(x) for x in row] for row in M]
    norm = mat_norm_inf(M)
    T = [list(row) for row in A]
    Z = _hessenberg(T, ctx)
    _real_schur(T, Z, ctx)
    tops = _triangularize(T, Z, ctx)

    pairs = []
    for i in range(n):
        if i - 1 in tops:
            continue  # the conjugate of the pair at i - 1
        lam = T[i][i]
        vec = _eigenvector(T, Z, i, ctx)
        if i not in tops:
            vec = [v.real for v in vec]  # real up to round-off
        big = max(vec, key=abs)
        if abs(big) == 0:
            raise NoConvergence("zero eigenvector", index=i)
        vec = [v / big for v in vec]
        res = max(abs(mp.fdot(row, vec) - lam * v) for row, v in zip(A, vec))
        if norm > 0 and res > tol * norm:
            raise NoConvergence(
                "eigenpair %d residual %s exceeds tolerance" % (i, mp.nstr(res, 5)),
                index=i,
            )
        pairs.append(EigenPair(lam, tuple(vec), res))
        if i in tops:
            pairs.append(EigenPair(lam.conjugate(), tuple(v.conjugate() for v in vec), res))

    pairs.sort(key=lambda p: (-abs(p.value), -p.value.real, -p.value.imag))
    return pairs
