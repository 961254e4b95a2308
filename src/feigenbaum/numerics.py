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
Loan, *Matrix Computations*, section 7.5, in the scaling of EISPACK's
hqr2), one rotation per 2x2 block to a triangular factor, complex
only in the rows and columns of complex-conjugate pairs, and
eigenvectors by triangular back substitution (Golub & Van Loan, section
7.6; LAPACK's ``trevc``).  Real eigenvalues therefore come out as
``mpf`` with real eigenvectors.

After the input conversion, everything but the eigenvalues runs on
Python integers, in the Schur kernel of :mod:`feigenbaum.fixed`.  With
p the context precision:

* width: F = 2p + :data:`SCHUR_GUARD_BITS` bits.  A block H is scaled
  once by a power of two, so that its largest entry becomes an integer
  in [2^(F-1), 2^F): the unit is at most 2^(1-F) max|h|, and max|h| is
  ||H||_inf within a factor n.  The orthogonal factor Z carries the unit
  2^-F;
* reflectors: the vector a Householder reflector is built from (a
  column below the diagonal, or the bulge (p, q, r) of a sweep) is
  shifted by an exact power of two to F + 2 bits before ``math.isqrt``,
  so each reflector I - u w^T has coefficients within 2^-F of exact and
  is orthogonal to the unit, however small the vector.  A sweep's first
  bulge is H[l+1][l] times EISPACK's, made exactly from integer
  products;
* deflation: H[k+1][k] becomes 0 when below eps max(|H[k][k]| +
  |H[k+1][k+1]|, ||H||_F / n), eps = 2^-p / (100 n).  Every tenth sweep
  without a deflation takes EISPACK's exceptional shifts.  After 4 dps
  sweeps without one (mpmath's budget), the active block's subdiagonal
  that is smallest against its own max(...) is set to 0 if it passes the
  test at 2^-p, EISPACK's, and a new budget starts; otherwise
  :class:`NoConvergence` is raised.  A sweep's bulge starts at the top
  of the active block, so a subdiagonal far below the rest damps it, and
  on a matrix with few, highly repeated eigenvalues the rows below can
  then stay a little above eps for good;
* error: a reflector application misrounds each entry it writes by a
  few units and departs from orthogonality by about 2^-F, so after N
  applications the integer Schur form is exactly similar to a matrix
  within about N sqrt(n) 2^-F ||H|| of H.  A sweep applies n - 1 of
  them, so even 4 dps n sweeps stay below 2^-p ||H|| by a factor above
  2^p for n <= 100.  What is left is the deflations, below n eps 2 ||H||
  together (each last-resort one below 2^-p 2 ||H||), and the final
  rounding to p bits;
* why 2p: near convergence the bulge a sweep chases shrinks with the
  subdiagonal it is to zero, to about the deflation threshold
  2^-p ||H||.  At the unit 2^-F it still carries p + 32 bits, so its
  reflector puts about 2^-(p+32) ||H|| back into that subdiagonal each
  sweep, below eps ||H||_F / n for n up to 6,000.  At a width of p + 24
  bits the bulge kept too few bits, and the QR stalled (D = 24, n = 12).

After the sweeps the integers stay integers:

* units: T, the Schur form of the whole, has one unit 2^-S.  With two
  mirror blocks S is the larger of their scales, the other block
  shifted up exactly, and the coupling Z_e^T L_eo Z_o takes the exact
  L_eo shifted to 2^-S and two integer products, each shifted down by
  F.  Z carries 2^-F; the back-transform by P copies and negates.  A
  2x2 block's rotation is floored to 2^-F and applied to the rest of T
  and to Z, complex ones as re/im integer
  pairs, each new entry shifted down by F toward zero; the block itself
  becomes its rotated entries, floored to 2^-S.  The vector x has
  x_i = 2^F, and each entry above costs one floor division (two for a
  complex one), with the divisor guard smin of LAPACK's ``ctrevc``.
  Z x is exact at 2^-2F;
* odd rounding: the vector is Z x divided by its pivot, the first entry
  whose modulus is within ``eig_gate`` of the largest (so a tie up to
  round-off cannot choose it), rounded to 2^-F to the nearest, ties away
  from zero, and then to p bits, to the nearest even.  A node row and
  its mirror image of P diag(Z_e, Z_o) hold the same integers, negated
  in the odd columns, and the rotations mix even columns with even
  ones, odd with odd, rounding toward zero.  All these roundings are
  odd, so Z keeps that symmetry: an even-block vector is exactly
  mirror-symmetric, and when L_eo = 0, so that x has no even part, an
  odd-block vector is exactly antisymmetric;
* residual: M is converted once at F bits, exactly for entries whose
  exponents span fewer than F - p bits, and the eigenvalue at the same
  unit; M V - lambda V is then exact on integers for the vector V at
  2^-F, and rounds once to p bits (a complex modulus after an integer
  square root with p bits more).  What is not exact is the conversions'
  floors, below n 2^(1-F) ||M||, and the rounding of V to the reported
  p bits, below 2^-p (||M|| + |lambda|): far below the gate
  10^(-D/2-4) ||M||, as F is about 6.6 D bits and p about 3.3 D;
* norm: the same integers of M give ||M||_inf for the gates, summed
  exactly and rounded once, and every block the Hessenberg reduction
  starts from: M itself when it is the one block;
* bit-identical eigenvalues: the eigenvalues alone are read at context
  precision, each diagonal entry of a 1x1 block rounded once to p bits,
  and each 2x2 block's eigenvalues and rotation computed by the
  ``rsf2csf`` formulas from its four entries rounded once to p bits.
  They depend on the input conversion and the sweeps only (the mirror
  transform is exact): the integer T, Z and x carry only vectors and
  residuals.  So every eigenvalue is, bit for bit, the one
  an ``mpf`` triangularization of the same rounded Schur form gives
  (the tests keep such a back end as an oracle).

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
from .fixed import (SchurForm, _francis_step, _hessenberg, fixed_rows, mirror_transform,
                    mpf_rows, norm_inf, rescaled)

GUARD_BITS = 32

# Bits the integer Schur form carries beyond twice the context precision.
SCHUR_GUARD_BITS = 32

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

    @property
    def eig_gate(self):
        """10**(-D//2-4): the eigensolver's relative gate, also that of an
        even seed and of eigenfunction parity (``spectrum.eigenfunction_parity``)."""
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
    """Row-pivoted LU factorization with pivot diagnostics."""

    lu: list
    perm: list
    min_pivot: object
    norm: object

    @property
    def pivot_ratio(self):
        return self.min_pivot / self.norm if self.norm > 0 else 0


def lu_factor(A, ctx: PrecisionCtx) -> LUFactors:
    """Partial-pivoted LU of a square matrix (rows of mpf).

    Raises :class:`SingularMatrix` when a pivot falls below
    ``10**(-D+8) * ||A||_inf``, which signals either genuine rank loss or
    a solution family.
    """
    n = len(A)
    lu = [list(row) for row in A]
    norm = mat_norm_inf(lu)
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


def _real_schur(H, Zt, width, ctx: PrecisionCtx, lo):
    """Francis QR, by integer sweeps of ``width`` bits, of the integer
    Hessenberg H (overwritten, and Z^T, Zt, with it) to real Schur form: upper
    triangular but for 2x2 diagonal blocks, each the last of its active
    block to converge.

    H[k+1][k] becomes 0 when below eps max(|H[k][k]| + |H[k+1][k+1]|,
    ||H||_F / n), eps = 2^-p / (100 n), p the context precision.  Every
    tenth sweep without deflation takes exceptional shifts.  After 4 * dps
    sweeps without one (mpmath's budget), the subdiagonal of the active
    block smallest against its max(...) becomes 0 if below 2^-p times it,
    and the budget starts again; if none is, :class:`NoConvergence` names
    the bottom row of the active block as a row of the whole matrix, in
    which H is the diagonal block from row ``lo``.
    """
    n = len(H)
    floor = math.isqrt(sum(x * x for row in H for x in row)) // n  # ||H||_F / n
    if not floor:
        return
    scale = 100 * n << ctx.prec_bits  # |h| < eps t  <=>  |h| scale < t
    budget = 4 * ctx.mp.dps
    hi, start, its = n - 1, 0, 0
    while hi > 0:
        l = hi
        while l > 0:
            t = max(abs(H[l - 1][l - 1]) + abs(H[l][l]), floor)
            if abs(H[l][l - 1]) * scale < t:
                H[l][l - 1] = 0
                break
            l -= 1
        if l != start:  # a new deflation: a new budget
            start, its = l, 0
        if l >= hi - 1:
            hi = l - 1
            continue
        if its == budget:
            # last resort: EISPACK's deflation test, at 2^-p, on the active
            # block's relatively smallest subdiagonal
            ts = {k: max(abs(H[k - 1][k - 1]) + abs(H[k][k]), floor)
                  for k in range(l + 1, hi + 1)}
            k = min(ts, key=lambda k: abs(H[k][k - 1]) / ts[k])
            if abs(H[k][k - 1]) << ctx.prec_bits >= ts[k]:
                raise NoConvergence("QR found no deflation in %d sweeps at row %d"
                                    % (its, lo + hi), index=lo + hi)
            H[k][k - 1] = 0
            continue
        its += 1
        _francis_step(H, Zt, l, hi, its % 10 == 0, width)


def _split_block(a, b, c, d, mp):
    """(cs, sn, t00, t01, t11) for the 2x2 block [[a, b], [c, d]], c != 0,
    of a real Schur form: the rotation U = [[cs, -sn], [sn, conj(cs)]],
    sn real and |cs|^2 + sn^2 = 1, with U^H block U = [[t00, t01], [0,
    t11]].  Real eigenvalues split by a real rotation; a complex pair by
    a unitary complex one (``rsf2csf``), and then t00 is the +im
    eigenvalue and t11 its exact conjugate."""
    p = (a - d) / 2
    disc = p * p + b * c
    if disc >= 0:
        # eigenvalue d + z with no cancellation in z; eigenvector (z, c)
        z = p + mp.sqrt(disc) if p >= 0 else p - mp.sqrt(disc)
        tau = mp.hypot(z, c)
        cs, sn = z / tau, c / tau
    else:
        # eigenvalue d + mu, mu = p + i omega; eigenvector (mu, c)
        mu = mp.mpc(p, mp.sqrt(-disc))
        tau = mp.hypot(abs(mu), c)
        cs, sn = mu / tau, c / tau
    cc = cs.conjugate()
    r0, r1 = (cc * a + sn * c, cc * b + sn * d), (cs * c - sn * a, cs * d - sn * b)
    t01 = cc * r0[1] - sn * r0[0]
    if disc >= 0:
        return cs, sn, cs * r0[0] + sn * r0[1], t01, cc * r1[1] - sn * r1[0]
    return cs, sn, d + mu, t01, (d + mu).conjugate()


def eig_dense(M, ctx: PrecisionCtx):
    """All eigenpairs of a square real matrix, sorted by descending
    modulus, then descending real and imaginary part (so a conjugate pair
    comes +im first), on the integers of the module docstring; only the
    eigenvalues are computed at context precision.  Real eigenvalues come
    back as ``mpf`` with real vectors, complex ones as exact conjugate
    pairs.  A vector is scaled to +1 at its first component within
    ``ctx.eig_gate`` of the largest in modulus.  Each pair is checked
    against ``||M v - lambda v||_inf <= eig_gate * ||M||_inf``; a
    violation or an exhausted QR budget raises :class:`NoConvergence`.
    An empty matrix has no eigenpairs.

    The matrix decides a mirror split.  P^-1 M P is formed exactly on the
    integers of M, P's columns e_i + e_(n-1-i), the middle e_m of an odd
    n, then e_i - e_(n-1-i).  When M maps mirror-symmetric vectors to
    mirror-symmetric vectors, that is when its even-to-odd block L_oe has
    ``||L_oe||_inf <= eig_gate * ||M||_inf``, P^-1 M P is block upper
    triangular, [[L_ee, L_eo], [0, L_oo]]: the two diagonal blocks are
    reduced to real Schur form separately and the coupling Z_e^T L_eo Z_o
    completes the Schur form of the whole; an eigenvalue of L_ee has an
    exactly mirror-symmetric vector.  Otherwise the whole matrix is the
    one block.  The residual gate is always against M.
    """
    n = len(M)
    if not n:
        return []
    mp, gate, width = ctx.mp, ctx.eig_gate, 2 * ctx.prec_bits + SCHUR_GUARD_BITS
    SA, AI = fixed_rows([[ctx.mpf(x) for x in row] for row in M], width, mp)
    norm = norm_inf(AI, SA, mp)
    h = n - n // 2
    B = mirror_transform(AI)  # 2 P^-1 M P, so P^-1 M P is exact at 2^-(SA+1)
    if h < n and norm_inf([row[:h] for row in B[h:]], SA + 1, mp) <= gate * norm:
        unit, coupling = SA + 1, [row[h:] for row in B[:h]]
        parts = [(0, [row[:h] for row in B[:h]]), (h, [row[h:] for row in B[h:]])]
    else:
        unit, coupling, parts = SA, None, [(0, AI)]
    blocks, values, splits = [], [], []
    for lo, rows in parts:
        S, H = rescaled(rows, unit, width)
        Zt = _hessenberg(H, width)
        _real_schur(H, Zt, width, ctx, lo)
        blocks.append((S, H, Zt))
        values += mpf_rows([[H[k][k] for k in range(len(H))]], S, mp)[0]
        for k in range(len(H) - 1):
            if H[k + 1][k]:
                (a, b), (c, d) = mpf_rows([H[k][k:k + 2], H[k + 1][k:k + 2]], S, mp)
                split = _split_block(a, b, c, d, mp)
                values[lo + k], values[lo + k + 1] = split[2], split[4]
                splits.append((lo + k,) + split)
    form = SchurForm(blocks, coupling, splits, (SA, AI), gate, width, mp)

    pairs = []
    for i in range(n):
        if i - 1 in form.tops:
            continue  # the conjugate of the pair at i - 1
        lam = values[i]
        pair = form.eigenpair(i, lam)
        if pair is None:
            raise NoConvergence("zero eigenvector", index=i)
        vec, res = pair
        if norm > 0 and res > gate * norm:
            raise NoConvergence("eigenpair %d residual %s exceeds tolerance"
                                % (i, mp.nstr(res, 5)), index=i)
        pairs.append(EigenPair(lam, vec, res))
        if i in form.tops:
            pairs.append(EigenPair(lam.conjugate(), tuple(v.conjugate() for v in vec), res))

    pairs.sort(key=lambda p: (-abs(p.value), -p.value.real, -p.value.imag))
    return pairs
