"""Fixed-point kernels on Python integers, and the one home of mpmath's raw
representation.

mpmath's pure-Python backend spends most of an ``mpf`` operation
normalizing its result, so the package's hot loops run on Python integers
at a fixed binary point instead.  Only their inputs and results pass
through mpmath's raw (sign, mantissa, exponent, bit count) tuples and
``libmp``'s ``to_fixed`` and ``from_man_exp``, a layout private to mpmath
1.3; no other module of the package reads it.  The LU kernel alone keeps
``mpf`` arithmetic, run by ``libmp`` on the raw tuples.  This module
imports nothing from the package.

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

Linearization rows.  Each entry of the collocation matrix L = dT(g) of
:mod:`feigenbaum.operators` combines the values h_j(z) of the cardinals
at a few points z per row.  Those values are integers at one unit 2^-U,
U = p + :data:`ROW_GUARD_BITS` for the context precision p:

* formula (:class:`BarycentricCardinals`, one kernel for every basis):
  card_j(z) = v^s sum_i l_i(v) y_ij, l_i(v) = (w_i / (v - v_i)) / S,
  S = sum_k w_k / (v - v_k), the second barycentric formula on N nodes
  v_i with weights w_i.  The Chebyshev grid has v = z, s = 0, y = I and
  its p-bit nodes and weights, so card_j = l_j.  On a coefficient basis
  with interpolation entries E, card_j(z) = sum_k E_kj z^(p_k) is
  v^s q_j(v) in v = z^2 for the even kinds and v = z otherwise, s the
  lowest unknown power in v; q_j, of degree below N = d + g, takes
  y_ij = delta_ij / v_i^s at the d nodes and y_aj = card_j(u_a) / u_a^s,
  from E at its exact values, at g auxiliary nodes u_a, one per power
  missing between s and the top one: the first unused points of the
  basis's pool (each missing power is a pin, and each pin leaves a pool
  point unused).  These nodes are rationals, with exact weights
  1 / prod_k (v_i - v_k) scaled so that the least has modulus 1;
* exact differences: the nodes are integers X_i at the unit
  1 / (L 2^E), L odd (1 on the grid), and v goes to the finer of its own
  unit and that one (the nodes and weights shifted up exactly when v's
  is finer), so d_i = v - v_i is exact, and a point on a node gives the
  row there: a unit row, or an auxiliary node's exact values floored;
* arithmetic at F = U + K bits, K guard bits (0 on the grid,
  :data:`ROW_GUARD_BITS` on a coefficient basis): t_i =
  floor(w_i L 2^(E+F) / d_i), T = sum_i t_i, and r =
  floor(|v|^s 2^(b+F) / |T|), b the bit length of |T|, so |v|^s / S
  keeps its relative precision whatever |T| is (it grows like
  1/|v - v_k| near a node).  Entry j is R_j = floor(t_j r 2^-(b+K))
  where y = I, and R_j = floor(n_j r 2^-(b+K+F)), n_j =
  sum_i t_i floor(y_ij 2^F), otherwise: one rounding per entry, O(N)
  work per point on the grid and O(d (1 + g)) on a coefficient basis;
* grid error: against the exact cardinals of the p-bit nodes and
  weights, |R_j 2^-U - l_j(z)| <= 2^-U (2 + |l_j(z)| + (1 + n |l_j(z)|)
  / |S|).  For the Chebyshev roots S = +-n / T_n(z), so |S| >= n on
  [-1, 1] and the error is a few units 2^-U there; off the interval |S|
  shrinks like n / |T_n(z)|, the cancellation of the barycentric sum that
  an ``mpf`` sum suffers at 2^-p;
* coefficient-basis error: with Lambda = sum_i |l_i(v)|,
  Delta = max_i |v - v_i| and q_j = card_j(z) / v^s,
  |R_j 2^-U - card_j(z)| <= 2^-U (1 + 2^(1-K) (|q_j| + |v|^s
  (sum_i |l_i| ((1 + Delta) |y_ij| + 1) + (1 + Delta) Lambda |q_j|))).
  On [-1, 1] Lambda and |y| stay small on the package's bases, and the
  rows are within two units 2^-U of the exact cardinals (within one on
  Lanford m = 12 and rational m = 15); off the interval the bound grows
  with Lambda.  The monomial kind's E is a float inverse of the
  Vandermonde V, so its rows are the exact cardinals of its nodes, which
  differ from sum_k E_kj z^(p_k) by the interpolant of V E - I;
* the even half folds a full row by integer adds, l_j + l_(n-1-j);
* why p + 32: an entry of L sums two to four products of order-one
  scalars and row values, so a row error of a few units 2^-(p+32) is
  about 2^-30 of the final rounding of an entry that does not cancel:
  such an entry is the correctly rounded value of the formula on the
  exact cardinals but for a tie within that margin;
* one rounding (:func:`combine_rows`): every scalar of the formula is an
  ``mpf`` taken at its exact binary value (a product of two, exactly),
  the terms of an entry are aligned to their smallest exponent,
  multiplied and summed exactly, and ``from_man_exp`` rounds the sum
  once to p bits.  Each entry of L is therefore the nearest p-bit number
  to the formula applied to the integer rows and the scalars.

Node values to a series: the same one rounding, on the cardinals'
coefficients as integers floor(a_k 2^U) at the rows' unit
(:func:`fixed_ints`), which err by less than 2^-U each.

LU kernel.  Newton's solutions must stay bit for bit (the T4 family's
delta sits at the round-off floor of its g: a relative 1e-40 on the
solves moves it by 0.02 digits), so :func:`lu_rows` and
:func:`lu_solve_rows` run the ``mpf`` loops of a partial-pivoted LU as
``libmp``'s ``mpf_add``, ``mpf_sub``, ``mpf_mul``, ``mpf_div``,
``mpf_abs`` and ``mpf_cmp`` on the raw tuples, at the context precision,
to the nearest, in the loops' order: each row sum of ||A||_inf and each
substitution sum adds from 0, the pivot search takes a later row only if
strictly larger, a zero multiplier a/p skips its row update, and each
update a - f b rounds the product and then the difference.  Every result
is therefore the rounding the ``mpf`` operator gives, without its
dispatch (the tests keep the ``mpf`` loops as an oracle).

Schur kernel.  :class:`SchurForm` converts a square matrix M to integers
once and splits it (:func:`schur_blocks`).  Each block is reduced to
Hessenberg form H_0 by Householder reflectors (Golub & Van Loan, *Matrix
Computations*, section 7.4), which accumulate Z_0, and then swept to the
diagonal blocks of a real Schur form by Francis double-shift sweeps
(:func:`francis_qr`, section 7.5, in the scaling of EISPACK's hqr) that
only find eigenvalues.  Each eigenvector comes from one step of inverse
iteration on H_0 (section 7.6.1; LAPACK's ``dhsein`` after ``dhseqr``
with job 'E').  Only the eigenvalues are computed at context precision p:

* widths: H is reduced and swept at F = 2p + :data:`SCHUR_GUARD_BITS`
  bits, and Z_0 accumulated at W = p + :data:`SCHUR_Z_BITS`, since no
  eigenvalue reads it.  A block is scaled once by a power of two, so
  that its largest entry becomes an integer in [2^(F-1), 2^F): the unit
  is at most 2^(1-F) max|h|, and max|h| is ||H||_inf within a factor n;
* reflectors: the vector a Householder reflector is built from (a
  column below the diagonal, or the bulge (p, q, r) of a sweep) is
  shifted by an exact power of two to F + 2 bits before ``math.isqrt``,
  so each reflector I - u w^T has coefficients within 2^-F of exact and
  is orthogonal to the unit, however small the vector; w_0 = 2^F is a
  shift, and Z_0's update takes u and w floored to 2^-W, so that its
  w_0 = 2^W stays exact.  A sweep's first bulge is H[m+1][m] times
  EISPACK's, made exactly from integer products;
* deflation: H[k+1][k] becomes 0 when below eps max(|H[k][k]| +
  |H[k+1][k+1]|, ||H||_F / n), eps = 2^-p / (100 n).  A sweep of the
  active window H[l..hi][l..hi] starts its bulge at the lowest row
  m >= l with |H[m][m-1]| (|v_1| + |v_2|) < eps |v_0| (|H[m-1][m-1]| +
  |H[m][m]| + |H[m+1][m+1]|) for the bulge v at m (EISPACK's hqr: Martin,
  Peters & Wilkinson, Numer. Math. 14 (1970) 219-231; LAPACK's
  ``dlahqr``), so a small subdiagonal pair inside the window cannot
  damp it.  From m > l the first reflector also acts on column m - 1:
  H[m][m-1] becomes h (1 - tau), and the fill below it, below the same
  eps, is set to 0.  Every tenth sweep without a deflation takes
  EISPACK's exceptional shifts; after 4 dps sweeps without one
  (mpmath's budget) the block has not converged;
* window-only sweeps: a sweep's reflectors act on the rows and columns
  of the window alone, with no Z and nothing of H outside the window.
  A row reflection mixes the entries of one column, a column reflection
  those of one row, so every entry written inside the window is the
  integer a sweep on whole rows and columns would write; the deflation
  scan, the shifts and the bulge start read only the window and the
  subdiagonal entry just above it, which no sweep of that window writes.
  The diagonal blocks are therefore, integer for integer, those of the
  full real Schur form, and so is every eigenvalue (the tests keep the
  full-sweep path as an oracle); the entries above the blocks are stale;
* error: a reflector application misrounds each entry it writes by a
  few units and departs from orthogonality by about 2^-F, so after N
  applications the diagonal blocks are exactly those of a matrix within
  about N sqrt(n) 2^-F ||H|| of H.  A sweep applies n - 1 of them, so
  even 4 dps n sweeps stay below 2^-p ||H|| by a factor above 2^p for
  n <= 100.  What is left is the deflations, below n eps 2 ||H||
  together, the fill a sweep from m > l drops, below 3 eps ||H|| each,
  and the final rounding to p bits.  Z_0, at 2^-W, is orthogonal to
  within about n sqrt(n) 2^-W, an error relative to the largest entry
  of a vector Z_0 x far below the 2^-p of rounding that entry to p bits;
* why 2p: near convergence the bulge a sweep chases shrinks with the
  subdiagonal it is to zero, to about the deflation threshold
  2^-p ||H||.  At the unit 2^-F it still carries p + 32 bits, so its
  reflector puts about 2^-(p+32) ||H|| back into that subdiagonal each
  sweep, below eps ||H||_F / n for n up to 6,000.  At a width of p + 24
  bits the bulge kept too few bits, and the QR stalled (D = 24, n = 12);
* eigenvalues: each diagonal entry of a 1x1 block is rounded once to p
  bits, and each 2x2 block's eigenvalues come from the ``rsf2csf``
  formulas (:func:`_split_block`) on its four entries, each rounded once
  to p bits: a complex pair's +im member first, then its exact
  conjugate.  They depend on the input conversion and the sweeps only
  (the mirror transform and the shifts are exact);
* inverse iteration: the shift s is the eigenvalue at F bits, an
  integer at the block's unit: a 1x1 block's entry, or a 2x2 block's
  roots ((a + d) +- isqrt((a - d)^2 + 4 b c)) / 2, floored, the real one
  nearer ``values[i]`` taken for vector i (the +im root for a complex
  pair, its imaginary part at least one unit).  H_0 - s I, over the
  leading rows down to the bottom of the unreduced block of H_0 that
  holds the eigenvalue (below it the vector is exactly 0), is factored
  by a partial-pivoted Hessenberg LU at F bits (:func:`_shifted_lu`),
  multipliers floored to 2^-F and a pivot of modulus below
  eps3 = max(||H_0||_inf 2^-F, 1) unit replaced by eps3, as in LAPACK's
  ``dlaein``.  Then U x = 2^B (1, ..., 1), one floor division per entry
  (two for a complex one), the starting vector being P^T L (1, ..., 1);
  B = p + :data:`SCHUR_X_BITS` plus the bit length of the last pivot,
  so |x_last| >= 2^(p+96) and each floor division errs by less than
  2^-(p+96) max|x|.  One step suffices: the error of s, the
  eigenvalue's own round-off, leaves the other eigenvectors a share of
  x of about |lambda - s| / gap, the first-order error that the same
  round-off puts into an exact eigenvector of the swept form (a
  repeated eigenvalue's vector is any of its eigenspace, which the
  residual checks).  The vector is Z_0 x, each entry shifted down by W,
  at x's unit;
* split form: an even-block vector y_e takes its node rows and their
  mirror images, P [y_e; 0].  An odd-block one is P [x_e; y_o], with
  x_e = 0 when L_eo = 0, else x_e = -(L_ee - s)^-1 L_eo y_o = Z_e w for
  (H_e - s) w = -Z_e^T L_eo y_o, solved with both triangular factors
  of the even block's LU of H_e - s I, with L_eo exact at 2^-S_c and
  s shifted to the even block's unit; the back-transform by P adds,
  subtracts and copies;
* odd rounding: the vector is divided by its pivot, the first entry
  whose modulus is within the gate of the largest (so a tie up to
  round-off cannot choose it), rounded to 2^-F to the nearest, ties
  away from zero, and then to p bits, to the nearest even.  These
  roundings are odd, and P [y_e; 0] and P [0; y_o] are exactly mirror-
  symmetric and antisymmetric: an even-block vector is exactly
  mirror-symmetric, and when L_eo = 0 an odd-block vector is exactly
  antisymmetric;
* residual and norm: M is converted once at F bits, exactly for entries
  whose exponents span fewer than F - p bits, and the eigenvalue at the
  same unit; M V - lambda V is then exact on integers for the vector V at
  2^-F, and rounds once to p bits (a complex modulus after an integer
  square root with p bits more); an exactly mirror-symmetric V takes M V
  on M's folded columns M[r][c] + M[r][n-1-c], the same integers.  What
  is not exact is the conversions' floors, below n 2^(1-F) ||M||, the
  vector's error, and the rounding of V to the reported p bits, below
  2^-p (||M|| + |lambda|): far below the gate 10^(-D/2-4) ||M||, as p is
  about 3.3 D bits.  The same integers give ||M||_inf, summed exactly
  and rounded once, and the blocks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from mpmath.libmp import (finf, from_man_exp, from_rational, fzero, mpf_abs, mpf_add, mpf_cmp,
                          mpf_div, mpf_mul, mpf_sub, to_fixed)

# Bits the Clenshaw kernel carries beyond the coefficients' precision.
KERNEL_GUARD_BITS = 16

# Bits the rows of the linearization carry beyond the context precision.
ROW_GUARD_BITS = 32

# Bits the integer Schur form carries beyond twice the context precision,
# and its Hessenberg reduction's Z_0 beyond the context precision.
SCHUR_GUARD_BITS = 32
SCHUR_Z_BITS = 64

# Bits an inverse-iteration vector carries beyond the context precision.
SCHUR_X_BITS = 96


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpf (binary float), as a Fraction; any
    other real goes through ``Fraction(x)``."""
    if not hasattr(x, "_mpf_"):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    man = -man if sign else man
    if exp >= 0:
        return Fraction(man * (1 << exp))
    return Fraction(man, 1 << (-exp))


def round_fraction(num, den, mpx):
    """num / den (integers, den > 0) rounded once, to the nearest, to the
    precision of the mpmath context mpx."""
    return mpx.make_mpf(from_rational(num, den, mpx.prec, "n"))


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


def _clenshaw(part, X, shift):
    """(b_0 - b_2) 2^S of one real part at the integer point X: its value
    at the unit 2^-(S+1), before any rounding."""
    S, c0, rest = part
    b1 = b2 = 0
    for c in rest:
        b1, b2 = c + ((X * b1) >> shift) - b2, b1
    return c0 + ((X * b1) >> shift) - 2 * b2


def _rounded(part, X, shift, prec):
    """Raw value at p bits of one real part at the integer point X."""
    return from_man_exp(_clenshaw(part, X, shift), -part[0] - 1, prec, "n")


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
            return self.mpx.make_mpf(_rounded(self.parts[0], X, shift, prec))
        return self.mpx.make_mpc(tuple(_rounded(p, X, shift, prec) for p in self.parts))

    @property
    def unit(self) -> int:
        """The finest unit 2^-(S+1) of the parts' values, as S + 1."""
        return max(p[0] for p in self.parts) + 1

    def ints(self, X, U):
        """The exact kernel values of the parts (real, then imaginary) at
        the point whose integer form is X, at the unit 2^-U, U >= unit."""
        shift = self.point_bits - 1
        return [_clenshaw(p, X, shift) << (U - p[0] - 1) for p in self.parts]


# ----------------------------------------------------------------------
# Linearization rows


def _signed(raw):
    """The signed mantissa of a raw tuple."""
    return -raw[1] if raw[0] else raw[1]


class BarycentricCardinals:
    """Integer form, at the unit 2^-U, of d cardinals
    card_j(z) = v^s sum_i l_i(v) y_ij in v = z^2 (``square``) or v = z:
    l_i are the Lagrange cardinals of N distinct nodes v_i with exact
    barycentric weights w_i, by the second barycentric formula, forward
    stable near the nodes (Higham, IMA J. Numer. Anal. 24 (2004) 547-556);
    y_ij = delta_ij / v_i^s at the first d nodes and ``values[a][j]`` at
    the last N - d.  The module docstring states the scaling, the
    ``guard`` bits and the error."""

    def __init__(self, nodes, weights, U, values=(), power=0, square=False, guard=0):
        vs = [mpf_to_fraction(x) for x in nodes]
        lcm = math.lcm(*(v.denominator for v in vs))
        # every node is an integer X_i at the unit 1 / (L 2^E), L odd
        self.E = E = (lcm & -lcm).bit_length() - 1
        self.L = L = lcm >> E
        self.U, self.K, self.s, self.square = U, guard, power, square
        self.d = d = len(vs) - len(values)
        F = U + guard
        self.X = [v.numerator * (lcm // v.denominator) for v in vs]
        self.W = [math.floor(mpf_to_fraction(w) * (L << (E + F))) for w in weights]
        self.Y = self.Yaux = None
        if power or values:  # y_ij at 2^-F
            self.Y = [math.floor(Fraction(1 << F) / v ** power) for v in vs[:d]]
            self.Yaux = [[math.floor(y * (1 << F)) for y in row] for row in values]
        # the rows at the auxiliary nodes, from their exact values
        self.at_aux = [[math.floor(u ** power * y * (1 << U)) for y in row]
                       for u, row in zip(vs[d:], values)]

    def rows(self, points, mpx):
        """One row (card_j(z) 2^U)_j of integers per point z."""
        U, K, s, E, L, Y, d, out = self.U, self.K, self.s, self.E, self.L, self.Y, self.d, []
        shift = K if Y is None else 2 * K + U
        for z in points:
            raw = _raw(z, mpx)
            Z, e = _signed(raw), -raw[2]
            if self.square:
                Z, e = Z * Z, 2 * e
            neg = s & 1 and Z < 0  # the sign of v^s
            V, ev = abs(Z) ** s, e * s  # |v|^s = V 2^-ev
            X, W, k = self.X, self.W, e - E
            if k > 0:  # v needs a finer unit than the nodes
                X, W = [x << k for x in X], [w << k for w in W]
                Z *= L
            else:
                Z = Z * L << -k
            ds = [Z - x for x in X]  # exact
            if 0 in ds:
                i = ds.index(0)
                out.append([1 << U if i == j else 0 for j in range(d)] if i < d
                           else list(self.at_aux[i - d]))
                continue
            t = [w // dx for w, dx in zip(W, ds)]
            total = sum(t)
            T = abs(total)
            b = T.bit_length()
            sh = b + U + K - ev
            r = (V << sh) // T if sh >= 0 else V // (T << -sh)
            if (total < 0) != neg:
                r = -r
            if Y is not None:
                nums = [a * y for a, y in zip(t, Y)]
                for a, row in zip(t[d:], self.Yaux):
                    nums = [c + a * y for c, y in zip(nums, row)]
                t = nums
            out.append([(a * r) >> (b + shift) for a in t])
        return out


def fixed_ints(values, U):
    """floor(a 2^U) of each finite real mpmath number a."""
    return [to_fixed(_finite(a._mpf_), U) for a in values]


def combine_rows(rows, U, mpx):
    """Rows of ``mpf`` of the context mpx: ``rows`` holds, for each output
    row, a list of terms (factors, ints), factors a sequence of finite
    reals and ints a row of integers at the unit 2^-U, and entry j is
    sum over the terms of prod(factors) ints[j] 2^-U, summed exactly and
    rounded once to the precision of mpx (zero where every term's factors
    vanish).  Each output row needs a term."""
    prec, out = mpx.prec, []
    for terms in rows:
        scaled = []
        for factors, ints in terms:
            m, e = 1, 0
            for f in factors:
                raw = _raw(f, mpx)
                m, e = m * _signed(raw), e + raw[2]
            if m:
                scaled.append((m, e, ints))
        scaled = scaled or [(0, 0, terms[0][1])]
        e0 = min(e for _, e, _ in scaled)
        ms = [m << (e - e0) for m, e, _ in scaled]
        cols = zip(*(ints for _, _, ints in scaled))
        out.append([mpx.make_mpf(from_man_exp(sum(map(mul, ms, col)), e0 - U, prec, "n"))
                    for col in cols])
    return out


# ----------------------------------------------------------------------
# LU kernel


def lu_rows(rows, scale, mpx):
    """Partial-pivoted LU of a square matrix of finite reals on their raw
    tuples, every operation an ``mpf`` one of the context mpx, in the
    order the module docstring states.  Returns (lu, perm, min_pivot,
    norm, stop): the factor rows as raw tuples (L's multipliers below the
    diagonal, U on and above it), the row order, the smallest pivot and
    ||A||_inf as ``mpf`` of mpx, and None, or (k, pivot, floor) for the
    first column k whose pivot is at most floor = scale ||A||_inf, where
    the factorization stops."""
    prec = mpx.prec
    lu = [[_raw(a, mpx) for a in row] for row in rows]
    norm = fzero
    for row in lu:
        s = fzero
        for a in row:
            s = mpf_add(s, mpf_abs(a, prec, "n"), prec, "n")
        if mpf_cmp(s, norm) > 0:
            norm = s
    floor = mpf_mul(_raw(scale, mpx), norm, prec, "n")
    n, min_pivot = len(lu), finf
    perm = list(range(n))
    for k in range(n):
        piv, prow = mpf_abs(lu[k][k], prec, "n"), k
        for r in range(k + 1, n):
            a = mpf_abs(lu[r][k], prec, "n")
            if mpf_cmp(a, piv) > 0:
                piv, prow = a, r
        if mpf_cmp(piv, floor) <= 0:
            return lu, perm, None, None, (k, mpx.make_mpf(piv), mpx.make_mpf(floor))
        if prow != k:
            lu[k], lu[prow] = lu[prow], lu[k]
            perm[k], perm[prow] = perm[prow], perm[k]
        if mpf_cmp(piv, min_pivot) < 0:
            min_pivot = piv
        rowk = lu[k]
        pk, tail = rowk[k], rowk[k + 1:]
        for rowr in lu[k + 1:]:
            f = rowr[k] = mpf_div(rowr[k], pk, prec, "n")
            if f != fzero:
                rowr[k + 1:] = [mpf_sub(a, mpf_mul(f, b, prec, "n"), prec, "n")
                                for a, b in zip(rowr[k + 1:], tail)]
    return lu, perm, mpx.make_mpf(min_pivot), mpx.make_mpf(norm), None


def lu_solve_rows(lu, perm, b, mpx):
    """x with A x = b, for the factors (lu, perm) of :func:`lu_rows` and
    finite reals b, as ``mpf`` of mpx: forward and back substitution on
    raw tuples, in the order the module docstring states."""
    prec, n = mpx.prec, len(lu)
    y = [_raw(b[i], mpx) for i in perm]
    for i in range(n):
        s = fzero
        for a, v in zip(lu[i][:i], y):
            s = mpf_add(s, mpf_mul(a, v, prec, "n"), prec, "n")
        y[i] = mpf_sub(y[i], s, prec, "n")
    for i in range(n - 1, -1, -1):
        s = fzero
        for a, v in zip(lu[i][i + 1:], y[i + 1:]):
            s = mpf_add(s, mpf_mul(a, v, prec, "n"), prec, "n")
        y[i] = mpf_div(mpf_sub(y[i], s, prec, "n"), lu[i][i], prec, "n")
    return [mpx.make_mpf(v) for v in y]


# ----------------------------------------------------------------------
# Schur kernel


def fixed_rows(rows, bits, mpx):
    """(S, integer rows floor(a 2^S)) of a square matrix of finite reals,
    with S = bits minus the exponent of its largest |a|: one power of two
    for the whole matrix, and every entry below 2^bits in modulus."""
    S, flat = _to_fixed([_raw(a, mpx) for row in rows for a in row], bits)
    n = len(rows)
    return S, [flat[i * n:(i + 1) * n] for i in range(n)]


def _shift(x, k):
    """floor(x 2^k) of an integer x."""
    return x << k if k >= 0 else x >> -k


def mpf_rows(rows, S, mpx):
    """The integer rows times 2^-S as rows of ``mpf`` of the context mpx,
    each entry rounded once to its precision."""
    prec = mpx.prec
    return [[mpx.make_mpf(from_man_exp(a, -S, prec, "n")) for a in row] for row in rows]


def norm_inf(rows, S, mpx):
    """||A||_inf of the integer rows times 2^-S, exact and rounded once to
    the precision of the context mpx."""
    top = max(sum(map(abs, row)) for row in rows)
    return mpx.make_mpf(from_man_exp(top, -S, mpx.prec, "n"))


def _reflector(v, F):
    """(s, u, w) of the Householder reflector P = I - u w^T that sends the
    integer vector v (not all zero) to (-s, 0, ..., 0): u = y / s and
    w = y / y_0 at the unit 2^-F, y = v + s e_0, so w_0 = 2^F exactly.

    v is first shifted by an exact power of two to F + 2 bits, so s comes
    from ``math.isqrt`` with F + 1 correct bits and P is orthogonal to
    about 2^-F however small v is; s is returned in the unit of v."""
    shift = F + 2 - max(abs(x) for x in v).bit_length()
    y = [_shift(x, shift) for x in v]
    s = math.isqrt(sum(x * x for x in y))
    if y[0] < 0:
        s = -s
    y[0] += s
    u = [(x << F) // s for x in y]
    w = [1 << F] + [(x << F) // y[0] for x in y[1:]]
    return _shift(s, -shift), u, w


def _reflect_rows(rows, u, w, j, end, F):
    """rows <- P rows in the columns j .. end - 1, for P = I - u w^T with
    w_0 = 2^F: each column c becomes c - u t, t = (w . c) >> F =
    c_0 + ((w_1 c_1 + ...) >> F), each product shifted down by F.  The
    3-row case of the sweeps is unrolled."""
    r0, tail = rows[0][j:end], w[1:]
    if len(u) == 3:
        w1, w2 = tail
        ts = [a + ((w1 * b + w2 * c) >> F)
              for a, b, c in zip(r0, rows[1][j:end], rows[2][j:end])]
    else:
        ts = [a + (sum(map(mul, tail, col)) >> F)
              for a, col in zip(r0, zip(*(row[j:end] for row in rows[1:])))]
    for c, row in zip(u, rows):
        row[j:end] = [x - ((t * c) >> F) for x, t in zip(row[j:end], ts)]


def _reflect_z(Zt, u, w, F, W):
    """Z <- Z P on the rows Zt of Z^T (Z's columns), for the reflector
    (u, w) of :func:`_reflector` floored from 2^-F to Z's unit 2^-W, so
    that w_0 = 2^W: each column c of Zt becomes c - w t, t = (u . c) >> W,
    its first entry c_0 - t."""
    u, w = [_shift(x, W - F) for x in u], [_shift(x, W - F) for x in w]
    ts = [sum(map(mul, u, col)) >> W for col in zip(*Zt)]
    Zt[0][:] = [a - t for a, t in zip(Zt[0], ts)]
    for c, row in zip(w[1:], Zt[1:]):
        row[:] = [x - ((t * c) >> W) for x, t in zip(row, ts)]


def _reflect_cols(rows, u, w, k, F):
    """row <- row P in the columns k .. k + len(u) - 1 of each row, for
    P = I - u w^T (symmetric, so row P = row - (row . u) w^T), with
    w_0 = 2^F as :func:`_reflector` makes it, so that the first entry
    becomes a - t.  The 3-column case of the sweeps is unrolled."""
    m = len(u)
    if m == 3:
        (u0, u1, u2), (_, w1, w2) = u, w
        for row in rows:
            a, b, c = row[k:k + 3]
            t = (u0 * a + u1 * b + u2 * c) >> F
            row[k:k + 3] = a - t, b - ((t * w1) >> F), c - ((t * w2) >> F)
    else:
        for row in rows:
            seg = row[k:k + m]
            t = sum(map(mul, u, seg)) >> F
            row[k:k + m] = [seg[0] - t] + [x - ((t * c) >> F) for x, c in zip(seg[1:], w[1:])]


def _hessenberg(H, F, W):
    """Reduce the integer matrix H (rows, overwritten) to upper Hessenberg
    form by Householder reflectors; returns Z^T, for the orthogonal Z at
    the unit 2^-W with H_in = Z H_out Z^T: its rows are Z's columns, so
    that Z <- Z P is the row reflection Z^T <- P^T Z^T."""
    n = len(H)
    Zt = [[1 << W if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(n - 2):
        v = [H[i][k] for i in range(k + 1, n)]
        if not any(v[1:]):
            continue
        s, u, w = _reflector(v, F)
        _reflect_rows(H[k + 1:], u, w, k + 1, n, F)
        _reflect_cols(H, u, w, k + 1, F)
        _reflect_z(Zt[k + 1:], u, w, F, W)
        H[k + 1][k] = -s
        for i in range(k + 2, n):
            H[i][k] = 0
    return Zt


def _francis_step(H, l, hi, exceptional, F, scale):
    """One implicit double-shift QR sweep on the active window
    H[l..hi][l..hi] of the integer Hessenberg H (Golub & Van Loan,
    Algorithm 7.5.1, in the scaling of EISPACK's hqr), from the row m that
    the module docstring's start test picks, scale = 1 / eps: reflectors
    of 3-vectors, the last of a 2-vector, chase the bulge down the window.
    Nothing outside the window is read or written."""
    x, y = H[hi][hi], H[hi - 1][hi - 1]
    prod = H[hi][hi - 1] * H[hi - 1][hi]  # at the squared unit
    if exceptional:  # EISPACK's ad hoc shifts, which break a cycle of sweeps
        e = abs(H[hi][hi - 1]) + abs(H[hi - 1][hi - 2])
        x = y = x + 3 * e // 4
        prod = -7 * e * e // 16
    for m in range(hi - 2, l - 1, -1):
        # H[m+1][m] times the first column of (H - s1)(H - s2) from row m,
        # s1 + s2 = x + y, s1 s2 = x y - prod: exact, at the squared unit
        a, b, c = H[m][m], H[m + 1][m], H[m + 1][m + 1]
        v = [(x - a) * (y - a) - prod + H[m][m + 1] * b,
             (c - a - (x - a) - (y - a)) * b,
             H[m + 2][m + 1] * b]
        if m == l or (abs(H[m][m - 1]) * (abs(v[1]) + abs(v[2])) * scale
                      < abs(v[0]) * (abs(H[m - 1][m - 1]) + abs(a) + abs(c))):
            break
    for k in range(m, hi):
        r = min(3, hi + 1 - k)
        if k > m:
            v = [H[i][k - 1] for i in range(k, k + r)]
        if not any(v):
            continue
        s, u, w = _reflector(v, F)
        if k > m:
            H[k][k - 1] = -s
        # from m > l the first reflector acts on column m - 1 too
        _reflect_rows(H[k:k + r], u, w, k - 1 if k == m > l else k, hi + 1, F)
        if k > l:
            for i in range(k + 1, k + r):
                H[i][k - 1] = 0
        _reflect_cols(H[l:min(hi, k + 3) + 1], u, w, k, F)


def francis_qr(H, F, prec, budget):
    """None, or the bottom row of an active window in which ``budget``
    sweeps found no deflation: the integer upper Hessenberg H (rows,
    overwritten) swept by :func:`_francis_step` at ``F`` bits under the
    deflation rule of the module docstring, p = ``prec``, until each
    diagonal block is 1x1 or 2x2, a 2x2 block being the last of its window
    to converge.  The diagonal blocks are those of a real Schur form of H;
    the entries above them are left stale."""
    n = len(H)
    floor = math.isqrt(sum(x * x for row in H for x in row)) // n  # ||H||_F / n
    if not floor:
        return None
    scale = 100 * n << prec  # |h| < eps t  <=>  |h| scale < t
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
        elif its == budget:
            return hi
        else:
            its += 1
            _francis_step(H, l, hi, its % 10 == 0, F, scale)
    return None


def _fix(v, S):
    """(floor(re 2^S), floor(im 2^S)) of a finite real or complex mpmath
    number."""
    re, im = v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_, fzero)
    return to_fixed(_finite(re), S), to_fixed(_finite(im), S)


def _div(a, d):
    """a / d rounded to the nearest integer, ties away from zero, for
    d > 0: odd in a, so a and -a give exactly negated quotients."""
    q, r = divmod(abs(a), d)
    q += 2 * r >= d
    return q if a >= 0 else -q


def _split_block(a, b, c, d, mpx):
    """The eigenvalues (t00, t11) of the 2x2 block [[a, b], [c, d]],
    c != 0, of a real Schur form, in numbers of the context mpx: the
    diagonal of U^H block U for the rotation U = [[cs, -sn], [sn, conj(cs)]]
    of ``rsf2csf``, sn real and |cs|^2 + sn^2 = 1.  Real eigenvalues come
    from a real rotation, t00 the one farther from d; a complex pair is
    t00 = d + mu with +im and its exact conjugate."""
    p = (a - d) / 2
    disc = p * p + b * c
    if disc < 0:
        mu = mpx.mpc(p, mpx.sqrt(-disc))
        return d + mu, (d + mu).conjugate()
    # eigenvalue d + z with no cancellation in z; eigenvector (z, c)
    z = p + mpx.sqrt(disc) if p >= 0 else p - mpx.sqrt(disc)
    tau = mpx.hypot(z, c)
    cs, sn = z / tau, c / tau
    return (cs * (cs * a + sn * c) + sn * (cs * b + sn * d),
            cs * (cs * d - sn * b) - sn * (cs * c - sn * a))


def _block_shifts(a, b, c, d, first):
    """The eigenvalues of the integer 2x2 block [[a, b], [c, d]] as two
    (re, im) pairs at its unit, floored: a complex pair's +im member first,
    else the root nearer the integer ``first`` first."""
    disc = (a - d) ** 2 + 4 * b * c  # 4 ((a - d)^2 / 4 + b c)
    t = a + d
    if disc < 0:  # an imaginary part of at least one unit, so the shift is complex
        s = max(math.isqrt(-disc) >> 1, 1)
        return (t >> 1, s), (t >> 1, -s)
    s = math.isqrt(disc)
    roots = [((t + s) >> 1, 0), ((t - s) >> 1, 0)]
    return sorted(roots, key=lambda r: abs(r[0] - first))


def schur_widths(prec):
    """(F, W): the bits of the integer Schur form and of the Hessenberg
    reduction's Z_0 at the context precision p = ``prec``."""
    return 2 * prec + SCHUR_GUARD_BITS, prec + SCHUR_Z_BITS
def _fold(v, middle):
    """(v_i + v_(n-1-i))_(i < n // 2), middle v_m for an odd n, then
    (v_i - v_(n-1-i))_(i < n // 2): for the mirror transform P, v P with
    middle 1 and 2 P^-1 v with middle 2."""
    m = len(v) // 2
    return ([v[i] + v[~i] for i in range(m)] + [middle * x for x in v[m:len(v) - m]]
            + [v[i] - v[~i] for i in range(m)])


def schur_blocks(M, SM, tol, F, mpx):
    """(blocks, coupling) of the integer square matrix M at the unit 2^-SM:
    the diagonal blocks (lo, S, H) for :class:`SchurForm`, lo the first row
    in the whole and H rescaled to F bits at the unit 2^-S, and None or
    the coupling (S_c, integer rows at the unit 2^-S_c).  2 P^-1 M P is
    formed exactly by sums and differences, for the mirror transform P
    with columns e_i + e_(n-1-i) (i < n // 2), the middle e_m of an odd n,
    then e_i - e_(n-1-i).  When M maps mirror-symmetric vectors to
    mirror-symmetric ones, that is when its even-to-odd block L_oe has
    ||L_oe||_inf <= tol, P^-1 M P = [[L_ee, L_eo], [0, L_oo]], exact at
    2^-(SM+1), splits into two blocks with the coupling L_eo, and an
    eigenvalue of L_ee has an exactly mirror-symmetric vector."""
    def block(lo, rows, S):  # shifted so that the largest entry has F bits
        top = max((abs(x).bit_length() for row in rows for x in row), default=0)
        k = F - top if top else 0
        return lo, S + k, [[_shift(x, k) for x in row] for row in rows]

    n, h = len(M), len(M) - len(M) // 2
    B = list(zip(*(_fold(col, 2) for col in zip(*(_fold(row, 1) for row in M)))))
    if h < n and norm_inf([row[:h] for row in B[h:]], SM + 1, mpx) <= tol:
        return ([block(0, [row[:h] for row in B[:h]], SM + 1),
                 block(h, [row[h:] for row in B[h:]], SM + 1)],
                (SM + 1, [row[h:] for row in B[:h]]))
    return [block(0, M, SM)], None




def _unfold(e, o):
    """P [e; o] for the mirror transform P: node i is e_i + o_i and node
    n-1-i is e_i - o_i (i < len(o)), the middle of an odd n e_m."""
    m = len(o)
    return ([a + b for a, b in zip(e, o)] + e[m:]
            + [a - b for a, b in zip(e[m - 1::-1], o[::-1])])


def _dot_rows(rows, x, shift=0):
    """rows x for integer rows and an integer vector x, over x's support
    (its leading entries), each entry shifted down by ``shift``."""
    return [sum(map(mul, row, x)) >> shift for row in rows]


def _times(rows, xr, xi, shift):
    """(rows x_r, rows x_i) shifted down by ``shift``, xi None for a real
    x."""
    return _dot_rows(rows, xr, shift), xi and _dot_rows(rows, xi, shift)


def _shifted_lu(A, sr, si, eps3, F):
    """(R, I, steps): the partial-pivoted LU of the integer upper
    Hessenberg A - s I (A's rows overwritten), s = sr + i si.  R and I
    hold U's real and imaginary rows (entries left of the diagonal are
    stale), I None for a real s; steps[k] is (swap, fr, fi): whether rows k
    and k + 1 were swapped, and the multiplier of row k + 1 floored to
    2^-F.  A pivot of modulus below eps3 becomes eps3, as in LAPACK's
    ``dlaein``."""
    n, R, steps = len(A), A, []
    for k in range(n):
        R[k][k] -= sr
    if not si:
        for k in range(n - 1):
            rk, rn = R[k], R[k + 1]
            swap = abs(rn[k]) > abs(rk[k])
            if swap:
                R[k], R[k + 1] = rk, rn = rn, rk
            if abs(rk[k]) < eps3:
                rk[k] = eps3
            f = (rn[k] << F) // rk[k]
            if f:
                rn[k + 1:] = [a - ((f * u) >> F) for a, u in zip(rn[k + 1:], rk[k + 1:])]
            steps.append((swap, f, 0))
        if abs(R[-1][-1]) < eps3:
            R[-1][-1] = eps3
        return R, None, steps
    I = [[0] * n for _ in range(n)]
    for k in range(n):
        I[k][k] = -si
    for k in range(n - 1):
        rk, ik, rn, i_n = R[k], I[k], R[k + 1], I[k + 1]
        swap = rn[k] ** 2 + i_n[k] ** 2 > rk[k] ** 2 + ik[k] ** 2
        if swap:
            R[k], R[k + 1], I[k], I[k + 1] = rk, rn, ik, i_n = rn, rk, i_n, ik
        if rk[k] ** 2 + ik[k] ** 2 < eps3 * eps3:
            rk[k], ik[k] = eps3, 0
        ar, ai, br, bi, ur, ui = rk[k], ik[k], rn[k], i_n[k], rk[k + 1:], ik[k + 1:]
        d = ar * ar + ai * ai
        fr, fi = ((br * ar + bi * ai) << F) // d, ((bi * ar - br * ai) << F) // d
        rn[k + 1:] = [a - ((fr * u - fi * v) >> F) for a, u, v in zip(rn[k + 1:], ur, ui)]
        i_n[k + 1:] = [a - ((fr * v + fi * u) >> F) for a, u, v in zip(i_n[k + 1:], ur, ui)]
        steps.append((swap, fr, fi))
    if R[-1][-1] ** 2 + I[-1][-1] ** 2 < eps3 * eps3:
        R[-1][-1], I[-1][-1] = eps3, 0
    return R, I, steps


def _lu_solve(lu, cr, ci, F, lower=True):
    """(xr, xi) with U x = L^-1 c (with ``lower``) or U x = c, for the
    factors ``lu`` of :func:`_shifted_lu` and the integer vector
    c = cr + i ci, ci None for a real s: each entry of x one (complex)
    floor division."""
    R, I, steps = lu
    cr, n = list(cr), len(R)
    if not I:
        if lower:
            for k, (swap, f, _) in enumerate(steps):
                if swap:
                    cr[k], cr[k + 1] = cr[k + 1], cr[k]
                cr[k + 1] -= (f * cr[k]) >> F
        x = [0] * n
        for j in range(n - 1, -1, -1):
            x[j] = (cr[j] - sum(map(mul, R[j][j + 1:], x[j + 1:]))) // R[j][j]
        return x, None
    ci = list(ci)
    if lower:
        for k, (swap, fr, fi) in enumerate(steps):
            if swap:
                cr[k], cr[k + 1], ci[k], ci[k + 1] = cr[k + 1], cr[k], ci[k + 1], ci[k]
            a, b = cr[k], ci[k]
            cr[k + 1] -= (fr * a - fi * b) >> F
            ci[k + 1] -= (fr * b + fi * a) >> F
    xr, xi = [0] * n, [0] * n
    for j in range(n - 1, -1, -1):
        ur, ui, pr, pi = R[j][j + 1:], I[j][j + 1:], xr[j + 1:], xi[j + 1:]
        nr = cr[j] - sum(map(mul, ur, pr)) + sum(map(mul, ui, pi))
        ni = ci[j] - sum(map(mul, ur, pi)) - sum(map(mul, ui, pr))
        dr, di = R[j][j], I[j][j]
        d = dr * dr + di * di
        xr[j], xi[j] = (nr * dr + ni * di) // d, (ni * dr - nr * di) // d
    return xr, xi


class _Block:
    """One diagonal block of the split: its unit 2^-S, its Hessenberg
    matrix H_0 at F bits, Z_0 at 2^-W as rows and as columns (Zt), and
    the dlaein floor eps3 = max(||H_0||_inf 2^-F, 1) in units."""

    def __init__(self, S, H0, Zt, F):
        self.S, self.H0, self.Zt, self.Z = S, H0, Zt, [list(r) for r in zip(*Zt)]
        self.eps3 = max(max(sum(map(abs, row)) for row in H0) >> F, 1)

    def lu(self, sr, si, end, F):
        """The factors of :func:`_shifted_lu` of H_0[:end][:end] - s I."""
        return _shifted_lu([row[:end] for row in self.H0[:end]], sr, si, self.eps3, F)


class SchurForm:
    """The eigenpairs of the square matrix M of ``rows``, finite reals of
    the context mpx, on integers: the eigenvalues from the diagonal blocks
    of a real Schur form, each vector from one step of inverse iteration
    on the Hessenberg matrix of its block, as the module docstring states;
    ``gate`` is the relative tolerance of the mirror split and of a
    vector's pivot.  ``norm`` is ||M||_inf.  ``failed`` is None, or the
    row of M at the bottom of a window in which ``budget`` sweeps found no
    deflation, and then nothing more is made.  Else ``values`` are the
    eigenvalues, numbers of mpx, in the order of the blocks' diagonals
    (the even block first), and ``tops`` the positions k of the +im member
    of a complex pair, its conjugate at k + 1."""

    def __init__(self, rows, gate, mpx):
        self.F, self.W = F, W = schur_widths(mpx.prec)
        self.mpx, self.gate, self.folded = mpx, mpf_to_fraction(gate), None
        self.SM, self.M = fixed_rows(rows, F, mpx)
        self.norm = norm_inf(self.M, self.SM, mpx)
        self.budget, self.failed = 4 * mpx.dps, None
        split, self.coupling = schur_blocks(self.M, self.SM, gate * self.norm, F, mpx)
        self.even = len(split[0][2]) if self.coupling else 0
        self.blocks, self.values, self.tops, self.shifts = [], [], set(), []
        for lo, S, H in split:
            Zt = _hessenberg(H, F, W)
            H0 = [row[:] for row in H]
            row = francis_qr(H, F, mpx.prec, self.budget)
            if row is not None:
                self.failed = lo + row
                return
            n = len(H)
            values = mpf_rows([[H[k][k] for k in range(n)]], S, mpx)[0]
            shifts = [(H[k][k], 0) for k in range(n)]
            for k in range(n - 1):
                if H[k + 1][k]:
                    (a, b), (c, d) = H[k][k:k + 2], H[k + 1][k:k + 2]
                    values[k:k + 2] = _split_block(*mpf_rows([[a, b, c, d]], S, mpx)[0], mpx)
                    shifts[k:k + 2] = _block_shifts(a, b, c, d, _fix(values[k], S)[0])
                    if hasattr(values[k], "_mpc_"):
                        self.tops.add(lo + k)
            self.shifts += [(len(self.blocks), k, s) for k, s in enumerate(shifts)]
            self.values += values
            self.blocks.append(_Block(S, H0, Zt, F))

    def _vector(self, i):
        """(vr, vi): the eigenvector of ``values[i]`` on M's rows, integers
        at one unit, vi None for a real eigenvalue, as the module docstring
        states."""
        F, W = self.F, self.W
        b, k, (sr, si) = self.shifts[i]
        block = self.blocks[b]
        end, H0 = k + 1, block.H0
        while end < len(H0) and H0[end][end - 1]:
            end += 1
        lu = block.lu(sr, si, end, F)
        last = lu[0][-1][-1] ** 2 + (lu[1][-1][-1] ** 2 if si else 0)
        B = self.mpx.prec + SCHUR_X_BITS + (last.bit_length() + 1) // 2
        y = _times(block.Z, *_lu_solve(lu, [1 << B] * end, si and [0] * end, F, lower=False), W)
        if self.coupling is None:
            return y
        if b == 0:
            return tuple(v and _unfold(v, [0] * (len(self.M) - self.even)) for v in y)
        # x_e = -(L_ee - s)^-1 L_eo y: Z_e w, with (H_e - s) w = -Z_e^T L_eo y
        Sc, L = self.coupling
        even = self.blocks[0]
        e = [[0] * self.even for _ in y]
        if any(map(any, L)):
            c = [v and [_shift(-a, even.S - Sc - W) for a in _dot_rows(even.Zt, _dot_rows(L, v))]
                 for v in y]
            ds = even.S - block.S
            lu = even.lu(_shift(sr, ds), _shift(si, ds), self.even, F)
            e = _times(even.Z, *_lu_solve(lu, *c, F), W)
        return tuple(v and _unfold(ev, v) for ev, v in zip(e, y))

    def eigenpair(self, i):
        """(vector, residual) of the eigenvalue lam = ``values[i]``, in
        ``mpf``/``mpc`` of the context, or None when the vector vanishes.
        The vector is normalized at its pivot, for a real lam its real
        part; the residual is ||M v - lam v||_inf."""
        F = self.F
        V = _normalize(*self._vector(i), self.gate, F)
        if V is None:
            return None
        mpx, prec = self.mpx, self.mpx.prec
        if V[1] is None:
            vec = tuple(mpx.make_mpf(from_man_exp(a, -F, prec, "n")) for a in V[0])
        else:
            vec = tuple(mpx.make_mpc((from_man_exp(a, -F, prec, "n"),
                                      from_man_exp(b, -F, prec, "n"))) for a, b in zip(*V))
        return vec, self._residual(V, self.values[i])

    def _residual(self, V, lam):
        """||M V - lam V||_inf, exact on the integers M and V, rounded once
        (a complex modulus after an integer square root with p more bits)."""
        (Vr, Vi), SM, prec = V, self.SM, self.mpx.prec
        lr, li = _fix(lam, SM)
        if Vi is None:
            r = max(abs(mv - lr * a) for mv, a in zip(self._apply(Vr), Vr))
            return self.mpx.make_mpf(from_man_exp(r, -SM - self.F, prec, "n"))
        r2 = max((mv - lr * a + li * b) ** 2 + (mvi - lr * b - li * a) ** 2
                 for mv, mvi, a, b in zip(self._apply(Vr), self._apply(Vi), Vr, Vi))
        r = math.isqrt(r2 << (2 * prec))
        return self.mpx.make_mpf(from_man_exp(r, -SM - self.F - prec, prec, "n"))

    def _apply(self, V):
        """M V on the integers, on M's folded columns, made once, when V is
        exactly mirror-symmetric."""
        if V != V[::-1]:
            return [sum(map(mul, row, V)) for row in self.M]
        if self.folded is None:
            h = len(V) - len(V) // 2
            self.folded = [_fold(row, 1)[:h] for row in self.M]
        return [sum(map(mul, row, V)) for row in self.folded]


def _normalize(vr, vi, gate, F):
    """(Vr, Vi) = v / v_p at the unit 2^-F, Vi None for a real v, where
    v_p is the first entry whose modulus is within the fraction gate of
    the largest, so that a tie up to round-off cannot pick the pivot;
    each entry rounds by :func:`_div`.  None when v = 0."""
    keep = gate.denominator - gate.numerator  # |v_j| >= (1 - gate) max |v|
    if vi is None:
        top = max(abs(a) for a in vr)
        if not top:
            return None
        cut = keep * top
        b = next(a for a in vr if abs(a) * gate.denominator >= cut)
        sign, d = (1, b) if b > 0 else (-1, -b)
        return [_div((sign * a) << F, d) for a in vr], None
    mods = [a * a + c * c for a, c in zip(vr, vi)]
    top = max(mods)
    if not top:
        return None
    cut = keep * keep * top
    p = next(j for j, m in enumerate(mods) if m * gate.denominator ** 2 >= cut)
    br, bi, d = vr[p], vi[p], mods[p]
    return ([_div((a * br + c * bi) << F, d) for a, c in zip(vr, vi)],
            [_div((c * br - a * bi) << F, d) for a, c in zip(vr, vi)])
