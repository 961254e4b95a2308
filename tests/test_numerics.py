"""Precision context, dense solves, exact elimination, eigensolver."""

import math
import random
import threading
from fractions import Fraction
from operator import mul
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

import feigenbaum as fb
from feigenbaum import fixed
from feigenbaum.numerics import lu_factor, lu_solve_factored, mat_norm_inf


def test_precision_ctx_rejects_low_digits():
    with pytest.raises(ValueError):
        fb.PrecisionCtx(8)


def test_precision_ctx_roundtrips_decimal_literal(ctx):
    digits = "1." + "0123456789" * 6 + "012"  # 64 significant digits
    x = ctx.mpf(digits)
    assert ctx.to_str(x) == digits


def _nearest(x, p):
    """The p-bit binary number nearest the Fraction x, ties to even."""
    a = abs(x)
    if not a:
        return a
    e = a.numerator.bit_length() - a.denominator.bit_length() - p
    while a >= Fraction(2) ** (e + p):
        e += 1
    while a < Fraction(2) ** (e + p - 1):
        e -= 1
    m = round(a / Fraction(2) ** e)  # half to even
    return (m if x > 0 else -m) * Fraction(2) ** e


@settings(max_examples=200, deadline=None)
@given(st.integers(16, 100), st.integers(0, 10 ** 9), st.booleans())
def test_precision_ctx_rounds_a_fraction_once(D, seed, tie):
    # the number at the context's precision p nearest x, ties to even, not
    # the quotient of a numerator already rounded to p bits: x a 400-bit
    # numerator over a 60-bit denominator, or -(m + 1/2) for a p-bit m
    ctx, rng = fb.PrecisionCtx(D), random.Random(seed)
    p = ctx.prec_bits
    if tie:
        x = -Fraction(2 * (rng.getrandbits(p - 1) | 1 << (p - 1)) + 1, 2)
    else:
        x = Fraction(rng.getrandbits(400) - (1 << 399), rng.getrandbits(60) | 1)
    assert fb.mpf_to_fraction(ctx.mpf(x)) == _nearest(x, p)


def test_guard_bits_margin(ctx):
    assert ctx.prec_bits >= 64 * 3.32


def _solve(A, b, ctx):
    return lu_solve_factored(lu_factor(A, ctx), list(b), ctx)


def test_solve_identity(ctx):
    A = fb.numerics.identity_rows(3, ctx)
    x = _solve(A, [ctx.mpf(1), ctx.mpf(2), ctx.mpf(3)], ctx)
    assert [float(v) for v in x] == [1.0, 2.0, 3.0]


def test_solve_diagonal(ctx):
    A = [[ctx.mpf(2), ctx.mpf(0)], [ctx.mpf(0), ctx.mpf(4)]]
    x = _solve(A, [ctx.mpf(2), ctx.mpf(4)], ctx)
    assert [float(v) for v in x] == [1.0, 1.0]


def test_solve_singular_raises(ctx):
    A = [[ctx.mpf(1), ctx.mpf(1)], [ctx.mpf(1), ctx.mpf(1)]]
    with pytest.raises(fb.SingularMatrix):
        _solve(A, [ctx.mpf(1), ctx.mpf(2)], ctx)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 9))
def test_solve_multiply_back(n, seed):
    ctx = fb.PrecisionCtx(32)
    rng = random.Random(seed)
    with ctx.activate():
        A = [[ctx.mpf(rng.uniform(-2, 2)) for _ in range(n)] for _ in range(n)]
        b = [ctx.mpf(rng.uniform(-2, 2)) for _ in range(n)]
        try:
            x = _solve(A, b, ctx)
        except fb.SingularMatrix:
            return
        res = max(
            abs(sum(A[i][j] * x[j] for j in range(n)) - b[i]) for i in range(n)
        )
        bound = ctx.ten_pow(-32 + 8) * max(abs(v) for v in b)
        assert res <= bound


def test_exact_solve_two_by_two():
    A = [[1, 1], [1, -1]]
    X = fb.solve_linear_exact(A, [[1, 0], [0, 1]])
    assert X == [
        [Fraction(1, 2), Fraction(1, 2)],
        [Fraction(1, 2), Fraction(-1, 2)],
    ]


def test_exact_solve_even_vandermonde_inverse():
    # nodes i/15, powers x^2 .. x^30: invert and multiply back exactly
    nodes = [Fraction(i, 15) for i in range(1, 16)]
    powers = list(range(2, 31, 2))
    V = [[x ** p for p in powers] for x in nodes]
    eye = [[Fraction(int(i == j)) for j in range(15)] for i in range(15)]
    X = fb.solve_linear_exact(V, eye)
    for i in range(15):
        for j in range(15):
            s = sum(V[i][k] * X[k][j] for k in range(15))
            assert s == (1 if i == j else 0)


def test_exact_solve_zero_matrix_singular():
    with pytest.raises(fb.ExactlySingular):
        fb.solve_linear_exact([[0]], [[1]])


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.integers(-9, 9), min_size=1, max_size=32),
)
def test_exact_solve_random_multiply_back(n, ents):
    vals = (ents * ((n * n + 2 * n) // len(ents) + 1))
    A = [[Fraction(vals[i * n + j], 1 + ((i + j) % 3)) for j in range(n)] for i in range(n)]
    B = [[Fraction(vals[n * n + i]), Fraction(1)] for i in range(n)]
    try:
        X = fb.solve_linear_exact(A, B)
    except fb.ExactlySingular:
        # the oracle: a singular verdict must match a zero determinant
        assert _det(A) == 0
        return
    assert _det(A) != 0
    for i in range(n):
        for c in range(2):
            assert sum(A[i][k] * X[k][c] for k in range(n)) == B[i][c]


def _det(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        total += (-1) ** j * A[0][j] * _det(minor)
    return total


def test_eig_diagonal(ctx):
    A = [[ctx.mpf(v) if i == j else ctx.mpf(0) for j, v in enumerate((3, -2, "0.5"))]
         for i in range(3)]
    pairs = fb.eig_dense(A, ctx)
    assert [float(p.value.real) for p in pairs] == [3.0, -2.0, 0.5]
    for p in pairs:
        assert p.value.imag == 0
        big = sorted(abs(v) for v in p.vector)
        assert float(big[-1]) == 1.0 and float(big[-2]) < 1e-60


def test_eig_rotation_conjugate_pair(ctx):
    A = [[ctx.mpf(0), ctx.mpf(1)], [ctx.mpf(-1), ctx.mpf(0)]]
    pairs = fb.eig_dense(A, ctx)
    ims = sorted(float(p.value.imag) for p in pairs)
    assert ims == [-1.0, 1.0]
    assert all(abs(float(p.value.real)) < 1e-60 for p in pairs)


def test_eig_residual_bound_random(ctx):
    rng = random.Random(7)
    n = 8
    with ctx.activate():
        A = [[ctx.mpf(rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
        tol = ctx.eig_gate
        pairs = fb.eig_dense(A, ctx)
        norm = mat_norm_inf(A)
        for p in pairs:
            assert p.residual <= tol * norm


def test_eig_precision_insensitive_fixed_matrix():
    # Hilbert 8x8: eigenvalues must agree across 32 and 64 digit contexts
    vals = {}
    for digits in (32, 64):
        ctx = fb.PrecisionCtx(digits)
        with ctx.activate():
            A = [[ctx.mpf(Fraction(1, 1 + i + j)) for j in range(8)] for i in range(8)]
            pairs = fb.eig_dense(A, ctx)
            vals[digits] = [p.value.real for p in pairs]
    for a, b in zip(vals[32], vals[64]):
        assert abs(a - b) < mp.mpf("1e-30")


def test_lu_reports_pivot_ratio(ctx):
    A = [[ctx.mpf(1), ctx.mpf(0)], [ctx.mpf(0), ctx.ten_pow(-6)]]
    fac = lu_factor(A, ctx)
    assert float(fac.pivot_ratio) == pytest.approx(1e-6, rel=1e-3)


def _exact_pivots(A, perm, stop):
    """(|pivot|, largest |candidate|) of each column of the exact
    elimination of A's rows taken in the order perm, without pivoting, up
    to the column ``stop`` (None for all): fraction-free on A's exact
    binary values, so pivot k is d_k / d_(k-1) for the leading minors."""
    n = len(A)
    M = [[fb.mpf_to_fraction(a) for a in A[i]] for i in perm]
    scale = math.lcm(*(a.denominator for row in M for a in row))
    M = [[int(a * scale) for a in row] for row in M]
    out, prev = [], 1
    for k in range(n if stop is None else stop + 1):
        out.append((Fraction(abs(M[k][k]), abs(prev) * scale),
                    Fraction(max(abs(M[r][k]) for r in range(k, n)), abs(prev) * scale)))
        if not M[k][k]:
            break
        for r in range(k + 1, n):
            M[r][k + 1:] = [(a * M[k][k] - M[r][k] * b) // prev
                            for a, b in zip(M[r][k + 1:], M[k][k + 1:])]
        prev = M[k][k]
    return out


def _assert_lu_within_its_bound(A, b, ctx):
    """lu_factor and lu_solve_factored against the exact rational solution
    of A x = b on the entries' exact binary values, within the bound the
    ``fixed`` docstring states, and SingularMatrix exactly when the exact
    elimination in the kernel's row order meets a pivot at or below the
    floor 10^(-D+8) ||A||_inf, that order being partial pivoting, both to
    within the kernel's margin 2^-p ||A||_inf."""
    n, p = len(A), ctx.prec_bits
    exact = [[fb.mpf_to_fraction(a) for a in row] for row in A]
    norm = max(sum(map(abs, row)) for row in exact)
    floor, margin = norm / 10 ** (ctx.decimal_digits - 8), norm / 2 ** p
    lu, perm, _, _, stop = fixed.lu_ints(A, ctx.decimal_digits - 8, ctx.mp)
    pivots = _exact_pivots(A, perm, stop and stop[0])
    # partial pivoting up to the stop, whose test reads the column's largest
    assert all(piv >= top - margin for piv, top in pivots[:stop and stop[0]])
    if any(abs(top - floor) < margin for _, top in pivots):
        return  # too near the floor to decide
    low = next((k for k, (_, top) in enumerate(pivots) if top <= floor), None)
    if low is not None:
        assert stop is not None and stop[0] == low
        with pytest.raises(fb.SingularMatrix) as err:
            lu_factor(A, ctx)
        k, piv = stop
        assert str(err.value) == "pivot %s at column %d below tolerance %s" % (
            ctx.mp.nstr(piv, 5), k, ctx.mp.nstr(ctx.ten_pow(8 - ctx.decimal_digits) * norm, 5))
        return
    assert stop is None
    F, S, _, U = lu
    assert F == 2 * p + fixed.LU_GUARD_BITS
    fac = lu_factor(A, ctx)
    assert abs(fb.mpf_to_fraction(fac.norm) - norm) <= n * Fraction(1, 2 ** S) + margin
    assert abs(fb.mpf_to_fraction(fac.min_pivot) - min(piv for piv, _ in pivots)) <= margin
    got = [fb.mpf_to_fraction(x) for x in lu_solve_factored(fac, b, ctx)]
    cols = fb.solve_linear_exact(exact, [[fb.mpf_to_fraction(v)] + [int(i == j) for j in range(n)]
                                         for i, v in enumerate(b)])
    x, inverse = [row[0] for row in cols], max(sum(map(abs, row[1:])) for row in cols)
    rho = Fraction(max(abs(a) for row in U for a in row), 2 ** F)
    xhat = max(map(abs, got)) * (1 + Fraction(2, 2 ** p))
    bnorm = max(abs(fb.mpf_to_fraction(v)) for v in b)
    bound = (inverse * Fraction(2, 2 ** F) * ((2 + rho) * n * norm * xhat + (2 + n * rho) * bnorm)
             + xhat / 2 ** p)
    assert max(abs(g - e) for g, e in zip(got, x)) <= bound


def _full_precision(rng, ctx):
    """A uniform draw from [-1, 1) carrying every bit of the context."""
    bits = ctx.prec_bits + 8
    return ctx.mpf(Fraction(rng.randrange(-1 << bits, 1 << bits), 1 << bits))


@settings(max_examples=60, deadline=None)
@given(st.integers(16, 100), st.integers(1, 20),
       st.sampled_from(["dominant", "row-scaled", "rank-deficient", "small integers"]),
       st.integers(0, 10 ** 9))
@example(16, 1, "rank-deficient", 0)
@example(100, 20, "row-scaled", 1)
@example(32, 8, "small integers", 2)
def test_lu_kernel_matches_the_exact_solution(digits, n, draw, seed):
    ctx, rng = fb.PrecisionCtx(digits), random.Random(seed)
    A = [[_full_precision(rng, ctx) for _ in range(n)] for _ in range(n)]
    if draw == "small integers":  # pivot ties, zero multipliers, exact rank loss
        A = [[ctx.mpf(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    elif draw == "dominant":
        for i in range(n):
            A[i][i] += n
    elif draw == "row-scaled":
        A = [[a * ctx.ten_pow(e) for a in row]
             for row, e in zip(A, (rng.randint(-40, 40) for _ in range(n)))]
    else:  # one row a rounded combination of two others, or zero at n = 1
        A[-1] = [3 * a - b for a, b in zip(A[0], A[1])] if n > 1 else [ctx.mpf(0)]
    b = [_full_precision(rng, ctx) for _ in range(n)]
    _assert_lu_within_its_bound(A, b, ctx)


def test_unpinned_t4_half_still_degenerates_bit_for_bit(monkeypatch):
    # at D = 64 on 12 nodes the even half's third Jacobian has a pivot of
    # 1.1e-19 ||A||_inf: above the floor 10^-56 ||A||_inf, below the
    # degeneracy test, whose message must read the same pivot ratio
    ctx = fb.PrecisionCtx(64)
    seed = fb.monomial_to_series([ctx.mpf(1), ctx.mpf(0), ctx.mpf("-1.5")], ctx)
    seen = []

    def recording(A, c):
        seen.append([list(row) for row in A])
        return lu_factor(A, c)

    monkeypatch.setattr(fb.solver, "lu_factor", recording)
    with pytest.raises(fb.SingularJacobian) as err:
        fb.newton_solve(fb.OperatorSpec(fb.Variant.T4, fb.Linearization.FULL_DERIVATIVE),
                        None, seed, fb.NewtonConfig(), ctx, n=12)
    assert str(err.value) == (
        "Newton Jacobian degenerate (pivot ratio 1.13e-19): the operator has eigenvalue 1, "
        "i.e. a one-parameter solution family; pin g(0) to select a member")
    assert [len(A) for A in seen] == [6, 6, 6]
    for A in seen:
        _assert_lu_within_its_bound(A, [ctx.mpf(1)] * 6, ctx)


def test_mpf_to_fraction_roundtrip(ctx):
    with ctx.activate():
        x = mp.mpf("1.375")
        assert fb.mpf_to_fraction(x) == Fraction(11, 8)
        assert fb.mpf_to_fraction(mp.mpf(0)) == 0


def _reflection(n, rng):
    """I - 2 v v^T / v^T v for a random integer v: orthogonal, exactly."""
    v = [rng.randint(-3, 3) for _ in range(n)]
    vv = sum(x * x for x in v) or 1
    return [[int(i == j) - Fraction(2 * v[i] * v[j], vv) for j in range(n)]
            for i in range(n)]


def _product(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _normal_matrix(n, rng, repeated):
    """R B R for a rational reflection R and B of diagonal blocks
    [[a, -b], [b, a]] (eigenvalues a +- ib) and [c], with the eigenvalues:
    normal, so each eigenvalue is perfectly conditioned.  With ``repeated``
    the values are drawn from two, so that eigenvalues repeat."""
    draw = (lambda: rng.choice((-1, 2))) if repeated else (lambda: rng.randint(-5, 5))
    B = [[0] * n for _ in range(n)]
    known = []
    i = 0
    while i < n:
        if i + 1 < n and rng.random() < 0.5:
            a, b = draw(), abs(draw()) or 1
            B[i][i] = B[i + 1][i + 1] = a
            B[i][i + 1], B[i + 1][i] = -b, b
            known += [complex(a, b), complex(a, -b)]
            i += 2
        else:
            B[i][i] = draw()
            known.append(complex(B[i][i]))
            i += 1
    R = _reflection(n, rng)
    return _product(_product(R, B), R), known


def _test_matrix(kind, n, rng):
    """(rows, the eigenvalues if known, else None) of a random n x n
    matrix of the kind."""
    if kind == "random":
        return [[Fraction(rng.uniform(-3, 3)) for _ in range(n)] for _ in range(n)], None
    if kind == "zero":
        return [[0] * n for _ in range(n)], [0j] * n
    return _normal_matrix(n, rng, repeated=kind == "repeated")


def _oracle_draw(D, n, kind, mirror, seed):
    """(ctx, A, the eigenvalues if known) of a draw of the eigensolver
    tests.  "split": [[L_ee, L_eo], [0, L_oo]] in mirror coordinates, the
    blocks of the kind, so the even and odd blocks are solved apart;
    "whole": a matrix of the kind, which for a random one fails the
    mirror test and is one block."""
    ctx, ref = fb.PrecisionCtx(D), fb.PrecisionCtx(2 * D)
    rng = random.Random(seed)
    h = n - n // 2
    if mirror == "split":
        (E, known_e), (O, known_o) = _test_matrix(kind, h, rng), _test_matrix(kind, n - h, rng)
        C = _test_matrix(kind, n, rng)[0] if kind == "random" else [[0] * n] * h
        B = [e + c[h:] for e, c in zip(E, C)] + [[0] * h + o for o in O]
        Q = _mirror_transform(n, ref.mp)
        M = Q * ref.mp.matrix([[ref.mpf(x) for x in row] for row in B]) * Q.T
        A = [[ctx.mpf(M[i, j]) for j in range(n)] for i in range(n)]
        return ctx, A, known_e + known_o if known_e is not None else None
    rows, known = _test_matrix(kind, n, rng)
    return ctx, [[ctx.mpf(x) for x in row] for row in rows], known


ORACLE_DRAWS = (st.integers(16, 96), st.integers(2, 24),
                st.sampled_from(["random", "pairs", "repeated", "zero"]),
                st.sampled_from(["split", "whole"]), st.integers(0, 10 ** 9))


@settings(max_examples=30, deadline=None)
@given(*ORACLE_DRAWS)
# few, highly repeated eigenvalues; seed 19 stalled for 107 sweeps while
# every sweep started at the top of its active block
@example(D=16, n=20, kind="repeated", mirror="split", seed=5113)
@example(D=16, n=14, kind="repeated", mirror="split", seed=33)
@example(D=16, n=16, kind="repeated", mirror="whole", seed=19)
def test_eig_dense_matches_mpmath_oracle(D, n, kind, mirror, seed):
    ctx, A, known = _oracle_draw(D, n, kind, mirror, seed)
    h = n - n // 2
    ref = fb.PrecisionCtx(2 * D)
    norm = mat_norm_inf(A)
    tol = ctx.eig_gate
    pairs = fb.eig_dense(A, ctx)
    # the exact eigenvalues where the draw knows them (mpmath's QR fails to
    # converge on some highly repeated ones), else mpmath's at 2D digits
    oracle = ([ctx.mp.mpc(z.real, z.imag) for z in known] if known is not None
              else ref.mp.eig(ref.mp.matrix(A), right=False))

    # ten orders of magnitude below the gate, relative to ||M||
    match = tol * ctx.ten_pow(-10) * norm
    values = [p.value for p in pairs]
    assert len(values) == n
    for lam in values:
        assert min(abs(lam - mu) for mu in oracle) <= match
    for mu in oracle:
        assert min(abs(lam - mu) for lam in values) <= match
    # an even-block eigenvector is exactly mirror-symmetric
    symmetric = sum(p.vector == p.vector[::-1] for p in pairs)
    if mirror == "split":
        assert symmetric == h
    elif mirror == "whole" and kind == "random":
        assert symmetric == 0

    for i, p in enumerate(pairs):
        assert p.residual <= tol * norm
        assert len(p.vector) == n and 1 in p.vector
        # the pivot is within the gate of the largest component
        assert max(abs(v) for v in p.vector) <= 1 / (1 - tol) + ctx.ten_pow(-D)
        if isinstance(p.value, ctx.mp.mpf):
            assert all(isinstance(v, ctx.mp.mpf) for v in p.vector)
            continue
        assert isinstance(p.value, ctx.mp.mpc) and p.value.imag != 0
        # the partner is the exact conjugate, listed after the +im member
        partners = [j for j, q in enumerate(pairs)
                    if q.value == p.value.conjugate()
                    and q.vector == tuple(v.conjugate() for v in p.vector)]
        assert len(partners) == 1
        assert pairs[partners[0]].residual == p.residual
        assert (partners[0] > i) == (p.value.imag > 0)


# ----------------------------------------------------------------------
# The mpf back end the integer one replaced, kept as an oracle: after the
# same integer sweeps, T and Z rounded into mpf, then the coupling, the
# rotations, the back substitution and the residual at context precision


def _block_values(T, k, S, mpx, first):
    """The eigenvalues of the integer 2x2 block of T at (k, k) at the unit
    2^-S by the kernel's rule, the one nearer ``first`` (rsf2csf's t00)
    first."""
    (a, b), (c, d) = T[k][k:k + 2], T[k + 1][k:k + 2]
    return sorted(fixed._block_roots(a, b, c, d, S, mpx)[0], key=lambda v: abs(v - first))


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


def _triangularize(T, Z, ctx):
    """Make the real Schur form T triangular, one rotation per 2x2 block;
    returns the positions k holding the +im eigenvalue of a pair."""
    mp = ctx.mp
    tops = set()
    for k in range(len(T) - 1):
        c = T[k + 1][k]
        if not c:
            continue
        a, b, d = T[k][k], T[k][k + 1], T[k + 1][k + 1]
        p = (a - d) / 2
        disc = p * p + b * c
        if disc >= 0:
            z = p + mp.sqrt(disc) if p >= 0 else p - mp.sqrt(disc)
            tau = mp.hypot(z, c)
            _rotate(T, Z, k, z / tau, c / tau)
        else:
            mu = mp.mpc(p, mp.sqrt(-disc))
            tau = mp.hypot(abs(mu), c)
            _rotate(T, Z, k, mu / tau, c / tau)
            T[k][k] = d + mu
            T[k + 1][k + 1] = T[k][k].conjugate()
            tops.add(k)
        T[k + 1][k] = ctx.mpf(0)
    return tops


def _eigenvector(T, Z, i, ctx):
    """Z x, where x solves (T - T[i][i]) x = 0 with x[i] = 1 by back
    substitution, with the divisor guard smin of mpmath's ``eig_tr_r``."""
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


def _unmirror(Ze, Zo, ctx):
    """Rows of P diag(Ze, Zo) for the mirror transform P: node rows i and
    n-1-i copy the even columns and negate the odd ones of each other."""
    m = len(Zo)
    Z = [Ze[i] + Zo[i] for i in range(m)]
    if len(Ze) > m:
        Z.append(Ze[m] + [ctx.mpf(0)] * m)
    return Z + [Ze[i] + [-x for x in Zo[i]] for i in range(m - 1, -1, -1)]


def _mpf_eig_dense(M, ctx):
    """eig_dense with the mpf back end, on the full-sweep Schur form of
    SchurForm's exact integer blocks.  The pivot of a vector is chosen by eig_dense's rule (the
    first component within the gate of the largest); the mpf back end
    took the largest, which lets round-off choose between components
    that tie."""
    n, mp = len(M), ctx.mp
    A = [[ctx.mpf(x) for x in row] for row in M]
    width, zwidth = fixed.schur_widths(ctx.prec_bits)
    SA, AI = fixed.fixed_rows(A, width, mp)
    # SchurForm's split, on its integers
    blocks, coupling = fixed.schur_blocks(AI, SA, fixed.mpf_to_fraction(ctx.eig_gate), width)
    T = [[ctx.mpf(0)] * n for _ in range(n)]
    Zs = []
    for lo, S, H in blocks:
        Z, row = _full_sweep_schur(H, width, zwidth, ctx.prec_bits, 4 * mp.dps)
        assert row is None
        for row, hrow in zip(T[lo:], fixed.mpf_rows(H, S, mp)):
            row[lo:lo + len(H)] = hrow
        Zs.append(fixed.mpf_rows(Z, zwidth, mp))
    if coupling is None:
        Z = Zs[0]
    else:
        (Ze, Zo), (Sc, L) = Zs, coupling
        h = len(Ze)
        LZ = [[mp.fdot(row, col) for col in zip(*Zo)] for row in fixed.mpf_rows(L, Sc, mp)]
        for row, col in zip(T, zip(*Ze)):
            row[h:] = [mp.fdot(col, lz) for lz in zip(*LZ)]
        Z = _unmirror(Ze, Zo, ctx)
    tops = _triangularize(T, Z, ctx)
    # each 2x2 block's eigenvalues from the kernel's rule on its integers;
    # the vectors from rsf2csf's T
    values = [T[i][i] for i in range(n)]
    for lo, S, H in blocks:
        for k in range(len(H) - 1):
            if H[k + 1][k]:
                values[lo + k:lo + k + 2] = _block_values(H, k, S, mp, T[lo + k][lo + k])
    pairs = []
    for i in range(n):
        if i - 1 in tops:
            continue
        lam = values[i]
        vec = _eigenvector(T, Z, i, ctx)
        if i not in tops:
            vec = [v.real for v in vec]
        top = max(abs(v) for v in vec)
        big = next(v for v in vec if abs(v) >= (1 - ctx.eig_gate) * top)
        vec = [v / big for v in vec]
        res = max(abs(mp.fdot(row, vec) - lam * v) for row, v in zip(A, vec))
        pairs.append(fb.EigenPair(lam, tuple(vec), res))
        if i in tops:
            pairs.append(fb.EigenPair(lam.conjugate(), tuple(v.conjugate() for v in vec), res))
    pairs.sort(key=lambda p: (-abs(p.value), -p.value.real, -p.value.imag))
    return pairs


@settings(max_examples=20, deadline=None)
@given(*ORACLE_DRAWS)
def test_eig_dense_matches_the_mpf_back_end(D, n, kind, mirror, seed):
    # the eigenvalues bit for bit; the vectors to the gate where the
    # eigenvalue is apart from the others by more than sqrt(gate) ||M||,
    # as round-off moves a vector by about 2^-p ||M|| / gap; a repeated
    # eigenvalue's vector is any of its eigenspace, which the residual
    # alone checks
    ctx, A, _ = _oracle_draw(D, n, kind, mirror, seed)
    tol, norm = ctx.eig_gate, mat_norm_inf(A)
    pairs = fb.eig_dense(A, ctx)
    oracle = _mpf_eig_dense(A, ctx)
    assert [(type(p.value), p.value._mpc_ if type(p.value) is ctx.mp.mpc else p.value._mpf_)
            for p in pairs] == \
        [(type(q.value), q.value._mpc_ if type(q.value) is ctx.mp.mpc else q.value._mpf_)
         for q in oracle]
    for i, (p, q) in enumerate(zip(pairs, oracle)):
        assert p.residual <= tol * norm
        gap = min((abs(p.value - r.value) for j, r in enumerate(pairs) if j != i),
                  default=norm)
        if gap > ctx.mp.sqrt(tol) * norm:
            assert max(abs(a - b) for a, b in zip(p.vector, q.vector)) <= tol


def _reflect_rows_rolled(rows, u, w, j, F):
    ts = [sum(map(mul, w, col)) >> F for col in zip(*(row[j:] for row in rows))]
    for c, row in zip(u, rows):
        row[j:] = [x - ((t * c) >> F) for x, t in zip(row[j:], ts)]


def _reflect_cols_rolled(rows, u, w, k, F):
    m = len(u)
    for row in rows:
        seg = row[k:k + m]
        t = sum(map(mul, u, seg)) >> F
        row[k:k + m] = [x - ((t * c) >> F) for x, c in zip(seg, w)]


def _z_reflector(u, w, F, W):
    """The reflector at F bits floored to the unit 2^-W of Z."""
    return [fixed._shift(x, W - F) for x in u], [fixed._shift(x, W - F) for x in w]


def _hessenberg_rolled(H, F, W):
    """The Hessenberg reduction with rolled reflectors and Z stored as is,
    at the unit 2^-W."""
    n = len(H)
    Z = [[1 << W if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(n - 2):
        v = [H[i][k] for i in range(k + 1, n)]
        if not any(v[1:]):
            continue
        s, u, w = fixed._reflector(v, F)
        _reflect_rows_rolled(H[k + 1:], u, w, k + 1, F)
        _reflect_cols_rolled(H, u, w, k + 1, F)
        _reflect_cols_rolled(Z, *_z_reflector(u, w, F, W), k + 1, W)
        H[k + 1][k] = -s
        for i in range(k + 2, n):
            H[i][k] = 0
    return Z


def _francis_step_rolled(H, Z, l, hi, exceptional, F, W, scale):
    """The Francis sweep with rolled reflectors and Z stored as is at 2^-W, from
    the start row of EISPACK's hqr, tested on hqr's own bulge (p, q, r)
    in exact rationals; returns that row."""
    x, y = H[hi][hi], H[hi - 1][hi - 1]
    prod = H[hi][hi - 1] * H[hi - 1][hi]
    if exceptional:
        e = abs(H[hi][hi - 1]) + abs(H[hi - 1][hi - 2])
        x = y = x + 3 * e // 4
        prod = -7 * e * e // 16
    for m in range(hi - 2, l - 1, -1):
        a, b = H[m][m], H[m + 1][m]
        p = Fraction((x - a) * (y - a) - prod, b) + H[m][m + 1]
        q, r = H[m + 1][m + 1] - a - (x - a) - (y - a), H[m + 2][m + 1]
        if m == l or abs(H[m][m - 1]) * (abs(q) + abs(r)) < Fraction(abs(p), scale) * (
                abs(H[m - 1][m - 1]) + abs(a) + abs(H[m + 1][m + 1])):
            break
    v = [int(p * b), q * b, r * b]
    for k in range(m, hi):
        size = min(3, hi + 1 - k)
        if k > m:
            v = [H[i][k - 1] for i in range(k, k + size)]
        if not any(v):
            continue
        s, u, w = fixed._reflector(v, F)
        if k > m:
            H[k][k - 1] = -s
            for i in range(k + 1, k + size):
                H[i][k - 1] = 0
        elif m > l:  # dlahqr's h (1 - tau); the fill below it is dropped
            H[m][m - 1] -= (H[m][m - 1] * u[0]) >> F
        _reflect_rows_rolled(H[k:k + size], u, w, k, F)
        _reflect_cols_rolled(H[:min(hi, k + 3) + 1], u, w, k, F)
        _reflect_cols_rolled(Z, *_z_reflector(u, w, F, W), k, W)
    return m


def _widths(F):
    """(p, W): the context precision of the Schur width F and the kernel's
    Z width at that precision."""
    p = (F - fixed.SCHUR_GUARD_BITS) // 2
    return p, fixed.schur_widths(p)[1]


def _window(H, l, hi):
    return [row[l:hi + 1] for row in H[l:hi + 1]]


def _sweep_both(H0, Z0, H, l, hi, exceptional, F, W):
    """One sweep by each: the rolled one on whole rows and columns of H0
    and on Z0, the kernel's on the window of H alone.  The windows must
    agree bit for bit and nothing of H outside its window may change;
    then H takes H0's entries, so that the next sweep starts from one
    matrix.  Returns the start row."""
    scale = 100 * len(H) << _widths(F)[0]
    before = [list(row) for row in H]
    m = _francis_step_rolled(H0, Z0, l, hi, exceptional, F, W, scale)
    fixed._francis_step(H, l, hi, exceptional, F, scale)
    assert _window(H, l, hi) == _window(H0, l, hi)
    assert all(H[i][j] == before[i][j] for i in range(len(H)) for j in range(len(H))
               if not (l <= i <= hi and l <= j <= hi))
    H[:] = [list(row) for row in H0]
    return m


@pytest.mark.parametrize("seed", range(12))
def test_unrolled_sweeps_with_transposed_z_are_bit_identical(seed):
    # the reduction's Z, stored transposed, bit for bit the rolled one's;
    # each window-only sweep bit for bit the rolled full sweep in its window
    rng = random.Random(seed)
    n, F = rng.randint(3, 12), rng.choice([64, 200, 522])
    W = _widths(F)[1]
    H = [[rng.randint(-(1 << F), 1 << F) for _ in range(n)] for _ in range(n)]
    H0 = [list(row) for row in H]
    Z0, Zt = _hessenberg_rolled(H0, F, W), fixed._hessenberg(H, F, W)
    assert H == H0 and Zt == [list(col) for col in zip(*Z0)]
    for _ in range(10):
        l = rng.randint(0, n - 3)
        hi, exceptional = rng.randint(l + 2, n - 1), rng.random() < 0.3
        _sweep_both(H0, Z0, H, l, hi, exceptional, F, W)


@pytest.mark.parametrize("seed", range(12))
def test_a_sweep_starts_below_a_small_subdiagonal_pair(seed):
    # a Hessenberg H whose subdiagonals H[m][m-1] and H[m+1][m] are each
    # far above the deflation threshold, but whose product is below eps:
    # the sweep starts at m, above the top l of the active block
    rng = random.Random(seed)
    n, F = rng.randint(5, 12), rng.choice([64, 200, 522])
    p, W = _widths(F)
    l = rng.randint(0, n - 5)
    m = rng.randint(l + 1, n - 3)
    small = 1 << (3 * p // 2 + 20)
    H = [[rng.randint(-(1 << F), 1 << F) if j >= i - 1 else 0 for j in range(n)]
         for i in range(n)]
    H[m][m - 1], H[m + 1][m] = rng.randint(small, 2 * small), -rng.randint(small, 2 * small)
    H0, Z0 = [list(row) for row in H], [[1 << W if i == j else 0 for j in range(n)]
                                        for i in range(n)]
    assert _sweep_both(H0, Z0, H, l, n - 1, False, F, W) == m
    assert all(H[i][j] == 0 for i in range(n) for j in range(i - 1))
    for _ in range(5):
        if not all(H[i][i - 1] for i in range(l + 1, n)):
            break  # a block with a zero subdiagonal has split: no sweep spans it
        _sweep_both(H0, Z0, H, l, n - 1, rng.random() < 0.3, F, W)


# ----------------------------------------------------------------------
# The full-sweep Schur path the kernel replaced, kept as an oracle: the
# sweeps act on whole rows and columns of H and accumulate Z at 2^-W;
# T is assembled with the mirror coupling Z_e^T L_eo Z_o, each 2x2 block
# is rotated away at once (at F bits in T, at W bits in Z), and each
# vector is Z x for x from back substitution on T, all on integers


def _full_sweep_schur(H, F, W, prec, budget):
    """(Z, row): H (rows, overwritten) taken to real Schur form by the
    rolled reduction and sweeps above, whole rows and columns, with Z at
    2^-W stored as is, under the kernel's deflation rule; row is None, or
    the bottom row of a block that ``budget`` sweeps did not deflate."""
    Z, n = _hessenberg_rolled(H, F, W), len(H)
    floor = math.isqrt(sum(x * x for row in H for x in row)) // n
    if not floor:
        return Z, None
    scale = 100 * n << prec
    hi, start, its = n - 1, 0, 0
    while hi > 0:
        l = hi
        while l > 0:
            if abs(H[l][l - 1]) * scale < max(abs(H[l - 1][l - 1]) + abs(H[l][l]), floor):
                H[l][l - 1] = 0
                break
            l -= 1
        if l != start:
            start, its = l, 0
        if l >= hi - 1:
            hi = l - 1
        elif its == budget:
            return Z, hi
        else:
            its += 1
            _francis_step_rolled(H, Z, l, hi, its % 10 == 0, F, W, scale)
    return Z, None


def _rsf2csf(a, b, c, d, mpx):
    """(cs, sn, t00, t01, t11): the rotation U = [[cs, -sn], [sn, conj(cs)]]
    with U^H block U = [[t00, t01], [0, t11]] of a 2x2 Schur block."""
    p = (a - d) / 2
    disc = p * p + b * c
    if disc >= 0:
        z = p + mpx.sqrt(disc) if p >= 0 else p - mpx.sqrt(disc)
        tau = mpx.hypot(z, c)
        cs, sn = z / tau, c / tau
    else:
        mu = mpx.mpc(p, mpx.sqrt(-disc))
        tau = mpx.hypot(abs(mu), c)
        cs, sn = mu / tau, c / tau
    cc = cs.conjugate()
    r0, r1 = (cc * a + sn * c, cc * b + sn * d), (cs * c - sn * a, cs * d - sn * b)
    t01 = cc * r0[1] - sn * r0[0]
    if disc >= 0:
        return cs, sn, cs * r0[0] + sn * r0[1], t01, cc * r1[1] - sn * r1[0]
    return cs, sn, d + mu, t01, (d + mu).conjugate()


def _turn(a, ai, b, bi, cr, ci, sn, F):
    """(cs a + sn b, conj(cs) b - sn a) as re/im integer pairs, each sum
    shifted down by F toward zero."""
    return tuple(x >> F if x >= 0 else -(-x >> F) for x in (
        cr * a - ci * ai + sn * b, cr * ai + ci * a + sn * bi,
        cr * b + ci * bi - sn * a, cr * bi - ci * b - sn * ai))


class _FullSweepForm:
    """The integer Schur form T = U^H Z^-1 M Z U with its Schur vectors, as
    the package made it before the eigenvalue-only sweeps."""

    def __init__(self, rows, ctx):
        mpx = ctx.mp
        self.F, self.W = F, W = fixed.schur_widths(ctx.prec_bits)
        self.mpx, self.gate, self.even = mpx, fixed.mpf_to_fraction(ctx.eig_gate), 0
        SM, M = fixed.fixed_rows(rows, F, mpx)
        blocks, coupling = fixed.schur_blocks(M, SM, self.gate, F)
        parts = []
        for lo, S, H in blocks:
            Z, row = _full_sweep_schur(H, F, W, ctx.prec_bits, 4 * mpx.dps)
            assert row is None
            parts.append((S, H, [list(col) for col in zip(*Z)]))
        if coupling is None:
            ((S, T, Zt),) = parts
        else:
            (Se, He, Ze), (So, Ho, Zo), (Sc, L) = *parts, coupling
            S = max(Se, So)
            L = [[fixed._shift(a, S - Sc) for a in row] for row in L]
            LZ = list(zip(*[[sum(map(mul, row, z)) >> W for z in Zo] for row in L]))
            T = ([[x << (S - Se) for x in row] + [sum(map(mul, z, col)) >> W for col in LZ]
                  for row, z in zip(He, Ze)]
                 + [[0] * len(He) + [x << (S - So) for x in row] for row in Ho])
            m, self.even = len(Zo), len(Ze)
            Zt = ([z + z[:m][::-1] for z in Ze]
                  + [z + [0] * (len(Ze) - m) + [-x for x in z[::-1]] for z in Zo])
        n = len(T)
        Ti, Zi = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
        self.values = fixed.mpf_rows([[T[k][k] for k in range(n)]], S, mpx)[0]
        self.tops = set()
        for k in range(n - 1):
            if not T[k + 1][k]:
                continue
            (a, b), (c, d) = fixed.mpf_rows([T[k][k:k + 2], T[k + 1][k:k + 2]], S, mpx)
            cs, sn, *block = _rsf2csf(a, b, c, d, mpx)
            self.values[k:k + 2] = _block_values(T, k, S, mpx, block[0])
            (cr, ci), (s, _), (zr, zi), (zs, _) = (fixed._fix(v, e) for e in (F, W)
                                                   for v in (cs, sn))
            pairs = [(T[k], Ti[k], T[k + 1], Ti[k + 1], (cr, -ci, s, F), k + 2),
                     (Zt[k], Zi[k], Zt[k + 1], Zi[k + 1], (zr, zi, zs, W), 0)]
            for a, ai, b, bi, rot, start in pairs:
                for j in range(start, n):
                    a[j], ai[j], b[j], bi[j] = _turn(a[j], ai[j], b[j], bi[j], *rot)
            for row, rowi in zip(T[:k], Ti[:k]):
                row[k], rowi[k], row[k + 1], rowi[k + 1] = _turn(
                    row[k], rowi[k], row[k + 1], rowi[k + 1], cr, ci, s, F)
            t00, t01, t11 = (fixed._fix(t, S) for t in block)
            (T[k][k], Ti[k][k]), (T[k][k + 1], Ti[k][k + 1]) = t00, t01
            (T[k + 1][k + 1], Ti[k + 1][k + 1]), T[k + 1][k] = t11, 0
            if hasattr(cs, "_mpc_"):
                self.tops.add(k)
        self.S, self.T, self.Ti = S, T, Ti
        self.Z, self.Zi = list(zip(*Zt)), list(zip(*Zi))

    def _solve(self, i):
        """x with x[i] = 2^F solving (T - T[i][i]) x = 0 above row i, with
        the divisor guard of LAPACK's ctrevc."""
        F, T, Ti, prec, n = self.F, self.T, self.Ti, self.mpx.prec, len(self.T)
        sr, si = T[i][i], Ti[i][i]
        e = self.S - 29 * prec - 1
        smin = max(math.isqrt(sr * sr + si * si) >> (prec - 1),
                   n << e if e >= 0 else n >> -e, 1)
        xr, xi = [0] * i + [1 << F], [0] * (i + 1)
        for j in range(i - 1, -1, -1):
            a, ai, pr, pi = T[j][j + 1:], Ti[j][j + 1:], xr[j + 1:], xi[j + 1:]
            nr = sum(map(mul, a, pr)) - sum(map(mul, ai, pi))
            ni = sum(map(mul, a, pi)) + sum(map(mul, ai, pr))
            tr, ti = T[j][j] - sr, Ti[j][j] - si
            d = tr * tr + ti * ti
            if d < smin * smin:
                tr, ti, d = smin, 0, smin * smin
            xr[j] = -(nr * tr + ni * ti) // d
            xi[j] = (nr * ti - ni * tr) // d
        return xr, xi

    def vector(self, i):
        """The vector of values[i] as eig_dense reports it: Z x normalized
        at its pivot and rounded to p bits."""
        h, Z, Zi, F = self.even, self.Z, self.Zi, self.F
        xr, xi = self._solve(i)
        if i < h:
            Z, Zi = Z[:h], Zi[:h]
        vr = [sum(map(mul, z, xr)) - sum(map(mul, zi, xi)) for z, zi in zip(Z, Zi)]
        vi = None if i not in self.tops else [
            sum(map(mul, z, xi)) + sum(map(mul, z2, xr)) for z, z2 in zip(Z, Zi)]
        if i < h:
            m = len(self.Z) - h
            vr, vi = vr + vr[m - 1::-1], vi and vi + vi[m - 1::-1]
        V = fixed._normalize(vr, vi, self.gate, F)
        mpx = self.mpx
        if V[1] is None:
            return tuple(mpx.make_mpf(fixed.from_man_exp(a, -F, mpx.prec, "n")) for a in V[0])
        return tuple(mpx.make_mpc((fixed.from_man_exp(a, -F, mpx.prec, "n"),
                                   fixed.from_man_exp(b, -F, mpx.prec, "n"))) for a, b in zip(*V))


def _full_sweep_eig_dense(A, ctx):
    """(value, vector) of every eigenpair of the full-sweep path, in
    eig_dense's order."""
    form = _FullSweepForm([[ctx.mpf(x) for x in row] for row in A], ctx)
    pairs = []
    for i, lam in enumerate(form.values):
        if i - 1 in form.tops:
            continue
        vec = form.vector(i)
        pairs.append((lam, vec))
        if i in form.tops:
            pairs.append((lam.conjugate(), tuple(v.conjugate() for v in vec)))
    pairs.sort(key=lambda p: (-abs(p[0]), -p[0].real, -p[0].imag))
    return pairs


def _raw(x):
    return x._mpc_ if hasattr(x, "_mpc_") else x._mpf_


def _assert_matches_full_sweep_oracle(A, ctx):
    # every eigenvalue bit for bit.  Where an eigenvalue is apart from the
    # others by more than sqrt(gate) ||M|| (the back-end rule), its vector
    # is within one unit 2^(1-p) times (1 + ||M|| / gap) of the oracle's,
    # each part of each entry: one unit for the rounding of an entry to p
    # bits, and ||M|| / gap units for how far an eigenvector moves under a
    # backward error of one unit of ||M||.  The oracle's vectors are not
    # exact to one unit themselves: on random draws they stood up to six
    # units 2^-p from 1500-bit eigenvectors, the kernel's within 1e-13
    pairs, oracle = fb.eig_dense(A, ctx), _full_sweep_eig_dense(A, ctx)
    assert [(type(p.value), _raw(p.value)) for p in pairs] == \
        [(type(lam), _raw(lam)) for lam, _ in oracle]
    mpx, norm = ctx.mp, mat_norm_inf(A)
    unit = mpx.ldexp(1, 1 - ctx.prec_bits)
    for i, (p, (_, vec)) in enumerate(zip(pairs, oracle)):
        assert p.residual <= ctx.eig_gate * norm
        gap = min((abs(p.value - q.value) for j, q in enumerate(pairs) if j != i), default=norm)
        if gap > mpx.sqrt(ctx.eig_gate) * norm:
            tol = unit * (1 + norm / gap)
            assert all(abs((a - b).real) <= tol and abs((a - b).imag) <= tol
                       for a, b in zip(p.vector, vec))


@settings(max_examples=30, deadline=None)
@given(*ORACLE_DRAWS)
@example(D=16, n=20, kind="repeated", mirror="split", seed=5113)
@example(D=16, n=16, kind="repeated", mirror="whole", seed=19)
@example(D=64, n=24, kind="random", mirror="split", seed=7)
def test_eig_dense_matches_the_full_sweep_oracle(D, n, kind, mirror, seed):
    ctx, A, _ = _oracle_draw(D, n, kind, mirror, seed)
    _assert_matches_full_sweep_oracle(A, ctx)


def _full_width_form(A, ctx):
    """SchurForm with Z_0 at the full width F: the reference of the
    kernel's Z_0 at W bits.  The inverse iteration runs at F bits in both."""
    widths = fixed.schur_widths
    with mock.patch.object(fixed, "schur_widths", lambda p: (widths(p)[0],) * 2):
        return fixed.SchurForm(A, ctx.eig_gate, ctx.mp)


@settings(max_examples=100, deadline=None)
@given(*ORACLE_DRAWS)
@example(D=16, n=20, kind="repeated", mirror="split", seed=5113)
@example(D=16, n=14, kind="repeated", mirror="split", seed=33)
@example(D=16, n=16, kind="repeated", mirror="whole", seed=19)
def test_z_at_w_bits_matches_the_full_width_reference(D, n, kind, mirror, seed):
    # every eigenvalue bit for bit, every vector entry the same to p bits
    # of the vector and every residual within the gate; an even-block
    # vector is exactly mirror-symmetric, an odd-block one without
    # coupling exactly antisymmetric, and a mirror-symmetric vector's M V
    # on M's folded columns is the unfolded one.  Z_0 at W bits is exact
    # to far below 2^-p relative to the vector, but an entry that is
    # round-off in exact arithmetic keeps only that absolute accuracy:
    # each part of an entry (the largest being about 1) is within one unit
    # 2^(1-p) of the reference's
    ctx, A, _ = _oracle_draw(D, n, kind, mirror, seed)
    unit = ctx.mp.ldexp(1, 1 - ctx.prec_bits)
    form, ref = fixed.SchurForm(A, ctx.eig_gate, ctx.mp), _full_width_form(A, ctx)
    assert form.failed is None and ref.failed is None and form.W < form.F == ref.W
    assert [_raw(v) for v in form.values] == [_raw(v) for v in ref.values]
    if mirror == "split":
        assert form.even == n - n // 2
    for i in range(n):
        if i - 1 in form.tops:
            continue
        (vec, res), (ref_vec, _) = form.eigenpair(i), ref.eigenpair(i)
        assert all(abs((a - b).real) <= unit and abs((a - b).imag) <= unit
                   for a, b in zip(vec, ref_vec))
        assert res <= ctx.eig_gate * form.norm
        V = [part for part in fixed._normalize(*form._vector(i), form.gate, form.F) if part]
        if mirror == "split":
            assert V[0] == V[0][::-1] if i < form.even else (
                any(map(any, form.coupling[1])) or V[0] == [-a for a in V[0][::-1]])
        for part in V:
            assert form._apply(part) == [sum(map(mul, row, part)) for row in form.M]


def test_repeated_eigenvalues_converge_in_few_sweeps(monkeypatch):
    # the seed-19 draw of the oracle test, which took 107 sweeps while
    # every sweep started at the top of its active block
    sweeps = []
    step = fixed._francis_step
    monkeypatch.setattr(fixed, "_francis_step", lambda *args: sweeps.append(step(*args)))
    ctx, A, known = _oracle_draw(16, 16, "repeated", "whole", 19)
    assert len(fb.eig_dense(A, ctx)) == len(known)
    assert 0 < len(sweeps) <= 30


def test_eig_dense_pivot_of_mirror_symmetric_matrices():
    # M + RMR, R the reversal, has exactly even and odd eigenvectors, whose
    # largest components tie in pairs: the pivot is the first of a pair
    ctx = fb.PrecisionCtx(96)
    tol = ctx.eig_gate
    complex_odd = 0
    for seed, n in enumerate((9, 10, 11, 12)):
        rng = random.Random(seed)
        M = [[ctx.mpf(rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
        A = [[M[i][j] + M[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
        for p in fb.eig_dense(A, ctx):
            v = p.vector
            assert 2 * v.index(1) <= n - 1
            if max(abs(a - b) for a, b in zip(v, v[::-1])) > tol:
                assert max(abs(a + b) for a, b in zip(v, v[::-1])) <= tol
                complex_odd += p.value.imag != 0
    assert complex_odd >= 4


def test_eig_dense_of_the_empty_matrix(ctx):
    assert fb.eig_dense([], ctx) == []


def test_fixed_rows_of_the_empty_matrix(ctx):
    assert fixed.fixed_rows([], 100, ctx.mp) == (100, [])


def test_eig_dense_names_the_row_that_never_deflates(ctx, monkeypatch):
    # with the sweeps disabled nothing deflates: the budget runs out at the
    # bottom row of the active block
    monkeypatch.setattr(fixed, "_francis_step", lambda *args: None)
    A = [[ctx.mpf((i + 2) ** j) for j in range(4)] for i in range(4)]
    with pytest.raises(fb.NoConvergence) as info:
        fb.eig_dense(A, ctx)
    assert info.value.index == 3


def test_eig_dense_names_the_row_of_the_whole_matrix_in_the_odd_block(ctx, monkeypatch):
    # in mirror coordinates [[L_ee, L_eo], [0, L_oo]] with a diagonal L_ee,
    # which deflates at once, and a dense L_oo (rows 3-5), which without
    # sweeps never does
    monkeypatch.setattr(fixed, "_francis_step", lambda *args: None)
    B = [[1, 0, 0, 1, 2, 3],
         [0, 2, 0, 4, 5, 6],
         [0, 0, 3, 7, 8, 9],
         [0, 0, 0, 1, 2, 4],
         [0, 0, 0, 1, 3, 9],
         [0, 0, 0, 1, 4, 16]]
    n, m = 6, 3
    Q = [[0] * n for _ in range(n)]  # the mirror transform P, with P^-1 = P^T / 2
    for i in range(m):
        Q[i][i] = Q[n - 1 - i][i] = Q[i][m + i] = 1
        Q[n - 1 - i][m + i] = -1
    QT = [list(col) for col in zip(*Q)]
    M = [[ctx.mpf(Fraction(x, 2)) for x in row] for row in _product(_product(Q, B), QT)]
    with pytest.raises(fb.NoConvergence, match="at row 5$") as info:
        fb.eig_dense(M, ctx)
    assert info.value.index == 5


def test_spectrum_at_matches_mpmath_oracle():
    D, n = 24, 12
    ctx = fb.PrecisionCtx(D)
    spec = fb.OperatorSpec(fb.Variant.T, fb.Linearization.FULL_DERIVATIVE)
    seed = fb.monomial_to_series([ctx.mpf(1), ctx.mpf(0), ctx.mpf("-1.5")], ctx)
    g = fb.newton_solve(spec, None, seed, fb.NewtonConfig(), ctx, n=n).solution_series
    report = fb.spectrum_at(g, spec, ctx, fb.chebgrid(n, ctx))
    A = fb.assemble_jacobian(spec, g, n, fb.NewtonConfig(jacobian_mode=fb.JacobianMode.EXACT),
                             ctx, basis=fb.chebgrid(n, ctx))
    M = [[int(i == j) - A[i][j] for j in range(n)] for i in range(n)]
    oracle, _ = ctx.mp.eig(ctx.mp.matrix(M))
    tol = ctx.ten_pow(-(D // 2))
    values = report.eigenvalues
    assert len(values) == n
    for lam in values:
        assert min(abs(lam - mu) for mu in oracle) <= tol
    for mu in oracle:
        assert min(abs(lam - mu) for lam in values) <= tol


# ----------------------------------------------------------------------
# Parity split of the linearization on the Chebyshev grid

FULL = fb.Linearization.FULL_DERIVATIVE
FROZEN = fb.Linearization.FROZEN_ALPHA


def _mirror_transform(n, mpx):
    """The dense mirror transform Q: even coordinates (e_i + e_(n-1-i))/sqrt(2)
    first, then the middle e_m of an odd n, then the odd ones."""
    Q, m, h = mpx.zeros(n), n // 2, n - n // 2
    s = 1 / mpx.sqrt(2)
    for i in range(m):
        Q[i, i] = Q[n - 1 - i, i] = Q[i, h + i] = s
        Q[n - 1 - i, h + i] = -s
    if n % 2:
        Q[m, m] = 1
    return Q


def _mirror_blocks(L, ctx):
    """Q^T L Q with the dense mirror transform Q, and the even block size."""
    n = len(L)
    Q = _mirror_transform(n, ctx.mp)
    return Q.T * ctx.mp.matrix(L) * Q, n - n // 2


@pytest.fixture(scope="module")
def g13_32(ctx32):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    seed = fb.monomial_to_series([ctx32.mpf(1), ctx32.mpf(0), ctx32.mpf("-1.5")], ctx32)
    config = fb.NewtonConfig(jacobian_mode=fb.JacobianMode.EXACT)
    return fb.newton_solve(spec, None, seed, config, ctx32, n=13).solution_series


@pytest.mark.parametrize("n", [12, 13])
@pytest.mark.parametrize("lin", [FULL, FROZEN])
@pytest.mark.parametrize("variant", list(fb.Variant))
def test_even_to_odd_block_is_below_the_gate(g32, ctx, variant, lin, n):
    L = fb.linearization_matrix(fb.OperatorSpec(variant, lin), g32, fb.chebgrid(n, ctx), ctx)
    B, h = _mirror_blocks(L, ctx)
    assert ctx.mp.mnorm(B[h:, :h], "inf") <= ctx.eig_gate * mat_norm_inf(L)


def test_even_to_odd_block_is_below_the_gate_on_the_family(g32, ctx):
    g = fb.family_member(g32, "1.5", ctx)
    spec = fb.OperatorSpec(fb.Variant.T4, FULL)
    L = fb.linearization_matrix(spec, g, fb.chebgrid(20, ctx), ctx)
    B, h = _mirror_blocks(L, ctx)
    assert ctx.mp.mnorm(B[h:, :h], "inf") <= ctx.eig_gate * mat_norm_inf(L)


def _assert_matches_oracle(pairs, L, ctx):
    oracle, _ = ctx.mp.eig(ctx.mp.matrix(L))
    match = ctx.mpf(10) ** (-ctx.mpf(ctx.decimal_digits) / 3) * mat_norm_inf(L)
    values = [p.value for p in pairs]
    assert len(values) == len(L)
    for lam in values:
        assert min(abs(lam - mu) for mu in oracle) <= match
    for mu in oracle:
        assert min(abs(lam - mu) for lam in values) <= match


@pytest.mark.parametrize("n", [12, 13])
@pytest.mark.parametrize("variant", list(fb.Variant))
def test_block_spectra_match_the_full_matrix(g13_32, ctx32, variant, n):
    ctx = ctx32
    L = fb.linearization_matrix(fb.OperatorSpec(variant, FULL), g13_32,
                                fb.chebgrid(n, ctx), ctx)
    pairs = fb.eig_dense(L, ctx)
    # the even block's n - n // 2 vectors are exactly mirror-symmetric
    assert sum(p.vector == p.vector[::-1] for p in pairs) == n - n // 2
    _assert_matches_oracle(pairs, L, ctx)


def test_odd_fixed_point_term_keeps_one_block(g13_32, ctx32):
    ctx = ctx32
    coeffs = list(g13_32.coeffs)
    coeffs[1] += ctx.mpf("0.1")
    g = fb.ChebSeries(tuple(coeffs))
    L = fb.linearization_matrix(fb.OperatorSpec(fb.Variant.T, FULL), g,
                                fb.chebgrid(12, ctx), ctx)
    pairs = fb.eig_dense(L, ctx)
    assert not any(p.vector == p.vector[::-1] for p in pairs)
    _assert_matches_oracle(pairs, L, ctx)


# ----------------------------------------------------------------------
# Inverse iteration on the benchmark's matrices and on edge cases


@pytest.fixture(scope="module")
def benchmark_matrices():
    """The matrices eig_dense takes in the benchmark's workloads, at
    D = 64: L of T at n = 16; of T4 at n = 20 for mu = 1, 1.2 and 1.5; and
    in the Lanford basis at m = 12 and the rational-node monomial basis at
    m = 15 with a0 and a1 pinned."""
    ctx, seen = fb.PrecisionCtx(64), []
    solve = fb.spectrum.eig_dense

    def recording(M, c):
        seen.append(M)
        return solve(M, c)

    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    seed = fb.monomial_to_series([ctx.mpf(1), ctx.mpf(0), ctx.mpf("-1.5")], ctx)
    with mock.patch.object(fb.spectrum, "eig_dense", recording):
        config = fb.NewtonConfig(jacobian_mode=fb.JacobianMode.EXACT)
        g = fb.newton_solve(spec, None, seed, config, ctx, n=16).solution_series
        fb.spectrum_at(g, spec, ctx, fb.chebgrid(16, ctx))
        g = fb.newton_solve(spec, None, seed, fb.NewtonConfig(), ctx, n=20).solution_series
        fb.family_spectrum_check(g, [ctx.mpf(m) for m in ("1", "1.2", "1.5")], fb.Variant.T4,
                                 ctx, n=20, compared=4)
        for basis in (fb.BasisSpec(fb.BasisKind.LANFORD, 12),
                      fb.BasisSpec(fb.BasisKind.RATIONAL_NODE_MONOMIAL, 15, ((0, 1), (1, 0)))):
            fb.spectrum_in_basis(spec, basis, ctx, seed=seed)
    assert [len(M) for M in seen] == [16, 20, 20, 20, 12, 14]
    return ctx, seen


@pytest.mark.parametrize("which", range(6))
def test_benchmark_matrices_match_the_full_sweep_oracle(benchmark_matrices, which):
    ctx, seen = benchmark_matrices
    _assert_matches_full_sweep_oracle(seen[which], ctx)


def _swept_blocks(A, ctx):
    """SchurForm's blocks (lo, S, H) of A, each H after the eigenvalue
    sweeps, its diagonal blocks 1x1 or 2x2."""
    mpx = ctx.mp
    F, _ = fixed.schur_widths(ctx.prec_bits)
    SM, M = fixed.fixed_rows(A, F, mpx)
    blocks = fixed.schur_blocks(M, SM, fixed.mpf_to_fraction(ctx.eig_gate), F)[0]
    for lo, S, H in blocks:
        fixed._hessenberg(H, F, F)
        assert fixed.francis_qr(H, F, ctx.prec_bits, 4 * mpx.dps) is None
    return blocks


def _real_blocks(A, ctx):
    """The positions k of the 2x2 blocks with two real eigenvalues in the
    eigenvalue sweeps of SchurForm's blocks of A."""
    return [lo + k for lo, S, H in _swept_blocks(A, ctx) for k in range(len(H) - 1)
            if H[k + 1][k]
            and (H[k][k] - H[k + 1][k + 1]) ** 2 + 4 * H[k][k + 1] * H[k + 1][k] >= 0]


def _assert_pairs_hold(A, ctx, form=None):
    """Every eigenpair of SchurForm passes the residual gate against its
    own eigenvalue."""
    form = form or fixed.SchurForm(A, ctx.eig_gate, ctx.mp)
    pairs = [(i, *form.eigenpair(i)) for i in range(len(A)) if i - 1 not in form.tops]
    for i, vec, res in pairs:
        assert res <= ctx.eig_gate * form.norm
    return form, pairs


def test_a_real_2x2_block_gives_each_eigenvalue_its_own_vector(benchmark_matrices):
    # the rational m = 15 spectrum's -0.0638 / -0.0573 pair converges as one
    # 2x2 block with two real eigenvalues; vector k must belong to values[k]:
    # against the other eigenvalue its residual is about the gap
    ctx, seen = benchmark_matrices
    A = [[ctx.mpf(x) for x in row] for row in seen[5]]
    blocks = _real_blocks(A, ctx)
    form, pairs = _assert_pairs_hold(A, ctx)
    assert any({round(float(form.values[j]), 3) for j in (k, k + 1)} == {-0.064, -0.057}
               for k in blocks)
    vectors = {i: vec for i, vec, _ in pairs}
    for k in blocks:
        for i, j in ((k, k + 1), (k + 1, k)):
            V = fixed._normalize(*form._vector(i), form.gate, form.F)
            other = form._residual(V, form.values[j])
            assert other > ctx.mpf("1e-3") * abs(form.values[i] - form.values[j])
        assert vectors[k] != vectors[k + 1]


@pytest.mark.parametrize("rows", [
    [[1, 2], [3, -1]],                      # roots +-sqrt(7)
    [[-638, 1], [5, -573]],                 # two close real roots
    [[2, 1, 0], [1, 2, 0], [0, 0, 5]],      # 3 and 1 in one block, 5 alone
])
def test_small_real_blocks_give_each_eigenvalue_its_own_vector(ctx, rows):
    A = [[ctx.mpf(x) for x in row] for row in rows]
    assert _real_blocks(A, ctx) == [0]
    pairs = fb.eig_dense(A, ctx)
    assert all(isinstance(p.value, ctx.mp.mpf) for p in pairs)
    assert len({p.vector for p in pairs}) == len(rows)


# ----------------------------------------------------------------------
# Eigenvalues of the diagonal blocks: the exact roots of the integers,
# rounded once


def _exact_roots(T, k, size, S, F):
    """The eigenvalues of the integer diagonal block of T at (k, k), 1x1 or
    2x2, at the unit 2^-S, at 4F bits and in the kernel's order: a complex
    pair's +im member first, else the root larger in modulus (the
    positive one of a tie)."""
    hi = mpmath.MPContext()
    hi.prec = 4 * F
    if size == 1:
        return [hi.ldexp(T[k][k], -S)]
    (a, b), (c, d) = T[k][k:k + 2], T[k + 1][k:k + 2]
    t, disc, half = a + d, (a - d) ** 2 + 4 * b * c, hi.ldexp(1, -S - 1)
    if disc < 0:
        top = hi.mpc(t, hi.sqrt(-disc)) * half
        return [top, top.conjugate()]
    root = hi.sqrt(disc)
    return sorted([(t + root) * half, (t - root) * half], key=lambda x: -abs(x))


def _assert_nearest(value, exact, mpx):
    """Each part of ``value``, a number of the context mpx, is the number
    at mpx's precision nearest the same part of ``exact``, but for a tie
    within 2^-31 ulp: the kernel's rounding margin of about 2^-32 ulp."""
    hi = exact.context
    for v, x in ((value.real, exact.real), (value.imag, exact.imag)):
        near = mpx.mpf(x)  # x rounded once, to the nearest
        if v != near:
            ulp = abs(hi.mpf(v) - hi.mpf(near))
            assert abs(x - (hi.mpf(v) + hi.mpf(near)) / 2) <= hi.ldexp(ulp, -31)


def _assert_values_are_rounded_roots(A, ctx):
    """Every eigenvalue of SchurForm is the exact root of its diagonal
    block of the swept integer form, rounded once; returns the number of
    2x2 blocks."""
    form, pairs = fixed.SchurForm(A, ctx.eig_gate, ctx.mp), 0
    for lo, S, H in _swept_blocks(A, ctx):
        k = 0
        while k < len(H):
            size = 2 if k + 1 < len(H) and H[k + 1][k] else 1
            for v, x in zip(form.values[lo + k:lo + k + size],
                            _exact_roots(H, k, size, S, form.F)):
                _assert_nearest(v, x, ctx.mp)
            assert (lo + k in form.tops) == (size == 2 and hasattr(x, "_mpc_"))
            pairs += size == 2
            k += size
    return pairs


@settings(max_examples=30, deadline=None)
@given(*ORACLE_DRAWS)
@example(D=16, n=20, kind="repeated", mirror="split", seed=5113)
@example(D=64, n=24, kind="random", mirror="split", seed=7)
def test_eigenvalues_are_the_exact_block_roots_rounded_once(D, n, kind, mirror, seed):
    ctx, A, _ = _oracle_draw(D, n, kind, mirror, seed)
    _assert_values_are_rounded_roots(A, ctx)


@pytest.mark.parametrize("which", range(6))
def test_benchmark_eigenvalues_are_the_exact_block_roots_rounded_once(benchmark_matrices,
                                                                     which):
    # delta and 1 share a real 2x2 block of the T4 family's matrices
    ctx, seen = benchmark_matrices
    A = [[ctx.mpf(x) for x in row] for row in seen[which]]
    assert _assert_values_are_rounded_roots(A, ctx) >= 1


BIG = 1 << 100


@pytest.mark.parametrize("block", [
    [[0, 1], [1, 0]],              # t = 0: 1 and -1
    [[1, 1], [1, 1]],              # 2 and 0
    [[1, 1], [-1, -1]],            # 0 twice: t = disc = det = 0
    [[2, 1], [-1, 0]],             # 1 twice
    [[-638, 1], [5, -573]],        # two close real roots
    [[1, 2], [3, -1]],             # +-sqrt(7)
    [[3, -2], [2, 3]],             # 3 +- 2i
    [[BIG + 1, 1], [-1, BIG]],     # BIG + 1/2 +- i sqrt(3)/2: below one unit
    [[-BIG, 7], [-3, BIG - 5]],    # t < 0, lambda_2 far below lambda_1
])
@pytest.mark.parametrize("S", [0, 64, -50])
def test_block_roots_of_hand_blocks(ctx, block, S):
    # each eigenvalue the exact root rounded once, at the block's own scale
    # and with its entries shifted up to the Schur width F; each shift the
    # same root floored to the unit, a complex one's imaginary part at
    # least one unit
    F = fixed.schur_widths(ctx.prec_bits)[0]
    for up in (0, F - max(abs(x) for row in block for x in row).bit_length()):
        T = [[x << up for x in row] for row in block]
        values, shifts = fixed._block_roots(*T[0], *T[1], S + up, ctx.mp)
        exact = _exact_roots(T, 0, 2, S + up, F)
        for v, x, (sr, si) in zip(values, exact, shifts):
            _assert_nearest(v, x, ctx.mp)
            hi, x = x.context, x * x.context.ldexp(1, S + up)
            im = max(int(hi.floor(abs(x.imag))), 1) if x.imag else 0
            assert (sr, si) == (int(hi.floor(x.real)), im if x.imag >= 0 else -im)


def test_schur_form_does_no_arithmetic_at_context_precision(monkeypatch):
    # with every arithmetic operator of the context's mpf and mpc, and its
    # sqrt, hypot, fsum and fdot, raising, SchurForm still gives the
    # eigenpairs of a context that computes, raw tuple for raw tuple: it
    # converts the matrix once and rounds each output once
    def raw(x):
        return x._mpc_ if hasattr(x, "_mpc_") else x._mpf_

    def run(A, ctx):
        form = fixed.SchurForm(A, ctx.eig_gate, ctx.mp)
        pairs = [form.eigenpair(i) for i in range(len(A)) if i - 1 not in form.tops]
        return ([raw(v) for v in form.values], sorted(form.tops), raw(form.norm),
                [([raw(v) for v in vec], raw(res)) for vec, res in pairs])

    cases = [_oracle_draw(32, 12, "random", mirror, 4)[:2] for mirror in ("split", "whole")]
    cases.append(_oracle_draw(24, 10, "pairs", "whole", 1)[:2])
    want = [run(A, ctx) for ctx, A in cases]

    def boom(*args):
        raise AssertionError("arithmetic at context precision")

    for ctx, A in cases:
        mpx = ctx.mp
        for cls in (mpx.mpf, mpx.mpc):
            for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                         "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__"):
                monkeypatch.setattr(cls, name, boom)
        for name in ("sqrt", "hypot", "fsum", "fdot"):
            monkeypatch.setattr(mpx, name, boom)
        with pytest.raises(AssertionError, match="context precision"):
            A[0][0] * A[0][1]
    assert [run(A, ctx) for ctx, A in cases] == want
    assert all(tops for _, tops, _, _ in want)  # complex pairs among the blocks


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_inverse_iteration_on_the_zero_matrix(ctx, n):
    # every pivot of H_0 - 0 I is below eps3 and every subdiagonal of H_0
    # is 0: vector k is the sum of the first k + 1 columns of Z_0
    A = [[ctx.mpf(0)] * n for _ in range(n)]
    pairs = fb.eig_dense(A, ctx)
    assert [p.value for p in pairs] == [0] * n
    assert all(p.residual == 0 and 1 in p.vector for p in pairs)


def test_inverse_iteration_on_a_reduced_hessenberg_matrix(ctx):
    # M = diag(A1, A2) with dense 3x3 blocks: its Hessenberg H_0 has an
    # exact zero at H_0[3][2], and a vector of A1 lives on the leading
    # three rows, exactly zero on A2's
    rng = random.Random(3)
    n = 6
    A = [[ctx.mpf(0)] * n for _ in range(n)]
    for lo in (0, 3):
        for i in range(lo, lo + 3):
            for j in range(lo, lo + 3):
                A[i][j] = ctx.mpf(Fraction(rng.randint(-9, 9), 4))
    form = fixed.SchurForm(A, ctx.eig_gate, ctx.mp)
    assert form.coupling is None and form.blocks[0].H0[3][2] == 0
    top = ctx.mp.matrix([row[:3] for row in A[:3]])
    own = ctx.mp.eig(top, right=False)
    form, pairs = _assert_pairs_hold(A, ctx, form)
    mine = [vec for i, vec, _ in pairs
            if min(abs(form.values[i] - mu) for mu in own) < ctx.ten_pow(-30)]
    assert mine and all(v == 0 for vec in mine for v in vec[3:])


@pytest.mark.parametrize("mirror", ["split", "whole"])
@pytest.mark.parametrize("seed", range(4))
def test_inverse_iteration_on_exactly_repeated_eigenvalues(mirror, seed):
    ctx, A, known = _oracle_draw(32, 12, "repeated", mirror, seed)
    pairs = fb.eig_dense(A, ctx)  # raises on a residual above the gate
    assert len(set(known)) < len(known) == len(pairs)
    for reps in ([[ctx.mpf(2) if i == j else ctx.mpf(0) for j in range(5)] for i in range(5)],
                 [[ctx.mpf(int(i != j)) for j in range(4)] for i in range(4)]):
        fb.eig_dense(reps, ctx)  # 2 five times; -1 three times and 3


def test_eig_dense_is_bit_identical_across_threads():
    # the kernel keeps no shared state: two threads at once give the pairs
    # of a sequential run, raw tuple for raw tuple
    cases = []
    for D, seed in ((24, 1), (64, 2)):
        ctx, A, _ = _oracle_draw(D, 14, "random", "split" if seed == 1 else "whole", seed)
        cases.append((A, ctx))

    def run(A, ctx):
        return [(_raw(p.value), [_raw(v) for v in p.vector], _raw(p.residual))
                for p in fb.eig_dense(A, ctx)]

    alone = [run(A, ctx) for A, ctx in cases]
    together = [None, None]

    def worker(k):
        together[k] = run(*cases[k])

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert together == alone
