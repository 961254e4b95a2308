"""Precision context, dense solves, exact elimination, eigensolver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import feigenbaum as fb
from feigenbaum.numerics import lu_factor, mat_norm_inf


def test_precision_ctx_rejects_low_digits():
    with pytest.raises(ValueError):
        fb.PrecisionCtx(8)


def test_precision_ctx_roundtrips_decimal_literal(ctx):
    digits = "1." + "0123456789" * 6 + "012"  # 64 significant digits
    x = ctx.mpf(digits)
    assert ctx.to_str(x) == digits


def test_guard_bits_margin(ctx):
    assert ctx.prec_bits >= 64 * 3.32


def test_solve_identity(ctx):
    A = fb.numerics.identity_rows(3, ctx)
    x = fb.solve_linear(A, [ctx.mpf(1), ctx.mpf(2), ctx.mpf(3)], ctx)
    assert [float(v) for v in x] == [1.0, 2.0, 3.0]


def test_solve_diagonal(ctx):
    A = [[ctx.mpf(2), ctx.mpf(0)], [ctx.mpf(0), ctx.mpf(4)]]
    x = fb.solve_linear(A, [ctx.mpf(2), ctx.mpf(4)], ctx)
    assert [float(v) for v in x] == [1.0, 1.0]


def test_solve_singular_raises(ctx):
    A = [[ctx.mpf(1), ctx.mpf(1)], [ctx.mpf(1), ctx.mpf(1)]]
    with pytest.raises(fb.SingularMatrix):
        fb.solve_linear(A, [ctx.mpf(1), ctx.mpf(2)], ctx)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 9))
def test_solve_multiply_back(n, seed):
    ctx = fb.PrecisionCtx(32)
    rng = random.Random(seed)
    with ctx.activate():
        A = [[ctx.mpf(rng.uniform(-2, 2)) for _ in range(n)] for _ in range(n)]
        b = [ctx.mpf(rng.uniform(-2, 2)) for _ in range(n)]
        try:
            x = fb.solve_linear(A, b, ctx)
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
    pairs = fb.eig_dense(A, ctx.ten_pow(-30), ctx)
    assert [float(p.value.real) for p in pairs] == [3.0, -2.0, 0.5]
    for p in pairs:
        assert p.value.imag == 0
        big = sorted(abs(v) for v in p.vector)
        assert float(big[-1]) == 1.0 and float(big[-2]) < 1e-60


def test_eig_rotation_conjugate_pair(ctx):
    A = [[ctx.mpf(0), ctx.mpf(1)], [ctx.mpf(-1), ctx.mpf(0)]]
    pairs = fb.eig_dense(A, ctx.ten_pow(-30), ctx)
    ims = sorted(float(p.value.imag) for p in pairs)
    assert ims == [-1.0, 1.0]
    assert all(abs(float(p.value.real)) < 1e-60 for p in pairs)


def test_eig_residual_bound_random(ctx):
    rng = random.Random(7)
    n = 8
    with ctx.activate():
        A = [[ctx.mpf(rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
        tol = ctx.ten_pow(-20)
        pairs = fb.eig_dense(A, tol, ctx)
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
            pairs = fb.eig_dense(A, ctx.ten_pow(-20), ctx)
            vals[digits] = [p.value.real for p in pairs]
    for a, b in zip(vals[32], vals[64]):
        assert abs(a - b) < mp.mpf("1e-30")


def test_lu_reports_pivot_ratio(ctx):
    A = [[ctx.mpf(1), ctx.mpf(0)], [ctx.mpf(0), ctx.ten_pow(-6)]]
    fac = lu_factor(A, ctx)
    assert float(fac.pivot_ratio) == pytest.approx(1e-6, rel=1e-3)


def test_mpf_to_fraction_roundtrip(ctx):
    with ctx.activate():
        x = mp.mpf("1.375")
        assert fb.mpf_to_fraction(x) == Fraction(11, 8)
        assert fb.mpf_to_fraction(mp.mpf(0)) == 0


def _integer_similarity(B, rng):
    """S B S^-1 with S a random unimodular integer matrix, exactly."""
    n = len(B)
    L = [[int(i == j) or (rng.randint(-2, 2) if i > j else 0) for j in range(n)]
         for i in range(n)]
    U = [[int(i == j) or (rng.randint(-2, 2) if i < j else 0) for j in range(n)]
         for i in range(n)]
    S = [[sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    Sinv = fb.solve_linear_exact(S, [[int(i == j) for j in range(n)] for i in range(n)])
    SB = [[sum(S[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(SB[i][k] * Sinv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _rotation_scaling_matrix(n, rng):
    """Integer matrix with known eigenvalues: diagonal blocks [[a, -b], [b, a]]
    (eigenvalues a +- ib) and 1x1 blocks [c], under an integer similarity."""
    B = [[0] * n for _ in range(n)]
    known = []
    i = 0
    while i < n:
        if i + 1 < n and rng.random() < 0.7:
            a, b = rng.randint(-5, 5), rng.randint(1, 5)
            B[i][i] = B[i + 1][i + 1] = a
            B[i][i + 1], B[i + 1][i] = -b, b
            known += [complex(a, b), complex(a, -b)]
            i += 2
        else:
            B[i][i] = rng.randint(-5, 5)
            known.append(complex(B[i][i]))
            i += 1
    return _integer_similarity(B, rng), known


@settings(max_examples=30, deadline=None)
@given(st.integers(16, 80), st.integers(1, 10), st.booleans(), st.integers(0, 10 ** 9))
def test_eig_dense_matches_mpmath_oracle(D, n, known_pairs, seed):
    ctx = fb.PrecisionCtx(D)
    rng = random.Random(seed)
    if known_pairs:
        rows, known = _rotation_scaling_matrix(n, rng)
        A = [[ctx.mpf(x) for x in row] for row in rows]
    else:
        known = None
        A = [[ctx.mpf(rng.uniform(-3, 3)) for _ in range(n)] for _ in range(n)]
    norm = mat_norm_inf(A)
    tol = ctx.ten_pow(-(D // 2))
    pairs = fb.eig_dense(A, tol, ctx)
    oracle, _ = ctx.mp.eig(ctx.mp.matrix(A))

    match = ctx.mpf(10) ** (-ctx.mpf(D) / 3) * max(1, norm)
    values = [p.value for p in pairs]
    assert len(values) == n
    for lam in values:
        assert min(abs(lam - mu) for mu in oracle) <= match
    for mu in oracle:
        assert min(abs(lam - mu) for lam in values) <= match
    if known is not None:
        for lam in values:
            assert min(abs(lam - ctx.mp.mpc(z.real, z.imag)) for z in known) <= match

    for i, p in enumerate(pairs):
        assert p.residual <= tol * norm
        assert len(p.vector) == n and 1 in p.vector
        assert max(abs(v) for v in p.vector) <= 1 + ctx.ten_pow(-D)
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


def test_eig_dense_names_the_row_that_never_deflates(ctx, monkeypatch):
    # with the sweeps disabled nothing deflates: the budget runs out at the
    # bottom row of the active block
    monkeypatch.setattr(fb.numerics, "_francis_step", lambda *args: None)
    A = [[ctx.mpf((i + 2) ** j) for j in range(4)] for i in range(4)]
    with pytest.raises(fb.NoConvergence) as info:
        fb.eig_dense(A, ctx.ten_pow(-30), ctx)
    assert info.value.index == 3


def test_spectrum_at_matches_mpmath_oracle():
    D, n = 24, 12
    ctx = fb.PrecisionCtx(D)
    spec = fb.OperatorSpec(fb.Variant.T, fb.Linearization.FULL_DERIVATIVE)
    seed = fb.monomial_to_series([ctx.mpf(1), ctx.mpf(0), ctx.mpf("-1.5")], ctx)
    g = fb.newton_solve(spec, None, seed, fb.NewtonConfig(), ctx, n=n).solution_series
    report = fb.spectrum_at(g, spec, ctx, n=n)
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
