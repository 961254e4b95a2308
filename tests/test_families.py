"""Scaling families and higher-extremum branches."""

import pytest
from mpmath import mp

import feigenbaum as fb
from feigenbaum.chebyshev import ChebSeries


def test_family_member_identity(g32, ctx):
    gm = fb.family_member(g32, 1, ctx)
    with ctx.activate():
        err = max(abs(a - b) for a, b in zip(gm.coeffs, g32.coeffs))
    assert err < ctx.ten_pow(-60)


def test_family_member_value_at_origin(g32, ctx):
    gm = fb.family_member(g32, 2, ctx)
    with ctx.activate():
        want = 2 * fb.eval_series(g32, 0, ctx)
        assert abs(fb.eval_series(gm, 0, ctx) - want) < ctx.ten_pow(-55)


def test_family_member_rejects_zero(g32, ctx):
    with pytest.raises(ValueError):
        fb.family_member(g32, 0, ctx)


@pytest.mark.parametrize("mu", ["inf", "-inf", "nan"])
def test_family_member_rejects_non_finite_mu(g32, ctx, mu):
    with pytest.raises(ValueError, match="mu must be finite"):
        fb.family_member(g32, mu, ctx)


def test_family_member_contraction_needs_flag(g32, ctx):
    with pytest.raises(ValueError):
        fb.family_member(g32, "0.5", ctx)


def test_family_solves_fixed_alpha_equation(g32, alpha64, ctx):
    """g_mu satisfies g = alpha g(g(x/alpha)) with the base alpha."""
    with ctx.activate():
        for mu in (mp.mpf(1), mp.mpf("1.5"), mp.mpf(2)):
            gm = fb.family_member(g32, mu, ctx)
            worst = mp.mpf(0)
            for i in range(101):
                x = -1 + mp.mpf(2) * i / 100
                lhs = fb.eval_series(gm, x, ctx)
                inner = fb.eval_series(gm, x / alpha64, ctx)
                rhs = alpha64 * fb.eval_series(gm, inner, ctx)
                worst = max(worst, abs(lhs - rhs))
            assert worst <= mp.mpf("1e-14") * abs(mu)


def test_family_scaling_constant_invariant(g32, alpha64, ctx):
    """a = -g_mu(0)/g_mu(g_mu(0)) equals -alpha for every member."""
    with ctx.activate():
        for mu in (mp.mpf(1), mp.mpf("1.2"), mp.mpf("1.5")):
            gm = fb.family_member(g32, mu, ctx)
            a = fb.scaling_of(fb.Variant.T3, gm, ctx).value
            assert abs(a + alpha64) < ctx.ten_pow(-20)


def test_constant_family_spectrum(ctx):
    y = ChebSeries((ctx.mpf(6),) + (ctx.mpf(0),) * 7)  # y = 3
    spec = fb.OperatorSpec(fb.Variant.T4, fb.Linearization.FULL_DERIVATIVE)
    rep = fb.spectrum_at(y, spec, ctx, fb.chebgrid(8, ctx))
    with ctx.activate():
        assert abs(rep.eigenvalues[0] - 1) < ctx.ten_pow(-10)
        for lam in rep.eigenvalues[1:]:
            assert abs(lam) < ctx.ten_pow(-10)


def test_family_check_structure(g32, ctx):
    cmp = fb.family_spectrum_check(g32, [1, "1.5"], fb.Variant.T4, ctx, n=24)
    assert cmp.mus == (1, ctx.mpf("1.5"))
    assert cmp.compared == 8
    d = cmp.to_json_dict(ctx)
    assert d["operator"] == "T4"
    assert len(d["reports"]) == 2


def test_family_spectra_classify_against_the_family_alpha(g32, alpha64, ctx):
    # 1/g_mu(1) moves along the family; g_mu(0)/g_mu(g_mu(0)) stays alpha
    cmp = fb.family_spectrum_check(g32, [1, "1.5"], fb.Variant.T4, ctx, n=16)
    report = cmp.reports[1]
    assert abs(report.alpha - alpha64) < ctx.mpf("1e-8")
    row = next(r for r in report.records if abs(r.value - alpha64) < ctx.mpf("1e-4"))
    assert (row.tag, row.k) == ("alpha_power", 0)


def test_family_deviation_matches_each_eigenvalue_to_its_nearest(g32, ctx):
    """At n = 12 the mu = 1.5 member has the pair 0.16644 +- 0.04147i where
    mu = 1 has the real rows 0.15962 and -0.12365.  Each leading eigenvalue
    is matched to the nearest one of the other member, so the pair shifts
    no later row; matched by sorted position the deviation read 0.293."""
    cmp = fb.family_spectrum_check(g32, [1, "1.5"], fb.Variant.T4, ctx, n=12)
    a, b = (r.eigenvalues for r in cmp.reports)
    assert a[4].imag == 0 and b[4].imag != 0
    nearest = max(min(abs(x - y) for y in other)
                  for these, other in ((a, b), (b, a)) for x in these[:cmp.compared])
    assert cmp.max_pairwise_deviation == nearest
    assert cmp.max_pairwise_deviation < ctx.mpf("0.1")


def test_family_check_requires_family_operator(g32, ctx):
    with pytest.raises(ValueError):
        fb.family_spectrum_check(g32, [1], fb.Variant.T, ctx)


def test_default_seed_shapes(ctx):
    with ctx.activate():
        s1 = fb.default_seed(1, ctx)
        tay = fb.series_to_monomial(s1, ctx)
        assert abs(tay[0] - 1) < ctx.ten_pow(-60)
        assert abs(tay[2] + mp.mpf("1.5")) < ctx.ten_pow(-60)
        s2 = fb.default_seed(2, ctx)
        tay = fb.series_to_monomial(s2, ctx)
        assert abs(tay[4] + mp.mpf("1.7")) < ctx.ten_pow(-55)
    with pytest.raises(ValueError):
        fb.default_seed(0, ctx)


def test_wrong_branch_detected(ctx):
    # a quadratic seed inside the quadratic basin, declared as k = 2:
    # Newton converges to the quadratic branch and the order check fires
    seed = fb.default_seed(1, ctx)
    with pytest.raises(fb.WrongBranch):
        fb.solve_extremum_order(2, 20, ctx, seed=seed)


def test_extremum_order_k1_reproduces_quadratic(ctx):
    report = fb.compute_spectrum(fb.solve_extremum_order(1, 20, ctx))
    assert abs(report.alpha - mp.mpf("-2.502907875")) < mp.mpf("1e-8")
    assert abs(report.delta - mp.mpf("4.669201609")) < mp.mpf("1e-8")


def test_quadratic_quartic_branches_separate(g32, quartic70, ctx):
    g2 = quartic70[0].solution_series
    with ctx.activate():
        worst = mp.mpf(0)
        for i in range(101):
            x = -1 + mp.mpf(2) * i / 100
            worst = max(worst, abs(fb.eval_series(g32, x, ctx)
                                   - fb.eval_series(g2, x, ctx)))
    assert worst >= mp.mpf("0.1")
