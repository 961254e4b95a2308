"""Classification, parity, closed-form verification, report schema."""

import json

import pytest
from mpmath import mp

import feigenbaum as fb
from feigenbaum import spectrum

FULL = fb.Linearization.FULL_DERIVATIVE
FROZEN = fb.Linearization.FROZEN_ALPHA


def test_classify_alpha_squared(ctx):
    with ctx.activate():
        tags = fb.classify_spectrum(
            [mp.mpc("6.264547831")], mp.mpf("-2.502907875"), ctx, ["even"])
    assert tags[0].tag == "alpha_power" and tags[0].k == -1


def test_classify_delta_untagged(ctx):
    with ctx.activate():
        tags = fb.classify_spectrum(
            [mp.mpc("4.669201609")], mp.mpf("-2.502907875"), ctx, ["even"])
    assert tags[0].tag == "delta"


def test_classify_unexplained(ctx):
    with ctx.activate():
        tags = fb.classify_spectrum(
            [mp.mpc("4.669201609"), mp.mpc("-0.123652712")],
            mp.mpf("-2.502907875"), ctx, ["even", "even"])
    assert tags[0].tag == "delta"
    assert tags[1].tag == "unexplained"


def test_classify_delta_requires_even_parity(ctx):
    with ctx.activate():
        tags = fb.classify_spectrum(
            [mp.mpc("4.669201609"), mp.mpc("-0.123652712")],
            mp.mpf("-2.502907875"), ctx, parities=["mixed", "even"])
    assert tags[0].tag == "unexplained"
    assert tags[1].tag == "delta"


def test_classify_ambiguous_match(ctx):
    # base very close to 1: powers 1-k collide within tolerance but stay
    # distinguishable, which must be reported, not resolved silently
    with ctx.activate():
        base = mp.mpf(1) + mp.mpf("1.6e-6")
        lam = mp.mpc(1 + mp.mpf("8e-7"))
        with pytest.raises(fb.AmbiguousMatch) as err:
            fb.classify_spectrum([lam], base, ctx, ["even"])
    assert len(err.value.candidates) >= 2


def test_classify_same_value_prefers_small_k(ctx):
    # base -1: all even powers coincide at 1; the smallest |k| must win
    # without raising (ascending k on an exact tie)
    with ctx.activate():
        tags = fb.classify_spectrum([mp.mpc(1)], mp.mpf(-1), ctx, ["even"])
    assert tags[0].tag == "alpha_power" and tags[0].k == -1


def test_parity_constant_even(ctx):
    basis = fb.chebgrid(8, ctx)
    vec = [mp.mpc(1)] * 8
    assert fb.eigenfunction_parity(vec, basis, ctx) == "even"


def test_parity_odd_function(ctx):
    basis = fb.chebgrid(8, ctx)
    vec = [mp.mpc(x) for x in fb.cheb_nodes(8, ctx)]  # values of x
    assert fb.eigenfunction_parity(vec, basis, ctx) == "odd"


def test_parity_mixed(ctx):
    basis = fb.chebgrid(8, ctx)
    vec = [mp.mpc(x + x * x) for x in fb.cheb_nodes(8, ctx)]
    assert fb.eigenfunction_parity(vec, basis, ctx) == "mixed"


def test_verify_explicit_no_form_for_even_k_signflip(g32, alpha64, ctx):
    for variant in (fb.Variant.T2, fb.Variant.T3):
        spec = fb.OperatorSpec(variant, FULL)
        with pytest.raises(fb.NoExplicitForm):
            fb.verify_explicit(g32, spec, 2, 1, ctx)


@pytest.mark.parametrize("k", [1, -2, -5])
@pytest.mark.parametrize("lin", [FULL, FROZEN], ids=["full", "frozen"])
def test_explicit_forms_reject_invalid_k(k, lin, g32, alpha64, ctx):
    """k = 1 and k < -1 index no closed form: they raise, not fall back to
    the k = 0 form."""
    spec = fb.OperatorSpec(fb.Variant.T, lin)
    with pytest.raises(fb.InvalidIndex):
        spectrum.expected_explicit_eigenvalue(spec, k, alpha64, ctx)
    with pytest.raises(fb.InvalidIndex):
        fb.verify_explicit(g32, spec, k, 1, ctx)


def test_verify_explicit_odd_k_signflip_works(g32, alpha64, ctx):
    spec = fb.OperatorSpec(fb.Variant.T2, FULL)
    with ctx.activate():
        lam = alpha64 ** -2  # k = 3
    res = fb.verify_explicit(g32, spec, 3, lam, ctx)
    assert res <= mp.mpf("1e-15")


def test_verify_explicit_frozen_k3(g32, alpha64, ctx):
    spec = fb.OperatorSpec(fb.Variant.T, FROZEN)
    with ctx.activate():
        lam = alpha64 ** -2
    res = fb.verify_explicit(g32, spec, 3, lam, ctx)
    assert res <= mp.mpf("1e-15")


def test_verify_explicit_t4_unit_eigenvalue(g32, ctx):
    spec = fb.OperatorSpec(fb.Variant.T4, FULL)
    res = fb.verify_explicit(g32, spec, -1, 1, ctx)
    assert res <= mp.mpf("1e-15")


def test_report_sorted_by_modulus(spectrum32):
    mods = [abs(v) for v in spectrum32.eigenvalues]
    assert all(mods[i] >= mods[i + 1] for i in range(len(mods) - 1))


def test_report_single_delta(spectrum32):
    assert sum(1 for r in spectrum32.records if r.tag == "delta") == 1


def test_report_alpha_power_match_errors(spectrum32, ctx):
    for r in spectrum32.records:
        if r.tag == "alpha_power":
            assert r.match_error is not None
            with ctx.activate():
                base = r.value.real if r.k is None else None
            assert r.match_error < mp.mpf("1e-6") * abs(r.value)


def test_h0_dichotomy_leading_eigenvectors(spectrum32, quad32, ctx):
    lead = spectrum32.records[: (2 * 32) // 3]
    with ctx.activate():
        for r in lead:
            if r.tag == "alpha_power" and r.k == -1:
                h0_alpha2 = r
                continue
            h = quad32.basis.to_series([v.real for v in r.vector], ctx)
            h0 = abs(fb.eval_series(h, 0, ctx))
            hn = max(abs(v) for v in r.vector)
            assert h0 <= ctx.ten_pow(-10) * hn
        # while the dilation eigenvector is the one with h(0) != 0
        h = quad32.basis.to_series([v.real for v in h0_alpha2.vector], ctx)
        assert abs(fb.eval_series(h, 0, ctx)) > mp.mpf("0.1")


def test_json_schema_fixed_fields(spectrum32, ctx):
    d = spectrum32.to_json_dict(ctx)
    assert set(d) == {"operator", "linearization", "basis", "digits", "n",
                      "alpha", "delta", "eigenvalues"}
    row = d["eigenvalues"][0]
    assert set(row) == {"re", "im", "modulus", "residual", "tag", "k",
                        "parity", "match_error"}
    assert d["digits"] == 64 and d["n"] == 32
    # decimal strings carry the full digit budget
    assert len(d["alpha"].replace("-", "").replace(".", "")) >= 64
    json.dumps(d)  # serializable


def test_json_vector_embedding(spectrum32, ctx):
    d = spectrum32.to_json_dict(ctx, include_vectors=True)
    row = d["eigenvalues"][0]
    assert len(row["vector_re"]) == 32 and len(row["vector_im"]) == 32


def _sampled_parity(vector, basis, ctx):
    """The test oracle: h sampled at the 33 symmetric points j/16,
    j = -16..16, is even (odd) when max |h(x) -+ h(-x)| is within 1e-8
    of its largest sample."""
    h = basis.direction_series(vector, ctx)
    pts = [ctx.mpf(j) / 16 for j in range(17)]
    plus = [fb.eval_series(h, x, ctx) for x in pts]
    minus = [fb.eval_series(h, -x, ctx) for x in pts]
    tol = ctx.mpf("1e-8") * max(abs(v) for v in plus + minus)
    if max(abs(p - m) for p, m in zip(plus, minus)) <= tol:
        return "even"
    if max(abs(p + m) for p, m in zip(plus, minus)) <= tol:
        return "odd"
    return "mixed"


@pytest.mark.parametrize("spec", [fb.OperatorSpec(fb.Variant.T, FULL),
                                  fb.OperatorSpec(fb.Variant.T, FROZEN),
                                  fb.OperatorSpec(fb.Variant.T4, FULL)],
                         ids=["T-full", "T-frozen", "T4-full"])
def test_even_block_parity_agrees_with_sampling(g32, ctx, spec):
    """The even block of a mirror split holds the exactly mirror-symmetric
    vectors, and they sample as even functions; the others do not."""
    n = 20
    basis = fb.chebgrid(n, ctx)
    L = fb.linearization_matrix(spec, g32, basis, ctx)
    pairs = fb.eig_dense(L, ctx)
    symmetric = [p.vector == p.vector[::-1] for p in pairs]
    assert sum(symmetric) == n // 2
    for p, even in zip(pairs, symmetric):
        parity = _sampled_parity(p.vector, basis, ctx)
        assert parity in (("even",) if even else ("odd", "mixed"))


@pytest.mark.parametrize("n", [12, 13, 20])
@pytest.mark.parametrize("variant, lin, mu", [(fb.Variant.T, FULL, None),
                                              (fb.Variant.T, FROZEN, None),
                                              (fb.Variant.T4, FULL, "1.5")],
                         ids=["T-full", "T-frozen", "T4-mu1.5"])
def test_odd_block_parity_agrees_with_sampling(g32, ctx, variant, lin, mu, n):
    """On the grid the parity rule reads the node vector, and agrees with
    sampling the eigenfunction, the odd block's rows included."""
    g = fb.family_member(g32, mu, ctx) if mu else g32
    basis = fb.chebgrid(n, ctx)
    report = fb.spectrum_at(g, fb.OperatorSpec(variant, lin), ctx, basis)
    odd_block = [r for r in report.records if r.parity != "even"]
    assert len(odd_block) == n // 2
    for r in report.records:
        assert r.parity == _sampled_parity(r.vector, basis, ctx)


def test_pinned_t4_spectrum_splits(quad_seed, ctx, monkeypatch):
    spec = fb.OperatorSpec(fb.Variant.T4, FULL)
    result = fb.newton_solve(spec, None, quad_seed, fb.NewtonConfig(pin_g0=1), ctx, n=12)
    solves = []
    solve = spectrum.eig_dense
    monkeypatch.setattr(spectrum, "eig_dense",
                        lambda *args, **kw: solves.append(solve(*args, **kw)) or solves[-1])
    report = fb.compute_spectrum(result)
    assert sum(p.vector == p.vector[::-1] for p in solves[0]) == 6
    assert sum(r.parity == "even" for r in report.records) == 6


def _monomial(m, constraints, ctx):
    return fb.build_basis(fb.BasisSpec(fb.BasisKind.MONOMIAL_FULL, m, constraints), ctx)


def test_a0_pinned_monomial_spectrum_splits(g32, ctx):
    """With a0 pinned the monomial basis of m = 12 collocates on the 13-point
    Chebyshev pool without its origin: 12 mirror-symmetric nodes, and not
    the grid.  At an even g its matrix splits all the same, and the even
    block's 6 vectors are exactly mirror-symmetric."""
    basis = _monomial(12, ((0, 1),), ctx)
    assert not basis.mirror_nodes
    report = fb.spectrum_at(g32, fb.OperatorSpec(fb.Variant.T, FULL), ctx, basis)
    symmetric = [r for r in report.records if r.vector == r.vector[::-1]]
    assert len(symmetric) == 6
    assert all(r.parity == "even" for r in symmetric)


def test_parity_of_an_even_power_space_reads_no_vector(ctx, monkeypatch):
    """With a1 and a3 pinned the monomial basis of m = 4 holds 1, x^2 and
    x^4 only: every direction is even, and none is reconstructed."""
    basis = _monomial(4, ((1, 0), (3, 0)), ctx)

    def unread(*args):
        raise AssertionError("an even power space needs no series")

    monkeypatch.setattr(fb.Discretization, "direction_series", unread)
    assert fb.eigenfunction_parity([ctx.mpf(1), ctx.mpf(-2), ctx.mpf(3)], basis, ctx) == "even"


def test_parity_tolerance_is_relative_to_the_precision(ctx):
    """x^2 + 1e-10 x has an odd part far above the gate 10^(-D/2-4): it
    is mixed, however small the part is against 1e-8."""
    basis = _monomial(2, (), ctx)
    vec = [x * x + ctx.mpf("1e-10") * x for x in basis.nodes]
    assert fb.eigenfunction_parity(vec, basis, ctx) == "mixed"
    assert fb.eigenfunction_parity([x * x for x in basis.nodes], basis, ctx) == "even"
