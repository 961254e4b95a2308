"""Shared fixtures.

The heavyweight pipelines (Newton solves, exact Jacobians, eigensolves)
are session-scoped: one quadratic run at n = 32 feeds most of the suite,
with refinement companions at n = 24 and 40 and the quartic run at
n = 70 behind their own fixtures.
"""

import pytest

import feigenbaum as fb

pytest_plugins = ()


def pytest_collection_modifyitems(items):
    """Mark every test that needs the quartic70 fixture as slow."""
    for item in items:
        if "quartic70" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def ctx():
    return fb.PrecisionCtx(64)


@pytest.fixture(scope="session")
def ctx32():
    return fb.PrecisionCtx(32)


@pytest.fixture(scope="session")
def quad_seed(ctx):
    return fb.monomial_to_series([ctx.mpf(1), ctx.mpf(0), ctx.mpf("-1.5")], ctx)


FULL = fb.Linearization.FULL_DERIVATIVE
FROZEN = fb.Linearization.FROZEN_ALPHA


def _quad_result(n, ctx, seed, **kw):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    return fb.newton_solve(spec, None, seed, fb.NewtonConfig(**kw), ctx, n=n)


@pytest.fixture(scope="session")
def quad32(ctx, quad_seed):
    """Converged quadratic fixed point, Chebyshev grid n = 32."""
    return _quad_result(32, ctx, quad_seed)


@pytest.fixture(scope="session")
def g32(quad32):
    return quad32.solution_series


@pytest.fixture(scope="session")
def alpha64(quad32):
    return quad32.scaling.value


@pytest.fixture(scope="session")
def spectrum32(quad32, ctx):
    """Table-1 spectrum report at n = 32."""
    return fb.compute_spectrum(quad32)


@pytest.fixture(scope="session")
def quad24(ctx, quad_seed):
    return _quad_result(24, ctx, quad_seed)


@pytest.fixture(scope="session")
def quad40(ctx, quad_seed):
    return _quad_result(40, ctx, quad_seed)


@pytest.fixture(scope="session")
def spectrum24(quad24, ctx):
    return fb.compute_spectrum(quad24)


@pytest.fixture(scope="session")
def spectrum40(quad40, ctx):
    return fb.compute_spectrum(quad40)


def _variant_report(g, variant, lin, ctx):
    return fb.spectrum_at(g, fb.OperatorSpec(variant, lin), ctx, fb.chebgrid(32, ctx))


@pytest.fixture(scope="session")
def frozen_report(g32, ctx):
    return _variant_report(g32, fb.Variant.T, FROZEN, ctx)


@pytest.fixture(scope="session")
def t2_report(g32, ctx):
    return _variant_report(g32, fb.Variant.T2, FULL, ctx)


@pytest.fixture(scope="session")
def t3_report(g32, ctx):
    return _variant_report(g32, fb.Variant.T3, FULL, ctx)


@pytest.fixture(scope="session")
def t4_report(g32, ctx):
    return _variant_report(g32, fb.Variant.T4, FULL, ctx)


@pytest.fixture(scope="session")
def quartic70(ctx):
    """Quartic branch at n = 70: (NewtonResult, SpectrumReport)."""
    result = fb.solve_extremum_order(2, 70, ctx)
    return result, fb.compute_spectrum(result)


@pytest.fixture(scope="session")
def lanford_report(ctx):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    return fb.spectrum_in_basis(spec, fb.BasisSpec(fb.BasisKind.LANFORD, 15), ctx)


@pytest.fixture(scope="session")
def even_report(ctx):
    spec = fb.OperatorSpec(fb.Variant.T, FULL)
    return fb.spectrum_in_basis(spec, fb.BasisSpec(fb.BasisKind.EVEN_MONOMIAL, 15), ctx)
