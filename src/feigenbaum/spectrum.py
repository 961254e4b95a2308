"""Spectrum computation at the fixed point, classification against
powers of the scaling constant, eigenfunction parity, and verification
of the closed-form eigenfunctions.

Classification tags every eigenvalue as ``alpha_power`` (lambda close to
base**(1-k) for an integer k), as ``delta`` (the largest-modulus
untagged eigenvalue with an even eigenfunction), or ``unexplained``.
alpha is 1/g(1) under T/T2 and g(0)/g(g(0)) under T3/T4, which every
member mu g(x/mu) of a scaling family shares.  The sign-reversed
operator variants T2/T3 are classified against -alpha, which is exactly
how their spectra relate to the plain ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bases import BasisSpec, build_basis
from .chebyshev import ChebSeries, _eval, cheb_nodes
from .errors import AmbiguousMatch, NoExplicitForm
from .numerics import PrecisionCtx, eig_dense
from .operators import (
    Linearization,
    OperatorSpec,
    Variant,
    _explicit_form,
    explicit_eigenfunction,
    linearization_matrix,
    linearized_apply_at,
    scaling_of,
    sign_reversed,
    uses_inverse_g1,
)
from .solver import JacobianMode, NewtonConfig, default_seed, newton_solve

K_RANGE = range(-3, 13)


@dataclass(frozen=True)
class Classification:
    tag: str          # "alpha_power" | "delta" | "unexplained"
    k: object         # int for alpha_power, else None
    match_error: object  # |lambda - base**(1-k)|, else None


@dataclass(frozen=True)
class EigRecord:
    value: object        # mpf when real, else mpc
    residual: object
    tag: str
    k: object
    parity: str
    match_error: object
    vector: tuple


@dataclass(frozen=True)
class SpectrumReport:
    operator: Variant
    linearization: Linearization
    basis_descriptor: dict
    digits: int
    n: int
    alpha: object
    delta: object
    records: tuple

    @property
    def eigenvalues(self):
        return tuple(r.value for r in self.records)

    def to_json_dict(self, ctx: PrecisionCtx, include_vectors: bool = False) -> dict:
        rows = []
        for r in self.records:
            row = {
                "re": ctx.to_str(r.value.real),
                "im": ctx.to_str(r.value.imag),
                "modulus": ctx.to_str(abs(r.value)),
                "residual": ctx.to_str(r.residual),
                "tag": r.tag,
                "k": r.k,
                "parity": r.parity,
                "match_error": None if r.match_error is None else ctx.to_str(r.match_error),
            }
            if include_vectors:
                row["vector_re"] = [ctx.to_str(v.real) for v in r.vector]
                row["vector_im"] = [ctx.to_str(v.imag) for v in r.vector]
            rows.append(row)
        return {
            "operator": self.operator.value,
            "linearization": self.linearization.value,
            "basis": self.basis_descriptor,
            "digits": self.digits,
            "n": self.n,
            "alpha": ctx.to_str(self.alpha),
            "delta": None if self.delta is None else ctx.to_str(self.delta),
            "eigenvalues": rows,
        }


def classify_spectrum(eigs, alpha, ctx: PrecisionCtx, parities):
    """Tags for a sorted eigenvalue list against powers of ``alpha``.

    A value matches power k when |lambda - alpha**(1-k)| <= 1e-6 * |alpha**(1-k)|
    for integer k in -3..12; among non-matching eigenvalues the largest
    one whose entry in ``parities`` is "even" becomes delta.  The
    eigenvalues are converted to the context first, so values from
    mpmath's global ``mp`` compare at context precision.
    """
    eigs = [ctx.mp.convert(lam) for lam in eigs]
    tol = ctx.mpf("1e-6")
    alpha = ctx.mpf(alpha)
    powers = {k: alpha ** (1 - k) for k in K_RANGE}
    bounds = [(k, powers[k], tol * abs(powers[k])) for k in K_RANGE]
    tags = []
    for lam in eigs:
        cands = [(k, err) for k, power, bound in bounds if (err := abs(lam - power)) <= bound]
        if len(cands) > 1:
            vals = [powers[k] for k, _ in cands]
            spread = max(abs(a - b) for a in vals for b in vals)
            if spread > tol * max(abs(v) for v in vals):
                raise AmbiguousMatch(
                    "eigenvalue %s matches several powers" % ctx.mp.nstr(lam, 10),
                    candidates=[k for k, _ in cands],
                )
            cands.sort(key=lambda t: (abs(t[0]), t[0]))  # smallest |k|, then sign
        if cands:
            k, err = cands[0]
            tags.append(Classification("alpha_power", k, err))
        else:
            tags.append(Classification("unexplained", None, None))

    delta_idx = None
    best = None
    for i, (lam, tag) in enumerate(zip(eigs, tags)):
        if tag.tag != "unexplained":
            continue
        if parities[i] != "even":
            continue
        if best is None or abs(lam) > best:
            best, delta_idx = abs(lam), i
    if delta_idx is not None:
        tags[delta_idx] = Classification("delta", None, None)
    return tags


def eigenfunction_parity(vector, basis, ctx: PrecisionCtx) -> str:
    """even / odd / mixed: the one parity rule of every eigenpair.

    The eigenvector u (node coordinates) is compared with its reflection
    Ru, the vector of h(-x) in the same space: "even" when ||u - Ru||_inf
    <= tol ||u||_inf, "odd" when ||u + Ru||_inf <= tol ||u||_inf, else
    "mixed", with tol = ``ctx.eig_gate``.  The space decides what Ru is.
    On mirror nodes (the Chebyshev grid) it is the node values reversed.
    A space whose unknown powers are all even holds only even functions,
    so the vector is not read.  Otherwise u is the Chebyshev coefficients
    of ``basis.direction_series(vector)`` and Ru negates the odd-index ones.
    """
    if basis.mirror_nodes:
        u = [ctx.mp.convert(v) for v in vector]
        pairs = list(zip(u[:(len(u) + 1) // 2], reversed(u)))
    elif not any(p % 2 for p in basis.spec.powers):
        return "even"
    else:
        u = basis.direction_series(vector, ctx).coeffs
        pairs = [(c, -c if k % 2 else c) for k, c in enumerate(u)]
    bound = ctx.eig_gate * max(abs(v) for v in u)
    if max(abs(a - b) for a, b in pairs) <= bound:
        return "even"
    if max(abs(a + b) for a, b in pairs) <= bound:
        return "odd"
    return "mixed"


def spectrum_at(g: ChebSeries, spec: OperatorSpec, ctx: PrecisionCtx,
                basis) -> SpectrumReport:
    """Spectrum of the linearized operator at a given (fixed-point) g in
    the discretization ``basis`` (``chebgrid(n, ctx)`` for the grid).

    Builds the exact collocation matrix of the linearization at g; needs
    no Newton run, so it also serves operators whose unpinned Newton
    cannot converge and scaling-family members.

    The eigensolve splits into even and odd blocks whenever the matrix
    maps mirror-symmetric vectors to mirror-symmetric ones (see
    :func:`eig_dense`), as it does at an even g on symmetric nodes.  Every
    pair's parity comes from :func:`eigenfunction_parity`.
    """
    pairs = eig_dense(linearization_matrix(spec, g, basis, ctx), ctx)

    c = scaling_of(spec.variant, g, ctx).value
    alpha = c if uses_inverse_g1(spec.variant) else -c
    parities = [eigenfunction_parity(p.vector, basis, ctx) for p in pairs]
    base = -alpha if sign_reversed(spec.variant) else alpha
    tags = classify_spectrum([p.value for p in pairs], base, ctx, parities=parities)
    records = tuple(EigRecord(p.value, p.residual, t.tag, t.k, par, t.match_error, p.vector)
                    for p, t, par in zip(pairs, tags, parities))
    return SpectrumReport(
        operator=spec.variant,
        linearization=spec.linearization,
        basis_descriptor=basis.describe(ctx),
        digits=ctx.decimal_digits,
        n=basis.dim,
        alpha=alpha,
        delta=next((r.value.real for r in records if r.tag == "delta"), None),
        records=records,
    )


def compute_spectrum(result) -> SpectrumReport:
    """:func:`spectrum_at` a converged Newton solution, in the result's
    basis, under its operator spec and at its precision."""
    return spectrum_at(result.solution_series, result.spec, result.ctx,
                       basis=result.basis)


def spectrum_in_basis(op_spec: OperatorSpec, basis_spec: BasisSpec,
                      ctx: PrecisionCtx, seed: ChebSeries = None) -> SpectrumReport:
    """Full pipeline in a basis: Newton solve with the exact Jacobian from
    ``seed`` (default 1 - 1.5 x^2), then :func:`compute_spectrum`.

    The reported spectrum is that of the finite-dimensional projection
    of the linearized operator onto the basis subset, which is the whole
    point of the exercise.
    """
    result = newton_solve(op_spec, build_basis(basis_spec, ctx),
                          default_seed(1, ctx) if seed is None else seed,
                          NewtonConfig(jacobian_mode=JacobianMode.EXACT), ctx)
    return compute_spectrum(result)


def verify_explicit(g: ChebSeries, spec: OperatorSpec, k: int, lam_expected,
                    ctx: PrecisionCtx):
    """Relative residual ||Lin(g) h - lambda h||_inf / ||h||_inf for the
    closed-form eigenfunction h of :func:`explicit_eigenfunction` indexed
    by (spec, k), at the Chebyshev roots of h's length; raises as that
    function does where (spec, k) has no closed form, and
    :class:`NoExplicitForm` where h vanishes at every root (at g = 1 or
    g = x, say)."""
    h = explicit_eigenfunction(spec, g, k, ctx)
    n = len(h.coeffs)
    pts = cheb_nodes(n, ctx)
    hv = [_eval(h, x) for x in pts]
    hn = max(abs(v) for v in hv)
    if not hn:
        raise NoExplicitForm("the closed form of k = %d vanishes at this g" % k)
    image = linearized_apply_at(spec, g, h, pts, ctx)
    lam = ctx.mpf(lam_expected)
    return max(abs(image[i] - lam * hv[i]) for i in range(n)) / hn


def expected_explicit_eigenvalue(spec: OperatorSpec, k: int, alpha, ctx):
    """Companion of :func:`verify_explicit`: the eigenvalue the closed
    form of (spec, k) carries, from the canonical alpha = 1/g(1).

    alpha**(1-k); for the dilation mode (k = -1) alpha**2 under the full
    derivative of T/T2, which have no solution family, and 1 wherever a
    scaling family exists (T3/T4, and every frozen linearization, whose
    dilation mode is the k = 1 frozen form).  Raises as
    :func:`explicit_eigenfunction` does for (spec, k) without a closed form.
    """
    alpha = ctx.mpf(alpha)
    if _explicit_form(spec, k) != "dilation":
        return alpha ** (1 - k)
    if spec.linearization is Linearization.FULL_DERIVATIVE and uses_inverse_g1(spec.variant):
        return alpha ** 2
    return ctx.mpf(1)
