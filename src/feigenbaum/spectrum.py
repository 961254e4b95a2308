"""Spectrum computation at the fixed point, classification against
powers of the scaling constant, eigenfunction parity, and verification
of the closed-form eigenfunctions.

Classification tags every eigenvalue as ``alpha_power`` (lambda close to
base**(1-k) for an integer k), as ``delta`` (the largest-modulus
untagged eigenvalue with an even eigenfunction), or ``unexplained``.
The sign-reversed operator variants T2/T3 are classified against -alpha,
which is exactly how their spectra relate to the plain ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bases import chebgrid
from .chebyshev import ChebSeries, _eval, cheb_nodes
from .errors import AmbiguousMatch, NoExplicitForm
from .numerics import PrecisionCtx, eig_dense
from .operators import (
    EigenfunctionKind,
    Linearization,
    OperatorSpec,
    Variant,
    explicit_eigenfunction,
    explicit_eigenvalue,
    linearized_apply_at,
    scaling_of,
)
from .solver import JacobianMode, NewtonConfig, assemble_jacobian

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


def classification_base(variant: Variant, alpha):
    """Power base per variant: alpha, or -alpha for the sign-reversed ones."""
    return -alpha if variant in (Variant.T2, Variant.T3) else alpha


def classify_spectrum(eigs, alpha, ctx: PrecisionCtx, tol_rel=None, parities=None):
    """Tags for a sorted eigenvalue list against powers of ``alpha``.

    A value matches power k when |lambda - alpha**(1-k)| <= tol * |alpha**(1-k)|
    for integer k in -3..12; among non-matching eigenvalues the largest
    one with an even eigenfunction (all of them, when no parities are
    supplied) becomes delta.  The eigenvalues are converted to the
    context first, so values from mpmath's global ``mp`` compare at
    context precision.
    """
    eigs = [ctx.mp.convert(lam) for lam in eigs]
    tol = ctx.mpf("1e-6") if tol_rel is None else ctx.mpf(tol_rel)
    alpha = ctx.mpf(alpha)
    powers = {k: alpha ** (1 - k) for k in K_RANGE}
    tags = []
    for lam in eigs:
        cands = [
            (k, abs(lam - powers[k]))
            for k in K_RANGE
            if abs(lam - powers[k]) <= tol * abs(powers[k])
        ]
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
        if parities is not None and parities[i] != "even":
            continue
        if best is None or abs(lam) > best:
            best, delta_idx = abs(lam), i
    if delta_idx is not None:
        tags[delta_idx] = Classification("delta", None, None)
    return tags


def eigenfunction_parity(vector, basis, ctx: PrecisionCtx, samples: int = 16) -> str:
    """even / odd / mixed, measured at 2*samples+1 symmetric points.

    ``vector`` holds the eigenvector components in node coordinates; the
    basis reconstructs the polynomial they represent.
    """
    h = basis.direction_series(vector, ctx).coeffs
    pts = [ctx.mpf(j) / samples for j in range(samples + 1)]
    plus = [_eval(h, x) for x in pts]
    minus = [_eval(h, -x) for x in pts]
    scale = max(max(abs(v) for v in plus), max(abs(v) for v in minus))
    if scale == 0:
        return "even"
    tol = ctx.mpf("1e-8") * scale
    if max(abs(p - m) for p, m in zip(plus, minus)) <= tol:
        return "even"
    if max(abs(p + m) for p, m in zip(plus, minus)) <= tol:
        return "odd"
    return "mixed"


def spectrum_at(g: ChebSeries, spec: OperatorSpec, ctx: PrecisionCtx,
                basis=None, n: int = None, eig_tol=None) -> SpectrumReport:
    """Spectrum of the linearized operator at a given (fixed-point) g.

    Builds the exact collocation matrix of the linearization at g; needs
    no Newton run, so it also serves operators whose unpinned Newton
    cannot converge and scaling-family members.
    """
    if basis is None:
        basis = chebgrid(n if n else max(len(g.coeffs), 8), ctx)
    d = basis.dim
    A = assemble_jacobian(spec, g, d, NewtonConfig(jacobian_mode=JacobianMode.EXACT),
                          ctx, basis=basis)
    D = ctx.decimal_digits
    M = [
        [(ctx.mpf(1) if i == j else ctx.mpf(0)) - A[i][j] for j in range(d)]
        for i in range(d)
    ]
    tol = eig_tol if eig_tol is not None else ctx.ten_pow(-(D // 2) - 4)
    pairs = eig_dense(M, tol, ctx)

    alpha = scaling_of(Variant.T, g, ctx).value
    parities = [eigenfunction_parity(p.vector, basis, ctx) for p in pairs]
    base = classification_base(spec.variant, alpha)
    tags = classify_spectrum([p.value for p in pairs], base, ctx, parities=parities)
    delta = None
    records = []
    for p, tag, par in zip(pairs, tags, parities):
        if tag.tag == "delta":
            delta = p.value.real
        records.append(
            EigRecord(p.value, p.residual, tag.tag, tag.k, par, tag.match_error, p.vector)
        )
    return SpectrumReport(
        operator=spec.variant,
        linearization=spec.linearization,
        basis_descriptor=basis.describe(ctx),
        digits=D,
        n=d,
        alpha=alpha,
        delta=delta,
        records=tuple(records),
    )


def compute_spectrum(result, tol=None, ctx: PrecisionCtx = None) -> SpectrumReport:
    """Spectrum of the linearization at a converged Newton solution, in
    the result's basis and under its operator spec."""
    ctx = ctx or result.ctx
    return spectrum_at(
        result.solution_series,
        result.spec,
        ctx,
        basis=result.basis,
        eig_tol=tol,
    )


def _explicit_kind_for(spec: OperatorSpec, k: int):
    """Which closed form applies for (operator, linearization, k).

    k = -1 selects the dilation mode g - x g' (the one form whose value
    at 0 need not vanish).  Raises NoExplicitForm where no closed form is
    known: even k for the sign-reversed variants T2/T3.
    """
    flipped = spec.variant in (Variant.T2, Variant.T3)
    if k == -1:
        return EigenfunctionKind.DILATION
    if flipped and k % 2 == 0:
        raise NoExplicitForm(
            "no closed-form eigenfunction for %s with even k" % spec.variant.value
        )
    if spec.linearization is Linearization.FROZEN_ALPHA:
        return EigenfunctionKind.FROZEN_POWER
    return EigenfunctionKind.FULL_POWER


def verify_explicit(g: ChebSeries, spec: OperatorSpec, k: int, lam_expected,
                    ctx: PrecisionCtx):
    """Relative residual ||Lin(g) h - lambda h||_inf / ||h||_inf for the
    closed-form eigenfunction indexed by k (k = -1: dilation mode)."""
    kind = _explicit_kind_for(spec, k)
    h = explicit_eigenfunction(kind, g, max(k, 0), ctx)
    n = len(h.coeffs)
    pts = cheb_nodes(n, ctx)
    image = linearized_apply_at(spec, g, h, pts, ctx)
    lam = ctx.mpf(lam_expected)
    hv = [_eval(h.coeffs, x) for x in pts]
    hn = max(abs(v) for v in hv)
    return max(abs(image[i] - lam * hv[i]) for i in range(n)) / hn


def expected_explicit_eigenvalue(spec: OperatorSpec, k: int, alpha, ctx):
    """Companion of :func:`verify_explicit`: the eigenvalue the closed
    form carries, from the canonical alpha = 1/g(1)."""
    kind = _explicit_kind_for(spec, k)
    return explicit_eigenvalue(kind, spec, max(k, 0), alpha, ctx)
