"""Alternative parameterizations of the unknown function.

The fixed point can be discretized on the Chebyshev grid (values at the
n Chebyshev roots) or through explicit coefficient expansions:

* ``LANFORD``           1 + a_1 x^2 + ... + a_m x^(2m), nodes i/m, i=1..m
* ``EVEN_MONOMIAL``     a_0 + a_1 x^2 + ... + a_m x^(2m), nodes i/m, i=0..m
* ``RATIONAL_NODE_MONOMIAL``  a_0 + ... + a_m x^m at Chebyshev nodes rounded
  to nearby rationals (continued-fraction convergents, capped denominator)
* ``MONOMIAL_FULL``     same powers at true Chebyshev nodes, float inverse

For the rational-node kinds the map from node values to coefficients is
inverted exactly over the rationals (the Vandermonde systems are far too
ill-conditioned for naive floating inversion); floating point enters
only when polynomials are evaluated.  Monomial coefficients may be
pinned (a_0 = 1, a_1 = 0, ...), which removes the corresponding power
from the unknown set and drops the dimension: exactly the experiments
that delete the alpha^2 / alpha eigenvalues from the spectrum.

The node rule for the monomial kinds takes the first d usable nodes of
the (m+1)-point Chebyshev grid, skipping x = 0 whenever no constant
power is present (a zero row otherwise) and thereby breaking the exact
node symmetry that would let an even degree-m polynomial vanish on the
whole grid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .chebyshev import (
    ChebSeries,
    _eval,
    _tables,
    cheb_nodes,
    monomial_to_series,
)
from .errors import ConfigError, ExactlySingular
from .numerics import (
    PrecisionCtx,
    identity_rows,
    lu_factor,
    lu_solve_factored,
    mat_norm_inf,
    mpf_to_fraction,
    solve_linear_exact,
)


class BasisKind(enum.Enum):
    CHEB_GRID = "cheb"
    MONOMIAL_FULL = "monomial"
    EVEN_MONOMIAL = "even"
    LANFORD = "lanford"
    RATIONAL_NODE_MONOMIAL = "rational"


@dataclass(frozen=True)
class BasisSpec:
    """Declarative basis description.

    ``order`` is the node count n for CHEB_GRID and the expansion index m
    for the coefficient bases (max power m, or 2m for the even kinds).
    ``constraints`` pins monomial coefficients, e.g. ((0, 1), (1, 0)) for
    a_0 = 1 and a_1 = 0; only the monomial kinds accept them.
    """

    kind: BasisKind
    order: int
    constraints: tuple = ()
    denominator_cap: int = 1000

    def __post_init__(self):
        if self.kind in (BasisKind.LANFORD, BasisKind.EVEN_MONOMIAL) and self.constraints:
            raise ConfigError("%s basis carries structural constraints only" % self.kind.value)
        powers = set(range(self.order + 1)) if self.kind in (
            BasisKind.MONOMIAL_FULL,
            BasisKind.RATIONAL_NODE_MONOMIAL,
        ) else set()
        norm = []
        for p, v in self.constraints:
            if p not in powers:
                raise ConfigError("constraint on power %s outside basis" % p)
            norm.append((int(p), Fraction(v)))
        object.__setattr__(self, "constraints", tuple(norm))
        if self.dimension < 3:
            raise ConfigError("basis dimension %d < 3" % self.dimension)

    @property
    def dimension(self) -> int:
        if self.kind is BasisKind.CHEB_GRID:
            return self.order
        if self.kind is BasisKind.LANFORD:
            return self.order
        if self.kind is BasisKind.EVEN_MONOMIAL:
            return self.order + 1
        return self.order + 1 - len(self.constraints)


@dataclass(frozen=True)
class InterpolationMatrix:
    """Map from (values - fixed part at nodes) to basis coefficients.

    ``entries[k][j]`` multiplies value j into coefficient k.  For exact
    kinds the entries are Fractions satisfying M V = I identically
    against the generalized Vandermonde V.
    """

    entries: tuple
    exact: bool
    nodes: tuple
    powers: tuple

    def residual_vs_vandermonde(self):
        """M V - I as exact Fractions (exact kinds only)."""
        if not self.exact:
            raise ValueError("only exact matrices verify rationally")
        d = len(self.entries)
        V = [[x ** p for p in self.powers] for x in self.nodes]
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                s = sum(self.entries[i][c] * V[c][j] for c in range(d))
                row.append(s - (1 if i == j else 0))
            out.append(row)
        return out


@dataclass(frozen=True)
class Discretization:
    """Runtime form of a basis: collocation nodes plus the affine map
    from node values to a polynomial (as a Chebyshev series).

    ``condition_estimate`` bounds the conditioning of the values <->
    coefficients pair (product of the inf-norms of the Vandermonde and
    its inverse); singular-value heuristics in node coordinates must be
    scaled by it."""

    spec: BasisSpec
    nodes: tuple                 # mpf collocation nodes
    exact_nodes: tuple           # Fractions, or None for float kinds
    matrix: InterpolationMatrix
    cardinals: tuple             # ChebSeries, d/dvalue_j of the polynomial
    fixed_series: object         # ChebSeries or None
    fixed_at_nodes: tuple
    series_len: int
    condition_estimate: object = 1

    @property
    def dim(self) -> int:
        return len(self.nodes)

    def _combine(self, acc, weights) -> ChebSeries:
        """acc + sum_j weights[j] * cardinal_j; caller holds the precision."""
        for j, card in enumerate(self.cardinals):
            w = weights[j]
            if w:
                for i, c in enumerate(card.coeffs):
                    acc[i] += w * c
        return ChebSeries(tuple(acc))

    def to_series(self, values, ctx: PrecisionCtx) -> ChebSeries:
        """Polynomial through the given node values, as a ChebSeries
        (affine: the fixed part plus the cardinal combination)."""
        acc = [ctx.mpf(0)] * self.series_len
        if self.fixed_series is not None:
            for i, c in enumerate(self.fixed_series.coeffs):
                acc[i] = ctx.mpf(c)
        return self._combine(
            acc, [values[j] - self.fixed_at_nodes[j] for j in range(self.dim)])

    def direction_series(self, vector, ctx: PrecisionCtx) -> ChebSeries:
        """Linear part of :meth:`to_series`: sum_j vector[j] * cardinal_j,
        without the fixed part.  Eigenvectors and other tangent directions
        (real or complex) map to functions through this; the entries are
        converted to the context first, so values from mpmath's global
        ``mp`` compute at context precision."""
        return self._combine([ctx.mpf(0)] * self.series_len,
                             [ctx.mp.convert(v) for v in vector])

    def describe(self, ctx: PrecisionCtx) -> dict:
        d = {
            "kind": self.spec.kind.value,
            "dimension": self.dim,
            "exact": self.matrix.exact,
            "constraints": [[p, str(v)] for p, v in self.spec.constraints],
        }
        if self.exact_nodes is not None:
            d["nodes"] = [str(x) for x in self.exact_nodes]
        else:
            d["nodes"] = [ctx.to_str(x) for x in self.nodes]
        return d


def chebgrid(n: int, ctx: PrecisionCtx) -> Discretization:
    """The identity pairing with the Chebyshev-root grid."""
    spec = BasisSpec(BasisKind.CHEB_GRID, n)
    nodes = cheb_nodes(n, ctx)
    two_over_n = ctx.mpf(2) / n
    _, cosk = _tables(n, ctx.prec_bits)
    cards = tuple(
        ChebSeries(tuple(two_over_n * cosk[k][j] for k in range(n)))
        for j in range(n)
    )
    zero = ctx.mpf(0)
    mat = InterpolationMatrix(
        entries=tuple(tuple(c.coeffs[k] for c in cards) for k in range(n)),
        exact=False,
        nodes=nodes,
        powers=tuple(range(n)),
    )
    cond = mat_norm_inf([[cosk[k][j] for k in range(n)] for j in range(n)]) * mat_norm_inf(mat.entries)
    return Discretization(spec, nodes, None, mat, cards, None, (zero,) * n, n, cond)


def _monomial_series(powers_to_coeffs: dict, degree: int, ctx) -> ChebSeries:
    dense = [0] * (degree + 1)
    for p, c in powers_to_coeffs.items():
        dense[p] = ctx.mpf(c)
    return monomial_to_series(dense, ctx)


def _rationalize(x, cap: int) -> Fraction:
    return mpf_to_fraction(x).limit_denominator(cap)


def _monomial_nodes(spec: BasisSpec, ctx: PrecisionCtx):
    """First `dim` usable nodes of the (m+1)-point Chebyshev grid.

    When no constant power survives the constraints, the origin node of
    odd-count grids (x = cos(pi/2), zero up to round-off) is dropped: its
    collocation row would vanish identically."""
    m = spec.order
    pool = list(cheb_nodes(m + 1, ctx))
    min_power = min(p for p in range(m + 1) if all(p != c for c, _ in spec.constraints))
    if min_power >= 1:
        cut = ctx.ten_pow(-(ctx.decimal_digits // 2))
        pool = [x for x in pool if abs(x) > cut]
    if len(pool) < spec.dimension:
        raise ConfigError("not enough usable nodes for dimension %d" % spec.dimension)
    return pool[: spec.dimension]


def build_basis(spec: BasisSpec, ctx: PrecisionCtx) -> Discretization:
    """Nodes plus interpolation matrix for the requested basis."""
    if spec.kind is BasisKind.CHEB_GRID:
        return chebgrid(spec.order, ctx)

    m = spec.order
    if spec.kind is BasisKind.LANFORD:
        exact_nodes = [Fraction(i, m) for i in range(1, m + 1)]
        powers = tuple(range(2, 2 * m + 1, 2))
        fixed = {0: Fraction(1)}
    elif spec.kind is BasisKind.EVEN_MONOMIAL:
        exact_nodes = [Fraction(i, m) for i in range(0, m + 1)]
        powers = tuple(range(0, 2 * m + 1, 2))
        fixed = {}
    else:
        pinned = dict(spec.constraints)
        powers = tuple(p for p in range(m + 1) if p not in pinned)
        fixed = {p: v for p, v in pinned.items() if v != 0}
        float_nodes = _monomial_nodes(spec, ctx)
        if spec.kind is BasisKind.RATIONAL_NODE_MONOMIAL:
            exact_nodes = [_rationalize(x, spec.denominator_cap) for x in float_nodes]
        else:
            exact_nodes = None

    d = spec.dimension
    degree = max(powers)

    if exact_nodes is not None:
        if len(set(exact_nodes)) != len(exact_nodes):
            raise ExactlySingular("repeated interpolation nodes")
        V = [[x ** p for p in powers] for x in exact_nodes]
        M = solve_linear_exact(V, [[Fraction(int(i == j)) for j in range(d)] for i in range(d)])
        entries = tuple(tuple(row) for row in M)
        nodes = tuple(ctx.mpf(x) for x in exact_nodes)
        exact = True
        col = lambda j: {p: ctx.mpf(entries[k][j]) for k, p in enumerate(powers)}
    else:
        nodes = tuple(float_nodes)
        V = [[x ** p for p in powers] for x in nodes]
        fac = lu_factor(V, ctx)
        eye = identity_rows(d, ctx)
        cols = [lu_solve_factored(fac, [eye[i][j] for i in range(d)], ctx) for j in range(d)]
        entries = tuple(tuple(cols[j][k] for j in range(d)) for k in range(d))
        exact = False
        col = lambda j: {p: entries[k][j] for k, p in enumerate(powers)}

    mat = InterpolationMatrix(entries, exact, tuple(exact_nodes) if exact_nodes else nodes, powers)
    cond = mat_norm_inf([[ctx.mpf(x) for x in row] for row in V]) * mat_norm_inf(
        [[ctx.mpf(x) for x in row] for row in entries]
    )
    cards = tuple(_monomial_series(col(j), degree, ctx) for j in range(d))
    series_len = degree + 1
    cards = tuple(_pad(c, series_len, ctx) for c in cards)
    if fixed:
        fixed_series = _pad(_monomial_series(fixed, max(fixed), ctx), series_len, ctx)
        fixed_at_nodes = tuple(_eval(fixed_series.coeffs, x) for x in nodes)
    else:
        fixed_series = None
        fixed_at_nodes = (ctx.mpf(0),) * d
    return Discretization(
        spec, nodes, tuple(exact_nodes) if exact_nodes else None, mat, cards,
        fixed_series, fixed_at_nodes, series_len, cond,
    )


def _pad(s: ChebSeries, length: int, ctx: PrecisionCtx) -> ChebSeries:
    if len(s.coeffs) >= length:
        return s
    return ChebSeries(s.coeffs + (ctx.mpf(0),) * (length - len(s.coeffs)))


def coeffs_from_values(basis: Discretization, values, ctx: PrecisionCtx):
    """Basis coefficients for the polynomial through the node values.

    The (exact) interpolation matrix is applied at context precision;
    the affine fixed part (Lanford's leading 1, pinned coefficients) is
    subtracted first.
    """
    M = basis.matrix
    d = basis.dim
    rhs = [values[i] - basis.fixed_at_nodes[i] for i in range(d)]
    out = []
    for k in range(d):
        row = M.entries[k]
        out.append(ctx.mp.fsum(ctx.mpf(row[j]) * rhs[j] for j in range(d)))
    return tuple(out)


def spectrum_in_basis(op_spec, basis_spec: BasisSpec, ctx: PrecisionCtx,
                      config=None, seed=None, eig_tol=None):
    """Full pipeline in a basis: Newton solve, exact Jacobian, spectrum.

    The reported spectrum is that of the finite-dimensional projection
    of the linearized operator onto the basis subset, which is the whole
    point of the exercise.
    """
    # imported here: the solver consumes Discretization objects from this module
    from . import solver, spectrum

    basis = build_basis(basis_spec, ctx)
    if seed is None:
        seed = monomial_to_series([ctx.mpf(1), ctx.mpf(0), ctx.mpf("-1.5")], ctx)
    result = solver.newton_solve(op_spec, basis, seed, config, ctx)
    return spectrum.compute_spectrum(result, eig_tol, ctx)
