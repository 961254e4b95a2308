"""Alternative parameterizations of the unknown function.

The fixed point can be discretized on the Chebyshev grid (values at the
n Chebyshev roots) or through explicit coefficient expansions, which
all follow one rule.  A coefficient basis of index m is a family of
powers minus its pinned coefficients, and its nodes are the first d of a
pool, d being the number of unknown powers:

* ``EVEN_MONOMIAL``     powers 0, 2, ..., 2m; pool i/m, i = 0..m
* ``LANFORD``           the even basis with a_0 = 1 pinned:
  1 + a_1 x^2 + ... + a_m x^(2m) at the nodes i/m, i = 1..m
* ``MONOMIAL_FULL``     powers 0..m; pool the (m+1)-point Chebyshev grid,
  float inverse
* ``RATIONAL_NODE_MONOMIAL``  the same, its nodes rounded to nearby
  rationals (continued-fraction convergents, denominators <= 1000)

Further monomial coefficients may be pinned (a_0 = 1, a_1 = 0, ...);
each pin removes its power from the unknowns and drops the dimension by
one.  Pinning a_0 also drops the origin from the pool: with no constant
power its collocation row would vanish, and on an odd Chebyshev pool the
exact node symmetry would let an even degree-m polynomial vanish on the
whole grid.  These are the experiments that delete the alpha^2 / alpha
eigenvalues from the spectrum: Lanford's basis loses alpha^2 because it
pins g(0) = 1, exactly as a_0 = 1 does in the monomial basis.

For the rational-node kinds the map from node values to coefficients is
inverted exactly over the rationals (the Vandermonde systems are far too
ill-conditioned for naive floating inversion); floating point enters
only when polynomials are evaluated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .chebyshev import (
    ChebSeries,
    _cardinal_sum,
    _eval,
    _tables,
    cheb_nodes,
    monomial_to_series,
)
from .errors import ConfigError, ExactlySingular
from .fixed import ROW_GUARD_BITS, BarycentricCardinals, mpf_rows, mpf_to_fraction
from .numerics import (
    PrecisionCtx,
    identity_rows,
    lu_factor,
    lu_solve_factored,
    mat_norm_inf,
    solve_linear_exact,
)


class BasisKind(enum.Enum):
    CHEB_GRID = "cheb"
    MONOMIAL_FULL = "monomial"
    EVEN_MONOMIAL = "even"
    LANFORD = "lanford"
    RATIONAL_NODE_MONOMIAL = "rational"


_EVEN_KINDS = (BasisKind.LANFORD, BasisKind.EVEN_MONOMIAL)


def _pins(kind: BasisKind, constraints) -> dict:
    """{power: value} of the pinned coefficients: the constraints, and
    Lanford's a_0 = 1."""
    pins = dict(constraints)
    if kind is BasisKind.LANFORD:
        pins[0] = Fraction(1)
    return pins


@dataclass(frozen=True)
class BasisSpec:
    """Declarative basis description.

    ``order`` is the node count n for CHEB_GRID and the expansion index m
    for the coefficient bases (max power m, or 2m for the even kinds).
    ``constraints`` pins monomial coefficients, e.g. ((0, 1), (1, 0)) for
    a_0 = 1 and a_1 = 0, each power at most once; only the monomial kinds
    accept them.
    """

    kind: BasisKind
    order: int
    constraints: tuple = ()

    def __post_init__(self):
        if self.constraints and self.kind not in (BasisKind.MONOMIAL_FULL,
                                                  BasisKind.RATIONAL_NODE_MONOMIAL):
            raise ConfigError("%s basis carries structural constraints only" % self.kind.value)
        norm = {}
        for p, v in self.constraints:
            if p not in range(self.order + 1):
                raise ConfigError("constraint on power %s outside basis" % p)
            if p in norm:
                raise ConfigError("coefficient a%d may be constrained once" % p)
            norm[int(p)] = Fraction(v)
        object.__setattr__(self, "constraints", tuple(norm.items()))
        if self.dimension < 3:
            raise ConfigError("basis dimension %d < 3" % self.dimension)

    @property
    def pinned(self) -> dict:
        return _pins(self.kind, self.constraints)

    @property
    def powers(self) -> tuple:
        """The unknown powers: those of the family (even 0..2m, or 0..m)
        that are not pinned."""
        pinned, step = self.pinned, 2 if self.kind in _EVEN_KINDS else 1
        return tuple(p for p in range(0, step * self.order + 1, step) if p not in pinned)

    @property
    def dimension(self) -> int:
        if self.kind is BasisKind.CHEB_GRID:
            return self.order
        return self.order + 1 - len(self.pinned)


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
        V = [[x ** p for p in self.powers] for x in self.nodes]
        return [[sum(a * V[c][j] for c, a in enumerate(row)) - (i == j) for j in range(len(row))]
                for i, row in enumerate(self.entries)]


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
    matrix: InterpolationMatrix  # None on the Chebyshev grid
    cardinals: tuple             # ChebSeries, d/dvalue_j of the polynomial
    fixed_series: object         # ChebSeries or None
    fixed_at_nodes: tuple
    condition_estimate: object = 1
    kernel: object = None        # BarycentricCardinals of the cardinals' values

    @property
    def dim(self) -> int:
        return len(self.nodes)

    @property
    def exact_nodes(self):
        """The nodes as Fractions when the interpolation is exact, else None."""
        return self.matrix.nodes if self.matrix is not None and self.matrix.exact else None

    @property
    def mirror_nodes(self) -> bool:
        """Node i mirrors node n-1-i (to round-off) and mirrored node values
        give the reflected function h(-x): true of the Chebyshev grid."""
        return self.spec.kind is BasisKind.CHEB_GRID

    def to_series(self, values, ctx: PrecisionCtx) -> ChebSeries:
        """Polynomial through the given node values, as a ChebSeries
        (affine: the fixed part plus the cardinals weighted by the values
        less the fixed part's)."""
        return _cardinal_sum(self.cardinals, [v - f for v, f in zip(values, self.fixed_at_nodes)],
                             ctx, self.fixed_series)

    def direction_series(self, vector, ctx: PrecisionCtx) -> ChebSeries:
        """Linear part of :meth:`to_series`: sum_j vector[j] * cardinal_j,
        without the fixed part.  Eigenvectors and other tangent directions
        (real or complex) map to functions through this, at context
        precision whatever context made the entries."""
        return _cardinal_sum(self.cardinals, vector, ctx)

    def cardinal_ints(self, points, ctx: PrecisionCtx):
        """(U, E) with E[i][j] 2^-U = cardinal_j(points[i]), E of integers
        and U at least p + ``ROW_GUARD_BITS``: row i maps node values to
        the value of the direction they span at points[i].  Every basis
        sums each row barycentrically, in O(d) per point on the Chebyshev
        grid and O(d (1 + g)) on a coefficient basis with g missing powers
        (:class:`feigenbaum.fixed.BarycentricCardinals`)."""
        return self.kernel.U, self.kernel.rows(points, ctx.mp)

    def cardinal_rows(self, points, ctx: PrecisionCtx) -> list:
        """The rows of :meth:`cardinal_ints` in ``mpf``, each entry
        rounded once."""
        U, rows = self.cardinal_ints(points, ctx)
        return mpf_rows(rows, U, ctx.mp)

    def describe(self, ctx: PrecisionCtx) -> dict:
        d = {
            "kind": self.spec.kind.value,
            "dimension": self.dim,
            "exact": self.exact_nodes is not None,
            "constraints": [[p, str(v)] for p, v in self.spec.constraints],
        }
        d["nodes"] = ([str(x) for x in self.exact_nodes] if self.exact_nodes is not None
                      else [ctx.to_str(x) for x in self.nodes])
        return d


def spec_from_description(d: dict) -> BasisSpec:
    """Inverse of :meth:`Discretization.describe`: the BasisSpec of a
    descriptor's ``kind``, ``dimension`` and ``constraints``."""
    kind = BasisKind(d["kind"])
    constraints = tuple((int(p), Fraction(v)) for p, v in d["constraints"])
    dimension = int(d["dimension"])
    if kind is BasisKind.CHEB_GRID:
        return BasisSpec(kind, dimension)
    return BasisSpec(kind, dimension - 1 + len(_pins(kind, constraints)), constraints)


def chebgrid(n: int, ctx: PrecisionCtx) -> Discretization:
    """The identity pairing with the Chebyshev-root grid, from the cached
    node tables."""
    nodes, cards, kernel, _, cond = _tables(n, ctx.prec_bits)
    return Discretization(BasisSpec(BasisKind.CHEB_GRID, n), nodes, None, cards, None,
                          (ctx.mpf(0),) * n, cond, kernel)


@dataclass(frozen=True)
class EvenHalf(Discretization):
    """Even functions on the Chebyshev grid ``full`` of n nodes.

    The unknowns are the values at the m = ceil(n/2) non-negative nodes.
    Cardinal j is the mirror sum l_j + l_(n-1-j) of the grid's cardinals,
    with its odd Chebyshev coefficients exact zeros; the middle cardinal
    of an odd n is kept as it is.  It carries no interpolation matrix.
    """

    full: Discretization = None

    @property
    def mirror_nodes(self) -> bool:
        return False

    def cardinal_ints(self, points, ctx: PrecisionCtx):
        """The full grid's rows, folded: entry j is l_j(z) + l_(n-1-j)(z)."""
        n = self.full.dim
        U, rows = self.full.cardinal_ints(points, ctx)
        return U, [[r[j] + r[n - 1 - j] if 2 * j + 1 < n else r[j]
                    for j in range(self.dim)] for r in rows]

    def mirrored(self, values) -> tuple:
        """The full grid's n node values of the even function with these
        half values."""
        n = self.full.dim
        return tuple(values) + tuple(values[n - 1 - i] for i in range(self.dim, n))


def even_half(grid: Discretization, ctx: PrecisionCtx) -> EvenHalf:
    """The :class:`EvenHalf` of a Chebyshev grid, from the cached node
    tables.  Its condition estimate is the grid's, which bounds it (the
    half maps are restrictions of the grid's to even functions)."""
    m = grid.dim - grid.dim // 2
    return EvenHalf(grid.spec, grid.nodes[:m], None, _tables(grid.dim, ctx.prec_bits)[3], None,
                    (ctx.mpf(0),) * m, grid.condition_estimate, full=grid)


def _monomial_series(powers_to_coeffs: dict, length: int, ctx) -> ChebSeries:
    """Chebyshev series of sum c x^p, the coefficients c taken exactly,
    zero-padded to ``length`` coefficients."""
    dense = [0] * length
    for p, c in powers_to_coeffs.items():
        dense[p] = c
    coeffs = monomial_to_series(dense, ctx).coeffs
    return ChebSeries(coeffs + (ctx.mpf(0),) * (length - len(coeffs)))


def build_basis(spec: BasisSpec, ctx: PrecisionCtx) -> Discretization:
    """Nodes plus interpolation matrix for the requested basis.

    The nodes are the first ``spec.dimension`` of a pool, i/m (i = 0..m)
    for the even kinds and the (m+1)-point Chebyshev grid otherwise,
    rounded to rationals for RATIONAL_NODE_MONOMIAL.  Pinning a_0 drops
    the origin: with no constant power its collocation row would vanish
    identically.  The pool keeps enough nodes, since the pin that drops
    the one origin also removes one unknown.  A coefficient basis is made
    once per (spec, decimal digits), and every context of that precision
    shares it."""
    if spec.kind is BasisKind.CHEB_GRID:
        return chebgrid(spec.order, ctx)
    return _coefficient_basis(spec, ctx.decimal_digits)


@lru_cache(maxsize=64)
def _coefficient_basis(spec: BasisSpec, digits: int) -> Discretization:
    """The coefficient basis of :func:`build_basis` at the given decimal
    digits, immutable and made in a context private to this cache, as the
    node tables of :mod:`feigenbaum.chebyshev` are, with the barycentric
    kernel of its cardinals' values; its cardinals keep their integer
    forms once made."""
    ctx = PrecisionCtx(digits)
    m, pinned, powers, d = spec.order, spec.pinned, spec.powers, spec.dimension
    pool = ([Fraction(i, m) for i in range(m + 1)] if spec.kind in _EVEN_KINDS
            else cheb_nodes(m + 1, ctx))
    if 0 in pinned:
        cut = ctx.ten_pow(-(ctx.decimal_digits // 2))
        pool = [x for x in pool if abs(ctx.mpf(x)) > cut]
    if spec.kind is BasisKind.RATIONAL_NODE_MONOMIAL:
        pool = [mpf_to_fraction(x).limit_denominator(1000) for x in pool]
    points = pool[:d]
    nodes = tuple(ctx.mpf(x) for x in points)

    exact = isinstance(points[0], Fraction)
    if exact:
        if len(set(points)) != d:
            raise ExactlySingular("repeated interpolation nodes")
        V = [[x ** p for p in powers] for x in points]
        entries = tuple(map(tuple, solve_linear_exact(
            V, [[Fraction(int(i == j)) for j in range(d)] for i in range(d)])))
    else:
        V = [[x ** p for p in powers] for x in nodes]
        fac = lu_factor(V, ctx)
        cols = [lu_solve_factored(fac, e, ctx) for e in identity_rows(d, ctx)]
        entries = tuple(tuple(cols[j][k] for j in range(d)) for k in range(d))
    mat = InterpolationMatrix(entries, exact, tuple(points), powers)
    cond = mat_norm_inf([[ctx.mpf(x) for x in row] for row in V]) * mat_norm_inf(
        [[ctx.mpf(x) for x in row] for row in entries]
    )

    fixed = {p: v for p, v in pinned.items() if v != 0}
    length = 1 + max(powers + tuple(fixed))
    cards = tuple(_monomial_series({p: entries[k][j] for k, p in enumerate(powers)}, length, ctx)
                  for j in range(d))
    if fixed:
        fixed_series = _monomial_series(fixed, length, ctx)
        fixed_at_nodes = tuple(_eval(fixed_series, x) for x in nodes)
    else:
        fixed_series = None
        fixed_at_nodes = (ctx.mpf(0),) * d
    return Discretization(spec, nodes, mat, cards, fixed_series, fixed_at_nodes, cond,
                          _cardinal_kernel(spec, pool, entries, ctx.prec_bits))


def _cardinal_kernel(spec: BasisSpec, pool, entries, prec_bits: int):
    """The barycentric kernel of a coefficient basis's cardinals
    (:mod:`feigenbaum.fixed` states it): the nodes in v = x^2 for the even
    kinds and v = x otherwise, then the next points of the pool, one per
    power missing between the lowest and the top unknown one (each is a
    pin, and each pin leaves a pool point unused), with the cardinals'
    exact values there from the exact entries."""
    step = 2 if spec.kind in _EVEN_KINDS else 1
    qs = [p // step for p in spec.powers]
    s, d = qs[0], len(qs)
    vs = [mpf_to_fraction(x) ** step for x in pool[:qs[-1] - s + 1]]
    E = [[mpf_to_fraction(a) for a in row] for row in entries]
    values = [[sum(e[j] * u ** (q - s) for e, q in zip(E, qs)) for j in range(d)]
              for u in vs[d:]]
    prods = [math.prod(v - u for u in vs if u != v) for v in vs]
    top = max(map(abs, prods))  # weights w_i = top / prod_i, the least of modulus 1
    return BarycentricCardinals(vs, [top / pr for pr in prods], prec_bits + ROW_GUARD_BITS,
                                values, s, step == 2, ROW_GUARD_BITS)
