"""Extended-precision toolkit for the period-doubling fixed point.

Solves g = T(g) for the doubling operator and its variants by Chebyshev
collocation and Newton iteration at arbitrary decimal precision,
computes the spectrum of the correctly and incorrectly linearized
operators, classifies eigenvalues against powers of the spatial scaling
constant, and reproduces the basis-dependence of the spectrum under
alternative polynomial parameterizations.
"""

from .bases import (
    BasisKind,
    BasisSpec,
    Discretization,
    InterpolationMatrix,
    build_basis,
    chebgrid,
)
from .chebyshev import (
    ChebSeries,
    DecayReport,
    GridFn,
    cheb_nodes,
    decay_report,
    eval_series,
    grid_to_series,
    monomial_to_series,
    series_derivative,
    series_to_grid,
    series_to_monomial,
)
from .errors import (
    AmbiguousMatch,
    ConfigError,
    DivideByZero,
    ExactlySingular,
    FeigenbaumError,
    InvalidIndex,
    MissingArtifact,
    NoConvergence,
    NoExplicitForm,
    SingularJacobian,
    SingularMatrix,
    WrongBranch,
)
from .families import (
    FamilyComparison,
    family_member,
    family_spectrum_check,
    solve_extremum_order,
)
from .fixed import mpf_to_fraction
from .numerics import (
    EigenPair,
    PrecisionCtx,
    eig_dense,
    solve_linear_exact,
)
from .operators import (
    Linearization,
    OperatorSpec,
    ScalingConstant,
    Variant,
    apply_at_points,
    explicit_eigenfunction,
    linearization_matrix,
    linearized_apply_at,
    scaling_of,
)
from .solver import (
    ConvergenceReport,
    JacobianMode,
    NewtonConfig,
    NewtonResult,
    assemble_jacobian,
    convergence_diagnostics,
    default_seed,
    newton_solve,
    residual,
)
from .spectrum import (
    Classification,
    EigRecord,
    SpectrumReport,
    classify_spectrum,
    compute_spectrum,
    eigenfunction_parity,
    spectrum_at,
    spectrum_in_basis,
    verify_explicit,
)

__version__ = "0.1.0"
