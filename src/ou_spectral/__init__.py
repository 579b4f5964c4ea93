"""Bi-orthogonal eigensystem tools for Ornstein-Uhlenbeck Fokker-Planck
operators: ladder-built eigenfunctions, exact Gaussian-moment pairings,
spectral propagation, and stochastic cross-checks."""

__version__ = "0.1.0"

from .errors import (
    AxisOutOfRangeError,
    ConfigError,
    DefectiveMatrixError,
    DimensionMismatchError,
    ModeIndexMismatchError,
    ModeOutOfRangeError,
    NonFiniteResultError,
    NotCanonicalError,
    NotSolvableError,
    NotSPDError,
    NotSquareError,
    OUSpectralError,
    SingularMatrixError,
    SingularSystemError,
    UnstableDriftError,
)
from .gaussian import (
    ForwardFunction,
    GaussianDensity,
    expectation,
    inner_product,
    stationary_density,
    wick_moment,
)
from .hermite_form import (
    CanonicalTransform,
    adjoint_hermite,
    canonical_transform,
    forward_hermite,
    is_canonical,
    to_canonical,
)
from .ladder import (
    OUModel,
    adjoint_eigenfunction,
    apply_adjoint,
    apply_forward,
    build_model,
    eigenvalue,
    forward_eigenfunction,
    lower_adjoint,
    lower_forward,
    raise_adjoint,
    raise_forward,
)
from .linalg import (
    EigenSystem,
    biorthogonal_eig,
    expm,
    solve_lyapunov,
)
from .monomials import enumerate_modes, mode_normalization
from .mpoly import MPoly, coeff_distance, hermite, render
from .sde_oracle import MomentReport, SimConfig, simulate
from .spectral import (
    SpectralExpansion,
    evaluate,
    evaluate_complex,
    evaluate_grid,
    evaluate_grid_complex,
    exact_gaussian_propagate,
    expand_gaussian,
    solve_inhomogeneous,
)
from .verify import battery_polynomials, reconstruct_operators_check
