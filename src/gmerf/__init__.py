"""Solver for one-phase solidification with conductivity linear in temperature.

The similarity reduction turns the free-boundary problem into a nonlinear
two-point problem on [0, lam] whose solution generalizes the error function.
This package constructs that profile as the fixed point of an integral
operator, provides closed-form small-slope approximations and derivative
bounds, solves for the front coefficient, and reconstructs the physical
temperature field. See the individual modules:

- ``numerics``: error function, grid container, cumulative Simpson
  quadrature, bracketing and Brent root finding.
- ``fixed_point``: the integral operator, contraction thresholds, Picard
  solver.
- ``approx``: constant-conductivity profile and first-order slope expansion.
- ``stefan``: physical parameters, front coefficient, temperature field,
  prescribed-value (large-gamma) limit.
- ``cli``: ``gmerf`` command-line front end.

The package exports what the demos, the README examples and the CLI use; the
quadrature, the root finders and the GridFunction-level operator map stay in
``numerics`` and ``fixed_point``.
"""

from .approx import (
    ApproxCoefficients,
    approx_coeffs,
    approx_error,
    first_order,
    zero_order,
)
from .errors import (
    BracketError,
    ContractionError,
    FixedPointError,
    GmerfError,
    RootConvergenceError,
)
from .fixed_point import (
    DEFAULT_CONFIG,
    GMEParams,
    GMESolution,
    SolverConfig,
    contraction_factor,
    contraction_threshold,
    dirichlet_contraction_threshold,
    lipschitz_bound,
    solve_gme,
)
from .numerics import GridFunction, erf
from .stefan import (
    PhysicalParams,
    boundary_slope_ratio,
    dirichlet_gap,
    front_position,
    phi_prime_bounds,
    solve_dirichlet,
    solve_lambda,
    solve_stefan,
    temperature,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ApproxCoefficients",
    "BracketError",
    "ContractionError",
    "DEFAULT_CONFIG",
    "FixedPointError",
    "GMEParams",
    "GMESolution",
    "GmerfError",
    "GridFunction",
    "PhysicalParams",
    "RootConvergenceError",
    "SolverConfig",
    "approx_coeffs",
    "approx_error",
    "boundary_slope_ratio",
    "contraction_factor",
    "contraction_threshold",
    "dirichlet_contraction_threshold",
    "dirichlet_gap",
    "erf",
    "first_order",
    "front_position",
    "lipschitz_bound",
    "phi_prime_bounds",
    "solve_dirichlet",
    "solve_gme",
    "solve_lambda",
    "solve_stefan",
    "temperature",
    "zero_order",
]
