"""The package's public surface is exactly the audited set of names.

The root finders, the quadrature and the GridFunction-level operator map are
module-internal (`gmerf.numerics`, `gmerf.fixed_point`); a name added to or
dropped from `gmerf.__all__` must change this set too.
"""

import gmerf

PUBLIC = {
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
}


def test_all_is_the_audited_surface():
    assert len(gmerf.__all__) == len(PUBLIC) == 31
    assert set(gmerf.__all__) == PUBLIC
    assert all(hasattr(gmerf, name) for name in gmerf.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from gmerf import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC
