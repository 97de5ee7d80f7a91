"""Property tests over the edges of the parameter space: each solve either
returns a result within its acceptance bound or fails with a GmerfError.

The draws are derandomized, so every run takes the same examples.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmerf import (
    GMEParams,
    GmerfError,
    SolverConfig,
    boundary_slope_ratio,
    contraction_threshold,
    dirichlet_contraction_threshold,
    solve_gme,
    solve_lambda,
)
from oracles import shoot_bvp, shoot_bvp_dirichlet

# The acceptance suite's bound on the sup gap to the RK4 shooting oracle.
ORACLE_SUP_TOL = 1e-5
# The benchmark's bound on lam* |H(lam*)/rhs - 1|: the front balance's offset
# in lambda from its root, for Brent's absolute step of 1e-12.
TOL_BALANCE_LAM = 5e-12

EDGE_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
PROFILE_CONFIG = SolverConfig(grid_n=1001)


# The oracle searches y(0) ~ 1/gamma in relative terms, so gamma may range to
# 1e300; near 1.7e308 its first guess for y(0) is subnormal and it fails.
@given(
    log_gamma=st.one_of(st.floats(-6.0, 300.0), st.just(math.inf)),
    log_lam=st.floats(-3.0, math.log10(50.0)),
    share=st.floats(0.0, 0.999),
)
@example(log_gamma=0.0, log_lam=math.log10(50.0), share=0.5)  # past RK4's step limit on 1001 nodes
@EDGE_SETTINGS
def test_profile_matches_the_shooting_oracle_or_fails_cleanly(log_gamma, log_lam, share):
    gamma, lam = 10.0**log_gamma, 10.0**log_lam
    finite = math.isfinite(gamma)
    beta = share * (contraction_threshold(gamma) if finite else dirichlet_contraction_threshold(lam))
    params = GMEParams(beta, gamma, lam)
    try:
        sol = solve_gme(params, PROFILE_CONFIG)
    except GmerfError:
        return
    oracle = shoot_bvp(params, PROFILE_CONFIG) if finite else shoot_bvp_dirichlet(beta, lam, PROFILE_CONFIG)
    assert np.max(np.abs(sol.phi.values - oracle.values)) <= ORACLE_SUP_TOL


@given(
    log_gamma=st.floats(-4.0, 4.0),
    share=st.floats(0.0, 0.99),
    log_ste=st.floats(-4.0, 4.0),
    grid_n=st.sampled_from([201, 1001]),
)
@EDGE_SETTINGS
def test_front_balances_to_the_root_tolerance_or_fails_cleanly(log_gamma, share, log_ste, grid_n):
    gamma, ste = 10.0**log_gamma, 10.0**log_ste
    beta = share * contraction_threshold(gamma)
    config = SolverConfig(grid_n=grid_n)
    try:
        lam = solve_lambda(beta, gamma, ste, config)
    except GmerfError:
        return
    rhs = 2.0 / ((1.0 + beta) * ste)
    assert lam * abs(boundary_slope_ratio(lam, beta, gamma, config) / rhs - 1.0) <= TOL_BALANCE_LAM
