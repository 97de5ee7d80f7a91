"""End-to-end acceptance checks for the solver stack.

One test per acceptance criterion, so ``pytest tests/test_acceptance.py -v``
prints one pass/fail line per criterion. Each test also prints a summary
line with its measured margin; add ``-s`` to see those on passing runs.

All tolerances are module constants; expected reference numbers are frozen
literals, never recomputed from the code under test. Cross-checks that have
an independent route (closed forms, shooting, bisection, finite differences
on the reconstructed temperature field) always use that route.
"""

import functools
import math

import numpy as np
import pytest

from gmerf import (
    GMEParams,
    PhysicalParams,
    SolverConfig,
    approx_error,
    boundary_slope_ratio,
    contraction_factor,
    contraction_threshold,
    dirichlet_gap,
    fixed_point_map,
    front_position,
    lipschitz_bound,
    phi_prime_bounds,
    solve_dirichlet,
    solve_gme,
    solve_lambda,
    solve_stefan,
    temperature,
)
from gmerf.numerics import GridFunction, erf
from oracles import shoot_bvp

SQRT_PI = math.sqrt(math.pi)

# criterion tolerances, in criterion order
THRESHOLD_TABLE_RTOL = 1e-2
CLOSED_FORM_SUP_TOL = 1e-7
ORACLE_SUP_TOL = 1e-5
SECOND_DIFF_K = 2.0
SATURATION_EPS = 1e-12
CONTRACTION_SLACK = 1e-8
SLOPE_RATIO_CAP_SLACK = 1e-12
EQUALITY_CASE_RTOL = 1e-10
LAMBDA_RESIDUAL_TOL = 1e-8
BISECTION_MATCH_TOL = 1e-8
DIRICHLET_SUP_TOL = 1e-7
LARGE_GAMMA_GAP_CAP = 2e-4
PDE_RESIDUAL_TOL = 1e-4
REFINEMENT_RATIO_CAP = 0.35
STEFAN_RESIDUAL_TOL = 1e-4

# threshold reference table: gamma -> root of g(x) = 1
THRESHOLD_TABLE = ((0.1, 1.55), (1.0, 3.0e-1), (10.0, 3.65e-2), (100.0, 3.75e-3))

GAMMA_SET = (0.1, 1.0, 10.0, 100.0)
LAM_SET = (1.0, 5.0, 10.0)


def report(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


@functools.lru_cache(maxsize=None)
def solved(beta: float, gamma: float, lam: float):
    return solve_gme(GMEParams(beta=beta, gamma=gamma, lam=lam))


def constant_conductivity_cases():
    return [(0.0, g, l) for g in GAMMA_SET for l in LAM_SET]


@functools.lru_cache(maxsize=1)
def variable_conductivity_cases():
    cases = []
    for gamma in (0.1, 1.0, 10.0):
        b1 = contraction_threshold(gamma)
        for frac in (0.5, 0.9):
            for lam in LAM_SET:
                cases.append((frac * b1, gamma, lam))
    return cases


def all_cases():
    return constant_conductivity_cases() + list(variable_conductivity_cases())


def test_criterion_01_contraction_threshold_reference_table():
    worst = 0.0
    for gamma, expected in THRESHOLD_TABLE:
        got = contraction_threshold(gamma)
        worst = max(worst, abs(got - expected) / expected)
    assert worst <= THRESHOLD_TABLE_RTOL
    report("threshold table", f"max rel err {worst:.2e}, tol {THRESHOLD_TABLE_RTOL:.0e}")


def test_criterion_02_constant_conductivity_matches_closed_form():
    worst = 0.0
    for beta, gamma, lam in constant_conductivity_cases():
        worst = max(worst, approx_error(0, solved(beta, gamma, lam)))
    assert worst <= CLOSED_FORM_SUP_TOL
    report("beta=0 closed form", f"max sup gap {worst:.2e}, tol {CLOSED_FORM_SUP_TOL:.0e}")


def test_criterion_03_fixed_point_matches_shooting_oracle():
    worst = 0.0
    for beta, gamma, lam in variable_conductivity_cases():
        sol = solved(beta, gamma, lam)
        oracle = shoot_bvp(sol.params, SolverConfig())
        worst = max(worst, float(np.max(np.abs(sol.phi.values - oracle.values))))
    assert worst <= ORACLE_SUP_TOL
    report("shooting oracle", f"max sup gap {worst:.2e}, tol {ORACLE_SUP_TOL:.0e}")


def test_criterion_04_profile_shape_and_curvature_identity():
    # strict monotonicity/concavity is checked away from the saturated tail,
    # where increments shrink below representable size
    worst_ratio = 0.0
    for beta, gamma, lam in all_cases():
        sol = solved(beta, gamma, lam)
        v = sol.phi.values
        h = sol.phi.step
        live = (1.0 - v) > SATURATION_EPS
        assert float(np.min(v)) >= 0.0 and float(np.max(v)) <= 1.0
        d1f = np.diff(v)
        assert np.all(d1f[live[:-1] & live[1:]] > 0.0)
        d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
        interior_live = live[2:] & live[1:-1] & live[:-2]
        assert np.all(d2[interior_live] < 0.0)
        # the profile equation ((1+beta*phi) phi')' + 2 eta phi' = 0 gives
        # phi'' = -(beta phi'^2 + 2 eta phi') / (1 + beta phi)
        eta = sol.phi.nodes[1:-1]
        d1 = (v[2:] - v[:-2]) / (2.0 * h)
        rhs = -(beta * d1**2 + 2.0 * eta * d1) / (1.0 + beta * v[1:-1])
        resid = np.abs(d2 / h**2 - rhs)
        ratio = float(np.max(resid[interior_live])) / h**2
        assert ratio <= SECOND_DIFF_K
        worst_ratio = max(worst_ratio, ratio)
    report(
        "shape and curvature",
        f"max curvature-identity residual/h^2 {worst_ratio:.3f}, cap {SECOND_DIFF_K}",
    )


def test_criterion_05_operator_contracts_random_profile_pairs():
    rng = np.random.default_rng(20260818)
    lam = 10.0
    n = 1001
    worst_excess = -math.inf
    for i in range(50):
        gamma = GAMMA_SET[i % 4]
        beta = 0.9 * contraction_threshold(gamma)
        params = GMEParams(beta=beta, gamma=gamma, lam=lam)
        v1 = rng.uniform(size=n)
        v2 = rng.uniform(size=n)
        if i % 2 == 0:
            v1.sort()
            v2.sort()
        v1[-1] = 1.0
        v2[-1] = 1.0
        h1 = GridFunction(lam, v1)
        h2 = GridFunction(lam, v2)
        lhs = float(np.max(np.abs(fixed_point_map(h1, params).values - fixed_point_map(h2, params).values)))
        rhs = contraction_factor(beta, gamma) * float(np.max(np.abs(v1 - v2)))
        worst_excess = max(worst_excess, lhs - rhs)
    assert worst_excess <= CONTRACTION_SLACK
    report("contraction pairs", f"max (lhs - g*rhs) {worst_excess:.2e}, slack {CONTRACTION_SLACK:.0e}")


def test_criterion_06_profile_is_lipschitz_in_slope():
    worst_frac = 0.0
    for gamma in (0.1, 1.0, 10.0):
        cap = 0.9 * contraction_threshold(gamma)
        bound_l = lipschitz_bound(cap, gamma)
        for lam in (1.0, 5.0):
            betas = [f * cap for f in (0.0, 0.25, 0.5, 0.75)]
            profiles = [solved(b, gamma, lam).phi.values for b in betas]
            for i in range(len(betas)):
                for j in range(i + 1, len(betas)):
                    gap = float(np.max(np.abs(profiles[i] - profiles[j])))
                    allowance = bound_l * abs(betas[i] - betas[j])
                    assert gap <= allowance
                    worst_frac = max(worst_frac, gap / allowance)
    # small-slope error growth stays linear: sup|phi - phi_0| / beta bounded
    worst_ratio, worst_allow = 0.0, math.inf
    for gamma in (0.1, 1.0, 10.0):
        bound_s = lipschitz_bound(0.01, gamma)
        for lam in (1.0, 5.0):
            for beta in (1e-2, 1e-3, 1e-4):
                ratio = approx_error(0, solved(beta, gamma, lam)) / beta
                assert ratio <= bound_s
                worst_ratio = max(worst_ratio, ratio / bound_s)
                worst_allow = min(worst_allow, bound_s)
    report(
        "slope sensitivity",
        f"max pair gap at {worst_frac:.3f} of L*|db|; max small-slope ratio at {worst_ratio:.3f} of L",
    )


def test_criterion_07_endpoint_derivative_bounds():
    worst_margin = math.inf
    for beta, gamma, lam in all_cases():
        sol = solved(beta, gamma, lam)
        lo, hi = phi_prime_bounds(beta, gamma, lam)
        d = sol.phi_prime_lambda
        cap = gamma / (1.0 + beta)
        assert d <= cap * (1.0 + SLOPE_RATIO_CAP_SLACK)
        if beta > 0.0:
            assert lo < d < hi
            worst_margin = min(worst_margin, min(d - lo, hi - d))
        else:
            # lower bound is attained exactly in the constant-conductivity case
            assert abs(d - lo) <= EQUALITY_CASE_RTOL * max(1.0, lo)
            assert d < hi
    approaches = []
    for beta, gamma in ((0.0, 1.0), (0.2, 1.0)):
        cap = gamma / (1.0 + beta)
        seq = [abs(solved(beta, gamma, lam).phi_prime_lambda - cap) for lam in (0.1, 0.01, 0.001)]
        assert seq[0] > seq[1] > seq[2]
        approaches.append(seq[-1])
    assert worst_margin > 0.0
    report(
        "derivative bounds",
        f"strict sandwich min margin {worst_margin:.2e}; small-lam approach down to {max(approaches):.2e}",
    )


def test_criterion_08_front_coefficient_transcendental_residual():
    worst_resid = 0.0
    worst_match = 0.0
    for bi in (0.1, 1.0, 10.0):
        for ste in (0.1, 1.0, 5.0):
            gamma = 2.0 * bi

            def balance(x: float) -> float:
                return x * math.exp(x * x) * (1.0 + SQRT_PI * bi * math.erf(x)) - bi * ste

            lam = solve_lambda(0.0, gamma, ste)
            worst_resid = max(worst_resid, abs(balance(lam)))
            lo, hi = 1e-12, 5.0
            assert balance(lo) < 0.0 < balance(hi)
            for _ in range(120):
                mid = 0.5 * (lo + hi)
                if balance(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            worst_match = max(worst_match, abs(lam - 0.5 * (lo + hi)))
    assert worst_resid <= LAMBDA_RESIDUAL_TOL
    assert worst_match <= BISECTION_MATCH_TOL
    report(
        "front coefficient",
        f"max balance residual {worst_resid:.2e}, max bisection gap {worst_match:.2e}, tol {LAMBDA_RESIDUAL_TOL:.0e}",
    )


def test_criterion_09_prescribed_value_limit():
    lam = 10.0
    rows = dirichlet_gap(0.0, lam, list(GAMMA_SET))
    gaps = [gap for _, gap in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    tail = dirichlet_gap(0.0, lam, [1e4])[0][1]
    assert tail < LARGE_GAMMA_GAP_CAP
    dag = solve_dirichlet(0.0, lam)
    target = erf(dag.phi.nodes) / float(erf(lam))
    sup = float(np.max(np.abs(dag.phi.values - target)))
    assert sup <= DIRICHLET_SUP_TOL
    report(
        "prescribed-value limit",
        f"gaps {', '.join(f'{g:.3e}' for g in gaps)} decreasing; gap(1e4) {tail:.2e}; "
        f"beta=0 profile vs scaled erf {sup:.2e}",
    )


def _heat_equation_residual(sol, x: float, t: float, dx: float, dt: float) -> float:
    p = sol.physical
    rc = p.rho * p.c
    span = p.tf - p.tinf

    def cond(temp: float) -> float:
        return p.k0 * (1.0 + p.beta * (temp - p.tinf) / span)

    t_dot = (temperature(sol, x, t + dt) - temperature(sol, x, t - dt)) / (2.0 * dt)
    t_p = temperature(sol, x + dx, t)
    t_0 = temperature(sol, x, t)
    t_m = temperature(sol, x - dx, t)
    flux_p = cond(0.5 * (t_p + t_0)) * (t_p - t_0) / dx
    flux_m = cond(0.5 * (t_0 + t_m)) * (t_0 - t_m) / dx
    div = (flux_p - flux_m) / dx
    scale = max(abs(rc * t_dot), abs(div), rc * span / t)
    return abs(rc * t_dot - div) / scale


def _front_balance_residual(sol, t: float) -> float:
    p = sol.physical
    root = math.sqrt(p.alpha0 * t)
    h_eta = sol.gme.phi.step
    hx = h_eta * 2.0 * root
    temps = [temperature(sol, (sol.lambda_star - i * h_eta) * 2.0 * root, t) for i in range(5)]
    slope = (25.0 * temps[0] - 48.0 * temps[1] + 36.0 * temps[2] - 16.0 * temps[3] + 3.0 * temps[4]) / (12.0 * hx)
    lhs = p.k0 * (1.0 + p.beta) * slope
    rhs = p.rho * p.l * sol.lambda_star * math.sqrt(p.alpha0 / t)
    return abs(lhs - rhs) / abs(rhs)


def test_criterion_10_temperature_field_satisfies_heat_equation():
    cases = [
        (PhysicalParams(rho=1.2, c=2.5, l=80.0, k0=1.7, h0=1.0, tf=1.0, tinf=-1.0, beta=0.25), SolverConfig()),
        (PhysicalParams(rho=1.2, c=2.5, l=2.0, k0=1.7, h0=1.0, tf=1.0, tinf=-1.0, beta=0.25), SolverConfig(grid_n=2001)),
    ]
    rng = np.random.default_rng(7)
    worst_pde = 0.0
    worst_ratio = 0.0
    worst_front = 0.0
    for physical, config in cases:
        sol = solve_stefan(physical, config)
        coarse = []
        fine = []
        for _ in range(50):
            t = float(rng.uniform(0.5, 2.0))
            s = front_position(sol, t)
            x = float(rng.uniform(0.05, 0.90)) * s
            dx, dt = 0.02 * s, 0.02 * t
            coarse.append(_heat_equation_residual(sol, x, t, dx, dt))
            fine.append(_heat_equation_residual(sol, x, t, 0.5 * dx, 0.5 * dt))
        worst_pde = max(worst_pde, max(coarse))
        worst_ratio = max(worst_ratio, max(fine) / max(coarse))
        for t in (0.5, 1.0, 2.0):
            worst_front = max(worst_front, _front_balance_residual(sol, t))
    assert worst_pde <= PDE_RESIDUAL_TOL
    assert worst_ratio <= REFINEMENT_RATIO_CAP
    assert worst_front <= STEFAN_RESIDUAL_TOL
    report(
        "heat-equation residual",
        f"max relative residual {worst_pde:.2e} (tol {PDE_RESIDUAL_TOL:.0e}); "
        f"half-step ratio {worst_ratio:.3f} (cap {REFINEMENT_RATIO_CAP}); "
        f"front balance {worst_front:.2e} (tol {STEFAN_RESIDUAL_TOL:.0e})",
    )


def test_supplementary_front_balance_scan_decreases():
    # data-level shape behind the front-coefficient figures: the balance
    # curve H(lam) = phi'(lam)/lam falls monotonically, so lambda* is unique
    config = SolverConfig(grid_n=201)
    lams = np.linspace(0.05, 5.0, 100)
    for gamma in GAMMA_SET:
        beta = 0.99 * contraction_threshold(gamma)
        hvals = [boundary_slope_ratio(float(lam), beta, gamma, config) for lam in lams]
        assert all(a > b for a, b in zip(hvals, hvals[1:]))
    report(
        "front balance scan",
        f"H strictly decreasing over lam in [0.05, 5], 100 steps, all gamma in {GAMMA_SET}",
    )
