"""Every public entry rejects a non-finite or out-of-range scalar with ValueError.

One row per (entry, scalar argument): the entry is called with valid values for
every other argument, and each value outside the argument's domain must raise
ValueError. A second table checks that the edge values inside each domain are
still accepted, so the two together pin the domains in both directions.

The points of the point evaluators are in the table; they must lie in
[0, lam] (nan included). Not in the table: `find_root`, whose only inputs are
a function and a bracket, and `RootBracket`, whose field checks raise
BracketError.
"""

import dataclasses
import functools
import math

import pytest

from gmerf import (
    GMEParams,
    GridFunction,
    PhysicalParams,
    SolverConfig,
    approx_coeffs,
    approx_error,
    boundary_slope_ratio,
    contraction_factor,
    contraction_threshold,
    dirichlet_contraction_threshold,
    dirichlet_gap,
    first_order,
    front_position,
    lipschitz_bound,
    phi_prime_bounds,
    solve_dirichlet,
    solve_gme,
    solve_lambda,
    solve_stefan,
    temperature,
    zero_order,
)
from oracles import shoot_bvp_dirichlet

NAN, INF = math.nan, math.inf
POSITIVE = (NAN, INF, -INF, 0.0, -0.5)  # finite and > 0
NON_NEGATIVE = (NAN, INF, -INF, -0.5)  # finite and >= 0
POSITIVE_OR_INF = (NAN, -INF, 0.0, -0.5)  # > 0; inf selects the prescribed-value variant
FINITE = (NAN, INF, -INF)  # any finite value
IN_UNIT_INTERVAL = (NAN, -INF, -0.5, 2.0, INF)  # a point of [0, lam] with lam = 1

CFG = SolverConfig(grid_n=31)
PHYSICAL = dict(rho=1000.0, c=4.2, l=334.0, k0=0.6, h0=0.3, tf=0.0, tinf=-20.0, beta=0.1)


@functools.lru_cache(maxsize=None)
def _stefan():
    return solve_stefan(PhysicalParams(**PHYSICAL), CFG)


@functools.lru_cache(maxsize=None)
def _gme():
    return solve_gme(GMEParams(0.1, 1.0, 1.0), CFG)


def _dirichlet_gap(beta=0.05, lam=1.0, gamma=1.0):
    return dirichlet_gap(beta, lam, [gamma], CFG)


def _approx_coefficients(nu_minus_2):
    return dataclasses.replace(approx_coeffs(1.0, 1.0), nu_minus_2=nu_minus_2)


def _front_position(t):
    return front_position(_stefan(), t)


def _temperature(x=0.0, t=1.0):
    return temperature(_stefan(), x, t)


def _approx_error(order):
    return approx_error(order, _gme())


def _grid_function_call(eta):
    return GridFunction(1.0, [0.0, 1.0])(eta)


# (entry, valid keyword arguments, {argument: values that must be rejected})
TABLE = [
    (GridFunction, dict(lam=1.0, values=[0.0, 1.0]), {"lam": POSITIVE}),
    (_grid_function_call, dict(eta=0.5), {"eta": IN_UNIT_INTERVAL}),
    (SolverConfig, dict(grid_n=31, fp_tol=1e-10), {"grid_n": POSITIVE, "fp_tol": POSITIVE}),
    (
        GMEParams,
        dict(beta=0.1, gamma=1.0, lam=1.0),
        {"beta": NON_NEGATIVE, "gamma": POSITIVE_OR_INF, "lam": POSITIVE},
    ),
    (
        PhysicalParams,
        PHYSICAL,
        {
            "rho": POSITIVE,
            "c": POSITIVE,
            "l": POSITIVE,
            "k0": POSITIVE,
            "h0": POSITIVE,
            "tf": FINITE,
            "tinf": FINITE,
            "beta": NON_NEGATIVE,
        },
    ),
    (contraction_factor, dict(x=0.5, gamma=1.0), {"x": NON_NEGATIVE, "gamma": POSITIVE}),
    (contraction_threshold, dict(gamma=1.0), {"gamma": POSITIVE}),
    (dirichlet_contraction_threshold, dict(lam=1.0), {"lam": POSITIVE}),
    (lipschitz_bound, dict(b=0.01, gamma=1.0), {"b": NON_NEGATIVE, "gamma": POSITIVE}),
    (
        shoot_bvp_dirichlet,
        dict(beta=0.05, lam=1.0, config=CFG),
        {"beta": NON_NEGATIVE, "lam": POSITIVE},
    ),
    (
        boundary_slope_ratio,
        dict(lam=1.0, beta=0.1, gamma=1.0, config=CFG),
        {"lam": POSITIVE, "beta": NON_NEGATIVE, "gamma": POSITIVE_OR_INF},
    ),
    (
        solve_lambda,
        dict(beta=0.1, gamma=1.0, ste=0.25, config=CFG),
        {"beta": NON_NEGATIVE, "gamma": POSITIVE_OR_INF, "ste": POSITIVE},
    ),
    (_front_position, dict(t=1.0), {"t": NON_NEGATIVE}),
    (_temperature, dict(x=0.0, t=1.0), {"x": NON_NEGATIVE, "t": POSITIVE}),
    (solve_dirichlet, dict(beta=0.05, lam=1.0, config=CFG), {"beta": NON_NEGATIVE, "lam": POSITIVE}),
    (
        _dirichlet_gap,
        dict(beta=0.05, lam=1.0, gamma=1.0),
        {"beta": NON_NEGATIVE, "lam": POSITIVE, "gamma": POSITIVE_OR_INF},
    ),
    (
        phi_prime_bounds,
        dict(beta=0.1, gamma=1.0, lam=1.0),
        {"beta": NON_NEGATIVE, "gamma": POSITIVE, "lam": POSITIVE},
    ),
    (
        zero_order,
        dict(eta=0.5, gamma=1.0, lam=1.0),
        {"eta": IN_UNIT_INTERVAL, "gamma": POSITIVE, "lam": POSITIVE},
    ),
    (approx_coeffs, dict(gamma=1.0, lam=1.0), {"gamma": POSITIVE, "lam": POSITIVE}),
    (
        first_order,
        dict(eta=0.5, coeffs=approx_coeffs(1.0, 1.0)),
        {"eta": IN_UNIT_INTERVAL},
    ),
    (_approx_error, dict(order=1), {"order": (NAN, INF, -INF, -0.5, 2)}),
    # nu = nan, -inf, 0, -0.5 and 2 as nu - 2, the checked quantity: nu itself is 2.0 at gamma = 1e-17.
    (_approx_coefficients, dict(nu_minus_2=1.0), {"nu_minus_2": (NAN, -INF, -2.0, -2.5, 0.0)}),
]

REJECTED = [
    pytest.param(entry, valid, name, value, id=f"{entry.__name__}-{name}={value!r}")
    for entry, valid, domains in TABLE
    for name, values in domains.items()
    for value in values
]


@pytest.mark.parametrize("entry, valid, name, value", REJECTED)
def test_out_of_domain_scalar_is_rejected(entry, valid, name, value):
    with pytest.raises(ValueError):
        entry(**{**valid, name: value})


# PhysicalParams fields each inside its domain whose derived alpha0 = k0/(rho c),
# ste = c (tf - tinf)/l or gamma = 2 h0 sqrt(alpha0)/k0 is not finite and positive.
DERIVED_REJECTED = [
    pytest.param({"rho": 1e-200, "c": 1e-200}, "alpha0", id="alpha0-rho-c-underflows"),
    pytest.param({"rho": 1e-160, "c": 1e-160}, "alpha0", id="alpha0-overflows"),
    pytest.param({"k0": 1e-320, "rho": 1e10, "c": 1e10}, "alpha0", id="alpha0-underflows"),
    pytest.param({"c": 1e300, "l": 1e-10}, "ste", id="ste-overflows"),
    pytest.param({"c": 1e-300, "l": 1e300}, "ste", id="ste-underflows"),
    pytest.param({"tf": 1e308, "tinf": -1e308}, "ste", id="ste-range-overflows"),
    pytest.param({"h0": 1e300, "k0": 1e-300, "rho": 1.0, "c": 1.0}, "gamma", id="gamma-overflows"),
    pytest.param({"h0": 5e-324, "k0": 1e300, "rho": 1.0, "c": 1.0}, "gamma", id="gamma-underflows"),
]


@pytest.mark.parametrize("fields, name", DERIVED_REJECTED)
def test_physical_params_with_unusable_derived_quantity_is_rejected(fields, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
        PhysicalParams(**{**PHYSICAL, **fields})


@pytest.mark.parametrize("entry, valid, domains", [pytest.param(*row, id=row[0].__name__) for row in TABLE])
def test_valid_arguments_are_accepted(entry, valid, domains):
    entry(**valid)


ACCEPTED_EDGES = [
    pytest.param(lambda: GMEParams(beta=0.0, gamma=1.0, lam=1.0), id="GMEParams-beta=0"),
    pytest.param(lambda: GMEParams(beta=0.1, gamma=INF, lam=1.0), id="GMEParams-gamma=inf"),
    pytest.param(lambda: PhysicalParams(**{**PHYSICAL, "beta": 0.0}), id="PhysicalParams-beta=0"),
    pytest.param(lambda: solve_dirichlet(0.0, 1.0, CFG), id="solve_dirichlet-beta=0"),
    pytest.param(lambda: _dirichlet_gap(beta=0.0, gamma=INF), id="dirichlet_gap-gamma=inf"),
    pytest.param(lambda: boundary_slope_ratio(1.0, 0.0, INF, CFG), id="boundary_slope_ratio-gamma=inf"),
    pytest.param(lambda: shoot_bvp_dirichlet(0.0, 1.0, CFG), id="shoot_bvp_dirichlet-beta=0"),
    pytest.param(lambda: contraction_factor(0.0, 1.0), id="contraction_factor-x=0"),
    pytest.param(lambda: lipschitz_bound(0.0, 1.0), id="lipschitz_bound-b=0"),
    pytest.param(lambda: phi_prime_bounds(0.0, 1.0, 1.0), id="phi_prime_bounds-beta=0"),
    pytest.param(lambda: _front_position(0.0), id="front_position-t=0"),
    pytest.param(lambda: _temperature(x=0.0), id="temperature-x=0"),
    pytest.param(lambda: zero_order(0.0, 1.0, 1.0), id="zero_order-eta=0"),
    pytest.param(lambda: approx_coeffs(1e-17, 1.0), id="approx_coeffs-gamma=1e-17"),
    pytest.param(lambda: _approx_error(0), id="approx_error-order=0"),
]


@pytest.mark.parametrize("call", ACCEPTED_EDGES)
def test_edge_value_is_accepted(call):
    call()


def test_front_starts_at_the_face():
    assert _front_position(0.0) == 0.0
