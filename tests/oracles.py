"""RK4 shooting oracles: the profile problems solved independently of the
fixed-point machinery, used by the test suite (and the benchmark's reference
checks) to cross-validate it.

Not a test module (pytest does not collect it); it imports on its own, given
``gmerf`` on the path.
"""

from __future__ import annotations

import math

import numpy as np

from gmerf.errors import GmerfError
from gmerf.fixed_point import GMEParams, SolverConfig
from gmerf.numerics import GridFunction, RootBracket, _require, bracket_root, find_root

__all__ = ["IntegrationError", "shoot_bvp", "shoot_bvp_dirichlet"]


class IntegrationError(GmerfError):
    """An initial value integration left the valid range (blow-up)."""


def _accel(eta: float, y: float, p: float, beta: float) -> float:
    """Second derivative from (1 + beta y) y'' + beta y'^2 + 2 eta y' = 0."""
    den = 1.0 + beta * y
    if den <= 1e-12 or not math.isfinite(den):
        raise IntegrationError(f"degenerate conductivity factor 1 + beta*y = {den:g}")
    return -(beta * p * p + 2.0 * eta * p) / den


def _rk4_profile(y0: float, p0: float, lam: float, n: int, beta: float) -> tuple[np.ndarray, float]:
    """Classical RK4 on the profile equation; returns node values and y(lam)."""
    h = lam / (n - 1)
    ys = np.empty(n)
    ys[0] = y0
    y, p = y0, p0
    for i in range(1, n):
        eta = (i - 1) * h
        k1y = p
        k1p = _accel(eta, y, p, beta)
        k2y = p + 0.5 * h * k1p
        k2p = _accel(eta + 0.5 * h, y + 0.5 * h * k1y, k2y, beta)
        k3y = p + 0.5 * h * k2p
        k3p = _accel(eta + 0.5 * h, y + 0.5 * h * k2y, k3y, beta)
        k4y = p + h * k3p
        k4p = _accel(eta + h, y + h * k3y, k4y, beta)
        y += (h / 6.0) * (k1y + 2.0 * (k2y + k3y) + k4y)
        p += (h / 6.0) * (k1p + 2.0 * (k2p + k3p) + k4p)
        ys[i] = y
    if not (math.isfinite(y) and math.isfinite(p)):
        raise IntegrationError("initial value integration left the finite range")
    return ys, y


def shoot_bvp(params: GMEParams, config: SolverConfig) -> GridFunction:
    """Profile solving the flux-boundary problem by shooting, independent of
    the fixed-point machinery.

    The boundary value y(0) = a parametrizes initial data via the flux
    condition (1 + beta a) y'(0) = gamma a; classical RK4 integrates each
    candidate on the config grid and a is root-found in [0, 1] until
    y(lam) = 1 within `find_root`'s default 1e-12 on the parameter.

    Raises
    ------
    BracketError
        If no a in [0, 1] brackets y(lam) - 1.
    IntegrationError
        If an initial value integration blows up.
    """
    if not math.isfinite(params.gamma):
        raise ValueError("shoot_bvp needs a finite gamma; use shoot_bvp_dirichlet for the prescribed-value limit")
    beta, gamma, lam = params.beta, params.gamma, params.lam
    n = config.grid_n

    def mismatch(a: float) -> float:
        p0 = gamma * a / (1.0 + beta * a)
        return _rk4_profile(a, p0, lam, n, beta)[1] - 1.0

    a_star = find_root(mismatch, RootBracket(0.0, 1.0, mismatch(0.0), mismatch(1.0)))
    p0 = gamma * a_star / (1.0 + beta * a_star)
    ys, _ = _rk4_profile(a_star, p0, lam, n, beta)
    return GridFunction(lam, ys)


def shoot_bvp_dirichlet(beta: float, lam: float, config: SolverConfig) -> GridFunction:
    """Shooting companion for the prescribed-value problem y(0) = 0, y(lam) = 1.

    The unknown initial slope is grown by doubling until it overshoots the
    endpoint, then root-found. Same integrator and grid as shoot_bvp.
    """
    _require("beta", beta, positive=False)
    _require("lam", lam)
    n = config.grid_n

    def mismatch(p0: float) -> float:
        return _rk4_profile(0.0, p0, lam, n, beta)[1] - 1.0

    bracket = bracket_root(mismatch, 0.0, 1.0, max_hi=2.0**40)
    p_star = find_root(mismatch, bracket)
    ys, _ = _rk4_profile(0.0, p_star, lam, n, beta)
    return GridFunction(lam, ys)
