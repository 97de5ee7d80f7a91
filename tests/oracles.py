"""Referees for the solvers: RK4 shooting oracles, which solve the profile
problems independently of the fixed-point machinery, used by the test suite
(and the benchmark's reference checks) to cross-validate it; and Brent over
full profile solves for the front coefficient, independent of the front loop.

Not a test module (pytest does not collect it); it imports on its own, given
``gmerf`` on the path.
"""

from __future__ import annotations

import math

import numpy as np

from gmerf.errors import BracketError, GmerfError
from gmerf.fixed_point import GMEParams, SolverConfig
from gmerf.numerics import GridFunction, _require, bracket_root, find_root
from gmerf.stefan import (
    _BOUND_PAD,
    _LAM_CAP,
    _LAM_FLOOR,
    _bound_crossing,
    _log_phi_prime_lower,
    _log_phi_prime_upper,
    boundary_slope_ratio,
)

__all__ = ["IntegrationError", "bracketed_front_root", "shoot_bvp", "shoot_bvp_dirichlet"]


class IntegrationError(GmerfError):
    """An initial value integration left the valid range (blow-up)."""


def _accel(eta: float, y: float, p: float, beta: float) -> float:
    """Second derivative from (1 + beta y) y'' + beta y'^2 + 2 eta y' = 0."""
    den = 1.0 + beta * y
    if den <= 1e-12 or not math.isfinite(den):
        raise IntegrationError(f"degenerate conductivity factor 1 + beta*y = {den:g}")
    return -(beta * p * p + 2.0 * eta * p) / den


# Under RK4's real-axis stability bound of about 2.785: a step s with 2 eta s
# past it amplifies round-off in the decaying y' at every step.
_RK4_STABLE = 2.78


def _rk4_profile(y0: float, p0: float, lam: float, n: int, beta: float) -> tuple[np.ndarray, float]:
    """Classical RK4 on the profile equation; returns node values and y(lam).

    y' decays at a rate of up to 2 lam, so each node interval takes m equal
    substeps s = h/m, m the least with 2 lam s within `_RK4_STABLE`: one
    step per interval wherever the grid step h is within it.
    """
    h = lam / (n - 1)
    m = max(1, math.ceil(2.0 * lam * h / _RK4_STABLE))
    s = h / m
    ys = np.empty(n)
    ys[0] = y0
    y, p = y0, p0
    for i in range(1, n):
        for j in range(m):
            eta = (i - 1) * h + j * s
            k1y = p
            k1p = _accel(eta, y, p, beta)
            k2y = p + 0.5 * s * k1p
            k2p = _accel(eta + 0.5 * s, y + 0.5 * s * k1y, k2y, beta)
            k3y = p + 0.5 * s * k2p
            k3p = _accel(eta + 0.5 * s, y + 0.5 * s * k2y, k3y, beta)
            k4y = p + s * k3p
            k4p = _accel(eta + s, y + s * k3y, k4y, beta)
            y += (s / 6.0) * (k1y + 2.0 * (k2y + k3y) + k4y)
            p += (s / 6.0) * (k1p + 2.0 * (k2p + k3p) + k4p)
        ys[i] = y
    if not (math.isfinite(y) and math.isfinite(p)):
        raise IntegrationError("initial value integration left the finite range")
    return ys, y


def shoot_bvp(params: GMEParams, config: SolverConfig) -> GridFunction:
    """Profile solving the flux-boundary problem by shooting, independent of
    the fixed-point machinery.

    The boundary value y(0) = a parametrizes initial data via the flux
    condition (1 + beta a) y'(0) = gamma a; classical RK4 integrates each
    candidate on the config grid. a is about 1/gamma and the initial slope
    multiplies its error by gamma, so a is searched in relative terms: r =
    -log(a) is bracketed upward from 0 (a = 1, where y(lam) >= 1) and
    root-found until y(lam) = 1 within `find_root`'s 1e-12 on r, a relative
    1e-12 on a whatever gamma is.

    Raises
    ------
    BracketError
        If no r up to 2^60 times the first guess brackets y(lam) - 1.
    IntegrationError
        If an initial value integration blows up.
    """
    if not math.isfinite(params.gamma):
        raise ValueError("shoot_bvp needs a finite gamma; use shoot_bvp_dirichlet for the prescribed-value limit")
    beta, gamma, lam = params.beta, params.gamma, params.lam
    n = config.grid_n

    def profile(r: float) -> np.ndarray:
        a = math.exp(-r)
        return _rk4_profile(a, gamma * a / (1.0 + beta * a), lam, n, beta)[0]

    def mismatch(r: float) -> float:
        return profile(r)[-1] - 1.0

    # At beta = 0, a = 1/(1 + (sqrt(pi)/2) gamma erf(lam)): the first guess is above that r.
    r_star = find_root(mismatch, bracket_root(mismatch, 0.0, math.log1p(gamma) + 1.0))
    return GridFunction(lam, profile(r_star))


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


def bracketed_front_root(beta: float, gamma: float, ste: float, config: SolverConfig) -> float:
    """Root of the front balance phi'(lam)/lam = 2/((1+beta) Ste) by Brent over
    full profile solves, independent of `solve_lambda`'s front loop.

    The bracket starts at the closed-form bound crossings that `solve_lambda`
    starts between, widened by the same relative pad, and the balance's own
    sign moves its ends: the low end halves while the balance is non-positive
    there (down to lam = 1e-12), and the high end doubles up to lam = 50
    while it is positive. Brent then stops at a step of 1e-12 plus 4 eps
    relative. No multiplicity scan runs.

    Raises
    ------
    BracketError
        No sign change within [1e-12, 50].
    ContractionError, FixedPointError
        A profile solve at a probed lam fails (at gamma = inf the certified
        slope range depends on lam, so a low probe may be refused).
    """
    rhs = 2.0 / ((1.0 + beta) * ste)

    def balance(lam: float) -> float:
        return boundary_slope_ratio(lam, beta, gamma, config) - rhs

    log_rhs = math.log(2.0) - math.log1p(beta) - math.log(ste)
    lo = max(_bound_crossing(_log_phi_prime_lower, beta, gamma, log_rhs) * (1.0 - _BOUND_PAD), _LAM_FLOOR)
    hi = min(_bound_crossing(_log_phi_prime_upper, beta, gamma, log_rhs) * (1.0 + _BOUND_PAD), _LAM_CAP)
    f_lo = balance(lo)
    while f_lo <= 0.0:
        if f_lo == 0.0:
            return lo
        lo *= 0.5
        if lo < _LAM_FLOOR:
            raise BracketError(f"no positive balance down to lam={_LAM_FLOOR:g}")
        f_lo = balance(lo)
    return find_root(balance, bracket_root(balance, lo, hi, max_hi=_LAM_CAP))
