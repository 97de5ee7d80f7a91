"""Closed-form approximations of the profile for small conductivity slope.

Expanding the profile in powers of beta, phi = sum_k beta^k phi_k, the
leading term is the constant-conductivity solution

    phi_0(eta) = (2 + gamma sqrt(pi) erf(eta)) / nu,
    nu = 2 + gamma sqrt(pi) erf(lam),

and the first correction solves the linear problem

    phi_1'' + 2 eta phi_1' = -(phi_0'^2 + phi_0 phi_0''),
    phi_0'(0) phi_0(0) + phi_1'(0) - gamma phi_1(0) = 0,
    phi_1(lam) = 0.

Integrating with the factor exp(eta^2) gives the closed form evaluated by
`first_order`:

    phi_1(eta) = c0 + (sqrt(pi)/2) c1 erf(eta)
                 + (gamma/nu^2) [ sqrt(pi) erf(eta) - 2 eta exp(-eta^2)
                   - gamma sqrt(pi) eta erf(eta) exp(-eta^2)
                   - (gamma pi / 2) erf(eta)^2 + gamma (1 - exp(-2 eta^2)) ],

with c1 = gamma c0 - 4 gamma / nu^2 fixed by the order-1 flux condition and
c0 by phi_1(lam) = 0. Erratum: an often-quoted alternative grouping of the
first correction around the basis (2 + gamma sqrt(pi) erf(eta)) uses
constants B1, B2 (B2 nu^2 = 12 + 2 gamma + gamma^2 pi); that grouping does not
satisfy the endpoint condition for finite lam (its endpoint defect is
5 sqrt(pi) gamma (1 - erf lam) / nu^2) and fails the residual of the order-1
problem, so it is not implemented here.

The truncated sums are phi^(0) = phi_0 and phi^(1) = phi_0 + beta phi_1;
`approx_error` measures their distance to a solved profile in sup norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .numerics import SQRT_PI, _check_domain, _require, erf

if TYPE_CHECKING:
    from .fixed_point import GMESolution

__all__ = [
    "ApproxCoefficients",
    "zero_order",
    "approx_coeffs",
    "first_order",
    "approx_error",
]


def zero_order(eta, gamma: float, lam: float):
    """Constant-conductivity profile phi_0 at eta (scalar or array).

    Increasing from 2/nu at 0 to exactly 1 at lam; tends to erf(eta)/erf(lam)
    as gamma grows.
    """
    _require("gamma", gamma)
    _require("lam", lam)
    pts = _check_domain(eta, lam, "eta")
    out = _order0(erf(pts), float(erf(lam)), gamma)
    return float(out) if pts.ndim == 0 else out


def _order0(erf_eta, erf_lam, gamma, out=None):
    # phi_0 from erf(eta) and erf(lam); gamma a scalar or a column. The
    # 2/gamma form covers the prescribed-value limit gamma = inf, and
    # erf_eta == erf_lam gives exactly 1. Below gamma = 1e-17 phi_0 rounds to
    # exactly 1, the gamma -> 0 limit; flooring gamma at 1e-300 keeps it
    # there for a subnormal gamma, whose 2/gamma would overflow. out, of
    # erf_eta's shape, may be erf_eta itself and erf_lam a view into it: the
    # denominator is formed before out is written. The in-place steps keep
    # the order of (2/gamma + sqrt(pi) erf_eta) / (2/gamma + sqrt(pi) erf_lam).
    two_over_gamma = 2.0 / np.maximum(gamma, 1e-300)
    denominator = two_over_gamma + SQRT_PI * erf_lam
    out = np.multiply(SQRT_PI, erf_eta, out=out)
    out += two_over_gamma
    out /= denominator
    return out


@dataclass(frozen=True)
class ApproxCoefficients:
    """Constants of the first-order closed form for one (gamma, lam).

    c0 and c1 are the boundary constants the evaluator uses (c0 = phi_1(0),
    c1 = phi_1'(0)). nu - 2 = gamma sqrt(pi) erf(lam) is the checked field:
    nu = 2 + (nu - 2) rounds to exactly 2 once nu - 2 is 2.2e-16 or less,
    and nu**2 must be finite (see `_require_nu_squared`).
    """

    gamma: float
    lam: float
    nu_minus_2: float
    c0: float
    c1: float

    def __post_init__(self):
        if not self.nu_minus_2 > 0.0:
            raise ValueError(f"nu - 2 must be positive, got {self.nu_minus_2}")
        _require_nu_squared(self.gamma, self.lam, self.nu)

    @property
    def nu(self) -> float:
        return 2.0 + self.nu_minus_2


def _require_nu_squared(gamma: float, lam: float, nu: float) -> None:
    # The first-order forms divide by nu**2, which overflows (a Python float
    # power raises) from nu of about 1.34e154: gamma of about 9e153 at lam = 1.
    if not nu * nu < math.inf:
        raise ValueError(
            f"gamma={gamma:g} is too large for the first-order closed form at lam={lam:g}: "
            f"nu**2 overflows (nu = {nu:g})"
        )


def _first_order_bracket(pts: np.ndarray, gamma: float, e: np.ndarray) -> np.ndarray:
    # The bracketed term of phi_1 at pts, given e = erf(pts).
    ex = np.exp(-pts * pts)
    ex2 = np.exp(-2.0 * pts * pts)
    return (
        SQRT_PI * e
        - 2.0 * pts * ex
        - gamma * SQRT_PI * pts * e * ex
        - 0.5 * gamma * math.pi * e * e
        + gamma * (1.0 - ex2)
    )


def approx_coeffs(gamma: float, lam: float) -> ApproxCoefficients:
    """Exact evaluation of all first-order constants for (gamma, lam)."""
    _require("gamma", gamma)
    _require("lam", lam)
    e = float(erf(lam))
    nu_minus_2 = gamma * SQRT_PI * e
    nu = 2.0 + nu_minus_2
    _require_nu_squared(gamma, lam, nu)

    j_end = (gamma / nu**2) * float(_first_order_bracket(np.asarray(lam), gamma, e))
    c0 = (2.0 / nu) * (2.0 * gamma * SQRT_PI * e / nu**2 - j_end)
    c1 = gamma * c0 - 4.0 * gamma / nu**2
    return ApproxCoefficients(gamma=gamma, lam=lam, nu_minus_2=nu_minus_2, c0=c0, c1=c1)


def first_order(eta, coeffs: ApproxCoefficients):
    """First correction phi_1 at eta (scalar or array).

    Satisfies the order-1 problem exactly: phi_1(lam) = 0 and the order-1
    flux condition at 0 hold to round-off by construction of c0 and c1.
    """
    pts = _check_domain(eta, coeffs.lam, "eta")
    e = erf(pts)
    out = (
        coeffs.c0
        + 0.5 * SQRT_PI * coeffs.c1 * e
        + (coeffs.gamma / coeffs.nu**2) * _first_order_bracket(pts, coeffs.gamma, e)
    )
    return float(out) if pts.ndim == 0 else out


def approx_error(order: int, sol: "GMESolution") -> float:
    """Sup-norm distance of the order-0 or order-1 truncation to a solved profile.

    The truncation is evaluated on the solution's own grid, so the result is
    max_i |phi(eta_i) - phi^(order)(eta_i)|. Defined for finite gamma only:
    `zero_order` rejects a prescribed-value solution with ValueError.
    """
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    params = sol.params
    nodes = sol.phi.nodes
    target = zero_order(nodes, params.gamma, params.lam)
    if order == 1:
        target = target + params.beta * first_order(nodes, approx_coeffs(params.gamma, params.lam))
    return float(np.max(np.abs(sol.phi.values - target)))
