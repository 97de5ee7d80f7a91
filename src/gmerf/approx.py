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
c0 by phi_1(lam) = 0. An often-quoted alternative grouping of the first
correction around the basis (2 + gamma sqrt(pi) erf(eta)) uses constants B1,
B2; that grouping does not satisfy the endpoint condition for finite lam
(its endpoint defect is 5 sqrt(pi) gamma (1 - erf lam) / nu^2) and fails the
residual of the order-1 problem, so it is kept on `ApproxCoefficients` as
reference data only and never drives the evaluator.

The truncated sums are phi^(0) = phi_0 and phi^(1) = phi_0 + beta phi_1;
`approx_error` measures their distance to a solved profile in sup norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .numerics import SQRT_PI, _check_domain, erf

if TYPE_CHECKING:
    from .fixed_point import GMESolution

__all__ = [
    "ApproxCoefficients",
    "zero_order",
    "approx_coeffs",
    "first_order",
    "approx_error",
]


def _check_gamma_lam(gamma: float, lam: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be finite and positive, got {lam}")


def zero_order(eta, gamma: float, lam: float):
    """Constant-conductivity profile phi_0 at eta (scalar or array).

    Increasing from 2/nu at 0 to exactly 1 at lam; tends to erf(eta)/erf(lam)
    as gamma grows.
    """
    _check_gamma_lam(gamma, lam)
    pts = _check_domain(eta, lam, "eta")
    nu = 2.0 + gamma * SQRT_PI * float(erf(lam))
    out = (2.0 + gamma * SQRT_PI * erf(pts)) / nu
    return float(out) if pts.ndim == 0 else out


@dataclass(frozen=True)
class ApproxCoefficients:
    """Constants of the first-order closed form for one (gamma, lam).

    c0 and c1 are the boundary constants the evaluator uses (c0 = phi_1(0),
    c1 = phi_1'(0)). b1 and b2 are the constants of the alternative B-form
    grouping, retained for cross-checks only; they are inconsistent with the
    endpoint condition at finite lam (see module docstring).
    """

    gamma: float
    lam: float
    nu: float
    b1: float
    b2: float
    c0: float
    c1: float

    def __post_init__(self):
        if not self.nu > 2.0:
            raise ValueError(f"nu must exceed 2, got {self.nu}")


def _first_order_bracket(pts: np.ndarray, gamma: float) -> np.ndarray:
    e = erf(pts)
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
    _check_gamma_lam(gamma, lam)
    e = float(erf(lam))
    ex = math.exp(-lam * lam)
    ex2 = math.exp(-2.0 * lam * lam)
    nu = 2.0 + gamma * SQRT_PI * e

    b2 = (12.0 + 2.0 * gamma + gamma * gamma * math.pi) / nu**2
    b1 = -b2 / nu + (gamma / nu**3) * (
        -5.0 * SQRT_PI * e
        + 2.0 * lam * ex
        + gamma * math.pi * ex2
        + 2.0 * gamma * SQRT_PI * lam * e * ex
        - 0.5 * gamma * math.pi * e * e
        - gamma * SQRT_PI * ex * e
    )

    j_end = (gamma / nu**2) * float(_first_order_bracket(np.asarray(lam), gamma))
    c0 = (2.0 / nu) * (2.0 * gamma * SQRT_PI * e / nu**2 - j_end)
    c1 = gamma * c0 - 4.0 * gamma / nu**2
    return ApproxCoefficients(gamma=gamma, lam=lam, nu=nu, b1=b1, b2=b2, c0=c0, c1=c1)


def first_order(eta, coeffs: ApproxCoefficients):
    """First correction phi_1 at eta (scalar or array).

    Satisfies the order-1 problem exactly: phi_1(lam) = 0 and the order-1
    flux condition at 0 hold to round-off by construction of c0 and c1.
    """
    pts = _check_domain(eta, coeffs.lam, "eta")
    out = (
        coeffs.c0
        + 0.5 * SQRT_PI * coeffs.c1 * erf(pts)
        + (coeffs.gamma / coeffs.nu**2) * _first_order_bracket(pts, coeffs.gamma)
    )
    return float(out) if pts.ndim == 0 else out


def approx_error(order: int, sol: "GMESolution") -> float:
    """Sup-norm distance of the order-0 or order-1 truncation to a solved profile.

    The truncation is evaluated on the solution's own grid, so the result is
    max_i |phi(eta_i) - phi^(order)(eta_i)|.
    """
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    params = sol.params
    if not math.isfinite(params.gamma):
        raise ValueError("approx_error is defined for finite gamma only")
    nodes = sol.phi.nodes
    target = zero_order(nodes, params.gamma, params.lam)
    if order == 1:
        target = target + params.beta * first_order(nodes, approx_coeffs(params.gamma, params.lam))
    return float(np.max(np.abs(sol.phi.values - target)))
