"""Fixed-point machinery for the generalized modified error function.

The profile y on [0, lam] solves

    [(1 + beta y) y']' + 2 eta y' = 0,
    (1 + beta y(0)) y'(0) = gamma y(0),
    y(lam) = 1,

where beta >= 0 scales the conductivity with the profile and gamma > 0 is
twice the Biot number of the underlying heat problem. Writing
Psi_h = 1 + beta h, the solution is the fixed point of

    (T h)(eta) = D_h (1/gamma + int_0^eta exp(-2 int_0^x s/Psi_h ds) / Psi_h(x) dx),

with D_h chosen so that (T h)(lam) = 1. On the unit band
K = {h : 0 <= h <= 1} the map satisfies

    sup |T h1 - T h2| <= g(beta) sup |h1 - h2|,
    g(x) = (sqrt(pi)/2) gamma x sqrt(1 + x) (3 + x),

so Picard iteration converges geometrically whenever beta is below the
unique positive root of g(x) = 1 (`contraction_threshold`).

The prescribed-value variant (y(0) = 0 instead of the flux condition) is the
gamma -> +inf limit: with the normalizer computed as 1/(1/gamma + integral)
the same code covers it, so ``GMEParams(gamma=math.inf)`` selects it.

All values are immutable and the functions are pure; concurrent solves with
different parameters are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractionError, FixedPointError
from .numerics import SQRT_PI, GridFunction, _cumint, bracket_root, erf, find_root
# Unused here; kept bound because perfbench/tracing.py wraps it at this attribute.
from .numerics import cumulative_integral  # noqa: F401

__all__ = [
    "SolverConfig",
    "GMEParams",
    "GMESolution",
    "conductivity_profile",
    "normalizing_coefficient",
    "fixed_point_map",
    "contraction_factor",
    "contraction_threshold",
    "dirichlet_contraction_threshold",
    "lipschitz_bound",
    "solve_gme",
]

# Slack for membership in the unit band K; absorbs one quadrature round-off.
_BAND_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs shared by the solvers.

    Attributes
    ----------
    grid_n : int
        Number of uniform nodes on [0, lam], at least 3.
    fp_tol : float
        Picard stopping tolerance on the sup-norm update.
    fp_max_iter : int
        Iteration cap for Picard. Observed convergence is far faster than
        the certified geometric rate g(beta), so the generous default is
        headroom for slopes near the contraction threshold, not a cost:
        converged runs stop at the tolerance.
    root_tol : float
        Absolute abscissa tolerance for root finding.
    """

    grid_n: int = 1001
    fp_tol: float = 1e-10
    fp_max_iter: int = 20000
    root_tol: float = 1e-12

    def __post_init__(self):
        if not (isinstance(self.grid_n, int) and self.grid_n >= 3):
            raise ValueError(f"grid_n must be an integer >= 3, got {self.grid_n}")
        if not (self.fp_tol > 0.0 and math.isfinite(self.fp_tol)):
            raise ValueError(f"fp_tol must be positive, got {self.fp_tol}")
        if not (isinstance(self.fp_max_iter, int) and self.fp_max_iter >= 1):
            raise ValueError(f"fp_max_iter must be a positive integer, got {self.fp_max_iter}")
        if not (self.root_tol > 0.0 and math.isfinite(self.root_tol)):
            raise ValueError(f"root_tol must be positive, got {self.root_tol}")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class GMEParams:
    """Dimensionless parameters of one profile problem.

    Attributes
    ----------
    beta : float
        Conductivity slope, >= 0.
    gamma : float
        Twice the Biot number, > 0. ``math.inf`` selects the prescribed-value
        (Dirichlet) variant y(0) = 0.
    lam : float
        Right endpoint of the similarity interval, > 0 and finite.
    """

    beta: float
    gamma: float
    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if math.isnan(self.gamma) or self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive (finite or inf), got {self.gamma}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be finite and positive, got {self.lam}")

    @property
    def dirichlet(self) -> bool:
        """True for the prescribed-value (gamma = inf) variant."""
        return math.isinf(self.gamma)


def _require_unit_band(h: GridFunction, what: str = "profile") -> None:
    lo = float(np.min(h.values))
    hi = float(np.max(h.values))
    if lo < -_BAND_TOL or hi > 1.0 + _BAND_TOL:
        raise ValueError(f"{what} leaves the unit band [0, 1]: min={lo:g}, max={hi:g}")


def _require_same_interval(h: GridFunction, params: GMEParams) -> None:
    if abs(h.lam - params.lam) > 1e-12 * max(1.0, params.lam):
        raise ValueError(f"grid endpoint {h.lam} does not match params.lam {params.lam}")


def conductivity_profile(h: GridFunction, beta: float) -> GridFunction:
    """Dimensionless conductivity factor Psi_h = 1 + beta h along the grid.

    Requires h in the unit band, so the result lies in [1, 1 + beta].
    """
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    _require_unit_band(h)
    return GridFunction(h.lam, 1.0 + beta * h.values)


def _apply(
    v: np.ndarray, nodes: np.ndarray, step: float, beta: float, inv_gamma: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """The operator on node values: (T v, D_v, E_v).

    E_v(x) = exp(-2 int_0^x s / Psi_v(s) ds) / Psi_v(x), Psi_v = 1 + beta v,
    and D_v = 1 / (1/gamma + int_0^lam E_v). The image is clipped at 1 and
    pinned to 1 at lam. No checks: v must lie in the unit band, which T
    maps into itself.
    """
    psi = 1.0 + beta * v
    weight = np.exp(-2.0 * _cumint(nodes / psi, step)) / psi
    outer = _cumint(weight, step)
    d = 1.0 / (inv_gamma + outer[-1])
    tv = d * (inv_gamma + outer)
    np.minimum(tv, 1.0, out=tv)
    tv[-1] = 1.0
    return tv, d, weight


def _apply_checked(h: GridFunction, params: GMEParams, what: str) -> tuple[np.ndarray, float, np.ndarray]:
    _require_unit_band(h, what)
    _require_same_interval(h, params)
    return _apply(h.values, h.nodes, h.step, params.beta, 1.0 / params.gamma)


def normalizing_coefficient(h: GridFunction, params: GMEParams) -> float:
    """Coefficient D_h = 1 / (1/gamma + int_0^lam E_h) that pins (T h)(lam) = 1.

    Always in (0, gamma]; tends to gamma as lam -> 0.
    """
    return _apply_checked(h, params, "profile")[1]


def fixed_point_map(h: GridFunction, params: GMEParams) -> GridFunction:
    """One application of the integral operator T to a unit-band profile.

    The image is non-decreasing, starts at D_h / gamma (0 in the
    prescribed-value variant) and ends at exactly 1.
    """
    return GridFunction(h.lam, _apply_checked(h, params, "operator input")[0])


def contraction_factor(x, gamma: float):
    """Contraction bound g(x) = (sqrt(pi)/2) gamma x sqrt(1+x) (3+x) of the map on K."""
    if math.isnan(gamma) or gamma <= 0.0 or math.isinf(gamma):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("contraction factor is defined for x >= 0")
    out = 0.5 * SQRT_PI * gamma * x * np.sqrt(1.0 + x) * (3.0 + x)
    return float(out) if out.ndim == 0 else out


def contraction_threshold(gamma: float, tol: float = 1e-12) -> float:
    """Unique positive root of g(x) = 1: Picard is certified below it.

    Strictly decreasing in gamma (roughly 2/(3 sqrt(pi) gamma) for large gamma).
    """
    bracket = bracket_root(lambda x: contraction_factor(x, gamma) - 1.0, 0.0, 1.0)
    return find_root(lambda x: contraction_factor(x, gamma) - 1.0, bracket, tol=tol)


def dirichlet_contraction_threshold(lam: float, tol: float = 1e-12) -> float:
    """Certified slope range for the prescribed-value variant.

    Mirrors the flux-condition bound with the endpoint normalizer estimated
    through int_0^lam E >= (sqrt(pi)/2) erf(lam) / (1 + beta): the map
    contracts when beta (1+beta)^{3/2} (3+beta) < erf(lam); the root of the
    equality is returned.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    target = float(erf(lam))

    def gap(x: float) -> float:
        return x * (1.0 + x) ** 1.5 * (3.0 + x) - target

    return find_root(gap, bracket_root(gap, 0.0, 1.0), tol=tol)


def lipschitz_bound(b: float, gamma: float) -> float:
    """Uniform slope sensitivity: sup |phi_b1 - phi_b2| <= L |b1 - b2| for
    b1, b2 in [0, b], with L = 1 / (threshold * (1 - g(b))).

    Defined for 0 <= b strictly below the contraction threshold.
    """
    if not (math.isfinite(b) and b >= 0.0):
        raise ValueError(f"b must be finite and >= 0, got {b}")
    threshold = contraction_threshold(gamma)
    if b >= threshold:
        raise ContractionError(
            f"slope bound b={b:g} is not below the contraction threshold {threshold:.6g}"
        )
    return 1.0 / (threshold * (1.0 - contraction_factor(b, gamma)))


@dataclass(frozen=True, eq=False)
class GMESolution:
    """Converged profile together with its solve diagnostics.

    Attributes
    ----------
    params : GMEParams
        Problem parameters the profile solves.
    phi : GridFunction
        The profile on the uniform grid; non-decreasing, phi(lam) = 1 exactly.
    d_coeff : float
        Normalizing coefficient at the fixed point, in (0, gamma].
    phi_prime_lambda : float
        Endpoint derivative D_phi E_phi(lam); exact up to quadrature, no
        finite differencing involved.
    iterations : int
        Picard iterations performed.
    residual : float
        Final sup-norm update, at most the configured tolerance.
    contraction_certified : bool
        False when the solve ran above the certified slope range (explicit
        override or empirical acceptance); the result then carries no
        convergence guarantee beyond the observed residual.
    """

    params: GMEParams
    phi: GridFunction
    d_coeff: float
    phi_prime_lambda: float
    iterations: int
    residual: float
    contraction_certified: bool = True

    def __post_init__(self):
        v = self.phi.values
        if float(np.min(v)) < 0.0 or float(np.max(v)) > 1.0:
            raise ValueError("solution profile leaves the unit band")
        if np.any(np.diff(v) < 0.0):
            raise ValueError("solution profile is not non-decreasing")
        if v[-1] != 1.0:
            raise ValueError("solution endpoint is not pinned at 1")
        if not (0.0 < self.d_coeff <= self.params.gamma * (1.0 + 1e-12)):
            raise ValueError(f"normalizing coefficient {self.d_coeff:g} outside (0, gamma]")


def _seed_profile(params: GMEParams, n: int) -> GridFunction:
    # Constant-conductivity (beta = 0) closed form; also the Picard seed for
    # beta > 0. The 2/gamma form covers the prescribed-value limit at gamma=inf.
    nodes = np.linspace(0.0, params.lam, n)
    s = SQRT_PI * erf(nodes)
    two_over_gamma = 2.0 / params.gamma
    vals = (two_over_gamma + s) / (two_over_gamma + s[-1])
    return GridFunction(params.lam, vals)


def solve_gme(
    params: GMEParams,
    config: SolverConfig = DEFAULT_CONFIG,
    *,
    allow_unproven: bool = False,
) -> GMESolution:
    """Solve the profile problem by Picard iteration on the integral operator.

    By default the slope must lie strictly below the certified contraction
    threshold (`contraction_threshold` for finite gamma,
    `dirichlet_contraction_threshold` for the prescribed-value variant);
    pass ``allow_unproven=True`` to attempt larger slopes anyway, in which
    case a converged result is returned flagged
    ``contraction_certified=False``.

    Raises
    ------
    ContractionError
        Slope at or above the certified range without the override.
    FixedPointError
        Iteration cap reached before the update fell below ``config.fp_tol``.
    """
    if params.dirichlet:
        threshold = dirichlet_contraction_threshold(params.lam)
    else:
        threshold = contraction_threshold(params.gamma)
    certified = params.beta < threshold
    if not certified and not allow_unproven:
        raise ContractionError(
            f"beta={params.beta:g} is at or above the certified contraction "
            f"threshold {threshold:.6g} for this problem; pass "
            f"allow_unproven=True to attempt the solve anyway"
        )

    # T maps the unit band into itself, so the loop runs on bare arrays with
    # no per-step checks; GMESolution verifies the final profile.
    seed = _seed_profile(params, config.grid_n)
    v, nodes, step, inv_gamma = seed.values, seed.nodes, seed.step, 1.0 / params.gamma
    residual = math.inf
    iterations = 0
    for iterations in range(1, config.fp_max_iter + 1):
        nv = _apply(v, nodes, step, params.beta, inv_gamma)[0]
        residual = float(np.max(np.abs(nv - v)))
        v = nv
        if residual <= config.fp_tol:
            break
    else:
        raise FixedPointError(
            f"Picard iteration did not reach tol={config.fp_tol:g} in "
            f"{config.fp_max_iter} iterations (last update {residual:g})",
            residual=residual,
            iterations=config.fp_max_iter,
        )

    _, d, weight = _apply(v, nodes, step, params.beta, inv_gamma)
    return GMESolution(
        params=params,
        phi=GridFunction(params.lam, v),
        d_coeff=d,
        phi_prime_lambda=d * float(weight[-1]),
        iterations=iterations,
        residual=residual,
        contraction_certified=certified,
    )
