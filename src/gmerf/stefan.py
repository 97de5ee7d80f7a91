"""One-phase solidification with conductivity linear in temperature and a
time-decaying convective boundary flux.

With k(T) = k0 (1 + beta (T - Tinf)/(Tf - Tinf)), alpha0 = k0/(rho c), the
problem on x > 0:

    rho c T_t = (k(T) T_x)_x                 for 0 < x < s(t),
    k(T(0,t)) T_x(0,t) = (h0/sqrt(t)) (T(0,t) - Tinf),
    T(s(t), t) = Tf,
    k(Tf) T_x(s(t), t) = rho l s'(t),        s(0) = 0,

admits the similarity solution

    T(x, t) = Tinf + (Tf - Tinf) phi(x / (2 sqrt(alpha0 t))),
    s(t) = 2 lam* sqrt(alpha0 t),

where phi is the fixed-point profile for gamma = 2 Bi, Bi = h0 sqrt(alpha0)/k0,
and the front coefficient lam* balances the latent heat:

    phi'(lam) / lam = 2 / ((1 + beta) Ste),   Ste = c (Tf - Tinf) / l.

The left side is `boundary_slope_ratio`; it falls from gamma/(1+beta) * 1/lam
at small lam to 0, so the balance has a root for every positive Ste.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BracketError
from .fixed_point import (
    DEFAULT_CONFIG,
    GMEParams,
    GMESolution,
    SolverConfig,
    solve_gme,
)
from .numerics import SQRT_PI, RootBracket, erf, find_root

__all__ = [
    "PhysicalParams",
    "StefanSolution",
    "boundary_slope_ratio",
    "solve_lambda",
    "solve_stefan",
    "temperature",
    "front_position",
    "solve_dirichlet",
    "dirichlet_gap",
    "phi_prime_bounds",
]

# Front coefficient search: initial bracket, growth cap, and floor while
# shrinking toward 0 for very small Stefan numbers.
_LAM_LO = 1e-3
_LAM_HI = 1.0
_LAM_CAP = 50.0
_LAM_FLOOR = 1e-12


@dataclass(frozen=True)
class PhysicalParams:
    """Material and boundary data of the solidification problem.

    Attributes
    ----------
    rho : float
        Density, > 0.
    c : float
        Specific heat, > 0.
    l : float
        Latent heat per unit mass, > 0.
    k0 : float
        Reference conductivity at Tinf, > 0.
    h0 : float
        Coefficient of the t^{-1/2} convective boundary flux, > 0.
    tf : float
        Phase-change temperature; must exceed tinf.
    tinf : float
        Ambient temperature.
    beta : float
        Conductivity slope over the active temperature range, >= 0.
    """

    rho: float
    c: float
    l: float
    k0: float
    h0: float
    tf: float
    tinf: float
    beta: float

    def __post_init__(self):
        for name in ("rho", "c", "l", "k0", "h0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if not (math.isfinite(self.tf) and math.isfinite(self.tinf) and self.tf > self.tinf):
            raise ValueError(f"tf must exceed tinf, got tf={self.tf}, tinf={self.tinf}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")

    @property
    def alpha0(self) -> float:
        """Reference diffusivity k0 / (rho c)."""
        return self.k0 / (self.rho * self.c)

    @property
    def ste(self) -> float:
        """Stefan number c (tf - tinf) / l."""
        return self.c * (self.tf - self.tinf) / self.l

    @property
    def bi(self) -> float:
        """Generalized Biot number h0 sqrt(alpha0) / k0."""
        return self.h0 * math.sqrt(self.alpha0) / self.k0

    @property
    def gamma(self) -> float:
        """Flux-condition coefficient 2 Bi of the similarity profile."""
        return 2.0 * self.bi


@lru_cache(maxsize=256)
def _solved(beta: float, gamma: float, lam: float, config: SolverConfig) -> GMESolution:
    # Process-wide cache of converged profiles; key is (beta, gamma, lam, config).
    return solve_gme(GMEParams(beta=beta, gamma=gamma, lam=lam), config)


def boundary_slope_ratio(
    lam: float, beta: float, gamma: float, config: SolverConfig = DEFAULT_CONFIG
) -> float:
    """phi'(lam) / lam for the profile solved at (beta, gamma, lam).

    Strictly positive; lam * ratio tends to gamma/(1+beta) as lam -> 0 and
    the ratio itself decays to 0 as lam grows. Solves (or reuses) the profile
    at the given parameters, so repeated scans over lam are cached.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    return _solved(beta, gamma, lam, config).phi_prime_lambda / lam


def solve_lambda(
    beta: float, gamma: float, ste: float, config: SolverConfig = DEFAULT_CONFIG
) -> float:
    """Front coefficient lam* solving phi'(lam)/lam = 2 / ((1 + beta) Ste).

    The bracket starts at [1e-3, 1]; the low end halves while the balance is
    non-positive there (tiny Stefan numbers), the high end doubles up to
    lam = 50. A coarse scan afterwards looks for further sign changes and
    warns if any appear; the smallest bracketed root is returned.

    Raises
    ------
    BracketError
        No sign change within [1e-12, 50].
    """
    if not (math.isfinite(ste) and ste > 0.0):
        raise ValueError(f"ste must be finite and positive, got {ste}")
    rhs = 2.0 / ((1.0 + beta) * ste)

    def balance(lam: float) -> float:
        return boundary_slope_ratio(lam, beta, gamma, config) - rhs

    lo = _LAM_LO
    f_lo = balance(lo)
    while f_lo <= 0.0:
        if f_lo == 0.0:
            return lo
        lo *= 0.5
        if lo < _LAM_FLOOR:
            raise BracketError(f"no positive balance down to lam={_LAM_FLOOR:g}")
        f_lo = balance(lo)

    hi = max(_LAM_HI, 2.0 * lo)
    f_hi = balance(hi)
    while f_hi > 0.0:
        if hi >= _LAM_CAP:
            raise BracketError(f"no sign change of the front balance up to lam={_LAM_CAP:g}")
        lo, f_lo = hi, f_hi
        hi = min(2.0 * hi, _LAM_CAP)
        f_hi = balance(hi)

    root = find_root(balance, RootBracket(lo, hi, f_lo, f_hi), tol=config.root_tol)
    _warn_on_extra_roots(root, balance_rhs=rhs, beta=beta, gamma=gamma, config=config)
    return root


def _warn_on_extra_roots(
    root: float, *, balance_rhs: float, beta: float, gamma: float, config: SolverConfig
) -> None:
    # Coarse reduced-resolution scan on both sides of the root; a sign
    # inconsistent with a single downward crossing flags multiplicity.
    scan_config = SolverConfig(
        grid_n=201, fp_tol=1e-8, fp_max_iter=config.fp_max_iter, root_tol=config.root_tol
    )
    margin = 4.0 * max(config.root_tol, 1e-9) * max(1.0, root)
    below = np.geomspace(max(root / 64.0, _LAM_FLOOR), root, 7)[:-1]
    above = np.geomspace(root, _LAM_CAP, 8)[1:]
    for lam in (*below, *above):
        # -1 below the root, +1 above it, 0 within the margin; the balance
        # must be positive below and negative above.
        side = int(lam > root + margin) - int(lam < root - margin)
        if side and side * (boundary_slope_ratio(lam, beta, gamma, scan_config) - balance_rhs) > 0.0:
            warnings.warn(
                f"front balance changes sign again near lam={lam:.3g}; "
                f"smallest root {root:.6g} returned",
                RuntimeWarning,
                stacklevel=3,
            )
            return


@dataclass(frozen=True, eq=False)
class StefanSolution:
    """Similarity solution of one solidification problem.

    Attributes
    ----------
    physical : PhysicalParams
        Input data.
    lambda_star : float
        Front coefficient: the front sits at s(t) = 2 lambda_star sqrt(alpha0 t).
    gme : GMESolution
        Profile solved on [0, lambda_star] at gamma = 2 Bi.
    """

    physical: PhysicalParams
    lambda_star: float
    gme: GMESolution


def solve_stefan(physical: PhysicalParams, config: SolverConfig = DEFAULT_CONFIG) -> StefanSolution:
    """Solve the full problem: front coefficient plus profile.

    The profile's slope range guard applies (beta must be below the certified
    contraction threshold for gamma = 2 Bi).
    """
    lam_star = solve_lambda(physical.beta, physical.gamma, physical.ste, config)
    gme = _solved(physical.beta, physical.gamma, lam_star, config)
    return StefanSolution(physical=physical, lambda_star=lam_star, gme=gme)


def front_position(sol: StefanSolution, t: float) -> float:
    """Front location s(t) = 2 lambda_star sqrt(alpha0 t); s(0) = 0."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    return 2.0 * sol.lambda_star * math.sqrt(sol.physical.alpha0 * t)


def temperature(sol: StefanSolution, x: float, t: float) -> float:
    """Temperature at position x in [0, s(t)] and time t > 0.

    Equals tf exactly on the front. Points beyond the front are outside the
    solved (solid) region and are rejected.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t must be finite and positive, got {t}")
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"x must be finite and >= 0, got {x}")
    s = front_position(sol, t)
    if x > s * (1.0 + 1e-12):
        raise ValueError(f"x={x:g} lies beyond the front s(t)={s:g}")
    p = sol.physical
    if x >= s:
        return p.tf
    eta = min(x / (2.0 * math.sqrt(p.alpha0 * t)), sol.lambda_star)
    return p.tinf + (p.tf - p.tinf) * sol.gme.phi(eta)


def solve_dirichlet(
    beta: float,
    lam: float,
    config: SolverConfig = DEFAULT_CONFIG,
    *,
    allow_unproven: bool = True,
) -> GMESolution:
    """Prescribed-value profile: y(0) = 0, y(lam) = 1 (the gamma -> inf limit).

    Certified below `dirichlet_contraction_threshold`; by default larger
    slopes are attempted anyway and a converged result is returned flagged
    ``contraction_certified=False`` (pass ``allow_unproven=False`` to refuse
    instead).
    """
    return solve_gme(
        GMEParams(beta=beta, gamma=math.inf, lam=lam), config, allow_unproven=allow_unproven
    )


def dirichlet_gap(
    beta: float,
    lam: float,
    gammas: list[float],
    config: SolverConfig = DEFAULT_CONFIG,
) -> list[tuple[float, float]]:
    """Sup-norm gaps between flux-condition profiles and the prescribed-value one.

    Returns (gamma, sup |phi_gamma - phi_dag|) per requested gamma, in input
    order. The gaps shrink as gamma grows (the flux condition stiffens into
    the prescribed value).
    """
    if not gammas:
        raise ValueError("gammas must be a non-empty list")
    dag = solve_dirichlet(beta, lam, config)
    out = []
    for gamma in gammas:
        robin = _solved(beta, float(gamma), lam, config)
        gap = float(np.max(np.abs(robin.phi.values - dag.phi.values)))
        out.append((float(gamma), gap))
    return out


def phi_prime_bounds(beta: float, gamma: float, lam: float) -> tuple[float, float]:
    """Closed-form bounds (lower, upper) for the endpoint derivative phi'(lam).

    lower = gamma/(1+beta) e^{-lam^2} / (1 + gamma sqrt(1+beta) (sqrt(pi)/2)
    erf(lam/sqrt(1+beta))) is a true lower bound for every lam, with equality
    at beta = 0. upper = gamma/(1+beta) e^{-lam/(1+beta)} is guaranteed for
    lam >= 1 (the derivation gives exponent -lam^2/(1+beta); the quoted form
    is weaker there and can fail for small lam). Both tend to gamma/(1+beta)
    as lam -> 0.
    """
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    front = gamma / (1.0 + beta)
    root = math.sqrt(1.0 + beta)
    lower = front * math.exp(-lam * lam) / (
        1.0 + gamma * root * (SQRT_PI / 2.0) * float(erf(lam / root))
    )
    upper = front * math.exp(-lam / (1.0 + beta))
    return lower, upper
