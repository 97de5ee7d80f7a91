"""Numerical foundations: uniform-grid functions, cumulative quadrature,
bracketed root finding, and RK4 shooting integrators.

Everything here is a pure function over immutable values, so concurrent use
from several threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np
import scipy.optimize
import scipy.special

from .errors import BracketError, IntegrationError, RootConvergenceError

if TYPE_CHECKING:
    from .fixed_point import GMEParams, SolverConfig

__all__ = [
    "GridFunction",
    "RootBracket",
    "erf",
    "cumulative_integral",
    "bracket_root",
    "find_root",
    "shoot_bvp",
    "shoot_bvp_dirichlet",
]

SQRT_PI = math.sqrt(math.pi)

# Relative slack for domain membership tests; covers float dust from
# eta = x / (2 sqrt(alpha t)) style computations.
_DOMAIN_RTOL = 1e-12


def _require(name: str, value: float, *, positive: bool = True) -> None:
    """ValueError unless value is finite and > 0 (positive) or >= 0 (not positive)."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        raise ValueError(f"{name} must be finite and {'positive' if positive else '>= 0'}, got {value}")


def _check_domain(eta, lam: float, what: str) -> np.ndarray:
    """eta as a float array; rejects points outside [0, lam] beyond the slack."""
    pts = np.asarray(eta, dtype=float)
    slack = _DOMAIN_RTOL * max(1.0, lam)
    if np.any(pts < -slack) or np.any(pts > lam + slack):
        raise ValueError(f"{what} outside [0, {lam}]")
    return pts


def erf(x):
    """Error function, elementwise.

    Accepts scalars or arrays. Backed by the C library implementation,
    accurate to machine precision (well below 1e-12 absolute error).
    """
    return scipy.special.erf(x)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values sampled on the uniform grid 0 = eta_0 < ... < eta_{n-1} = lam.

    Parameters
    ----------
    lam : float
        Right endpoint of the grid, strictly positive.
    values : numpy.ndarray
        Sample values, one per node, all finite, n >= 2.

    Point queries interpolate linearly between nodes and reject points
    outside [0, lam] (up to a tiny relative slack).
    """

    lam: float
    values: np.ndarray

    def __post_init__(self):
        # Private read-only copy: instances are shared (and cached), so the
        # sample array must not alias caller-owned storage.
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        _require("grid endpoint", self.lam)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("values must be a 1-d array with at least 2 samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must all be finite")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def step(self) -> float:
        return self.lam / (self.n - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        # Built once per instance: point queries read it on every call.
        nodes = np.linspace(0.0, self.lam, self.n)
        nodes.setflags(write=False)
        return nodes

    def __call__(self, eta):
        """Linear interpolation at eta (scalar or array), restricted to [0, lam]."""
        pts = _check_domain(eta, self.lam, "query point")
        out = np.interp(np.clip(pts, 0.0, self.lam), self.nodes, self.values)
        if pts.ndim == 0:
            return float(out)
        return out


def cumulative_integral(f: GridFunction) -> GridFunction:
    """Cumulative integral F(eta_i) = int_0^{eta_i} f on the grid of f.

    Composite Simpson over node pairs gives the even nodes; each odd node
    closes its final panel with the quadratic through the last three samples,
    so the error is O(h^4) for smooth integrands at every node. A closing
    panel whose three samples are all non-negative is floored at zero, so for
    non-negative data the result is non-negative and never steps down into an
    odd node (the quadratic model can otherwise overshoot a decaying tail
    below zero). For rough non-negative data the odd-to-even step can still
    dip by O(h) times the local sample scale; on the resolved integrands the
    solvers feed in, the result is monotone to rounding.

    F(0) = 0 exactly.
    """
    return GridFunction(f.lam, _cumint(f.values, f.step))


def _cumint(v: np.ndarray, h) -> np.ndarray:
    # Array form of cumulative_integral along the last axis of v. The step h
    # is a scalar or a column with one step per row (shape (..., 1)).
    n = v.shape[-1]
    out = np.zeros(v.shape)
    if n == 2:
        out[..., 1:] = 0.5 * h * (v[..., 0:1] + v[..., 1:2])
        return out

    m = 2 * ((n - 1) // 2)  # last even node
    left = v[..., 0 : m - 1 : 2]
    mid = v[..., 1:m:2]
    right = v[..., 2 : m + 1 : 2]
    np.cumsum((h / 3.0) * (left + 4.0 * mid + right), axis=-1, out=out[..., 2 : m + 1 : 2])

    # Odd node i closes the panel (i-2, i-1, i); node 1 uses (0, 1, 2).
    h12 = h / 12.0
    a, b, c = v[..., 0:1], v[..., 1:2], v[..., 2:3]
    first = h12 * (5.0 * a + 8.0 * b - c)
    _floor_panels(first, a, b, c)
    out[..., 1:2] = first
    if n > 3:
        a, b, c = v[..., 1 : n - 2 : 2], v[..., 2 : n - 1 : 2], v[..., 3:n:2]
        panel = h12 * (-a + 8.0 * b + 5.0 * c)
        _floor_panels(panel, a, b, c)
        out[..., 3:n:2] = out[..., 2 : n - 1 : 2] + panel
    return out


def _floor_panels(panel: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    # Sets to zero, in place, each negative closing panel whose samples a, b, c
    # are all non-negative; the sample test runs only when a panel is negative.
    neg = panel < 0.0
    if neg.any():
        panel[neg & (np.minimum(np.minimum(a, b), c) >= 0.0)] = 0.0


@dataclass(frozen=True)
class RootBracket:
    """An interval [lo, hi] with a sign change of f across it."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        for name in ("lo", "hi", "f_lo", "f_hi"):
            if not math.isfinite(getattr(self, name)):
                raise BracketError(f"bracket field {name} is not finite")
        if not self.lo < self.hi:
            raise BracketError(f"bracket endpoints out of order: [{self.lo}, {self.hi}]")
        if math.copysign(1.0, self.f_lo) == math.copysign(1.0, self.f_hi) and (
            self.f_lo != 0.0 and self.f_hi != 0.0
        ):
            raise BracketError(
                f"no sign change over [{self.lo}, {self.hi}]: "
                f"f_lo={self.f_lo:g}, f_hi={self.f_hi:g}"
            )

    @classmethod
    def from_function(cls, f: Callable[[float], float], lo: float, hi: float) -> "RootBracket":
        return cls(lo, hi, f(lo), f(hi))


def bracket_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    grow: float = 2.0,
    max_hi: float | None = None,
    max_steps: int = 60,
) -> RootBracket:
    """Slide and grow [lo, hi] upward until f changes sign across it.

    Intended for functions with a single upward crossing (monotone tails):
    when both endpoint values share a sign, lo takes the old hi and hi is
    multiplied by `grow` (capped at max_hi). Raises BracketError when the cap
    or the step budget is exhausted without a sign change.
    """
    f_lo = f(lo)
    f_hi = f(hi)
    for _ in range(max_steps):
        if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) != (f_hi < 0.0):
            return RootBracket(lo, hi, f_lo, f_hi)
        if max_hi is not None and hi >= max_hi:
            break
        lo, f_lo = hi, f_hi
        hi = hi * grow if max_hi is None else min(hi * grow, max_hi)
        f_hi = f(hi)
    raise BracketError(f"no sign change found growing the bracket up to hi={hi:g}")


def find_root(
    f: Callable[[float], float],
    bracket: RootBracket,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Root of f inside the bracket, to absolute tolerance tol on the abscissa.

    Brent's method with a bisection fallback (convergence guaranteed for a
    valid bracket). The result always lies inside [bracket.lo, bracket.hi].

    Raises
    ------
    RootConvergenceError
        If the iteration cap is reached first; the best estimate is attached.
    """
    if bracket.f_lo == 0.0:
        return bracket.lo
    if bracket.f_hi == 0.0:
        return bracket.hi
    root, info = scipy.optimize.brentq(
        f,
        bracket.lo,
        bracket.hi,
        xtol=tol,
        rtol=4.0 * np.finfo(float).eps,
        maxiter=max_iter,
        full_output=True,
        disp=False,
    )
    if not info.converged:
        raise RootConvergenceError(
            f"root finding stopped after {max_iter} iterations "
            f"(best estimate {root:.17g})",
            best=float(root),
        )
    return float(root)


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


def shoot_bvp(params: "GMEParams", config: "SolverConfig") -> GridFunction:
    """Profile solving the flux-boundary problem by shooting, independent of
    the fixed-point machinery.

    The boundary value y(0) = a parametrizes initial data via the flux
    condition (1 + beta a) y'(0) = gamma a; classical RK4 integrates each
    candidate on the config grid and a is root-found in [0, 1] until
    y(lam) = 1 within config.root_tol on the parameter.

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

    a_star = find_root(mismatch, RootBracket.from_function(mismatch, 0.0, 1.0), tol=config.root_tol)
    p0 = gamma * a_star / (1.0 + beta * a_star)
    ys, _ = _rk4_profile(a_star, p0, lam, n, beta)
    return GridFunction(lam, ys)


def shoot_bvp_dirichlet(beta: float, lam: float, config: "SolverConfig") -> GridFunction:
    """Shooting companion for the prescribed-value problem y(0) = 0, y(lam) = 1.

    The unknown initial slope is grown by doubling until it overshoots the
    endpoint, then root-found. Same integrator and grid as shoot_bvp.
    """
    _require("beta", beta, positive=False)
    _require("lam", lam)
    n = config.grid_n

    def mismatch(p0: float) -> float:
        return _rk4_profile(0.0, p0, lam, n, beta)[1] - 1.0

    bracket = bracket_root(mismatch, 0.0, 1.0, grow=2.0, max_hi=2.0**40)
    p_star = find_root(mismatch, bracket, tol=config.root_tol)
    ys, _ = _rk4_profile(0.0, p_star, lam, n, beta)
    return GridFunction(lam, ys)
