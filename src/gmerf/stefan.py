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

from .errors import BracketError, ContractionError, FixedPointError, RootConvergenceError
from .fixed_point import (
    DEFAULT_CONFIG,
    GMEParams,
    GMESolution,
    SolverConfig,
    _apply,
    _raise_first,
    _require_gamma,
    _seed,
    _solve_rows,
    solve_gme,
)
from .numerics import (
    _BRENT_RTOL,
    _ROOT_TOL,
    SQRT_PI,
    RootBracket,
    _cumint_work,
    _require,
    _uniform_nodes,
    erf,
    find_root,
)

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

# The front loop's range of lam, and the relative pad around the bound
# crossings between which it starts.
_LAM_CAP = 50.0
_LAM_FLOOR = 1e-12
_BOUND_PAD = 1e-6


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

    The derived alpha0, ste and gamma must also come out finite and positive.
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
            _require(name, getattr(self, name))
        if not (math.isfinite(self.tf) and math.isfinite(self.tinf) and self.tf > self.tinf):
            raise ValueError(f"tf must exceed tinf, got tf={self.tf}, tinf={self.tinf}")
        _require("beta", self.beta, positive=False)
        # The derived quantities must be usable numbers too: alpha0 = inf would
        # select the prescribed-value model. rho c may underflow to 0.
        _require("alpha0", self.alpha0 if self.rho * self.c > 0.0 else math.inf)
        _require("ste", self.ste)
        _require("gamma", self.gamma)

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
    # Kept while the benchmark's stefan.cache_hit_ratio metric reads its hits.
    return solve_gme(GMEParams(beta=beta, gamma=gamma, lam=lam), config)


def boundary_slope_ratio(
    lam: float, beta: float, gamma: float, config: SolverConfig = DEFAULT_CONFIG
) -> float:
    """phi'(lam) / lam, as a float, for the profile solved (or reused from a cache) at (beta, gamma, lam).

    lam * ratio tends to gamma/(1+beta) as lam -> 0; the ratio decays toward
    0 as lam grows and may underflow to 0. Out-of-range arguments, and a
    ratio that overflows (at a subnormal lam), raise ValueError.
    """
    sol = _solved(beta, gamma, lam, config)
    return _slope_ratio(sol.phi_prime_lambda, sol.params.lam)


def _slope_ratio(phi_prime_lambda: float, lam: float) -> float:
    """H = phi'(lam)/lam as a float; ValueError naming lam where it is not finite."""
    ratio = float(phi_prime_lambda) / float(lam)
    if not math.isfinite(ratio):
        raise ValueError(f"phi'(lam)/lam = {ratio} is not finite at lam={float(lam)!r}")
    return ratio


def solve_lambda(
    beta: float, gamma: float, ste: float, config: SolverConfig = DEFAULT_CONFIG
) -> float:
    """Front coefficient lam* solving phi'(lam)/lam = 2 / ((1 + beta) Ste).

    Closed-form lower and upper bounds on phi'(lam)/lam = H cross the
    right-hand side rhs at lo and hi (widened by a relative 1e-6). From
    sqrt(lo hi), one loop solves the profile and lam together, one operator
    application per step (`_front_loop`), and converges to the root of the
    converged discrete balance on the config's grid, inside [lo, hi] or not,
    to a few ulps relative however small lam* is. The profile solved at its
    lam, which `solve_stefan` returns, then judges it by the loop's own step
    from there: lam is accepted when lam |H/rhs - 1| / q, q >= 1 the loop's
    last step divisor, is within Brent's stopping distance 1e-12 + 4 eps lam.
    A coarse scan afterwards looks for further sign changes and warns if any
    appear, skipping points whose slope it cannot certify.

    Raises
    ------
    ValueError
        beta, gamma or ste out of range.
    BracketError
        No sign change within [1e-12, 50]: the loop steps past an end.
    ContractionError
        beta at or above the certified slope range at lam (at gamma = inf
        that range depends on lam).
    FixedPointError
        The loop's update is nan or 50 steps pass, or the profile solve at
        lam fails.
    RootConvergenceError
        The profile at the loop's lam does not accept it; that lam is
        attached as ``best``.
    """
    # beta enters the right-hand side, and gamma the bounds, before any
    # profile is set up.
    _require("beta", beta, positive=False)
    _require("ste", ste)
    _require_gamma(gamma)
    # Where (1 + beta) Ste overflows, rhs is divided out factor by factor.
    scale = (1.0 + beta) * ste
    rhs = 2.0 / scale if scale < math.inf else 2.0 / (1.0 + beta) / ste
    # log rhs from its factors: rhs itself may round to 0 or inf.
    log_rhs = math.log(2.0) - math.log1p(beta) - math.log(ste)
    lo = max(_bound_crossing(_log_phi_prime_lower, beta, gamma, log_rhs) * (1.0 - _BOUND_PAD), _LAM_FLOOR)
    hi = min(_bound_crossing(_log_phi_prime_upper, beta, gamma, log_rhs) * (1.0 + _BOUND_PAD), _LAM_CAP)
    root, divisor = _front_loop(beta, gamma, rhs, config, math.sqrt(lo * hi))
    step = root * abs(boundary_slope_ratio(root, beta, gamma, config) / rhs - 1.0) / divisor
    if step > _ROOT_TOL + _BRENT_RTOL * root:
        raise RootConvergenceError(f"the profile at the front loop's lam={root!r} steps it by {step:.3g}", best=root)
    _warn_on_extra_roots(root, balance_rhs=rhs, beta=beta, gamma=gamma)
    return root


# The front loop's step cap, and the size at which both of a step's updates (the
# profile's sup norm and log lam's) are rounding: 1e-14 doubles the worst balance error.
_LOOP_MAX_STEPS = 50
_LOOP_TOL = 1e-15


def _front_loop(beta: float, gamma: float, rhs: float, config: SolverConfig, lam: float) -> tuple[float, float]:
    """(lam*, divisor) from a joint fixed-point loop over the profile and lam, started at lam.

    On Landau's front-fixing variable xi = eta/lam the profile u keeps its
    nodes. Each step is one operator application u <- T_lam u, whose D and
    E(lam) give u's balance F = log(D E(lam) / (lam rhs)), a ratio first so
    that F rounds to a few eps at the root for any rhs, and move log lam by
    F / (2 + 4 I - D/gamma), I = -log((1+beta) E(lam))/2, clipped to +-1.
    The divisor is |F'| >= 1, the frozen balance's slope, plus
    4 lam^4 int_0^1 A E dxi / (lam/gamma + lam^2 int_0^1 E dxi) >= 0 (A the
    inner integral): no step exceeds the frozen Newton step. Where E(lam)
    underflows, F is -inf and the step is -1. A step that would undo the one
    before, or more, is cut to half of it, so the loop cannot cycle, and a step
    past _LAM_FLOOR or _LAM_CAP stops at it. When both updates are at most
    `_LOOP_TOL`, u is T_lam's Picard fixed point on grid_n nodes and the
    balance holds; the last step's divisor is returned with lam.

    Raises BracketError when a step would leave [_LAM_FLOOR, _LAM_CAP] from
    the end it stands on, and FixedPointError when an update is nan or
    `_LOOP_MAX_STEPS` pass.
    """
    n, inv_gamma = config.grid_n, 1.0 / gamma
    u = _seed(_uniform_nodes(lam, n), gamma)
    nu, psi, weight, work = *np.empty((3, n)), _cumint_work((n,))
    last = 0.0
    with np.errstate(all="ignore"):  # an overflow ends as a nan update, raised below
        for step in range(1, _LOOP_MAX_STEPS + 1):
            _, d, e = _apply(u, _uniform_nodes(lam, n), lam / (n - 1), beta, inv_gamma, out=(nu, psi, weight, work))
            residual = float(np.abs(np.subtract(u, nu, out=u), out=u).max())  # u is spent: reuse it
            u, nu = nu, u
            d, e_lam = float(d), float(e[-1])
            balance = d * e_lam / lam / rhs
            if balance == 0.0:
                dt = -1.0
            else:
                divisor = 2.0 - 2.0 * math.log((1.0 + beta) * e_lam) - d * inv_gamma
                dt = max(-1.0, min(1.0, math.log(balance) / divisor))
            if math.isnan(dt) or math.isnan(residual):
                raise FixedPointError(f"front loop update is nan at step {step}", residual=residual, iterations=step)
            if dt and lam == (_LAM_CAP if dt > 0.0 else _LAM_FLOOR):
                raise BracketError(
                    f"no sign change within [{_LAM_FLOOR:g}, {_LAM_CAP:g}]: the front loop steps past lam={lam:g}"
                )
            if residual <= _LOOP_TOL and abs(dt) <= _LOOP_TOL:
                return lam * math.exp(dt), divisor
            if dt * last < 0.0 and abs(dt) >= abs(last):
                dt = -0.5 * last
            lam, last = min(max(lam * math.exp(dt), _LAM_FLOOR), _LAM_CAP), dt
    message = f"front loop did not converge in {_LOOP_MAX_STEPS} steps (last log lam step {dt:g})"
    raise FixedPointError(message, residual=residual, iterations=_LOOP_MAX_STEPS)


def _log_phi_prime_lower(beta: float, gamma: float, lam: float) -> float:
    # log of the paper's lower bound on phi'(lam), exact at beta = 0:
    # e^{-lam^2} / ((1+beta) (1/gamma + sqrt(1+beta) (sqrt(pi)/2) erf(lam/sqrt(1+beta)))).
    root = math.sqrt(1.0 + beta)
    return -lam * lam - math.log((1.0 + beta) * (1.0 / gamma + root * (SQRT_PI / 2.0) * erf(lam / root)))


def _log_phi_prime_upper(beta: float, gamma: float, lam: float) -> float:
    # log of an upper bound on phi'(lam) for every lam > 0, equal to the lower
    # one at beta = 0: e^{-lam^2/(1+beta)} / ((1+beta)/gamma + (sqrt(pi)/2) erf(lam)).
    # With 1 <= Psi <= 1+beta on [0, lam], E(lam) <= e^{-lam^2/(1+beta)}/(1+beta)
    # and int_0^lam E >= (sqrt(pi)/2) erf(lam)/(1+beta); phi'(lam) = D E(lam).
    return -lam * lam / (1.0 + beta) - math.log((1.0 + beta) / gamma + (SQRT_PI / 2.0) * erf(lam))


def _bound_crossing(log_bound, beta: float, gamma: float, log_rhs: float) -> float:
    # The lam in [_LAM_FLOOR, _LAM_CAP] where bound(lam)/lam, which falls from
    # +inf to 0, meets rhs, or the end of that range beyond which it lies.
    # Searched in log lam, where the log of the ratio is smooth and never
    # underflows, so the root is found to a relative 1e-12.
    def gap(t: float) -> float:
        return log_bound(beta, gamma, math.exp(t)) - t - log_rhs

    lo, hi = math.log(_LAM_FLOOR), math.log(_LAM_CAP)
    f_lo, f_hi = gap(lo), gap(hi)
    if f_lo <= 0.0:
        return _LAM_FLOOR
    if f_hi >= 0.0:
        return _LAM_CAP
    return math.exp(find_root(gap, RootBracket(lo, hi, f_lo, f_hi)))


# The scan reads only the sign of H - rhs, at points a factor of 2 or more
# below the root and (50/root)^(1/7) above it, where H is far from rhs (59%
# at least over the 3900 scan points of the benchmark's stefan_cases draws at
# seed 1). A Picard stop at 1e-5 moves H there by at most a relative 1.2e-8
# from the stop at 1e-8, and changed none of those signs.
_SCAN_CONFIG = SolverConfig(grid_n=201, fp_tol=1e-5)


def _warn_on_extra_roots(root: float, *, balance_rhs: float, beta: float, gamma: float) -> None:
    # Coarse reduced-resolution scan on both sides of the root; a sign
    # inconsistent with a single downward crossing flags multiplicity. Its 13
    # profile solves are also what the benchmark's stefan.aux_solve_share counts.
    # The margin is relative, plus an absolute 1e-12: a root below 1 keeps
    # its lower scan points however small it is.
    margin = 4e-9 * root + 1e-12
    below = np.geomspace(max(root / 64.0, _LAM_FLOOR), root, 7)[:-1]
    above = np.geomspace(root, _LAM_CAP, 8)[1:]
    for lam in (*below, *above):
        # -1 below the root, +1 above it, 0 within the margin; the balance
        # must be positive below and negative above.
        side = int(lam > root + margin) - int(lam < root - margin)
        if not side:
            continue
        try:
            ratio = boundary_slope_ratio(lam, beta, gamma, _SCAN_CONFIG)
        except ContractionError:
            # At gamma = inf the certified slope range shrinks with lam, so a
            # point below a solvable root may lie outside it: it is skipped.
            continue
        if side * (ratio - balance_rhs) > 0.0:
            warnings.warn(
                f"front balance changes sign again near lam={lam:.3g}; "
                f"the front loop's root {root:.6g} returned",
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
    _require("t", t, positive=False)
    return 2.0 * sol.lambda_star * math.sqrt(sol.physical.alpha0 * t)


def temperature(sol: StefanSolution, x: float, t: float) -> float:
    """Temperature at position x in [0, s(t)] and time t > 0.

    Equals tf exactly from the front on. Points beyond the front are outside
    the solved (solid) region and are rejected. x and t are checked once, here;
    the profile is then read straight from its nodes at x / (2 sqrt(alpha0 t)).
    """
    _require("t", t)
    _require("x", x, positive=False)
    p = sol.physical
    scale = 2.0 * math.sqrt(p.alpha0 * t)
    s = sol.lambda_star * scale
    if x > s * (1.0 + 1e-12):
        raise ValueError(f"x={x:g} lies beyond the front s(t)={s:g}")
    if x >= s:
        return p.tf
    phi = sol.gme.phi
    return p.tinf + (p.tf - p.tinf) * float(np.interp(x / scale, phi.nodes, phi.values))


def solve_dirichlet(beta: float, lam: float, config: SolverConfig = DEFAULT_CONFIG) -> GMESolution:
    """Prescribed-value profile: y(0) = 0, y(lam) = 1 (the gamma -> inf limit).

    Certified below `dirichlet_contraction_threshold`; larger slopes are
    attempted anyway and a converged result is returned flagged
    ``contraction_certified=False``. For a solve that refuses them instead,
    call ``solve_gme(GMEParams(beta, math.inf, lam))``.
    """
    return solve_gme(GMEParams(beta=beta, gamma=math.inf, lam=lam), config, allow_unproven=True)


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
    _, _, gaps = _dirichlet_comparison(beta, lam, gammas, config)
    return [(float(gamma), gap) for gamma, gap in zip(gammas, gaps)]


def _dirichlet_comparison(
    beta: float, lam: float, gammas: list[float], config: SolverConfig
) -> tuple[GMESolution, list[np.ndarray], list[float]]:
    # The prescribed-value profile, the flux-condition profiles as node values (one
    # batch; the first failure in gamma order is raised) and their sup gaps.
    if not gammas:
        raise ValueError("gammas must be a non-empty list")
    dag = solve_dirichlet(beta, lam, config)
    rows = _solve_rows([(beta, float(gamma), lam) for gamma in gammas], config, keep_profiles=True)
    _raise_first(rows.errors)
    gaps = [float(np.max(np.abs(robin - dag.phi.values))) for robin in rows.profiles]
    return dag, rows.profiles, gaps


def phi_prime_bounds(beta: float, gamma: float, lam: float) -> tuple[float, float]:
    """Closed-form bounds (lower, upper) for the endpoint derivative phi'(lam).

    lower = gamma/(1+beta) e^{-lam^2} / (1 + gamma sqrt(1+beta) (sqrt(pi)/2)
    erf(lam/sqrt(1+beta))) is a true lower bound for every lam, with equality
    at beta = 0. upper is the larger of gamma/(1+beta) e^{-lam/(1+beta)},
    which alone holds only for lam >= 1, and gamma e^{-lam^2/(1+beta)} /
    ((1+beta) + gamma (sqrt(pi)/2) erf(lam)), which holds for every lam and
    equals lower at beta = 0; so upper holds for every lam. Both tend to
    gamma/(1+beta) as lam -> 0. `solve_lambda` starts its front loop between
    the points where the lower bound and the second form of the upper one
    meet the balance.
    """
    _require("beta", beta, positive=False)
    _require("gamma", gamma)
    _require("lam", lam)
    lower = math.exp(_log_phi_prime_lower(beta, gamma, lam))
    closed_form = gamma / (1.0 + beta) * math.exp(-lam / (1.0 + beta))
    upper = max(closed_form, math.exp(_log_phi_prime_upper(beta, gamma, lam)))
    return lower, upper
