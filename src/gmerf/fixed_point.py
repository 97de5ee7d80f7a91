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
different parameters are safe. The Picard loop's working buffers belong to
one call (one chunk of one solve) and no module state holds any array.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .approx import _order0
from .errors import ContractionError, FixedPointError, GmerfError
from .numerics import (
    SQRT_PI,
    GridFunction,
    _cumint,
    _cumint_work,
    _cumint_work_size,
    _erf_sorted,
    _require,
    _uniform_nodes,
    bracket_root,
    erf,
    find_root,
)
# Unused here; bound because the benchmark's tracer wraps it at this attribute,
# as it wraps `fixed_point_map` below, to count quadrature and operator calls.
from .numerics import cumulative_integral  # noqa: F401

__all__ = [
    "SolverConfig",
    "GMEParams",
    "GMESolution",
    "fixed_point_map",
    "contraction_factor",
    "contraction_threshold",
    "dirichlet_contraction_threshold",
    "lipschitz_bound",
    "solve_gme",
]

# Slack for membership in the unit band K; absorbs one quadrature round-off.
_BAND_TOL = 1e-9

# Most node values (rows x grid_n) one Picard chunk iterates at once: keeps the
# working arrays of a batch to a few hundred kB however many points it holds;
# a grid larger than this is solved one row at a time.
_CHUNK_ELEMENTS = 8192


# Picard iteration cap. Observed convergence is far faster than the certified
# geometric rate g(beta), so the cap is headroom for slopes near the
# contraction threshold, not a cost: converged runs stop at the tolerance.
_FP_MAX_ITER = 20000


@dataclass(frozen=True)
class SolverConfig:
    """The two solver settings, grid and Picard tolerance (the iteration cap is `_FP_MAX_ITER`).

    Attributes
    ----------
    grid_n : int
        Number of uniform nodes on [0, lam], at least 3.
    fp_tol : float
        Picard stopping tolerance on the sup-norm update.
    """

    grid_n: int = 1001
    fp_tol: float = 1e-10

    def __post_init__(self):
        if not (isinstance(self.grid_n, int) and self.grid_n >= 3):
            raise ValueError(f"grid_n must be an integer >= 3, got {self.grid_n!r}")
        _require("fp_tol", self.fp_tol)


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
        _require("beta", self.beta, positive=False)
        _require_gamma(self.gamma)
        _require("lam", self.lam)


def _require_gamma(gamma: float) -> None:
    """ValueError unless gamma is > 0, finite or inf: the profile problem's gamma rule."""
    if math.isnan(gamma) or gamma <= 0.0:
        raise ValueError(f"gamma must be positive (finite or inf), got {gamma}")


def _apply(v: np.ndarray, nodes: np.ndarray, step, beta, inv_gamma, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The operator on rows of node values: (T v, D_v, E_v).

    v and nodes have shape (..., n), one problem per row; step, beta and
    inv_gamma (1/gamma, 0 for gamma = inf) are scalars or columns of shape
    (..., 1). One problem runs fastest as 1-D rows with Python-float
    parameters, which no numpy call then broadcasts.
    E_v(x) = exp(-2 int_0^x s / Psi_v(s) ds) / Psi_v(x), Psi_v = 1 + beta v,
    and D_v = 1 / (1/gamma + int_0^lam E_v), of shape (..., 1), or a numpy
    scalar for 1-D rows, which numpy multiplies by faster. The image is
    clipped at 1 and pinned to 1 at lam. No checks: each row must lie in the
    unit band, which T maps into itself. In-place steps keep the arithmetic
    order of the formulas above.

    out, when given, is (tv, psi, weight, work): three arrays of v's shape
    and the `_cumint_work(v.shape)` scratch. T v is written to tv and E_v to
    weight, which are the arrays returned; psi and work are scratch, whose
    entries on entry are ignored. tv may be v itself, which is read only
    before tv is written; nothing else among v, nodes and the buffers may
    overlap. Without out, fresh arrays are used.
    """
    if out is None:
        out = (*np.empty((3, *v.shape)), _cumint_work(v.shape))
    tv, psi, weight, work = out
    np.multiply(v, beta, out=psi)
    psi += 1.0
    # tv holds the inner integrand until the outer integral overwrites it.
    _cumint(np.divide(nodes, psi, out=tv), step, out=weight, work=work)
    weight *= -2.0
    np.exp(weight, out=weight)
    weight /= psi
    _cumint(weight, step, out=tv, work=work)
    d = 1.0 / (inv_gamma + (tv[-1] if tv.ndim == 1 else tv[..., -1:]))
    tv += inv_gamma
    tv *= d
    np.minimum(tv, 1.0, out=tv)
    tv[..., -1] = 1.0
    return tv, d, weight


def fixed_point_map(h: GridFunction, params: GMEParams) -> GridFunction:
    """One application of the integral operator T to a unit-band profile.

    The image is non-decreasing, starts at D_h / gamma (0 in the
    prescribed-value variant) and ends at exactly 1.
    """
    lo, hi = float(np.min(h.values)), float(np.max(h.values))
    if lo < -_BAND_TOL or hi > 1.0 + _BAND_TOL:
        raise ValueError(f"operator input leaves the unit band [0, 1]: min={lo:g}, max={hi:g}")
    if abs(h.lam - params.lam) > 1e-12 * max(1.0, params.lam):
        raise ValueError(f"grid endpoint {h.lam} does not match params.lam {params.lam}")
    return GridFunction(h.lam, _apply(h.values, h.nodes, h.step, params.beta, 1.0 / params.gamma)[0])


def contraction_factor(x: float, gamma: float) -> float:
    """Contraction bound g(x) = (sqrt(pi)/2) gamma x sqrt(1+x) (3+x) of the map on K.

    x is a float; a huge x gives inf.
    """
    _require("gamma", gamma)
    _require("x", x, positive=False)
    return 0.5 * SQRT_PI * gamma * x * math.sqrt(1.0 + x) * (3.0 + x)


def _scaled_root(gap, scale: float) -> float:
    """The x = t scale where an increasing gap(t) crosses 0, known to be at t in [1/2, 1].

    Searched in units of scale/1024, where the root is 512 to 1024 units, so
    `find_root`'s 4 eps relative step outweighs its absolute 1e-12: the root
    is found to a relative 1e-13 or better, and never above scale when
    gap(1) >= 0. The bracket is grown without a cap: gap(1) may round to
    just below 0, and the bracket must then slide past 1024.
    """

    def scaled(s: float) -> float:
        return gap(s / 1024.0)

    return scale * (find_root(scaled, bracket_root(scaled, 0.0, 1024.0)) / 1024.0)


@functools.lru_cache(maxsize=256)
def contraction_threshold(gamma: float) -> float:
    """Unique positive root of g(x) = 1: Picard is certified below it.

    Strictly decreasing in gamma. With c = sqrt(pi)/2 the root lies between
    half and all of min(1/(3 c gamma), (c gamma)^(-2/5)), the roots of the
    small- and large-x forms of g, so `_scaled_root` finds it to a relative
    1e-13 or better for every normal gamma. Cached per gamma, since every
    profile solve at finite gamma asks.
    """
    _require("gamma", gamma)
    c = 0.5 * SQRT_PI
    scale = min(1.0 / (3.0 * c) / gamma, (c * gamma) ** -0.4)
    return _scaled_root(lambda t: contraction_factor(scale * t, gamma) - 1.0, scale)


def dirichlet_contraction_threshold(lam: float) -> float:
    """Certified slope range for the prescribed-value variant.

    Mirrors the flux-condition bound with the endpoint normalizer estimated
    through int_0^lam E >= (sqrt(pi)/2) erf(lam) / (1 + beta): the map
    contracts when beta (1+beta)^{3/2} (3+beta) < erf(lam), and the root of
    the equality is returned. The left side is at least 3 beta, so the root
    lies between half and all of erf(lam)/3 and `_scaled_root` finds it to a
    relative 1e-13 or better for every normal lam. The gap, the left side
    over erf(lam) minus 1 with beta/erf(lam) = t/3 taken out, stays of order
    1 where erf(lam)/3 is subnormal or 0: the result there is in [0, erf(lam)/3].
    """
    _require("lam", lam)
    scale = float(erf(lam)) / 3.0
    return _scaled_root(lambda t: t * _dirichlet_factor(scale * t) / 3.0 - 1.0, scale)


def _dirichlet_factor(x: float) -> float:
    # The prescribed-value map contracts when beta _dirichlet_factor(beta) < erf(lam).
    return (1.0 + x) ** 1.5 * (3.0 + x)


def lipschitz_bound(b: float, gamma: float) -> float:
    """Uniform slope sensitivity: sup |phi_b1 - phi_b2| <= L |b1 - b2| for
    b1, b2 in [0, b], with L = 1 / (threshold * (1 - g(b))).

    Defined for 0 <= b strictly below the contraction threshold where g(b)
    rounds below 1: the threshold is a rounded root, so, as in `_certified`,
    the inequality settles a refusal.
    """
    _require("b", b, positive=False)
    threshold = contraction_threshold(gamma)
    g = contraction_factor(b, gamma)
    if b >= threshold:
        raise ContractionError(
            f"slope bound b={b:g} is not below the contraction threshold {threshold:.6g}"
        )
    if g >= 1.0:
        raise ContractionError(
            f"g(b)={g:.17g} is not below 1 at slope bound b={b:.17g}, "
            f"just below the contraction threshold {threshold:.17g}"
        )
    return 1.0 / (threshold * (1.0 - g))


# The post-conditions of a solved profile, as the messages that name their
# breach; a profile that breaks several is named by the first.
_POST_CONDITIONS = (
    "solution profile leaves the unit band",
    "solution profile is not non-decreasing",
    "solution endpoint is not pinned at 1",
    "normalizing coefficient {d:g} outside (0, gamma]",
)


def _fault(v: np.ndarray, d: float, gamma: float) -> str | None:
    """The message of the first post-condition a solved profile v (1-D) breaks, or None.

    A profile must start at or above 0, be non-decreasing (so hold no nan) and
    end at exactly 1, which keeps it in the unit band; its normalizing
    coefficient must have 0 < d <= gamma.
    """
    breaches = (v[0] < 0.0, not (v[1:] >= v[:-1]).all(), v[-1] != 1.0, not 0.0 < d <= gamma * (1.0 + 1e-12))
    return next((message.format(d=d) for message, breach in zip(_POST_CONDITIONS, breaches) if breach), None)


def _faulty(v: np.ndarray, d: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    # `_fault`'s tests on the k rows of v (k, n): which break a post-condition.
    ordered = np.logical_and.reduce(v[:, 1:] >= v[:, :-1], axis=-1)
    return (v[:, 0] < 0.0) | ~ordered | (v[:, -1] != 1.0) | ~((d > 0.0) & (d <= gamma * (1.0 + 1e-12)))


def _failure(fault: str | None, iterations: int, residual: float, fp_tol: float) -> FixedPointError | None:
    # The FixedPointError of a solved row, or None: iterations is 0 at the cap,
    # residual the last update, fault what `_fault` found in the final profile
    # (a nan update leaves nan there). A breach is a solver outcome, not a bad
    # input: it is worded as `GMESolution` words its ValueError.
    if not iterations:
        iterations = _FP_MAX_ITER
        fault = f"Picard iteration did not reach tol={fp_tol:g} in {iterations} iterations (last update {residual:g})"
    elif math.isnan(residual):
        fault = f"Picard update is nan at iteration {iterations}: the operator overflows at these parameters"
    return None if fault is None else FixedPointError(fault, residual=residual, iterations=iterations)


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
        fault = _fault(self.phi.values, self.d_coeff, self.params.gamma)
        if fault is not None:
            raise ValueError(fault)


def _seed(nodes: np.ndarray, gamma) -> np.ndarray:
    # The constant-conductivity (beta = 0) profile on rows of nodes, each
    # ending at its lam; the Picard seed for beta > 0, written over erf's output.
    # A 1-D row's nodes are sorted and non-negative, so its erf runs on slices.
    e = _erf_sorted(nodes) if nodes.ndim == 1 else erf(nodes)
    return _order0(e, e[..., -1:], gamma, out=e)


def _certified(beta: float, gamma: float, lam: float, allow_unproven: bool) -> bool:
    # Whether the contraction inequality holds at beta for a valid point;
    # raises ContractionError when not and the override is off. The cached
    # threshold is a rounded root, so the inequality itself settles a refusal.
    # The prescribed-value threshold is an uncached root search, made only
    # when the inequality fails: it also certifies slopes below the rounded
    # root, and words the refusal. Its inequality is tested only where it can
    # hold, so a huge slope cannot overflow the float power in
    # `_dirichlet_factor`: beta _dirichlet_factor(beta) >= 3 beta fails
    # erf(lam) < 1 from beta = 1/3.
    if math.isinf(gamma):
        if beta < 1.0 and beta * _dirichlet_factor(beta) < float(erf(lam)):
            return True
        threshold = dirichlet_contraction_threshold(lam)
        certified = beta < threshold
    else:
        threshold = contraction_threshold(gamma)
        certified = beta < threshold or contraction_factor(beta, gamma) < 1.0
    if not certified and not allow_unproven:
        raise ContractionError(
            f"beta={beta:g} is at or above the certified contraction "
            f"threshold {threshold:.6g} for this problem"
        )
    return certified


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
    ``contraction_certified=False``. It runs on 1-D arrays with float
    parameters, with no batch bookkeeping, giving a batch row's bits.

    Raises
    ------
    ContractionError
        Slope at or above the certified range without the override.
    FixedPointError
        Iteration cap reached before the update fell below ``config.fp_tol``,
        an update that is nan (the operator overflows at these parameters),
        or a converged profile that breaks a post-condition of `GMESolution`
        (under-resolved grids, huge slopes under the override).
    """
    point = (params.beta, params.gamma, params.lam)
    certified = _certified(*point, allow_unproven)
    with _float_errors([point]):
        profile, d_coeff, phi_prime_lambda, iterations, residual = _solve_one(*point, config)
    # The post-conditions are tested already: skip __post_init__.
    sol = object.__new__(GMESolution)
    sol.__dict__.update(params=params, phi=GridFunction(params.lam, profile), d_coeff=d_coeff,
                        phi_prime_lambda=phi_prime_lambda, iterations=iterations, residual=residual,
                        contraction_certified=certified)
    return sol


class _Rows(NamedTuple):
    """What `_solve_rows` found for k points, one entry per point in input order.

    The numbers of a point in ``errors`` are unspecified.
    """

    d_coeff: np.ndarray  # (k,)
    phi_prime_lambda: np.ndarray  # (k,)
    iterations: np.ndarray  # (k,) int
    residual: np.ndarray  # (k,)
    errors: list  # the exception solve_gme raises for the point, else None
    profiles: list | None  # each point's converged profile (a view into its chunk), if kept


def _raise_first(errors: list) -> None:
    """Raise the first failure of a `_solve_rows` batch, in input order."""
    for exc in errors:
        if exc is not None:
            raise exc


def _float_errors(points: list):
    # The float-warning state a solve of valid (beta, gamma, lam) points runs in.
    # 1/gamma or the normalizer 1/(1/gamma + int_0^lam E), int E >= min(lam, 1)/(e (1 + beta)),
    # may overflow: the point's first update is then nan, which fails it. From lam of about
    # 1.3e154 the inner integral int_0^lam s/Psi ds, up to lam**2/2, overflows in its panel
    # sums: E is then 0 beyond the first node. Such a solve runs with float warnings off;
    # others keep numpy's default error state, which ufuncs read fastest.
    if all(lam < 1e154 and 1e-290 < 1.0 / gamma + min(lam, 1.0) / (1.0 + beta) < math.inf
           for beta, gamma, lam in points):
        return contextlib.nullcontext()
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _solve_rows(
    points: Sequence[tuple[float, float, float]],
    config: SolverConfig,
    *,
    keep_profiles: bool = False,
) -> _Rows:
    """Solve many profile problems on one grid size, as arrays with one entry per point.

    Each point is a (beta, gamma, lam) triple. Entry i holds, bit for bit,
    what ``solve_gme(GMEParams(*points[i]), config)`` returns, or in
    ``errors[i]`` the exception it raises: a slope above the certified range
    is refused. Only an invalid point goes through GMEParams, for its
    message. Every chunk of at most `_CHUNK_ELEMENTS` node values (one row
    on a grid above that budget) is iterated by `_solve_chunk`. The profiles
    are kept (``profiles``) only with keep_profiles.
    """
    k = len(points)
    rows = _Rows(
        d_coeff=np.empty(k),
        phi_prime_lambda=np.empty(k),
        iterations=np.zeros(k, dtype=int),
        residual=np.empty(k),
        errors=[None] * k,
        profiles=[None] * k if keep_profiles else None,
    )
    todo = []
    for i, (beta, gamma, lam) in enumerate(points):
        try:
            if not (0.0 <= beta < math.inf and gamma > 0.0 and 0.0 < lam < math.inf):
                GMEParams(beta, gamma, lam)  # raises the point's ValueError
            _certified(beta, gamma, lam, False)
        except (GmerfError, ValueError) as exc:
            rows.errors[i] = exc
        else:
            todo.append(i)
    step = max(1, _CHUNK_ELEMENTS // config.grid_n)
    with _float_errors([points[i] for i in todo]):
        for start in range(0, len(todo), step):
            chunk = todo[start : start + step]
            _solve_chunk(np.array(chunk), np.array([points[i] for i in chunk], dtype=float), config, rows)
    return rows


def _solve_one(beta: float, gamma: float, lam: float, config: SolverConfig) -> tuple:
    """Picard on one valid point for `solve_gme`: (profile, d_coeff, phi_prime_lambda, iterations, residual).

    `_solve_chunk`'s seed, steps and stopping rule on one row, bit for bit, on
    1-D arrays with float parameters, and no masks or index arrays to retire
    rows; raises the FixedPointError `_solve_chunk` records for the point.
    """
    beta, gamma, lam = float(beta), float(gamma), float(lam)
    n = config.grid_n
    nodes = _uniform_nodes(lam, n)
    args = (nodes, lam / (n - 1), beta, 1.0 / gamma)
    # As in `_solve_chunk`: the block is made after the seed's temporaries are freed.
    v = _seed(nodes, gamma)
    block = np.empty(3 * n + _cumint_work_size(n))
    nv, psi, weight = block[: 3 * n].reshape(3, n)
    scratch = (psi, weight, _cumint_work((n,), block[3 * n :]))
    for iterations in range(1, _FP_MAX_ITER + 1):
        _apply(v, *args, out=(nv, *scratch))
        residual = float(np.abs(np.subtract(v, nv, out=v), out=v).max())  # v is spent: reuse it
        v, nv = nv, v
        if not residual > config.fp_tol:  # a nan update is done too: no later step mends it
            break
    else:
        iterations = 0
    _, d, weight = _apply(v, *args, out=(nv, *scratch))
    error = _failure(_fault(v, d, gamma), iterations, residual, config.fp_tol)
    if error is not None:
        raise error
    return v, d, d * weight[-1], iterations, residual


def _solve_chunk(idx: np.ndarray, params: np.ndarray, config: SolverConfig, rows: _Rows) -> None:
    # Picard on a chunk of one or more rows: params holds a (beta, gamma, lam)
    # row per point, whose results go to entry idx[j] of rows.
    n, k = config.grid_n, len(params)
    beta, gamma, lam = params[:, 0:1], params[:, 1:2], params[:, 2:3]
    nodes = _uniform_nodes(lam, n)
    args = (nodes, lam / (n - 1), beta, 1.0 / gamma)

    # T maps the unit band into itself, so the loop runs on bare arrays with
    # no per-step checks; `_faulty` tests the final profiles. Every row is
    # iterated until the chunk's last row is done. No row's arithmetic reads
    # another's, so a row's values, iteration count and update are taken at
    # the first step whose update reaches fp_tol, and its later steps change
    # nothing it returns. Every step writes into buffers made once per chunk:
    # two profile buffers (the seed's and one more) swap roles. All but the
    # nodes and the seed are carved from one block, made after the seed's
    # temporaries are freed: glibc's malloc returns the top of its heap to
    # the kernel only beyond twice the largest block it has freed, so later
    # chunks reuse this memory instead of faulting it in again page by page,
    # and the peak stays that of separate arrays.
    v = _seed(nodes, gamma)
    block = np.empty(k * (4 * n + _cumint_work_size(n)))
    nv, psi, weight, final = block[: 4 * k * n].reshape(4, k, n)
    scratch = (psi, weight, _cumint_work((k, n), block[4 * k * n :]))
    iterations = np.zeros(k, dtype=int)
    residual = np.empty(k)
    for it in range(1, _FP_MAX_ITER + 1):
        _apply(v, *args, out=(nv, *scratch))
        res = np.abs(np.subtract(v, nv, out=v), out=v).max(-1)  # v is spent: reuse it
        v, nv = nv, v
        keep = res > config.fp_tol  # a nan update is done too: no later step mends it
        if not keep.all():
            done = ~keep & (iterations == 0)
            final[done], iterations[done], residual[done] = v[done], it, res[done]
            if iterations.all():
                break
    else:
        left = iterations == 0
        final[left], residual[left] = v[left], res[left]

    _, d, weight = _apply(final, *args, out=(nv, *scratch))
    d = d.reshape(k)
    rows.d_coeff[idx], rows.phi_prime_lambda[idx] = d, d * weight[..., -1]
    rows.iterations[idx], rows.residual[idx] = iterations, residual
    if rows.profiles is not None:
        for i, profile in zip(idx.tolist(), final):
            rows.profiles[i] = profile

    for j in np.flatnonzero(_faulty(final, d, gamma[:, 0]) | (iterations == 0)).tolist():
        fault = _fault(final[j], d[j], gamma[j, 0])
        rows.errors[idx[j]] = _failure(fault, int(iterations[j]), float(residual[j]), config.fp_tol)
