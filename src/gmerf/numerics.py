"""Numerical foundations: the error function, uniform-grid functions,
cumulative quadrature, and bracketed root finding.

Everything here is a pure function over immutable values, so concurrent use
from several threads is safe; the private kernels write only into buffers
their caller passes or they allocate themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BracketError, RootConvergenceError

__all__ = [
    "GridFunction",
    "RootBracket",
    "erf",
    "cumulative_integral",
    "bracket_root",
    "find_root",
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
    """eta as a float array; rejects nan and points outside [0, lam] beyond the slack."""
    pts = np.asarray(eta, dtype=float)
    slack = _DOMAIN_RTOL * max(1.0, lam)
    if not np.all((pts >= -slack) & (pts <= lam + slack)):
        raise ValueError(f"{what} outside [0, {lam}]")
    return pts


# Cephes erf (Moshier, ndtr.c): x T(x^2) / U(x^2) for |x| <= 1 and
# 1 - exp(-x^2) P(|x|) / Q(|x|) for 1 < |x| < 8; from 8 on 1 - erfc(x) rounds
# to exactly 1. Coefficients run from the highest degree down; U and Q are
# monic.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)
_ERF_SATURATED = 8.0


def _horner(x, coeffs: tuple[float, ...]):
    # Rounds as Cephes polevl does (and as p1evl does for a leading 1); x is an
    # array or a float.
    out = x * coeffs[0]
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


def erf(x):
    """Error function, elementwise, for scalars or arrays.

    A port of the Cephes rational approximations, within a few ulps of the
    correctly rounded value; odd, with erf(+-0) = +-0, erf(+-inf) = +-1 and
    erf(nan) = nan. Each branch is evaluated only on the points that need it;
    a float runs the same operations on floats and returns a float.
    """
    if isinstance(x, float):
        return _erf_float(x)
    x = np.asarray(x, dtype=float)
    y = np.abs(x, out=np.empty(x.shape))
    core = y <= 1.0
    tail = (y > 1.0) & (y < _ERF_SATURATED)
    ac, at = y[core], y[tail]
    np.minimum(y, 1.0, out=y)  # 1 where saturated; nan stays nan
    if ac.size:
        z = ac * ac
        num = _horner(z, _ERF_T)
        num *= ac
        num /= _horner(z, _ERF_U)
        y[core] = num
    if at.size:
        w = np.exp(-(at * at))
        w *= _horner(at, _ERF_P)
        w /= _horner(at, _ERF_Q)
        y[tail] = 1.0 - w
    np.copysign(y, x, out=y)
    return y[()] if y.ndim == 0 else y


def _erf_float(x: float) -> float:
    # `erf` on one float, bit for bit: the array path's operations in its order,
    # with numpy's exp, which may round differently from math.exp.
    y = abs(x)
    if y <= 1.0:
        z = y * y
        y = _horner(z, _ERF_T) * y / _horner(z, _ERF_U)
    elif y < _ERF_SATURATED:
        y = 1.0 - float(np.exp(-(y * y))) * _horner(y, _ERF_P) / _horner(y, _ERF_Q)
    elif y == y:
        y = 1.0  # saturated; nan stays nan
    return math.copysign(y, x)


def _uniform_nodes(lam, n: int) -> np.ndarray:
    # np.linspace(0, lam, n) bit for bit, for a scalar lam or per row of a (k, 1)
    # column; only a row whose step underflows takes linspace's zero-step formula.
    i = np.arange(n, dtype=float)
    step = np.divide(lam, n - 1)
    zero = step == 0.0
    nodes = np.where(zero, i / (n - 1) * lam, i * step) if zero.any() else i * step
    nodes[..., -1:] = lam
    return nodes


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
        if not np.isfinite(vals).all():
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
        nodes = _uniform_nodes(self.lam, self.n)
        nodes.setflags(write=False)
        return nodes

    def __call__(self, eta):
        """Linear interpolation at eta (scalar or array) in [0, lam]; points in the slack read the end values."""
        pts = _check_domain(eta, self.lam, "query point")
        out = np.interp(pts, self.nodes, self.values)
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


def _cumint(v: np.ndarray, h, out: np.ndarray | None = None, work=None) -> np.ndarray:
    """Array form of `cumulative_integral` along the last axis of v, returned in out.

    The step h is a scalar or a column with one step per row (shape (..., 1)).
    A 1-D row takes a scalar step, best a Python float, and closes node 1's
    panel in float arithmetic: the same operations as for rows, without six
    numpy calls on one-element slices. Buffers, all optional (a missing one
    is allocated):

    - out has v's shape; every entry of it is written.
    - work is the (pairs, panels, fives) triple `_cumint_work(v.shape)` makes;
      its entries on entry are ignored.

    No buffer may overlap v or another buffer. Panel sums are built in place,
    keeping the operation order of the formulas.
    """
    n = v.shape[-1]
    if out is None:
        out = np.empty(v.shape)
    out[..., 0] = 0.0
    if n == 2:
        out[..., 1:] = 0.5 * h * (v[..., 0:1] + v[..., 1:2])
        return out

    pairs, panel, fives = _cumint_work(v.shape) if work is None else work
    m = 2 * ((n - 1) // 2)  # last even node
    np.multiply(v[..., 1:m:2], 4.0, out=pairs)  # contiguous: faster than in the strided output
    pairs += v[..., 0 : m - 1 : 2]
    pairs += v[..., 2 : m + 1 : 2]
    pairs *= h / 3.0
    np.add.accumulate(pairs, axis=-1, out=out[..., 2 : m + 1 : 2])  # np.cumsum's sums, without its wrapper

    # Odd node i closes the panel (i-2, i-1, i); node 1 uses (0, 1, 2).
    h12 = h / 12.0
    if v.ndim == 1:
        a, b, c = float(v[0]), float(v[1]), float(v[2])
        first = h12 * (5.0 * a + 8.0 * b - c)
        # `_floor_panels` on floats; a nan sample fails its >= test there too.
        out[1] = 0.0 if first < 0.0 and a >= 0.0 and b >= 0.0 and c >= 0.0 else first
    else:
        a, b, c = v[..., 0:1], v[..., 1:2], v[..., 2:3]
        first = np.multiply(h12, 5.0 * a + 8.0 * b - c, out=out[..., 1:2])
        _floor_panels(first, a, b, c)
    if n > 3:
        a, b, c = v[..., 1 : n - 2 : 2], v[..., 2 : n - 1 : 2], v[..., 3:n:2]
        np.multiply(b, 8.0, out=panel)  # 8b - a is -a + 8b, bit for bit
        panel -= a
        panel += np.multiply(c, 5.0, out=fives)
        panel *= h12
        _floor_panels(panel, a, b, c)
        np.add(out[..., 2 : n - 1 : 2], panel, out=out[..., 3:n:2])
    return out


def _cumint_work(shape: tuple[int, ...], buffer: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scratch for `_cumint` on arrays of this shape: (pair sums, closing panels, their 5c terms).

    The three are carved, each contiguous, from the front of the flat array
    buffer, which holds at least `_cumint_work_size(n)` values per row; a new
    one is made when none is given.
    """
    *rows, n = shape
    k = math.prod(rows)
    if buffer is None:
        buffer = np.empty(k * _cumint_work_size(n))
    half, odd = (n - 1) // 2, (n - 2) // 2  # odd nodes: all, and from 3 on
    return (
        buffer[: k * half].reshape(*rows, half),
        buffer[k * half : k * (half + odd)].reshape(*rows, odd),
        buffer[k * (half + odd) : k * (half + 2 * odd)].reshape(*rows, odd),
    )


def _cumint_work_size(n: int) -> int:
    """Values per row of n nodes that `_cumint_work` carves."""
    return (n - 1) // 2 + 2 * ((n - 2) // 2)


def _floor_panels(panel: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    # Sets to zero, in place, each negative closing panel whose samples a, b, c
    # are all non-negative; the sample test runs only when a panel is negative.
    if np.fmin.reduce(panel, axis=None) < 0.0:
        panel[(panel < 0.0) & (np.minimum(np.minimum(a, b), c) >= 0.0)] = 0.0


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


def bracket_root(f: Callable[[float], float], lo: float, hi: float, *, max_hi: float | None = None) -> RootBracket:
    """Slide and grow [lo, hi] upward until f changes sign across it.

    Intended for functions with a single upward crossing (monotone tails):
    when both endpoint values share a sign, lo takes the old hi and hi is
    doubled (capped at max_hi). Raises BracketError when the cap is reached,
    or 60 doublings pass, without a sign change.
    """
    f_lo = f(lo)
    f_hi = f(hi)
    for _ in range(60):
        if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) != (f_hi < 0.0):
            return RootBracket(lo, hi, f_lo, f_hi)
        if max_hi is not None and hi >= max_hi:
            break
        lo, f_lo = hi, f_hi
        hi = 2.0 * hi if max_hi is None else min(2.0 * hi, max_hi)
        f_hi = f(hi)
    raise BracketError(f"no sign change found growing the bracket up to hi={hi:g}")


# Brent's stopping rule: a step below 1e-12 plus 4 eps relative, within 200
# iterations.
_ROOT_TOL = 1e-12
_BRENT_RTOL = 4.0 * math.ulp(1.0)
_BRENT_MAX_ITER = 200


def find_root(f: Callable[[float], float], bracket: RootBracket) -> float:
    """Root of f inside the bracket, to absolute tolerance 1e-12 on the abscissa.

    Brent's method with a bisection fallback (convergence guaranteed for a
    valid bracket), started from the bracket's stored endpoint values. The
    result always lies inside [bracket.lo, bracket.hi]; an endpoint whose
    stored value is exactly 0 is returned as is.

    Raises
    ------
    ValueError
        If f returns nan.
    RootConvergenceError
        If 200 iterations pass first; the best estimate is attached.
    """
    # Brent's method (Brent 1973, ch. 4), a line-by-line port of the common
    # brentq.c with rtol = 4 eps; the bracket supplies both endpoint values
    # and their sign change.
    if bracket.f_lo == 0.0:
        return bracket.lo
    if bracket.f_hi == 0.0:
        return bracket.hi
    xpre, xcur = float(bracket.lo), float(bracket.hi)
    fpre, fcur = float(bracket.f_lo), float(bracket.f_hi)
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_ROOT_TOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf  # brentq.c's division by 0 gives inf or nan: both bisect
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ValueError(f"the function value at x={xcur} is nan; root finding cannot continue")
    raise RootConvergenceError(
        f"root finding stopped after {_BRENT_MAX_ITER} iterations (best estimate {xcur:.17g})",
        best=xcur,
    )

