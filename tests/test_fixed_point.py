"""Tests for the integral operator, contraction machinery, and Picard solver."""

import math
import struct
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmerf import fixed_point
from gmerf.approx import zero_order
from gmerf.errors import ContractionError, FixedPointError, GmerfError
from gmerf.fixed_point import (
    DEFAULT_CONFIG,
    GMEParams,
    GMESolution,
    SolverConfig,
    _POST_CONDITIONS,
    _apply,
    _fault,
    _faulty,
    _seed,
    _solve_rows,
    contraction_factor,
    contraction_threshold,
    dirichlet_contraction_threshold,
    fixed_point_map,
    lipschitz_bound,
    solve_gme,
)
from gmerf.numerics import GridFunction, _cumint, _cumint_work, _erf_sorted, _uniform_nodes, erf
from oracles import shoot_bvp_dirichlet

SQRT_PI = math.sqrt(math.pi)

CLOSED_FORM_TOL = 1e-8
THRESHOLD_TOL = 1e-11


def constant_conductivity_profile(x, gamma, lam):
    nu = 2.0 + gamma * SQRT_PI * math.erf(lam)
    return (2.0 + gamma * SQRT_PI * erf(x)) / nu


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.grid_n == 1001
        assert cfg.fp_tol == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_n": 2},
            {"grid_n": 10.0},
            {"fp_tol": 0.0},
            {"fp_tol": math.nan},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestGMEParams:
    def test_accepts_infinite_gamma_as_prescribed_value_variant(self):
        p = GMEParams(beta=0.1, gamma=math.inf, lam=2.0)
        assert p.gamma == math.inf

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": -0.1, "gamma": 1.0, "lam": 1.0},
            {"beta": math.nan, "gamma": 1.0, "lam": 1.0},
            {"beta": 0.1, "gamma": 0.0, "lam": 1.0},
            {"beta": 0.1, "gamma": -2.0, "lam": 1.0},
            {"beta": 0.1, "gamma": math.nan, "lam": 1.0},
            {"beta": 0.1, "gamma": 1.0, "lam": 0.0},
            {"beta": 0.1, "gamma": 1.0, "lam": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GMEParams(**kwargs)


class TestOperatorPieces:
    def test_map_pins_endpoint_and_stays_in_band(self):
        params = GMEParams(0.2, 1.0, 2.0)
        h = GridFunction(2.0, np.linspace(0.0, 1.0, 501))
        out = fixed_point_map(h, params)
        assert out.values[-1] == 1.0
        assert np.all(out.values >= 0.0)
        assert np.all(out.values <= 1.0)

    def test_map_start_value_is_coefficient_over_gamma(self):
        params = GMEParams(0.3, 2.0, 1.5)
        h = GridFunction(1.5, np.linspace(0.2, 1.0, 401))
        out = fixed_point_map(h, params)
        d = _apply(h.values, h.nodes, h.step, params.beta, 1.0 / params.gamma)[1]  # a scalar for 1-D rows
        assert out.values[0] == pytest.approx(d / params.gamma, rel=1e-12)

    def test_constant_conductivity_map_lands_on_closed_form_from_any_seed(self):
        gamma, lam = 1.0, 2.0
        params = GMEParams(0.0, gamma, lam)
        rng = np.random.default_rng(3)
        vals = rng.uniform(0.0, 1.0, 1001)
        vals[-1] = 1.0
        out = fixed_point_map(GridFunction(lam, vals), params)
        exact = constant_conductivity_profile(out.nodes, gamma, lam)
        assert np.max(np.abs(out.values - exact)) < CLOSED_FORM_TOL

    @pytest.mark.parametrize("n", [2, 3, 4, 201])
    def test_kernel_rows_match_one_dimensional_calls_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        lams = np.array([[0.3], [1.0], [2.5]])
        nodes = np.stack([np.linspace(0.0, lam, n) for lam in lams[:, 0]])
        steps = lams / (n - 1)
        betas = np.array([[0.0], [0.2], [1.5]])
        inv_gammas = np.array([[1.0], [0.0], [0.1]])  # the middle row is gamma = inf
        v = np.sort(rng.uniform(0.0, 1.0, (3, n)), axis=-1)
        batch = _apply(v, nodes, steps, betas, inv_gammas)
        for j in range(3):
            lone = _apply(v[j], nodes[j], float(steps[j, 0]), float(betas[j, 0]), float(inv_gammas[j, 0]))
            for got, want in zip(batch, lone):
                assert got[j].tobytes() == want.tobytes()

    def test_map_rejects_profile_outside_band(self):
        params = GMEParams(0.2, 1.0, 2.0)
        with pytest.raises(ValueError):
            fixed_point_map(GridFunction(2.0, np.linspace(0.0, 1.5, 101)), params)

    def test_map_rejects_mismatched_interval(self):
        params = GMEParams(0.2, 1.0, 2.0)
        with pytest.raises(ValueError):
            fixed_point_map(GridFunction(1.0, np.linspace(0.0, 1.0, 101)), params)


def _cumint_ref(v, h):
    # The quadrature kernel written as plain out-of-place expressions; the
    # in-place kernel must reproduce it bit for bit.
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

    h12 = h / 12.0
    a, b, c = v[..., 0:1], v[..., 1:2], v[..., 2:3]
    first = h12 * (5.0 * a + 8.0 * b - c)
    _floor_panels_ref(first, a, b, c)
    out[..., 1:2] = first
    if n > 3:
        a, b, c = v[..., 1 : n - 2 : 2], v[..., 2 : n - 1 : 2], v[..., 3:n:2]
        panel = h12 * (-a + 8.0 * b + 5.0 * c)
        _floor_panels_ref(panel, a, b, c)
        out[..., 3:n:2] = out[..., 2 : n - 1 : 2] + panel
    return out


def _floor_panels_ref(panel, a, b, c):
    neg = panel < 0.0
    if neg.any():
        panel[neg & (np.minimum(np.minimum(a, b), c) >= 0.0)] = 0.0


def _apply_ref(v, nodes, step, beta, inv_gamma):
    # The operator written as plain out-of-place expressions on _cumint_ref.
    psi = 1.0 + beta * v
    weight = np.exp(-2.0 * _cumint_ref(nodes / psi, step)) / psi
    outer = _cumint_ref(weight, step)
    d = 1.0 / (inv_gamma + outer[..., -1:])
    tv = d * (inv_gamma + outer)
    np.minimum(tv, 1.0, out=tv)
    tv[..., -1] = 1.0
    return tv, d, weight


def _kernel_rows(rng, n):
    # Seeded rows of mixed sign, rows of non-negative samples whose first or
    # tail closing panels come out negative (and are floored), a smooth
    # decaying tail, and a negative first panel over a negative sample (kept).
    rows = [rng.standard_normal(n), rng.uniform(0.0, 1.0, n), np.exp(-np.linspace(0.0, 40.0, n))]
    first = np.zeros(n)
    first[2:] = 1.0  # 5a + 8b - c < 0 on the first panel
    tail = np.zeros(n)
    tail[1::4] = 1.0  # -a + 8b + 5c < 0 on the panels closing two nodes later
    spiky = rng.uniform(0.0, 1.0, n) * (rng.uniform(0.0, 1.0, n) < 0.3)
    kept = first.copy()
    kept[1] = -1e-3  # 5a + 8b - c < 0 with b < 0
    return np.stack(rows + [first, tail, spiky, kept])


def _stale(work):
    for w in work:
        w.fill(np.nan)
    return work


class TestKernelBitIdentity:
    NS = [2, 3, 4, 5, 6, 7, 8, 9, 200, 201]

    @pytest.mark.parametrize("n", NS)
    def test_cumint_matches_the_expression_form(self, n):
        rng = np.random.default_rng(100 + n)
        v = _kernel_rows(rng, n)
        steps = rng.uniform(1e-3, 2.0, (v.shape[0], 1))
        for h in (0.0125, 1.7, steps):
            assert _cumint(v, h).tobytes() == _cumint_ref(v, h).tobytes()
        # A 1-D row closes node 1's panel in float arithmetic, also at its row's
        # own step and at a subnormal one.
        batch = _cumint(v, steps)
        for row, step, want in zip(v, steps[:, 0].tolist(), batch):
            assert _cumint(row, step).tobytes() == want.tobytes()
            for h in (0.3, 5e-320):
                assert _cumint(row, h).tobytes() == _cumint_ref(row, h).tobytes()

    def test_rows_exercise_both_floors(self):
        # Row 3 floors its first closing panel, row 4 the tail panel at node 3;
        # row 6 keeps its negative first panel, over a negative sample. As
        # 1-D rows, rows 3 and 6 take the float path of the first panel.
        v = _kernel_rows(np.random.default_rng(0), 9)
        out = _cumint_ref(v, 0.1)
        assert 5.0 * v[3, 0] + 8.0 * v[3, 1] - v[3, 2] < 0.0 and out[3, 1] == 0.0
        assert -v[4, 1] + 8.0 * v[4, 2] + 5.0 * v[4, 3] < 0.0 and out[4, 3] == out[4, 2]
        assert 5.0 * v[6, 0] + 8.0 * v[6, 1] - v[6, 2] < 0.0 and out[6, 1] < 0.0
        assert _cumint(v[3], 0.1)[1] == 0.0 and _cumint(v[6], 0.1)[1] == out[6, 1]

    @pytest.mark.parametrize("n", NS)
    def test_apply_matches_the_expression_form(self, n):
        # Row 5's step is subnormal. Each row runs again as 1-D arrays with
        # float parameters, as a lone solve passes them.
        rng = np.random.default_rng(200 + n)
        k = 6
        lams = np.array([[0.05], [0.7], [1.0], [2.5], [6.0], [1e-310]])
        nodes = np.stack([np.linspace(0.0, lam, n) for lam in lams[:, 0]])
        steps = lams / (n - 1)
        betas = np.array([[0.0], [0.1], [0.3], [1.5], [0.02], [0.2]])
        inv_gammas = np.array([[1.0], [0.0], [0.1], [10.0], [0.0], [0.5]])  # zeros are gamma = inf
        v = np.sort(rng.uniform(0.0, 1.0, (k, n)), axis=-1)
        v[:, -1] = 1.0
        for got, want in zip(_apply(v, nodes, steps, betas, inv_gammas), _apply_ref(v, nodes, steps, betas, inv_gammas)):
            assert got.tobytes() == want.tobytes()
        for j in range(k):
            row = (v[j], nodes[j], float(steps[j, 0]), float(betas[j, 0]), float(inv_gammas[j, 0]))
            for got, want in zip(_apply(*row), _apply_ref(*row)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("n", NS)
    def test_cumint_into_stale_buffers_matches_the_expression_form(self, n):
        # Every entry of out is written: stale nan in out and work changes nothing.
        rng = np.random.default_rng(300 + n)
        v = _kernel_rows(rng, n)
        steps = rng.uniform(1e-3, 2.0, (v.shape[0], 1))
        for h in (1.7, steps):
            out, work = np.full(v.shape, np.nan), _stale(_cumint_work(v.shape))
            assert _cumint(v, h, out=out, work=work) is out
            assert out.tobytes() == _cumint_ref(v, h).tobytes()
        out, work = np.full(n, np.nan), _stale(_cumint_work((n,)))
        assert _cumint(v[0], 0.3, out=out, work=work).tobytes() == _cumint_ref(v[0], 0.3).tobytes()

    @pytest.mark.parametrize("n", NS)
    def test_seed_in_place_matches_the_closed_form(self, n):
        # The seed overwrites erf's output, whose last column is erf(lam).
        lams = np.array([[0.05], [1.0], [6.0]])
        nodes = np.stack([np.linspace(0.0, lam, n) for lam in lams[:, 0]])
        gammas = np.array([[0.3], [math.inf], [1e-320]])
        two_over_gamma = 2.0 / np.maximum(gammas, 1e-300)
        want = (two_over_gamma + SQRT_PI * erf(nodes)) / (two_over_gamma + SQRT_PI * erf(lams))
        assert _seed(nodes, gammas).tobytes() == want.tobytes()
        for j in range(2):
            assert _seed(nodes[j], 0.3).tobytes() == zero_order(nodes[j], 0.3, float(lams[j, 0])).tobytes()

    @pytest.mark.parametrize("lam, n", [(8.0, 9), (16.0, 17), (2.0, 3), (8.0, 1001), (16.0, 2001)])
    def test_seed_erf_on_slices_matches_masked_erf_with_nodes_at_the_branch_ends(self, lam, n):
        # A 1-D row's erf runs on slices cut at 1.0 and 8.0; a node exactly on
        # either end belongs to the branch `erf`'s masks give it.
        nodes = _uniform_nodes(lam, n)
        assert 1.0 in nodes and (8.0 in nodes) == (lam >= 8.0)
        assert _erf_sorted(nodes).tobytes() == erf(nodes).tobytes()
        assert _seed(nodes, 0.7).tobytes() == _seed(nodes[None], 0.7)[0].tobytes()

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("image_is_input", [False, True])
    def test_apply_into_buffers_matches_the_expression_form(self, n, image_is_input):
        # Stale buffers of the rows' shape, as the Picard loop passes them; the
        # image may overwrite the input profile.
        rng = np.random.default_rng(400 + n)
        lams = np.array([[0.05], [1.0], [6.0]])
        nodes = np.stack([np.linspace(0.0, lam, n) for lam in lams[:, 0]])
        args = (nodes, lams / (n - 1), np.array([[0.0], [0.3], [1.5]]), np.array([[1.0], [0.0], [10.0]]))
        v = np.sort(rng.uniform(0.0, 1.0, (3, n)), axis=-1)
        want = _apply_ref(v, *args)
        tv, psi, weight = np.full((3, 3, n), np.nan)
        work = _stale(_cumint_work((3, n)))
        if image_is_input:
            tv[:] = v
        got = _apply(tv if image_is_input else v, *args, out=(tv, psi, weight, work))
        assert np.shares_memory(got[0], tv) and np.shares_memory(got[2], weight)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


class TestContraction:
    def test_factor_closed_form_at_one(self):
        # g(1) = (sqrt(pi)/2) gamma * sqrt(2) * 4 = 2 sqrt(2 pi) gamma
        assert contraction_factor(1.0, 1.0) == pytest.approx(2.0 * math.sqrt(2.0 * math.pi))
        assert contraction_factor(1.0, 0.5) == pytest.approx(math.sqrt(2.0 * math.pi))

    def test_factor_is_increasing_and_vanishes_at_zero(self):
        g = [contraction_factor(x, 1.3) for x in np.linspace(0.0, 2.0, 50).tolist()]
        assert g[0] == 0.0
        assert np.all(np.diff(g) > 0)

    def test_factor_overflows_to_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert contraction_factor(1e300, 3e7) == math.inf

    def test_factor_rejects_infinite_gamma(self):
        with pytest.raises(ValueError):
            contraction_factor(1.0, math.inf)

    def test_threshold_is_unit_factor_point(self):
        for gamma in (0.1, 1.0, 10.0, 100.0):
            b1 = contraction_threshold(gamma)
            assert abs(contraction_factor(b1, gamma) - 1.0) < THRESHOLD_TOL

    def test_threshold_matches_independent_bisection(self):
        def g(x, gamma):
            return (SQRT_PI / 2.0) * gamma * x * math.sqrt(1.0 + x) * (3.0 + x)

        for gamma in (0.1, 1.0, 10.0, 100.0):
            lo, hi = 0.0, 8.0
            while g(hi, gamma) < 1.0:
                hi *= 2.0
            for _ in range(120):
                mid = 0.5 * (lo + hi)
                if g(mid, gamma) < 1.0:
                    lo = mid
                else:
                    hi = mid
            assert contraction_threshold(gamma) == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    @staticmethod
    def last_ulp_root(at_least):
        # The least positive float x with at_least(x), by bisection on the bit
        # patterns of positive floats; at_least(x) evaluates its side of the
        # equation in 50-digit decimal arithmetic.
        def bits(x):
            return struct.unpack("<q", struct.pack("<d", x))[0]

        def from_bits(b):
            return struct.unpack("<d", struct.pack("<q", b))[0]

        lo, hi = bits(0.0), bits(1.7976931348623157e308)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            with localcontext() as ctx:
                ctx.prec = 50
                lo, hi = (lo, mid) if at_least(Decimal(from_bits(mid))) else (mid, hi)
        return from_bits(hi)

    def test_threshold_has_relative_accuracy_over_all_magnitudes(self):
        # g(x) = (sqrt(pi)/2) gamma x sqrt(1+x) (3+x) = 1.
        half_sqrt_pi = Decimal("3.14159265358979323846264338327950288419716939937510").sqrt() / 2
        for gamma in [*np.geomspace(1e-300, 1e300, 41).tolist(), 0.1, 0.5, 1.0, 20.0, 100.0, 1e13]:
            root = self.last_ulp_root(lambda x: half_sqrt_pi * Decimal(gamma) * x * (1 + x).sqrt() * (3 + x) >= 1)
            assert abs(contraction_threshold(gamma) - root) <= 1e-13 * root, gamma

    def test_prescribed_value_threshold_has_relative_accuracy_over_all_magnitudes(self):
        # beta (1+beta)^{3/2} (3+beta) = erf(lam), the same reference as the
        # flux-condition threshold's.
        for lam in [*np.geomspace(1e-300, 50.0, 41).tolist(), 1e-13, 1e-12, 0.5, 2.0, 10.0, 2.2250738585072014e-308]:
            target = Decimal(math.erf(lam))
            root = self.last_ulp_root(lambda x: x * (1 + x) * (1 + x).sqrt() * (3 + x) >= target)
            assert abs(dirichlet_contraction_threshold(lam) - root) <= 1e-13 * root, lam

    def test_prescribed_value_threshold_at_subnormal_lam(self):
        # erf(lam)/3 is subnormal or rounds to 0: the threshold is still found,
        # with no warning, and stays in [0, erf(lam)/3].
        lams = [*np.geomspace(5e-324, 2.2e-308, 60).tolist(), 5e-324, 1e-323, 1e-320, 1e-310]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in lams:
                assert 0.0 <= dirichlet_contraction_threshold(lam) <= float(erf(lam)) / 3.0, lam

    def test_threshold_decreases_with_gamma(self):
        ts = [contraction_threshold(g) for g in (0.1, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_prescribed_value_threshold_matches_independent_bisection(self):
        def gdag(x, lam):
            return x * (1.0 + x) ** 1.5 * (3.0 + x) / math.erf(lam)

        for lam in (0.5, 2.0, 10.0):
            lo, hi = 0.0, 4.0
            for _ in range(120):
                mid = 0.5 * (lo + hi)
                if gdag(mid, lam) < 1.0:
                    lo = mid
                else:
                    hi = mid
            assert dirichlet_contraction_threshold(lam) == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_lipschitz_bound_formula_and_guard(self):
        gamma = 1.0
        b1 = contraction_threshold(gamma)
        b = 0.5 * b1
        expected = 1.0 / (b1 * (1.0 - contraction_factor(b, gamma)))
        assert lipschitz_bound(b, gamma) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(ContractionError):
            lipschitz_bound(b1, gamma)
        # Just below the rounded threshold g(b) may round to 1 or above.
        for gamma in (1.0568175092136584e-06, 2.818382931264455e-06):
            with pytest.raises(ContractionError, match=r"g\(b\)=\S+ is not below 1 at slope bound"):
                lipschitz_bound(math.nextafter(contraction_threshold(gamma), 0.0), gamma)

    def test_lipschitz_bound_at_huge_gamma(self):
        # The threshold at gamma = 1e13 is about 3.76e-14, not 0.
        assert lipschitz_bound(0.0, 1e13) == 1.0 / contraction_threshold(1e13)

    def test_map_contracts_random_profile_pairs(self):
        rng = np.random.default_rng(11)
        gamma = 1.0
        beta = 0.9 * contraction_threshold(gamma)
        params = GMEParams(beta, gamma, 5.0)
        g = contraction_factor(beta, gamma)
        for _ in range(20):
            v1 = rng.uniform(0.0, 1.0, 501)
            v2 = rng.uniform(0.0, 1.0, 501)
            v1[-1] = v2[-1] = 1.0
            h1, h2 = GridFunction(5.0, v1), GridFunction(5.0, v2)
            lhs = np.max(np.abs(fixed_point_map(h1, params).values - fixed_point_map(h2, params).values))
            rhs = g * np.max(np.abs(v1 - v2))
            assert lhs <= rhs + 1e-9


class TestSolveGme:
    def test_constant_conductivity_matches_closed_form(self):
        gamma, lam = 1.0, 2.0
        sol = solve_gme(GMEParams(0.0, gamma, lam))
        exact = constant_conductivity_profile(sol.phi.nodes, gamma, lam)
        assert np.max(np.abs(sol.phi.values - exact)) < CLOSED_FORM_TOL
        assert sol.iterations <= 2

    def test_solution_invariants(self):
        sol = solve_gme(GMEParams(0.2, 1.0, 2.0))
        v = sol.phi.values
        assert v[-1] == 1.0
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        assert np.all(np.diff(v) >= 0.0)
        assert 0.0 < sol.d_coeff <= 1.0 + 1e-12
        assert sol.phi_prime_lambda > 0.0
        assert sol.residual <= DEFAULT_CONFIG.fp_tol
        assert sol.contraction_certified

    def test_respects_grid_resolution(self):
        sol = solve_gme(GMEParams(0.1, 1.0, 1.0), SolverConfig(grid_n=257))
        assert sol.phi.n == 257

    def test_residual_decay_is_bounded_by_contraction_factor(self):
        gamma = 1.0
        beta = 0.9 * contraction_threshold(gamma)
        params = GMEParams(beta, gamma, 5.0)
        g = contraction_factor(beta, gamma)
        h = seed_profile(params, 1001)
        prev = None
        for _ in range(40):
            nh = fixed_point_map(h, params)
            r = float(np.max(np.abs(nh.values - h.values)))
            if prev is not None and prev > 1e-13:
                assert r <= prev * (g + 1e-3)
            prev = r
            h = nh
            if r < 1e-13:
                break

    def test_refuses_slope_beyond_certified_threshold(self):
        gamma = 1.0
        b1 = contraction_threshold(gamma)
        with pytest.raises(ContractionError):
            solve_gme(GMEParams(1.01 * b1, gamma, 2.0))

    def test_override_solves_and_flags_uncertified(self):
        gamma = 1.0
        b1 = contraction_threshold(gamma)
        sol = solve_gme(GMEParams(1.05 * b1, gamma, 2.0), allow_unproven=True)
        assert not sol.contraction_certified
        assert sol.residual <= DEFAULT_CONFIG.fp_tol
        v = sol.phi.values
        assert np.all(np.diff(v) >= 0.0) and v[-1] == 1.0

    @pytest.mark.parametrize(
        "params",
        [GMEParams(0.0, 1e13, 1.0), GMEParams(0.0, math.inf, 1e-300)],
        ids=["threshold-rounds-to-zero", "prescribed-value-tiny-lam"],
    )
    def test_slope_meeting_the_inequality_is_certified(self, params):
        # Tiny thresholds: about 3.8e-14 at gamma = 1e13 and 3.8e-301 for
        # the prescribed-value variant at lam = 1e-300.
        sol = solve_gme(params, SolverConfig(grid_n=31))
        assert sol.contraction_certified

    def test_tiny_gamma_is_certified(self):
        # The threshold at gamma = 1e-300 is about 1e120; its search used to
        # stop growing the bracket at 1.15e18.
        sol = solve_gme(GMEParams(0.1, 1e-300, 1.0), SolverConfig(grid_n=31))
        assert sol.contraction_certified and sol.iterations == 1

    def test_subnormal_gamma_fails_at_the_first_update(self):
        # 1/gamma overflows, so the first update is nan: the solve stops there.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FixedPointError, match="nan") as excinfo:
                solve_gme(GMEParams(0.1, 1e-320, 1.0))
        assert excinfo.value.iterations == 1 and math.isnan(excinfo.value.residual)

    @pytest.mark.parametrize("lam", [5e-309, 1e-310, 5e-324])
    def test_prescribed_value_at_subnormal_lam_fails_at_the_first_update(self, lam):
        # The normalizer 1/(0 + int E) overflows, so the first update is nan,
        # as for a subnormal gamma.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FixedPointError, match="nan") as excinfo:
                solve_gme(GMEParams(0.0, math.inf, lam))
        assert excinfo.value.iterations == 1 and math.isnan(excinfo.value.residual)

    @pytest.mark.parametrize("n", [5, 201])
    @pytest.mark.parametrize("lam", [1e155, 1e300])
    def test_huge_lam_solves_without_float_warnings(self, lam, n):
        # The inner integral, up to lam**2/2, overflows to inf, so E is 0 past
        # node 0: the profile jumps to 1 at node 1, or the rounding of d breaks
        # monotonicity (FixedPointError). A batch and lone solves agree.
        config = SolverConfig(grid_n=n)
        points = [(0.05, 1.0, lam), (0.0, math.inf, lam), (0.05, math.inf, lam)]
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _solve_rows(points, config, keep_profiles=True)
            for i, point in enumerate(points):
                got = rows.errors[i]
                try:
                    sol = solve_gme(GMEParams(*point), config)
                except FixedPointError as exc:
                    outcomes.add("failed")
                    assert (type(got), str(got)) == (FixedPointError, str(exc))
                    continue
                outcomes.add("solved")
                v = sol.phi.values
                assert v[0] == sol.d_coeff / point[1] and (v[1:] == 1.0).all() and sol.phi_prime_lambda == 0.0
                fields = (rows.profiles[i].tobytes(), rows.d_coeff[i], rows.phi_prime_lambda[i], rows.iterations[i], rows.residual[i])
                assert got is None
                assert fields == (v.tobytes(), sol.d_coeff, sol.phi_prime_lambda, sol.iterations, sol.residual)
        assert outcomes == ({"failed"} if (lam, n) == (1e300, 5) else {"solved"})

    def test_slope_failing_the_inequality_is_refused_at_huge_gamma(self):
        assert contraction_factor(1e-10, 1e13) > 1.0
        with pytest.raises(ContractionError):
            solve_gme(GMEParams(1e-10, 1e13, 1.0), SolverConfig(grid_n=31))

    @pytest.mark.parametrize("gamma", [1.0, 1e-300, math.inf])
    def test_huge_slope_is_refused_without_float_warnings(self, gamma):
        params, config = GMEParams(1e300, gamma, 1.0), SolverConfig(grid_n=31)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractionError, match="is at or above the certified contraction threshold"):
                solve_gme(params, config)
            try:
                sol = solve_gme(params, config, allow_unproven=True)
            except GmerfError:
                pass
            else:
                assert not sol.contraction_certified

    @pytest.mark.parametrize("gamma, lam", [(math.inf, 1.0), (1e300, 1.0), (1e300, 40.0)])
    def test_post_condition_breach_is_a_solver_failure(self, gamma, lam):
        # A converged profile that breaks a post-condition is an outcome of the
        # solve, not a bad input: FixedPointError with the post-condition's
        # text and the row's diagnostics.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FixedPointError, match="^solution profile is not non-decreasing$") as excinfo:
                solve_gme(GMEParams(1e10, gamma, lam), allow_unproven=True)
        assert excinfo.value.iterations == 3
        assert excinfo.value.residual <= DEFAULT_CONFIG.fp_tol

    def test_iteration_cap_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(fixed_point, "_FP_MAX_ITER", 1)
        with pytest.raises(FixedPointError) as excinfo:
            solve_gme(GMEParams(0.25, 1.0, 2.0))
        assert excinfo.value.iterations == 1
        assert math.isfinite(excinfo.value.residual)

    @given(
        beta_frac=st.floats(min_value=0.0, max_value=0.9),
        gamma=st.sampled_from([0.1, 1.0, 10.0]),
        lam=st.floats(min_value=0.5, max_value=6.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_solutions_are_monotone_profiles_in_band(self, beta_frac, gamma, lam):
        beta = beta_frac * contraction_threshold(gamma)
        sol = solve_gme(GMEParams(beta, gamma, lam), SolverConfig(grid_n=301))
        v = sol.phi.values
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        assert np.all(np.diff(v) >= 0.0)
        assert v[-1] == 1.0


def seed_profile(params, n):
    # The Picard seed of a solve on n nodes.
    return GridFunction(params.lam, _seed(_uniform_nodes(params.lam, n), params.gamma))


def lone_picard(params, config):
    """Reference: Picard on the public one-profile operator, one point at a time.

    Returns (values, d_coeff, phi_prime_lambda, iterations, residual); the
    first three are None when the iteration cap is reached.
    """
    h = seed_profile(params, config.grid_n)
    for iterations in range(1, fixed_point._FP_MAX_ITER + 1):
        nh = fixed_point_map(h, params)
        residual = float(np.max(np.abs(nh.values - h.values)))
        h = nh
        if residual <= config.fp_tol:
            _, d, weight = _apply(h.values, h.nodes, h.step, params.beta, 1.0 / params.gamma)
            return h.values, d, d * weight[-1], iterations, residual
    return None, None, None, iterations, residual


class TestSolveRows:
    # Iterations to converge at 101 nodes: 5, 2, 6, 5, -, -, 4, 7, 6, 2.
    POINTS = [
        (0.1, 1.0, 1.0),
        (0.0, 2.0, 0.5),
        (0.25, 1.0, 3.0),
        (0.05, math.inf, 0.8),
        (-0.1, 1.0, 1.0),  # invalid: ValueError
        (0.5, 10.0, 1.0),  # above the threshold: ContractionError
        (0.02, 3.0, 0.3),
        (0.2, math.inf, 2.0),
        (0.29, 1.0, 5.0),
        (0.0, math.inf, 1.0),
    ]

    @pytest.mark.parametrize("max_iter", [20000, 5])
    @pytest.mark.parametrize("chunk_rows", [None, 3, 1])
    def test_matches_lone_solves(self, monkeypatch, max_iter, chunk_rows):
        # chunk_rows = 1 iterates every row as a chunk of its own.
        config = SolverConfig(grid_n=101)
        monkeypatch.setattr(fixed_point, "_FP_MAX_ITER", max_iter)
        if chunk_rows is not None:
            monkeypatch.setattr(fixed_point, "_CHUNK_ELEMENTS", chunk_rows * config.grid_n)
        rows = _solve_rows(self.POINTS, config, keep_profiles=True)
        bare = _solve_rows(self.POINTS, config)
        assert len(rows.errors) == len(self.POINTS) and bare.profiles is None
        kinds = set()
        for i, point in enumerate(self.POINTS):
            got = rows.errors[i]
            assert type(bare.errors[i]) is type(got) and str(bare.errors[i]) == str(got)
            try:
                want = solve_gme(GMEParams(*point), config)
            except (GmerfError, ValueError) as exc:
                kinds.add(type(exc))
                assert type(got) is type(exc)
                assert str(got) == str(exc)
                if isinstance(exc, FixedPointError):
                    assert (got.iterations, got.residual) == (exc.iterations, exc.residual)
                    assert (got.iterations, got.residual) == lone_picard(GMEParams(*point), config)[3:]
                continue
            assert got is None
            numbers = (rows.d_coeff[i], rows.phi_prime_lambda[i], rows.iterations[i], rows.residual[i])
            fields = (rows.profiles[i].tobytes(), *numbers)
            assert numbers == (bare.d_coeff[i], bare.phi_prime_lambda[i], bare.iterations[i], bare.residual[i])
            assert fields == (want.phi.values.tobytes(), want.d_coeff, want.phi_prime_lambda, want.iterations, want.residual)
            values, d, slope, iterations, residual = lone_picard(GMEParams(*point), config)
            assert fields == (values.tobytes(), d, slope, iterations, residual)
        assert {ValueError, ContractionError} <= kinds
        assert (FixedPointError in kinds) == (max_iter == 5)

    @pytest.mark.parametrize("n", [3, 4, 5, 202])
    def test_rows_retiring_at_different_steps_match_lone_picard(self, monkeypatch, n):
        # Rows retire at different steps while their chunk iterates on; each
        # row's result is still its lone bits.
        config = SolverConfig(grid_n=n)
        monkeypatch.setattr(fixed_point, "_CHUNK_ELEMENTS", 4 * n)
        points = [point for i, point in enumerate(self.POINTS) if i not in (4, 5)]  # 2 chunks of 4
        rows = _solve_rows(points, config, keep_profiles=True)
        for start in (0, 4):
            assert len(set(rows.iterations[start : start + 4].tolist())) > 1
        for i, point in enumerate(points):
            values, d, slope, iterations, residual = lone_picard(GMEParams(*point), config)
            fields = (rows.profiles[i].tobytes(), rows.d_coeff[i], rows.phi_prime_lambda[i], rows.iterations[i], rows.residual[i])
            assert fields == (values.tobytes(), d, slope, iterations, residual)
            lone = solve_gme(GMEParams(*point), config)
            assert fields == (lone.phi.values.tobytes(), lone.d_coeff, lone.phi_prime_lambda, lone.iterations, lone.residual)

    def test_retired_rows_iterate_on_with_their_chunk(self, monkeypatch):
        # Rows that retire early stay in every step of their chunk, which
        # runs until its last row retires, then once more for the results.
        shapes, apply = [], fixed_point._apply

        def spy(v, *args, **kwargs):
            shapes.append(v.shape)
            return apply(v, *args, **kwargs)

        monkeypatch.setattr(fixed_point, "_apply", spy)
        config = SolverConfig(grid_n=101)
        points = [point for i, point in enumerate(self.POINTS) if i not in (4, 5)]
        rows = _solve_rows(points, config)
        assert len(set(rows.iterations.tolist())) > 1
        assert shapes == [(len(points), config.grid_n)] * (rows.iterations.max() + 1)

    def test_picard_steps_write_into_two_profile_buffers(self, monkeypatch):
        # Every image the loop makes is kept alive here, so fresh arrays per
        # step would show as one memory block per step.
        images, apply = [], fixed_point._apply

        def spy(*args, **kwargs):
            result = apply(*args, **kwargs)
            images.append(result[0])
            return result

        monkeypatch.setattr(fixed_point, "_apply", spy)
        sol = solve_gme(GMEParams(0.25, 1.0, 3.0), SolverConfig(grid_n=4001))
        assert sol.iterations >= 6 and len(images) == sol.iterations + 1
        assert len({image.ctypes.data for image in images}) <= 2

    def test_chunk_buffers_are_carved_from_one_block(self, monkeypatch):
        # The image, psi, weight, quadrature scratch and final profiles of a
        # chunk are views of one allocation, which the allocator then keeps
        # for the next chunk; the nodes and the seed are not. The second
        # chunk holds one row, on the same 2-D path.
        calls, seeds, apply, seed = [], [], fixed_point._apply, fixed_point._seed

        def spy(v, nodes, *args, out=None):
            calls.append((v, nodes, out))
            return apply(v, nodes, *args, out=out)

        def seed_spy(*args):
            seeds.append(seed(*args))
            return seeds[-1]

        monkeypatch.setattr(fixed_point, "_apply", spy)
        monkeypatch.setattr(fixed_point, "_seed", seed_spy)
        monkeypatch.setattr(fixed_point, "_CHUNK_ELEMENTS", 3 * 101)
        _solve_rows(self.POINTS[:6], SolverConfig(grid_n=101))
        assert len(seeds) == 2 and all(s.base is None for s in seeds)
        blocks, ndims = set(), set()
        for v, nodes, (tv, psi, weight, work) in calls:
            block = psi.base
            assert block is not None and block.ndim == 1 and block.base is None
            assert all(a.base is block for a in (weight, *work))
            # the block's image, or the seed or its row
            assert all(a.base is block or any(a is s or a.base is s for s in seeds) for a in (v, tv))
            assert not any(np.shares_memory(s, block) for s in seeds)
            assert nodes.base is not block
            blocks.add(id(block))
            ndims.add(v.ndim)
        assert len(blocks) == 2  # one per chunk
        assert ndims == {2}
        assert [v.shape[0] for v, _, _ in calls[:1] + calls[-1:]] == [3, 1]
        lasts = {id(psi.base): (v, tv, psi) for v, _, (tv, psi, _, _) in calls}  # each chunk's final call
        for final, image, psi in lasts.values():
            assert final.base is psi.base and not np.shares_memory(final, image)

    # Edge points, each solved in one batch of rows, in a batch of its own and
    # alone: zero-step nodes (lam = 1e-322), a subnormal gamma whose 1/gamma
    # overflows quietly into a nan update, huge gammas, lam = 40 at
    # gamma = inf, and slopes above the certified range, which are refused,
    # among ordinary points.
    EDGES = [
        (0.1, 1.0, 1.0),
        (0.1, 1.0, 1e-322),
        (0.1, 1e-320, 1.0),
        (0.1, 1e300, 1.0),
        (0.0, 1e300, 0.5),
        (0.01, math.inf, 40.0),
        (0.5, 10.0, 1.0),
        (3.0, 1.0, 2.0),
        (0.29, 1.0, 5.0),
        (0.2, math.inf, 2.0),
    ]

    @pytest.mark.parametrize("max_iter", [20000, 3])
    @pytest.mark.parametrize("n", [3, 4, 5, 201, 1001, 8193])
    def test_edge_points_match_between_lone_and_batched_solves(self, monkeypatch, n, max_iter):
        # The batch is one chunk up to 1001 nodes and a chunk per row at 8193.
        config = SolverConfig(grid_n=n)
        monkeypatch.setattr(fixed_point, "_FP_MAX_ITER", max_iter)
        kinds = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = _solve_rows(self.EDGES, config, keep_profiles=True)
            for i, point in enumerate(self.EDGES):
                alone = _solve_rows([point], config, keep_profiles=True)
                try:
                    want = solve_gme(GMEParams(*point), config)
                except ContractionError as exc:
                    kinds.add("refused")
                    for got in (batch.errors[i], alone.errors[0]):
                        assert (type(got), str(got)) == (ContractionError, str(exc))
                    continue
                except FixedPointError as exc:
                    kinds.add(exc.args[0].split(" ")[1])
                    for got in (batch.errors[i], alone.errors[0]):
                        assert (type(got), str(got), got.iterations, repr(got.residual)) == (
                            FixedPointError, str(exc), exc.iterations, repr(exc.residual)
                        )
                    continue
                kinds.add("solved")
                for rows, j in ((batch, i), (alone, 0)):
                    assert rows.errors[j] is None
                    fields = (rows.profiles[j].tobytes(), rows.d_coeff[j], rows.phi_prime_lambda[j], rows.iterations[j], rows.residual[j])
                    assert fields == (want.phi.values.tobytes(), want.d_coeff, want.phi_prime_lambda, want.iterations, want.residual)
        # "update" is the nan failure, "iteration" the cap's.
        assert {"solved", "update", "refused"} <= kinds
        assert ("iteration" in kinds) == (max_iter == 3)

    NAN = math.nan
    RAMP = [0.0, 0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize(
        "v, d, gamma, breach",
        [
            (RAMP, 0.5, 1.0, None),
            ([0.1, 0.25, 0.5, 0.75, 1.0], 1.0 + 1e-13, 1.0, None),  # d within gamma's 1e-12 slack
            ([0.2, 0.4, 0.6, 0.8, 1.0], 1e300, math.inf, None),
            ([-1e-300, 0.25, 0.5, 0.75, 1.0], 0.5, 1.0, 0),
            ([0.0, 0.5, 0.25, 0.75, 1.0], 0.5, 1.0, 1),
            ([0.0, 0.25, NAN, 0.75, 1.0], 0.5, 1.0, 1),
            ([NAN, 0.25, 0.5, 0.75, 1.0], 0.5, 1.0, 1),
            ([0.0, 0.25, 0.5, 0.75, NAN], 0.5, 1.0, 1),
            ([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53], 0.5, 1.0, 2),
            ([0.0, 0.25, 0.5, 0.75, 1.5], 0.5, 1.0, 2),
            (RAMP, 0.0, 1.0, 3),
            (RAMP, -0.5, 1.0, 3),
            (RAMP, 1.0 + 1e-11, 1.0, 3),
            (RAMP, NAN, 1.0, 3),
            (RAMP, math.inf, 1.0, 3),
            ([-0.5, 0.5, 0.25, 0.75, 0.5], NAN, 1.0, 0),  # the first breach names it
        ],
    )
    def test_lone_and_row_post_condition_tests_agree(self, v, d, gamma, breach):
        # `_fault` (lone solves) and `_faulty` (chunks of rows) test the same conditions.
        v = np.array(v)
        want = None if breach is None else _POST_CONDITIONS[breach].format(d=d)
        assert _fault(v, d, gamma) == want
        flags = _faulty(np.stack([v, np.array(self.RAMP)]), np.array([d, 0.5]), np.array([gamma, 1.0]))
        assert flags.tolist() == [breach is not None, False]

    def test_one_row_per_chunk_on_grids_beyond_the_budget(self):
        # At 8193 nodes each row is a chunk of its own, on the chunk path.
        config = SolverConfig(grid_n=8193)
        assert fixed_point._CHUNK_ELEMENTS // config.grid_n == 0
        points = [(0.1, 1.0, 1.0), (0.2, math.inf, 2.0)]
        rows = _solve_rows(points, config, keep_profiles=True)
        assert rows.errors == [None, None]
        for i, point in enumerate(points):
            want = solve_gme(GMEParams(*point), config)
            fields = (rows.profiles[i].tobytes(), rows.d_coeff[i], rows.phi_prime_lambda[i], rows.iterations[i], rows.residual[i])
            assert fields == (want.phi.values.tobytes(), want.d_coeff, want.phi_prime_lambda, want.iterations, want.residual)

    def test_empty_batch(self):
        rows = _solve_rows([], DEFAULT_CONFIG)
        assert rows.errors == [] and rows.d_coeff.shape == rows.iterations.shape == (0,)

    def test_nodes_match_lone_solves_next_to_an_underflowing_step(self):
        # At lam = 1e-322 the step lam / 200 underflows to 0; its row alone takes
        # linspace's zero-step formula, so its neighbours keep their lone nodes
        # and iterate to the same bits as their lone solves.
        config = SolverConfig(grid_n=201)
        points = [(0.1, 1.0, 0.7), (0.1, 1.0, 1e-322), (0.1, 1.0, 1.3)]
        rows = _solve_rows(points, config, keep_profiles=True)
        for i, point in enumerate(points):
            want = solve_gme(GMEParams(*point), config)
            fields = (rows.profiles[i].tobytes(), rows.d_coeff[i], rows.phi_prime_lambda[i], rows.iterations[i], rows.residual[i])
            assert fields == (want.phi.values.tobytes(), want.d_coeff, want.phi_prime_lambda, want.iterations, want.residual)
            if i != 1:
                values, d, slope, iterations, residual = lone_picard(GMEParams(*point), config)
                assert fields == (values.tobytes(), d, slope, iterations, residual)

    def test_every_failure_kind_in_one_batch(self, monkeypatch):
        # Each row gets the exception type and text of its lone solve, with no
        # floating-point warning: nan, inf and negative inputs, refused slopes
        # at finite and infinite gamma, a row capped at 6 iterations, the
        # under-resolved (0.01, 2, 5) at 4 nodes and a subnormal gamma,
        # among rows that solve.
        config = SolverConfig(grid_n=4)
        monkeypatch.setattr(fixed_point, "_FP_MAX_ITER", 6)
        points = [
            (math.nan, 1.0, 1.0),
            (0.1, 1.0, math.inf),
            (0.1, -1.0, 1.0),
            (-0.1, 1.0, 1.0),
            (0.1, 1.0, 1.0),
            (0.5, 10.0, 1.0),
            (1.0, math.inf, 1.0),
            (0.29, 1.0, 5.0),
            (0.01, 2.0, 5.0),
            (0.0, math.inf, 1.0),
            (0.1, 1e-320, 1.0),
            (0.2, 0.5, 3.0),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _solve_rows(points, config)
            for point, got in zip(points, rows.errors):
                try:
                    solve_gme(GMEParams(*point), config)
                except (GmerfError, ValueError) as exc:
                    assert (type(got), str(got)) == (type(exc), str(exc))
                else:
                    assert got is None
        failures = [exc for exc in rows.errors if exc is not None]
        assert len(failures) == 9
        assert {type(exc) for exc in failures} == {ValueError, ContractionError, FixedPointError}
        # The under-resolved row's post-condition breach is a solver failure.
        assert [type(exc) for exc in failures if str(exc) == "solution profile is not non-decreasing"] == [FixedPointError]
        assert [(exc.iterations, math.isnan(exc.residual)) for exc in failures if isinstance(exc, FixedPointError)] == [
            (6, False),
            (5, False),
            (1, True),
        ]

    @pytest.mark.parametrize("n", [2, 3, 201, 1001])
    def test_chunk_nodes_are_linspace_per_row(self, n):
        lams = np.array([[0.7], [1e-322], [5e-324], [1.3], [50.0]])
        nodes = _uniform_nodes(lams, n)
        for lam, row in zip(lams[:, 0], nodes):
            assert row.tobytes() == np.linspace(0.0, lam, n).tobytes()
            assert row.tobytes() == _uniform_nodes(float(lam), n).tobytes()


class TestPrescribedValueVariant:
    def test_starts_at_zero_and_ends_at_one(self):
        sol = solve_gme(GMEParams(0.1, math.inf, 2.0))
        assert sol.phi.values[0] == 0.0
        assert sol.phi.values[-1] == 1.0

    def test_constant_conductivity_is_scaled_erf(self):
        lam = 2.0
        sol = solve_gme(GMEParams(0.0, math.inf, lam))
        exact = np.array([math.erf(t) for t in sol.phi.nodes]) / math.erf(lam)
        assert np.max(np.abs(sol.phi.values - exact)) < CLOSED_FORM_TOL

    def test_matches_slope_shooting_oracle(self):
        lam, beta = 2.0, 0.2
        cfg = SolverConfig(grid_n=1001)
        sol = solve_gme(GMEParams(beta, math.inf, lam), cfg)
        oracle = shoot_bvp_dirichlet(beta, lam, cfg)
        assert np.max(np.abs(sol.phi.values - oracle.values)) < 1e-8

    def test_threshold_is_searched_only_to_word_a_refusal(self, monkeypatch):
        calls, search = [], fixed_point.dirichlet_contraction_threshold

        def counting(lam):
            calls.append(lam)
            return search(lam)

        monkeypatch.setattr(fixed_point, "dirichlet_contraction_threshold", counting)
        points = [(beta, math.inf, lam) for lam in (0.3, 1.0, 4.0) for beta in (0.0, 0.05)]
        rows = _solve_rows(points, SolverConfig(grid_n=51))
        assert rows.errors == [None] * len(points)
        assert calls == []
        lam = 10.0
        beta = 1.5 * search(lam)
        with pytest.raises(ContractionError) as refusal:
            solve_gme(GMEParams(beta, math.inf, lam))
        assert str(refusal.value) == (
            f"beta={beta:g} is at or above the certified contraction threshold {search(lam):.6g} for this problem"
        )
        assert calls == [lam]

    def test_threshold_guard_and_override(self):
        lam = 10.0
        thr = dirichlet_contraction_threshold(lam)
        with pytest.raises(ContractionError):
            solve_gme(GMEParams(1.5 * thr, math.inf, lam))
        sol = solve_gme(GMEParams(1.5 * thr, math.inf, lam), allow_unproven=True)
        assert not sol.contraction_certified
        assert np.all(np.diff(sol.phi.values) >= 0.0)


class TestGMESolutionValidation:
    def _mk(self, values, **overrides):
        lam = 1.0
        kwargs = dict(
            params=GMEParams(0.0, 1.0, lam),
            phi=GridFunction(lam, values),
            d_coeff=0.5,
            phi_prime_lambda=0.1,
            iterations=3,
            residual=1e-12,
        )
        kwargs.update(overrides)
        return GMESolution(**kwargs)

    def test_rejects_band_violation(self):
        with pytest.raises(ValueError):
            self._mk(np.array([0.0, 1.2, 1.0]))

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            self._mk(np.array([0.5, 0.4, 1.0]))

    def test_rejects_endpoint_off_one(self):
        with pytest.raises(ValueError):
            self._mk(np.array([0.0, 0.5, 0.999]))

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValueError):
            self._mk(np.array([0.0, 0.5, 1.0]), d_coeff=0.0)
