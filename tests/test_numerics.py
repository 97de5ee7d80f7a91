"""Tests for grid containers, quadrature, root finding, and shooting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmerf import numerics
from gmerf.errors import BracketError, RootConvergenceError
from gmerf.fixed_point import GMEParams, SolverConfig
from gmerf.numerics import (
    GridFunction,
    RootBracket,
    _cumint,
    bracket_root,
    cumulative_integral,
    erf,
    find_root,
)
from oracles import shoot_bvp, shoot_bvp_dirichlet

SERIES_TOL = 1e-13
ERF_ULPS = 4
QUAD_EXACT_TOL = 1e-12
ROOT_TOL = 1e-12

SQRT_PI = math.sqrt(math.pi)


def erf_series(x: float) -> float:
    # Maclaurin series oracle, independent of the library routine. Converges
    # comfortably for |x| <= 3 with 80 terms.
    acc = []
    term = x
    for k in range(80):
        acc.append(term / (2 * k + 1))
        term *= -x * x / (k + 1)
    return 2.0 / SQRT_PI * math.fsum(acc)


class TestErf:
    def test_matches_series_oracle_on_core_range(self):
        xs = np.linspace(0.0, 3.0, 61)
        for x in xs:
            assert abs(float(erf(x)) - erf_series(float(x))) < SERIES_TOL

    def test_reference_value(self):
        # frozen from the series oracle above
        assert abs(float(erf(1.0)) - 0.8427007929497149) < 1e-15

    def test_odd_and_saturating(self):
        assert float(erf(0.0)) == 0.0
        assert float(erf(-1.5)) == -float(erf(1.5))
        assert abs(float(erf(6.0)) - 1.0) < 1e-15

    def test_elementwise_and_increasing(self):
        xs = np.linspace(-2.0, 2.0, 101)
        ys = erf(xs)
        assert ys.shape == xs.shape
        assert np.all(np.diff(ys) > 0)

    def test_within_four_ulps_of_math_erf(self):
        rng = np.random.default_rng(20261018)
        xs = np.concatenate([rng.uniform(-7.0, 7.0, 60_000), rng.uniform(0.0, 50.0, 40_000)])
        exact = np.array([math.erf(t) for t in xs])
        assert np.all(np.abs(erf(xs) - exact) <= ERF_ULPS * np.spacing(np.abs(exact)))

    def test_branch_edges_and_subnormals(self):
        tiny = np.nextafter(0.0, 1.0)
        edges = [1.0, 8.0, 2.2250738585072014e-308, 1e-310, tiny, 1e300]
        xs = np.array([np.nextafter(e, d) for e in edges for d in (0.0, np.inf)] + edges)
        xs = np.concatenate([xs, -xs])
        exact = np.array([math.erf(t) for t in xs])
        assert np.all(np.abs(erf(xs) - exact) <= ERF_ULPS * np.spacing(np.abs(exact)))

    def test_signed_zeros_infinities_and_nan(self):
        ys = erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert ys[0] == 0.0 and not np.signbit(ys[0])
        assert ys[1] == 0.0 and np.signbit(ys[1])
        assert ys[2] == 1.0 and ys[3] == -1.0
        assert np.isnan(ys[4])
        assert np.isnan(erf(math.nan))

    def test_any_memory_layout_gives_the_same_values(self):
        xs = np.random.default_rng(7).uniform(-9.0, 9.0, (40, 50))
        for view in (xs.T, xs[:, ::3], xs[::-2].T):
            ys = erf(view)
            assert ys.shape == view.shape
            assert ys.tobytes() == erf(np.ascontiguousarray(view)).tobytes()

    def test_scalar_and_one_element_array_agree_bitwise(self):
        # A float takes its own path; both branches, the branch edges, the
        # saturated range, subnormals, signed zeros, infinities and nan.
        rng = np.random.default_rng(3)
        edges = [0.0, -0.0, 1e-310, 5e-324, 1.0, -1.0, 1.0000000000000002, np.nextafter(8.0, 0.0), 8.0, 40.0]
        xs = np.concatenate([
            edges,
            [math.inf, -math.inf, math.nan],
            rng.uniform(-1.0, 1.0, 4000),
            rng.uniform(-9.0, 9.0, 4000),
            rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-320.0, 2.0, 2000),
        ])
        got = np.array([erf(x) for x in xs.tolist()])
        assert all(isinstance(erf(x), float) for x in xs[:13].tolist())
        assert got.tobytes() == erf(xs).tobytes()
        for x in xs[:13].tolist():
            assert np.float64(erf(x)).tobytes() == erf(np.array([x]))[0].tobytes(), x


class TestGridFunction:
    def test_nodes_and_step(self):
        f = GridFunction(2.0, np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
        assert f.n == 5
        assert f.step == pytest.approx(0.5)
        assert np.allclose(f.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_interpolation(self):
        f = GridFunction(1.0, np.array([0.0, 2.0, 1.0]))
        assert f(0.5) == pytest.approx(2.0)
        assert f(0.25) == pytest.approx(1.0)
        assert f(1.0) == pytest.approx(1.0)
        out = f(np.array([0.0, 0.75]))
        assert np.allclose(out, [0.0, 1.5])

    def test_rejects_out_of_domain_queries(self):
        f = GridFunction(1.0, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            f(1.5)
        with pytest.raises(ValueError):
            f(-0.1)

    @pytest.mark.parametrize(
        "lam,values",
        [
            (0.0, [0.0, 1.0]),
            (-1.0, [0.0, 1.0]),
            (math.inf, [0.0, 1.0]),
            (1.0, [0.0]),
            (1.0, [[0.0, 1.0]]),
            (1.0, [0.0, math.nan]),
        ],
    )
    def test_rejects_bad_construction(self, lam, values):
        with pytest.raises(ValueError):
            GridFunction(lam, np.array(values, dtype=float))

    def test_values_are_defensively_copied_and_read_only(self):
        src = np.array([0.0, 1.0, 2.0])
        f = GridFunction(1.0, src)
        src[0] = 99.0
        assert f.values[0] == 0.0
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_nodes_are_built_once_and_read_only(self):
        f = GridFunction(2.0, np.zeros(5))
        assert f.nodes is f.nodes
        with pytest.raises(ValueError):
            f.nodes[0] = 5.0


class TestCumulativeIntegral:
    def test_starts_at_zero(self):
        f = GridFunction(1.0, np.ones(11))
        assert cumulative_integral(f).values[0] == 0.0

    def test_exact_for_quadratics_at_every_node(self):
        # antiderivative oracle: for f = 3x^2 - 2x + 1, F = x^3 - x^2 + x
        x = np.linspace(0.0, 2.0, 17)
        f = GridFunction(2.0, 3 * x**2 - 2 * x + 1)
        exact = x**3 - x**2 + x
        assert np.max(np.abs(cumulative_integral(f).values - exact)) < QUAD_EXACT_TOL

    def test_exact_for_cubics_at_even_nodes(self):
        x = np.linspace(0.0, 1.0, 21)
        f = GridFunction(1.0, x**3)
        out = cumulative_integral(f).values
        assert np.max(np.abs(out[::2] - (x**4 / 4.0)[::2])) < QUAD_EXACT_TOL

    def test_two_node_trapezoid(self):
        f = GridFunction(1.0, np.array([1.0, 3.0]))
        assert cumulative_integral(f).values[1] == pytest.approx(2.0)

    def test_fourth_order_convergence(self):
        # antiderivative oracle: integral of exp(-x^2) is (sqrt(pi)/2) erf(x)
        errs = []
        for n in (33, 65, 129):
            x = np.linspace(0.0, 2.0, n)
            f = GridFunction(2.0, np.exp(-(x**2)))
            exact = 0.5 * SQRT_PI * np.array([math.erf(t) for t in x])
            errs.append(np.max(np.abs(cumulative_integral(f).values - exact)))
        assert errs[0] / errs[1] > 10.0
        assert errs[1] / errs[2] > 10.0

    def test_smooth_positive_integrand_gives_increasing_cumulative(self):
        x = np.linspace(0.0, 3.0, 301)
        f = GridFunction(3.0, np.exp(-(x**2)) + 0.01)
        assert np.all(np.diff(cumulative_integral(f).values) > 0)

    def test_decaying_tail_panel_is_floored(self):
        # the closing quadratic overshoots below zero on [h, 2h] for this data
        f = GridFunction(1.0, np.array([1.0, 0.0, 0.0]))
        out = cumulative_integral(f).values
        assert out[1] >= 0.0
        assert out[1] >= out[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 201])
    def test_rows_match_one_dimensional_calls_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        rows = np.vstack(
            [
                rng.uniform(-0.5, 1.0, n),  # mixed signs: no flooring
                rng.uniform(0.0, 1.0, n),
                np.exp(-np.linspace(0.0, 12.0, n) ** 2),  # steep tail: floored panels
                np.r_[0.0, 0.0, np.ones(n - 2)],  # floored first panel
            ]
        )
        steps = np.array([[0.3], [0.01], [12.0 / (n - 1)], [0.5]])
        batch = _cumint(rows, steps)
        for row, step, got in zip(rows, steps[:, 0], batch):
            assert got.tobytes() == _cumint(row, float(step)).tobytes()

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=2,
            max_size=60,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_data_properties(self, samples):
        f = GridFunction(1.0, np.array(samples))
        out = cumulative_integral(f).values
        # non-negative everywhere, no step down into an odd node, and the
        # even-node (pure Simpson) subsequence is non-decreasing
        assert np.all(out >= -1e-15)
        assert np.all(out[1::2] - out[0:-1:2] >= -1e-15)
        assert np.all(np.diff(out[::2]) >= -1e-15)

    @given(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_linear_data_is_integrated_exactly(self, a, b):
        x = np.linspace(0.0, 1.0, 11)
        f = GridFunction(1.0, a * x + b)
        exact = 0.5 * a * x**2 + b * x
        assert np.max(np.abs(cumulative_integral(f).values - exact)) < 1e-13


class TestRootBracket:
    def test_valid_bracket(self):
        br = RootBracket(0.0, 2.0, -1.0, 3.0)
        assert br.lo == 0.0 and br.hi == 2.0

    @pytest.mark.parametrize(
        "lo,hi,f_lo,f_hi",
        [
            (2.0, 0.0, -1.0, 1.0),
            (0.0, 1.0, 1.0, 2.0),
            (0.0, 1.0, -1.0, -2.0),
            (0.0, math.inf, -1.0, 1.0),
            (0.0, 1.0, math.nan, 1.0),
        ],
    )
    def test_rejects_bad_brackets(self, lo, hi, f_lo, f_hi):
        with pytest.raises(BracketError):
            RootBracket(lo, hi, f_lo, f_hi)

    def test_zero_endpoint_value_is_a_valid_bracket(self):
        RootBracket(0.0, 1.0, 0.0, 1.0)


class TestBracketRoot:
    def test_slides_and_doubles_to_enclose(self):
        br = bracket_root(lambda x: x * x - 50.0, 0.5, 1.0)
        assert br.f_lo < 0.0 < br.f_hi
        assert br.lo < math.sqrt(50.0) <= br.hi

    def test_respects_max_hi(self):
        with pytest.raises(BracketError):
            bracket_root(lambda x: x * x - 1e9, 0.5, 1.0, max_hi=100.0)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            bracket_root(lambda x: 1.0 + x * x, 0.1, 1.0)


class TestFindRoot:
    def test_sqrt_two(self):
        f = lambda x: x * x - 2.0
        root = find_root(f, RootBracket(1.0, 2.0, f(1.0), f(2.0)))
        assert abs(root - 1.4142135623730951) < 1e-12

    def test_erf_inverse_point(self):
        # self-validated: the root must put the function value at 0
        f = lambda x: float(erf(x)) - 0.5
        root = find_root(f, RootBracket(0.0, 1.0, f(0.0), f(1.0)))
        assert abs(f(root)) < 1e-14
        assert abs(root - 0.4769362762044699) < 1e-12

    def test_starts_from_the_bracket_values(self):
        # f(lo) and f(hi) come with the bracket; Brent evaluates only its own
        # iterates: 6 calls on this bracket, where evaluating both ends again
        # would take 8.
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 2.0

        br = RootBracket(1.0, 2.0, -1.0, 2.0)
        root = find_root(f, br)
        assert len(calls) == 6
        assert br.lo not in calls and br.hi not in calls
        assert abs(root - math.sqrt(2.0)) < ROOT_TOL

    @pytest.mark.parametrize("bracket", [RootBracket(0.5, 1.0, 0.0, 2.0), RootBracket(0.0, 0.5, -1.0, 0.0)], ids=["lo", "hi"])
    def test_returns_an_endpoint_whose_value_is_zero(self, bracket):
        def f(x):
            raise AssertionError("the root is an endpoint; f must not be called")

        assert find_root(f, bracket) == 0.5

    def test_bisects_where_a_step_divides_by_zero(self):
        # Beyond x = 0.96, exp(-800 x^2) underflows and f is the constant
        # -1e-300: two equal values zero the extrapolation's divisor, where
        # brentq.c gets inf or nan and bisects. With the same tolerances it
        # evaluates 33 iterates here.
        calls = []

        def f(x):
            calls.append(x)
            return math.exp(-800.0 * x * x) - 1e-300

        root = find_root(f, RootBracket(0.0, 1.0, f(0.0), f(1.0)))
        assert abs(root - math.sqrt(300.0 * math.log(10.0) / 800.0)) < ROOT_TOL
        assert len(calls) == 2 + 33

    def test_nan_function_value_raises(self):
        br = RootBracket(0.0, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="nan"):
            find_root(lambda x: math.nan, br)

    def test_exhausted_iterations_reports_best(self, monkeypatch):
        monkeypatch.setattr(numerics, "_BRENT_MAX_ITER", 2)
        f = lambda x: x**3 - 2.0
        br = RootBracket(0.0, 2.0, f(0.0), f(2.0))
        with pytest.raises(RootConvergenceError, match="after 2 iterations") as excinfo:
            find_root(f, br)
        assert math.isfinite(excinfo.value.best)
        assert 0.0 <= excinfo.value.best <= 2.0


class TestShooting:
    def test_constant_conductivity_matches_closed_form(self):
        # beta = 0 linearizes the profile equation; oracle is the closed form
        gamma, lam = 1.0, 2.0
        prof = shoot_bvp(GMEParams(0.0, gamma, lam), SolverConfig(grid_n=1001))
        x = prof.nodes
        nu = 2.0 + gamma * SQRT_PI * math.erf(lam)
        exact = (2.0 + gamma * SQRT_PI * erf(x)) / nu
        assert np.max(np.abs(prof.values - exact)) < 1e-9

    def test_endpoint_hits_one(self):
        prof = shoot_bvp(GMEParams(0.25, 1.0, 2.0), SolverConfig(grid_n=1001))
        assert abs(prof.values[-1] - 1.0) < 1e-12

    def test_flux_condition_residual_at_origin(self):
        beta, gamma, lam = 0.25, 1.0, 2.0
        prof = shoot_bvp(GMEParams(beta, gamma, lam), SolverConfig(grid_n=1001))
        v, h = prof.values, prof.step
        slope0 = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
        assert abs((1.0 + beta * v[0]) * slope0 - gamma * v[0]) < 1e-6

    def test_fourth_order_in_step(self):
        params = GMEParams(0.25, 1.0, 2.0)
        fine = shoot_bvp(params, SolverConfig(grid_n=8001)).values
        errs = []
        for n in (251, 501, 1001):
            coarse = shoot_bvp(params, SolverConfig(grid_n=n)).values
            idx = np.linspace(0, 8000, n).astype(int)
            errs.append(np.max(np.abs(coarse - fine[idx])))
        assert errs[0] / errs[1] > 10.0
        assert errs[1] / errs[2] > 10.0

    def test_rejects_infinite_gamma(self):
        with pytest.raises(ValueError):
            shoot_bvp(GMEParams(0.0, math.inf, 1.0), SolverConfig())

    def test_prescribed_value_variant_constant_conductivity(self):
        lam = 2.0
        prof = shoot_bvp_dirichlet(0.0, lam, SolverConfig(grid_n=1001))
        x = prof.nodes
        exact = np.array([math.erf(t) for t in x]) / math.erf(lam)
        assert np.max(np.abs(prof.values - exact)) < 1e-9
        assert prof.values[0] == pytest.approx(0.0, abs=1e-12)
