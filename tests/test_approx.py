"""Tests for the small-slope expansion: closed forms, residuals, error gauges."""

import math
import warnings

import numpy as np
import pytest

from gmerf.approx import (
    ApproxCoefficients,
    approx_coeffs,
    approx_error,
    first_order,
    zero_order,
)
from gmerf.fixed_point import (
    GMEParams,
    contraction_threshold,
    lipschitz_bound,
    solve_gme,
)

SQRT_PI = math.sqrt(math.pi)

ENDPOINT_TOL = 1e-10
ODE_RESIDUAL_TOL = 1e-5
SLOPE_TOL = 1e-8


class TestZeroOrder:
    def test_boundary_values(self):
        gamma, lam = 1.0, 2.0
        nu = 2.0 + gamma * SQRT_PI * math.erf(lam)
        assert zero_order(0.0, gamma, lam) == pytest.approx(2.0 / nu, rel=1e-14)
        assert zero_order(lam, gamma, lam) == pytest.approx(1.0, rel=1e-14)

    def test_exactly_one_at_lam(self):
        # erf(lam) enters as a scalar in nu and as an array at eta = lam;
        # both must round alike for the ratio to be exactly 1.
        rng = np.random.default_rng(6)
        for gamma, lam in zip(np.exp(rng.uniform(-5.0, 5.0, 50)), np.exp(rng.uniform(-4.0, 2.5, 50))):
            assert zero_order(lam, gamma, lam) == 1.0
            assert zero_order(np.array([0.0, lam]), gamma, lam)[-1] == 1.0

    def test_monotone_on_grid(self):
        x = np.linspace(0.0, 2.0, 201)
        y = zero_order(x, 1.0, 2.0)
        assert np.all(np.diff(y) > 0)

    def test_large_gamma_tends_to_scaled_erf(self):
        lam = 2.0
        x = np.linspace(0.0, lam, 101)
        y = zero_order(x, 1e6, lam)
        ref = np.array([math.erf(t) for t in x]) / math.erf(lam)
        assert np.max(np.abs(y - ref)) < 1e-5

    @pytest.mark.parametrize("gamma", [1e-320, 5e-324, 1e-17])
    def test_tiny_gamma_gives_the_flat_limit(self, gamma):
        # phi_0 -> 1 as gamma -> 0; a subnormal gamma used to overflow 2/gamma into nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert zero_order(0.5, gamma, 1.0) == 1.0
            assert zero_order(np.linspace(0.0, 1.0, 5), gamma, 1.0).tolist() == [1.0] * 5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            zero_order(0.5, math.inf, 1.0)
        with pytest.raises(ValueError):
            zero_order(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            zero_order(1.5, 1.0, 1.0)


class TestApproxCoefficients:
    def test_flux_condition_links_the_boundary_constants(self):
        # c1 = gamma c0 - gamma phi0(0) phi0'(0) with phi0(0) phi0'(0) = 4 gamma / nu^2
        for gamma, lam in [(0.1, 1.0), (1.0, 2.0), (5.0, 5.0)]:
            co = approx_coeffs(gamma, lam)
            assert co.c1 == pytest.approx(gamma * co.c0 - 4.0 * gamma / co.nu**2, rel=1e-12)

    def test_tiny_gamma_keeps_nu_minus_2(self):
        # nu rounds to exactly 2 at gamma = 1e-17; nu - 2 is carried on its own.
        gamma = 1e-17
        co = approx_coeffs(gamma, 1.0)
        assert co.nu == 2.0
        assert co.nu_minus_2 == pytest.approx(gamma * SQRT_PI * math.erf(1.0), rel=1e-14)
        assert co.c1 == pytest.approx(gamma * co.c0 - gamma, rel=1e-12)
        assert float(first_order(1.0, co)) == pytest.approx(0.0, abs=1e-30)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            approx_coeffs(0.0, 1.0)
        with pytest.raises(ValueError):
            approx_coeffs(1.0, -2.0)

    def test_huge_gamma_is_rejected_where_nu_squared_overflows(self):
        # nu**2 is finite up to gamma of about 9e153 at lam = 1. Beyond it, and at
        # 1.7e308 where nu itself is inf, a ValueError and no float warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            co = approx_coeffs(1e153, 1.0)
            assert math.isfinite(co.c0) and math.isfinite(co.c1)
            assert np.all(np.isfinite(first_order(np.linspace(0.0, 1.0, 11), co)))
            for gamma in (9e153, 1e307, 1.7e308):
                with pytest.raises(ValueError, match=r"too large for the first-order closed form at lam=1: nu\*\*2 overflows"):
                    approx_coeffs(gamma, 1.0)
            with pytest.raises(ValueError, match=r"nu\*\*2 overflows"):
                ApproxCoefficients(gamma=1e307, lam=1.0, nu_minus_2=1e307, c0=0.0, c1=0.0)


class TestFirstOrder:
    def test_vanishes_at_endpoint(self):
        for gamma, lam in [(0.1, 1.0), (1.0, 2.0), (1.0, 10.0), (10.0, 5.0)]:
            co = approx_coeffs(gamma, lam)
            assert abs(float(first_order(lam, co))) < ENDPOINT_TOL

    def test_starts_at_constant_term(self):
        co = approx_coeffs(1.0, 2.0)
        assert float(first_order(0.0, co)) == pytest.approx(co.c0, rel=1e-12)

    def test_slope_at_origin_matches_linear_term(self):
        co = approx_coeffs(1.0, 2.0)
        x = np.linspace(0.0, 2.0, 2001)
        f1 = first_order(x, co)
        h = x[1] - x[0]
        slope = (-25 * f1[0] + 48 * f1[1] - 36 * f1[2] + 16 * f1[3] - 3 * f1[4]) / (12 * h)
        assert abs(slope - co.c1) < SLOPE_TOL

    def test_satisfies_first_order_balance(self):
        # phi1'' + 2 eta phi1' = -(phi0 phi0')' checked by central differences
        gamma, lam = 1.0, 2.0
        co = approx_coeffs(gamma, lam)
        x = np.linspace(0.0, lam, 2001)
        h = x[1] - x[0]
        f1 = first_order(x, co)
        f0 = zero_order(x, gamma, lam)
        d1f1 = (f1[2:] - f1[:-2]) / (2 * h)
        d2f1 = (f1[2:] - 2 * f1[1:-1] + f1[:-2]) / (h * h)
        d1f0 = (f0[2:] - f0[:-2]) / (2 * h)
        d2f0 = (f0[2:] - 2 * f0[1:-1] + f0[:-2]) / (h * h)
        lhs = d2f1 + 2 * x[1:-1] * d1f1
        rhs = -(d1f0**2 + f0[1:-1] * d2f0)
        assert np.max(np.abs(lhs - rhs)) < ODE_RESIDUAL_TOL

    def test_scalar_and_array_evaluation_agree(self):
        co = approx_coeffs(0.5, 1.5)
        x = np.linspace(0.0, 1.5, 7)
        arr = first_order(x, co)
        assert np.allclose(arr, [float(first_order(t, co)) for t in x], atol=1e-15)


class TestApproxError:
    def test_vanishes_for_zero_slope(self):
        sol = solve_gme(GMEParams(0.0, 1.0, 2.0))
        assert approx_error(0, sol) < 1e-8
        assert approx_error(1, sol) < 1e-8

    def test_zero_order_error_bounded_by_lipschitz_line(self):
        for gamma, lam in [(0.1, 1.0), (1.0, 5.0)]:
            beta = 0.5 * contraction_threshold(gamma)
            sol = solve_gme(GMEParams(beta, gamma, lam))
            assert approx_error(0, sol) <= lipschitz_bound(beta, gamma) * beta

    def test_zero_order_error_scales_linearly_in_slope(self):
        gamma, lam = 1.0, 2.0
        ratios = []
        for beta in (1e-3, 1e-4):
            sol = solve_gme(GMEParams(beta, gamma, lam))
            ratios.append(approx_error(0, sol) / beta)
        assert abs(ratios[0] - ratios[1]) / ratios[1] < 0.05

    def test_first_order_improves_on_zero_order(self):
        for gamma, lam, beta in [
            (1.0, 1.0, 0.2),
            (1.0, 5.0, 0.9 * contraction_threshold(1.0)),
            (0.1, 10.0, 1.55),
        ]:
            sol = solve_gme(GMEParams(beta, gamma, lam))
            assert approx_error(1, sol) < approx_error(0, sol)

    def test_rejects_unknown_order_and_prescribed_value_solutions(self):
        sol = solve_gme(GMEParams(0.1, 1.0, 2.0))
        with pytest.raises(ValueError):
            approx_error(2, sol)
        dag = solve_gme(GMEParams(0.1, math.inf, 2.0))
        with pytest.raises(ValueError):
            approx_error(0, dag)
