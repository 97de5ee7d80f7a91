"""Tests for the physical layer: front coefficient, temperature field, limits."""

import math
import warnings

import numpy as np
import pytest

from gmerf import stefan
from gmerf.errors import BracketError, ContractionError
from gmerf.fixed_point import (
    DEFAULT_CONFIG,
    GMEParams,
    SolverConfig,
    contraction_threshold,
    dirichlet_contraction_threshold,
    solve_gme,
)
from gmerf.stefan import (
    _BOUND_PAD,
    _SCAN_CONFIG,
    PhysicalParams,
    _bound_crossing,
    _log_phi_prime_lower,
    _log_phi_prime_upper,
    _solved,
    boundary_slope_ratio,
    dirichlet_gap,
    front_position,
    phi_prime_bounds,
    solve_dirichlet,
    solve_lambda,
    solve_stefan,
    temperature,
)

SQRT_PI = math.sqrt(math.pi)

CLOSED_FORM_TOL = 1e-8
BALANCE_TOL = 1e-9


def sample_physical(**overrides):
    kwargs = dict(rho=1.2, c=2.5, l=80.0, k0=1.7, h0=1.0, tf=1.0, tinf=-1.0, beta=0.25)
    kwargs.update(overrides)
    return PhysicalParams(**kwargs)


def random_physical(rng):
    # A physical case with gamma in [0.1, 10], beta below 0.9 of its threshold
    # and Ste in [0.05, 5].
    gamma = 10.0 ** rng.uniform(-1.0, 1.0)
    beta = rng.uniform(0.0, 0.9) * contraction_threshold(gamma)
    ste = 10.0 ** rng.uniform(-1.3, 0.7)
    rho, c = rng.uniform(500.0, 9000.0), rng.uniform(100.0, 4500.0)
    k0 = 10.0 ** rng.uniform(-1.0, 2.6)
    tinf = rng.uniform(-60.0, 0.0)
    tf = tinf + rng.uniform(1.0, 60.0)
    h0 = gamma * k0 / (2.0 * math.sqrt(k0 / (rho * c)))
    return PhysicalParams(rho=rho, c=c, l=c * (tf - tinf) / ste, k0=k0, h0=h0, tf=tf, tinf=tinf, beta=beta)


class TestPhysicalParams:
    def test_derived_groups(self):
        p = sample_physical()
        assert p.alpha0 == pytest.approx(1.7 / (1.2 * 2.5))
        assert p.ste == pytest.approx(2.5 * 2.0 / 80.0)
        assert p.bi == pytest.approx(1.0 * math.sqrt(p.alpha0) / 1.7)
        assert p.gamma == pytest.approx(2.0 * p.bi)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"rho": 0.0},
            {"c": -1.0},
            {"l": math.nan},
            {"k0": 0.0},
            {"h0": -2.0},
            {"tf": -1.0, "tinf": -1.0},
            {"tf": -2.0, "tinf": -1.0},
            {"beta": -0.1},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            sample_physical(**overrides)


class TestBoundarySlopeRatio:
    def test_constant_conductivity_closed_form(self):
        # phi0'(lam)/lam = 2 gamma e^{-lam^2} / (lam (2 + gamma sqrt(pi) erf lam))
        for gamma in (0.1, 1.0, 10.0):
            for lam in (0.5, 1.0, 2.0):
                mine = boundary_slope_ratio(lam, 0.0, gamma)
                nu = 2.0 + gamma * SQRT_PI * math.erf(lam)
                exact = 2.0 * gamma * math.exp(-lam * lam) / (lam * nu)
                assert mine == pytest.approx(exact, rel=CLOSED_FORM_TOL)

    def test_decreasing_in_lam(self):
        vals = [boundary_slope_ratio(lam, 0.1, 1.0) for lam in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ValueError):
            boundary_slope_ratio(0.0, 0.1, 1.0)

    def test_solutions_are_cached_per_process(self):
        a = _solved(0.1, 1.0, 1.25, DEFAULT_CONFIG)
        b = _solved(0.1, 1.0, 1.25, DEFAULT_CONFIG)
        assert a is b

    def test_one_stefan_solve_computes_the_threshold_once(self):
        physical = sample_physical(h0=0.8, beta=0.2)
        _solved.cache_clear()
        contraction_threshold.cache_clear()
        solve_stefan(physical, SolverConfig(grid_n=201))
        info = contraction_threshold.cache_info()
        assert info.misses == 1
        assert info.hits == _solved.cache_info().misses - 1


class TestSolveLambda:
    def test_balance_holds_at_root(self):
        # At Ste = 1e300, phi'(lam) underflows to 0 above the root, where the
        # balance is the constant -rhs: a Brent step there divides by zero
        # and bisects; the root is near 27.47.
        for beta, gamma, ste, config in ((0.2, 1.0, 1.0, DEFAULT_CONFIG), (0.1, 1.0, 1e300, SolverConfig(grid_n=201))):
            lam = solve_lambda(beta, gamma, ste, config)
            rhs = 2.0 / ((1.0 + beta) * ste)
            assert abs(boundary_slope_ratio(lam, beta, gamma, config) - rhs) < BALANCE_TOL * rhs

    def test_matches_independent_bisection(self):
        beta, gamma, ste = 0.1, 0.5, 2.0
        lam = solve_lambda(beta, gamma, ste)
        rhs = 2.0 / ((1.0 + beta) * ste)
        lo, hi = 1e-6, 5.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if boundary_slope_ratio(mid, beta, gamma) > rhs:
                lo = mid
            else:
                hi = mid
        assert lam == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_constant_conductivity_satisfies_transcendental_equation(self):
        # lam e^{lam^2} (1 + sqrt(pi) Bi erf lam) = Bi Ste
        bi, ste = 1.0, 1.0
        lam = solve_lambda(0.0, 2.0 * bi, ste)
        resid = lam * math.exp(lam * lam) * (1.0 + SQRT_PI * bi * math.erf(lam)) - bi * ste
        assert abs(resid) < 1e-10

    def test_rejects_slope_of_minus_one(self):
        # 1 + beta vanishes in the balance's right-hand side.
        with pytest.raises(ValueError):
            solve_lambda(-1.0, 1.0, 1.0)

    def test_increasing_in_stefan_number(self):
        lams = [solve_lambda(0.1, 1.0, ste) for ste in (0.01, 0.1, 1.0, 10.0)]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_vanishing_stefan_number_sends_front_to_zero(self):
        assert solve_lambda(0.0, 1.0, 1e-4) < 0.01

    def test_unreachable_balance_raises(self):
        with pytest.raises(BracketError):
            solve_lambda(0.0, 1.0, 1e-280)

    def test_normal_solve_emits_no_multiplicity_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_lambda(0.2, 1.0, 1.0)

    def test_rejects_bad_stefan_number(self):
        with pytest.raises(ValueError):
            solve_lambda(0.1, 1.0, 0.0)

    @pytest.mark.parametrize("gamma", [math.nan, 0.0, -1.0, -math.inf])
    def test_rejects_bad_gamma_before_any_profile_solve(self, monkeypatch, gamma):
        def unreachable(*args, **kwargs):
            raise AssertionError("a profile was solved")

        monkeypatch.setattr(stefan, "boundary_slope_ratio", unreachable)
        with pytest.raises(ValueError, match=r"^gamma must be positive \(finite or inf\), got "):
            solve_lambda(0.1, gamma, 1.0)

    def test_readme_case_solves_few_profiles(self, monkeypatch):
        # The bound bracket holds lam* before any profile is solved, so the
        # root search solves at most 7 profiles on the case's grid; the
        # multiplicity scan solves 13 on its own.
        solved = []
        real = stefan.solve_gme
        monkeypatch.setattr(stefan, "solve_gme", lambda params, config: solved.append(config) or real(params, config))
        _solved.cache_clear()
        sol = solve_stefan(sample_physical(l=2.0), DEFAULT_CONFIG)
        assert sol.lambda_star == pytest.approx(0.59487, abs=1e-5)
        assert solved.count(DEFAULT_CONFIG) <= 7
        assert solved.count(_SCAN_CONFIG) <= 13
        assert len(solved) == _solved.cache_info().misses

    @pytest.mark.parametrize("gamma, ste, grid_n, below", [(1.0, 3.0, 5, True), (0.5, 20.0, 3, False)])
    def test_coarse_root_outside_the_bound_bracket_matches_bisection(self, gamma, ste, grid_n, below):
        # The bounds hold for the exact profile; a coarse grid's quadrature
        # error puts its own root outside them, and the bracket widens to it.
        beta, config = 0.0, SolverConfig(grid_n=grid_n)
        rhs = 2.0 / ((1.0 + beta) * ste)
        lo = _bound_crossing(_log_phi_prime_lower, beta, gamma, math.log(rhs)) * (1.0 - _BOUND_PAD)
        hi = _bound_crossing(_log_phi_prime_upper, beta, gamma, math.log(rhs)) * (1.0 + _BOUND_PAD)
        lam = solve_lambda(beta, gamma, ste, config)
        assert lam < lo if below else lam > hi
        a, b = 1e-6, 5.0
        for _ in range(200):
            mid = 0.5 * (a + b)
            if boundary_slope_ratio(mid, beta, gamma, config) > rhs:
                a = mid
            else:
                b = mid
        assert lam == pytest.approx(0.5 * (a + b), abs=1e-12)

    @pytest.mark.parametrize("beta, expected", [(0.001, 0.62024), (0.01, 0.62179)])
    def test_prescribed_value_front_probes_near_its_root(self, beta, expected):
        # At gamma = inf the certified slope range grows with lam; the search
        # solves profiles only near lam*, where beta is certified. The
        # multiplicity scan skips its points below lam* that beta = 0.01 is not.
        ste = 1.0
        lam = solve_lambda(beta, math.inf, ste)
        assert lam == pytest.approx(expected, abs=1e-5)
        rhs = 2.0 / ((1.0 + beta) * ste)
        assert abs(boundary_slope_ratio(lam, beta, math.inf) - rhs) < BALANCE_TOL * rhs

    @pytest.mark.parametrize(
        "ste, window, beyond_root",
        [(2.5, (0.03, 0.05), False), (2.5, (15.0, 20.0), True), (2e-10, (2e-11, 4e-11), False)],
    )
    def test_warns_on_spurious_sign_change(self, monkeypatch, ste, window, beyond_root):
        # H = 1/lam crosses rhs = 2/Ste once, at lam = Ste/2; inside the window
        # it jumps to the other side of rhs, a second sign change that the
        # scan probes near 0.039 (below the root) or near 17.2 (above it) for
        # Ste = 2.5. For Ste = 2e-10 the root is 1e-10, and the scan probes
        # near 2.5e-11: a tiny root keeps the scan points below it.
        def ratio(lam, beta, gamma, config=DEFAULT_CONFIG):
            if window[0] < lam < window[1]:
                return 1.0 if beyond_root else 0.5
            return 1.0 / lam

        monkeypatch.setattr("gmerf.stefan.boundary_slope_ratio", ratio)
        with pytest.warns(RuntimeWarning, match="changes sign again") as record:
            root = solve_lambda(0.0, 1.0, ste)
        assert root == pytest.approx(ste / 2.0, rel=1e-12)
        assert len(record) == 1
        assert record[0].filename == __file__
        near = float(str(record[0].message).split("near lam=")[1].split(";")[0])
        assert window[0] < near < window[1]


class TestSolveStefan:
    def test_front_balance_in_physical_variables(self):
        p = sample_physical()
        sol = solve_stefan(p)
        # k(tf) T_x = rho l s'(t) in similarity form
        lhs = sol.gme.phi_prime_lambda / sol.lambda_star
        rhs = 2.0 / ((1.0 + p.beta) * p.ste)
        assert lhs == pytest.approx(rhs, rel=1e-9)
        assert sol.gme.params.lam == sol.lambda_star
        assert sol.gme.params.gamma == pytest.approx(p.gamma)

    def test_out_of_regime_slope_reports_threshold(self):
        p = sample_physical(beta=0.5)
        with pytest.raises(ContractionError) as excinfo:
            solve_stefan(p)
        assert "threshold" in str(excinfo.value)

    def test_front_position_scales_as_sqrt_time(self):
        sol = solve_stefan(sample_physical())
        assert front_position(sol, 0.0) == 0.0
        assert front_position(sol, 4.0) == pytest.approx(2.0 * front_position(sol, 1.0))
        with pytest.raises(ValueError):
            front_position(sol, -1.0)

    def test_temperature_field_shape(self):
        p = sample_physical()
        sol = solve_stefan(p)
        t = 2.0
        s = front_position(sol, t)
        assert temperature(sol, s, t) == pytest.approx(p.tf, abs=1e-12)
        xs = np.linspace(0.0, s, 20)
        temps = [temperature(sol, x, t) for x in xs]
        assert all(a < b for a, b in zip(temps, temps[1:]))
        assert p.tinf < temps[0] < p.tf

    def test_temperature_on_the_front_is_tf_exactly(self):
        rng = np.random.default_rng(1)
        config = SolverConfig(grid_n=201)
        for _ in range(40):
            p = random_physical(rng)
            sol = solve_stefan(p, config)
            for t in 10.0 ** rng.uniform(0.0, 4.0, 3):
                assert temperature(sol, front_position(sol, t), t) == p.tf

    def test_temperature_is_the_profile_at_the_similarity_variable(self):
        # Bit for bit: tf from the front on, and before it the profile's
        # interpolant at eta = x / (2 sqrt(alpha0 t)), capped at lambda*.
        rng = np.random.default_rng(2)
        config = SolverConfig(grid_n=201)
        for _ in range(24):
            p = random_physical(rng)
            sol = solve_stefan(p, config)
            for t in 10.0 ** rng.uniform(-2.0, 4.0, 2):
                s = front_position(sol, t)
                near = [s * (1.0 - 1e-12), s * (1.0 - 1e-13), np.nextafter(s, 0.0), s, s * (1.0 + 1e-13)]
                for x in map(float, [0.0, *rng.uniform(0.0, s, 6), *near]):
                    eta = min(x / (2.0 * math.sqrt(p.alpha0 * t)), sol.lambda_star)
                    direct = p.tf if x >= s else p.tinf + (p.tf - p.tinf) * sol.gme.phi(eta)
                    assert temperature(sol, x, t) == direct, (x, t)

    def test_temperature_rejects_points_outside_solid_region(self):
        sol = solve_stefan(sample_physical())
        s = front_position(sol, 1.0)
        with pytest.raises(ValueError):
            temperature(sol, 1.1 * s, 1.0)
        with pytest.raises(ValueError):
            temperature(sol, -0.1, 1.0)
        with pytest.raises(ValueError):
            temperature(sol, 0.0, 0.0)


class TestPrescribedValueLimit:
    def test_default_allows_uncertified_slopes(self):
        lam = 10.0
        beta = 2.0 * dirichlet_contraction_threshold(lam)
        sol = solve_dirichlet(beta, lam)
        assert not sol.contraction_certified
        assert sol.phi.values[0] == 0.0

    def test_gap_decreases_and_scales_inversely_with_gamma(self):
        gaps = dirichlet_gap(0.0, 10.0, [0.1, 1.0, 10.0, 100.0, 1e4])
        vals = [g for _, g in gaps]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 2e-4

    def test_gap_preserves_input_order(self):
        gaps = dirichlet_gap(0.0, 2.0, [10.0, 0.1])
        assert [g for g, _ in gaps] == [10.0, 0.1]

    def test_empty_gamma_list_rejected(self):
        with pytest.raises(ValueError):
            dirichlet_gap(0.0, 2.0, [])


class TestDerivativeBounds:
    def test_sandwich_on_positive_slope_case(self):
        # beta at 0.2, 0.5 and 0.9 of the threshold. gamma/(1+beta)
        # e^{-lam/(1+beta)} alone falls below the solved slope at small lam,
        # as at (0.25, 0.886, 0.1); the upper value holds at every lam.
        for frac in (0.2, 0.5, 0.9):
            for gamma in (0.1, 0.886, 1.0, 3.0, 10.0):
                beta = frac * contraction_threshold(gamma)
                for lam in (0.02, 0.05, 0.1, 0.3, 1.0, 2.0):
                    slope = solve_gme(GMEParams(beta, gamma, lam)).phi_prime_lambda
                    lo, hi = phi_prime_bounds(beta, gamma, lam)
                    assert lo < slope < hi, (beta, gamma, lam)
                    assert slope <= gamma / (1.0 + beta)
        assert phi_prime_bounds(0.25, 0.886, 0.1)[1] > solve_gme(GMEParams(0.25, 0.886, 0.1)).phi_prime_lambda
        # Where the closed form holds, it is the upper value.
        assert phi_prime_bounds(0.2, 1.5, 2.0)[1] == 1.5 / 1.2 * math.exp(-2.0 / 1.2)

    def test_lower_bound_is_exact_for_constant_conductivity(self):
        for gamma, lam in [(0.1, 1.0), (1.0, 2.0), (10.0, 1.0)]:
            sol = solve_gme(GMEParams(0.0, gamma, lam))
            lo, hi = phi_prime_bounds(0.0, gamma, lam)
            assert abs(sol.phi_prime_lambda - lo) <= 1e-9 * max(lo, 1e-30)
            assert sol.phi_prime_lambda < hi

    def test_bounds_tend_to_slope_cap_at_small_lam(self):
        beta, gamma = 0.2, 1.0
        cap = gamma / (1.0 + beta)
        lo, hi = phi_prime_bounds(beta, gamma, 1e-8)
        assert lo == pytest.approx(cap, rel=1e-6)
        assert hi == pytest.approx(cap, rel=1e-6)

    def test_front_bracket_bounds_sandwich_solved_slopes(self):
        # The lower and upper bounds the front bracket starts from hold at
        # every lam, gamma = inf included, strictly for beta > 0 where the
        # slope is representable; at beta = 0 both are exact.
        rng = np.random.default_rng(11)
        for i in range(30):
            gamma = math.inf if i % 4 == 0 else 10.0 ** rng.uniform(-2.0, 2.0)
            lam = 40.0 if i % 6 == 1 else 10.0 ** rng.uniform(-2.0, math.log10(40.0))
            threshold = dirichlet_contraction_threshold(lam) if math.isinf(gamma) else contraction_threshold(gamma)
            beta = 0.0 if i % 5 == 2 else rng.uniform(0.05, 0.95) * threshold
            slope = solve_gme(GMEParams(beta, gamma, lam)).phi_prime_lambda
            lo = math.exp(_log_phi_prime_lower(beta, gamma, lam))
            hi = math.exp(_log_phi_prime_upper(beta, gamma, lam))
            if beta == 0.0:
                assert lo == pytest.approx(hi, rel=1e-14)
                assert slope == pytest.approx(lo, rel=1e-9, abs=1e-300)
            elif hi > 1e-300:
                assert lo < slope < hi, (beta, gamma, lam)
            else:
                assert lo <= slope <= hi, (beta, gamma, lam)
        # The lower bound is the one phi_prime_bounds returns.
        assert phi_prime_bounds(0.2, 1.5, 0.7)[0] == math.exp(_log_phi_prime_lower(0.2, 1.5, 0.7))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            phi_prime_bounds(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            phi_prime_bounds(0.1, math.inf, 1.0)
        with pytest.raises(ValueError):
            phi_prime_bounds(0.1, 1.0, 0.0)
