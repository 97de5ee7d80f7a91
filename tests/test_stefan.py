"""Tests for the physical layer: front coefficient, temperature field, limits."""

import math
import warnings

import numpy as np
import pytest

from gmerf import stefan
from gmerf.errors import BracketError, ContractionError, FixedPointError, RootConvergenceError
from gmerf.fixed_point import (
    DEFAULT_CONFIG,
    GMEParams,
    SolverConfig,
    _apply,
    contraction_threshold,
    dirichlet_contraction_threshold,
    solve_gme,
)
from gmerf.numerics import _uniform_nodes
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
from oracles import bracketed_front_root

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

    def test_returns_python_floats_that_may_underflow_to_zero(self):
        assert type(boundary_slope_ratio(0.5, 0.1, 1.0)) is float
        huge = boundary_slope_ratio(1e200, 0.0, 1.0)
        assert type(huge) is float and huge == 0.0

    def test_overflow_at_a_subnormal_lam_is_refused_naming_lam(self):
        # phi'(lam) is about gamma/(1+beta) there: its ratio to lam overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"is not finite at lam=1e-320$"):
                boundary_slope_ratio(1e-320, 0.1, 1.0)

    def test_solutions_are_cached_per_process(self):
        a = _solved(0.1, 1.0, 1.25, DEFAULT_CONFIG)
        b = _solved(0.1, 1.0, 1.25, DEFAULT_CONFIG)
        assert a is b


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

    @pytest.mark.parametrize("frac, gamma, ste, end", [(0.0, 1.0, 1e-280, "1e-12"), (0.95, 1e-6, 1e16, "50")])
    def test_loop_stepping_past_an_end_of_the_range_raises_naming_it(self, frac, gamma, ste, end):
        # The root lies below 1e-12, or above 50 at a slope of 0.95 of the threshold.
        beta = frac * contraction_threshold(gamma)
        with pytest.raises(BracketError, match=rf"^no sign change within \[1e-12, 50\]: the front loop steps past lam={end}$"):
            solve_lambda(beta, gamma, ste, SolverConfig(grid_n=201))

    @pytest.mark.parametrize("beta, gamma, ste, expected", [(0.25, 1.0, 1.5e308, 29.6833), (0.2, math.inf, 1.6e308, 29.1000)])
    def test_overflowing_balance_scale_keeps_a_representable_rhs(self, beta, gamma, ste, expected):
        # (1 + beta) Ste overflows, while rhs = 2/((1 + beta) Ste) is a normal
        # float; the converged balance changes sign within Brent's stopping distance.
        lam = solve_lambda(beta, gamma, ste)
        assert lam == pytest.approx(expected, rel=1e-5)
        rhs, d = 2.0 / (1.0 + beta) / ste, 1e-12 + 4.0 * math.ulp(1.0) * lam
        assert rhs > 0.0
        converged = SolverConfig(fp_tol=1e-15)

        def ratio(x):
            return solve_gme(GMEParams(beta, gamma, x), converged).phi_prime_lambda / x

        assert ratio(lam - d) >= rhs >= ratio(lam + d)

    def test_overflowing_balance_scale_above_the_threshold_is_refused(self):
        # beta = 1 is above gamma = 1's threshold of 0.2999.
        with pytest.raises(ContractionError, match=r"^beta=1 is at or above the certified contraction threshold 0\.2999"):
            solve_lambda(1.0, 1.0, 1.7e308)

    def test_unbalanced_loop_result_is_refused_with_its_lam_as_best(self, monkeypatch):
        # The profile solved at a lam 1e-6 off the root steps it by about
        # that much, far beyond Brent's stopping distance.
        p = sample_physical(l=2.0)
        monkeypatch.setattr(stefan, "_front_loop", lambda *args: (0.5948731740885472 * (1.0 + 1e-6), 2.0))
        with pytest.raises(RootConvergenceError) as refusal:
            solve_lambda(p.beta, p.gamma, p.ste)
        assert refusal.value.best == 0.5948731740885472 * (1.0 + 1e-6)

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
        # The front loop needs no profile solve of its own: the one solve on
        # the case's grid checks its lam* and is the profile solve_stefan
        # returns; the multiplicity scan solves 13 on its own.
        solved = []
        real = stefan.solve_gme
        monkeypatch.setattr(stefan, "solve_gme", lambda params, config: solved.append(config) or real(params, config))
        _solved.cache_clear()
        sol = solve_stefan(sample_physical(l=2.0), DEFAULT_CONFIG)
        assert sol.lambda_star == pytest.approx(0.59487, abs=1e-5)
        assert solved.count(DEFAULT_CONFIG) == 1
        assert solved.count(_SCAN_CONFIG) == 13
        assert len(solved) == _solved.cache_info().misses

    @pytest.mark.parametrize("ste", [2e-7, 2e-4])
    def test_tiny_front_coefficient_is_accurate_in_relative_terms(self, ste):
        # At beta = 0 the balance is lam e^{lam^2} (1 + sqrt(pi) (gamma/2) erf lam)
        # = (gamma/2) Ste, whose left side has a log-derivative near 1 here:
        # its relative residual is lambda*'s relative error, at lambda*
        # about 1e-7 and 1e-4. Brent's absolute step of 1e-12 alone allows
        # 1e-5 and 1e-8.
        gamma = 1.0
        lam = solve_lambda(0.0, gamma, ste)
        lhs = lam * math.exp(lam * lam) * (1.0 + SQRT_PI * (gamma / 2.0) * math.erf(lam))
        assert abs(lhs / ((gamma / 2.0) * ste) - 1.0) <= 1e-13

    @pytest.mark.parametrize("beta, gamma, ste", [(0.2, math.inf, 0.01), (0.3, math.inf, 10.0), (0.5, 1.0, 1.0)])
    def test_uncertified_slope_is_refused_at_the_loops_root(self, monkeypatch, beta, gamma, ste):
        # The loop converges here, but the profile solve at its lam refuses
        # the slope, naming beta and the threshold there: at gamma = inf the
        # threshold at lam*, which the bracketed referee, probing its low end
        # first, refuses at a lower threshold.
        real_loop, loops = stefan._front_loop, []
        monkeypatch.setattr(stefan, "_front_loop", lambda *args: loops.append(real_loop(*args)) or loops[-1])
        with pytest.raises(ContractionError) as refusal:
            solve_lambda(beta, gamma, ste)
        lam = loops[-1][0]
        threshold = dirichlet_contraction_threshold(lam) if math.isinf(gamma) else contraction_threshold(gamma)
        assert f"beta={beta:g} is at or above the certified contraction threshold {threshold:.6g} " in str(refusal.value)
        with pytest.raises(ContractionError):
            bracketed_front_root(beta, gamma, ste, DEFAULT_CONFIG)

    def test_readme_case_agrees_with_the_bracketed_root(self):
        # The bracketed referee gives the README case's root, and the loop's
        # lies within Brent's stopping distance of it.
        p = sample_physical(l=2.0)
        root = bracketed_front_root(p.beta, p.gamma, p.ste, DEFAULT_CONFIG)
        assert root == 0.5948731740885462
        lam = solve_lambda(p.beta, p.gamma, p.ste, DEFAULT_CONFIG)
        assert lam == 0.5948731740885472
        assert abs(lam - root) <= 1e-12 + 4.0 * math.ulp(1.0) * root

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
        # near 2.5e-11: a tiny root keeps the scan points below it. The front
        # loop, which never calls boundary_slope_ratio, is given that root.
        def ratio(lam, beta, gamma, config=DEFAULT_CONFIG):
            if window[0] < lam < window[1]:
                return 1.0 if beyond_root else 0.5
            return 1.0 / lam

        monkeypatch.setattr("gmerf.stefan.boundary_slope_ratio", ratio)
        monkeypatch.setattr(stefan, "_front_loop", lambda *args: (ste / 2.0, 1.0))
        with pytest.warns(RuntimeWarning, match="changes sign again") as record:
            root = solve_lambda(0.0, 1.0, ste)
        assert root == pytest.approx(ste / 2.0, rel=1e-12)
        assert len(record) == 1
        assert record[0].filename == __file__
        near = float(str(record[0].message).split("near lam=")[1].split(";")[0])
        assert window[0] < near < window[1]


def front_draws(rng, k):
    # k (beta, gamma, Ste) cases: gamma log-uniform in [1e-4, 1e4], every
    # seventh gamma = inf; beta below 0.9 or in [0.9, 0.99] of the certified
    # threshold (at gamma = inf, the threshold at the beta = 0 root); Ste
    # log-uniform in [1e-3, 1e2].
    cases = []
    for i in range(k):
        gamma = math.inf if i % 7 == 0 else 10.0 ** rng.uniform(-4.0, 4.0)
        frac = rng.uniform(0.0, 0.9) if i % 2 else rng.uniform(0.9, 0.99)
        ste = 10.0 ** rng.uniform(-3.0, 2.0)
        if math.isinf(gamma):
            threshold = dirichlet_contraction_threshold(solve_lambda(0.0, gamma, ste, SolverConfig(grid_n=201)))
        else:
            threshold = contraction_threshold(gamma)
        cases.append((frac * threshold, gamma, ste))
    return cases


class TestFrontLoop:
    @pytest.mark.parametrize("grid_n", [201, 1001])
    def test_matches_the_bracketed_root_on_seeded_draws(self, monkeypatch, grid_n):
        # The loop's lambda* lies within Brent's stopping distance of the
        # bracketed referee's root. Against a converged solve on the same
        # grid, its balance error lam |H/rhs - 1| is at most the referee's,
        # or at rounding level. The scan is off: it does not move the root.
        eps = math.ulp(1.0)
        config, converged = SolverConfig(grid_n=grid_n), SolverConfig(grid_n=grid_n, fp_tol=1e-15)
        monkeypatch.setattr(stefan, "_warn_on_extra_roots", lambda *args, **kwargs: None)

        def balance_error(lam, beta, gamma, ste):
            rhs = 2.0 / ((1.0 + beta) * ste)
            return lam * abs(solve_gme(GMEParams(beta, gamma, lam), converged).phi_prime_lambda / lam / rhs - 1.0)

        for beta, gamma, ste in front_draws(np.random.default_rng(21), 100):
            lam = solve_lambda(beta, gamma, ste, config)
            root = bracketed_front_root(beta, gamma, ste, config)
            assert abs(lam - root) <= 1e-12 + 4.0 * eps * root, (beta, gamma, ste)
            off = balance_error(lam, beta, gamma, ste)
            assert off <= max(balance_error(root, beta, gamma, ste), 32.0 * eps * lam), (beta, gamma, ste)

    @pytest.mark.parametrize("grid_n", [5, 201])
    @pytest.mark.parametrize("frac", [0.0, 0.999])
    @pytest.mark.parametrize("ste", [1e-10, 1e-4, 1.0, 1e4])
    @pytest.mark.parametrize("gamma", [1e-4, 1.0, 1e4, math.inf])
    def test_edges_agree_with_the_bracketed_root(self, monkeypatch, gamma, ste, frac, grid_n):
        # Tiny and huge gamma and Ste, slopes at the certified threshold and
        # a 5-node grid: the front solve gives the bracketed referee's root
        # to within Brent's stopping distance, or raises what the referee
        # raises: the same message, or for a BracketError the same end of
        # [1e-12, 50]. At gamma = inf the threshold is taken at the beta = 0
        # root. The certified range grows with lam there, so a slope may be
        # certified at lambda* but not at the referee's low end: the referee
        # then refuses it (at Ste = 1), while the loop's lambda* balances and
        # is certified, which its check solve proves.
        config = SolverConfig(grid_n=grid_n)
        if math.isinf(gamma):
            threshold = dirichlet_contraction_threshold(solve_lambda(0.0, gamma, ste, SolverConfig(grid_n=201)))
        else:
            threshold = contraction_threshold(gamma)
        beta = frac * threshold
        monkeypatch.setattr(stefan, "_warn_on_extra_roots", lambda *args, **kwargs: None)

        def outcome(solve):
            _solved.cache_clear()
            try:
                return solve(beta, gamma, ste, config)
            except (BracketError, ContractionError, FixedPointError) as exc:
                return type(exc), str(exc)

        lam, root = outcome(solve_lambda), outcome(bracketed_front_root)
        if isinstance(root, float):
            assert isinstance(lam, float) and abs(lam - root) <= 1e-12 + 4.0 * math.ulp(1.0) * root
        elif math.isinf(gamma) and root[0] is ContractionError and isinstance(lam, float):
            rhs = 2.0 / ((1.0 + beta) * ste)
            assert beta < dirichlet_contraction_threshold(lam)
            assert lam * abs(boundary_slope_ratio(lam, beta, gamma, config) - rhs) <= (1e-12 + 4.0 * math.ulp(1.0) * lam) * rhs
        elif root[0] is BracketError:
            assert lam[0] is BracketError and lam[1].rsplit("=", 1)[1] == root[1].rsplit("=", 1)[1]
        else:
            assert lam == root

    @pytest.mark.parametrize(
        "beta, gamma, ste, grid_n, expected",
        [
            # One clipped step crosses lam = 50 on the way to the root.
            pytest.param(131.11, 1e-6, 1e16, 201, 49.349, id="crosses-the-cap"),
            # Certified at lambda*, not at the bound crossings' low end.
            pytest.param(0.15737, math.inf, 1.0, 201, 0.64670, id="certified-only-near-the-root"),
            # A lambda* above 15, where the balance's slope in log lam is large.
            pytest.param(0.0, 1.0, 1e300, 1001, 26.195, id="large-root"),
            # Steps cycle between 16.07 and 43.67, where E(lam) underflows,
            # unless a reversing step is halved.
            pytest.param(0.95 * contraction_threshold(0.1), 0.1, 1e300, 201, 41.138, id="underflow-cycle"),
            # The bracket's probes meet non-monotone 5-node profiles.
            pytest.param(0.0, 1.0, 1e6, 5, 3.3593966759416585, id="five-nodes"),
        ],
    )
    def test_mended_fronts_lie_within_brents_stopping_distance(self, beta, gamma, ste, grid_n, expected):
        # The converged balance on the same grid changes sign across
        # [lam - d, lam + d], d = 1e-12 + 4 eps lam: Brent's stopping distance.
        lam = solve_lambda(beta, gamma, ste, SolverConfig(grid_n=grid_n))
        assert lam == pytest.approx(expected, rel=1e-4)
        rhs, d = 2.0 / ((1.0 + beta) * ste), 1e-12 + 4.0 * math.ulp(1.0) * lam
        converged = SolverConfig(grid_n=grid_n, fp_tol=1e-15)

        def ratio(x):
            return solve_gme(GMEParams(beta, gamma, x), converged).phi_prime_lambda / x

        assert ratio(lam - d) >= rhs >= ratio(lam + d)

    def test_step_divisor_bounds_the_frozen_balance_slope(self):
        # The loop divides the balance F of its frozen profile by
        # 2 + 4 I - D/gamma, I = -log((1+beta) E(lam))/2, in log lam. That
        # divisor is at least |F'|, which is at least 1 since phi'' < 0, so
        # no step is longer than the frozen Newton step. F' is a centred
        # difference of F at the profile's xi-node values.
        rng, h, n = np.random.default_rng(24), 1e-5, 201

        def frozen(u, beta, gamma, lam):
            _, d, e = _apply(u, _uniform_nodes(lam, n), lam / (n - 1), beta, 1.0 / gamma)
            return math.log(d * e[-1] / lam), 2.0 + 4.0 * (-math.log((1.0 + beta) * e[-1]) / 2.0) - d / gamma

        for i in range(40):
            gamma = math.inf if i % 5 == 0 else 10.0 ** rng.uniform(-4.0, 4.0)
            lam = 10.0 ** rng.uniform(-3.0, 0.7)
            threshold = dirichlet_contraction_threshold(lam) if math.isinf(gamma) else contraction_threshold(gamma)
            beta = rng.uniform(0.0, 0.99) * threshold
            u = solve_gme(GMEParams(beta, gamma, lam), SolverConfig(grid_n=n)).phi.values
            slope = (frozen(u, beta, gamma, lam * math.exp(h))[0] - frozen(u, beta, gamma, lam * math.exp(-h))[0]) / (2.0 * h)
            divisor = frozen(u, beta, gamma, lam)[1]
            assert 1.0 - 1e-8 <= abs(slope) <= abs(divisor) * (1.0 + 1e-8), (beta, gamma, lam)


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
