"""Tests of the benchmark itself: seeded inputs, output checks, tracer hygiene.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def gm():
    return run.Package()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_draws_identical_inputs(name, gm, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = [cls(5, gm, tmp_path).draw(i) for i in range(12)]
    again = [cls(5, gm, tmp_path).draw(i) for i in range(12)]
    other = [cls(6, gm, tmp_path).draw(i) for i in range(12)]
    assert first == again
    assert first != other
    assert workloads.reference_indices(name, 5, 3) == workloads.reference_indices(name, 5, 3)


def test_inputs_stay_in_their_ranges(gm, tmp_path):
    wl = workloads.StefanCases(3, gm, tmp_path)
    for i in range(50):
        op = wl.draw(i)
        assert 0.1 <= op.gamma <= 10.0
        assert 0.0 <= op.beta <= 0.9 * workloads.beta1(op.gamma)
        assert 0.05 <= op.ste <= 5.0
        p = gm.stefan.PhysicalParams(**op.physical)
        assert math.isclose(p.gamma, op.gamma, rel_tol=1e-12)
        assert math.isclose(p.ste, op.ste, rel_tol=1e-12)
    assert workloads.beta1(1.0) == pytest.approx(gm.fixed_point.contraction_threshold(1.0), abs=1e-12)
    assert workloads.dirichlet_beta1(0.7) == pytest.approx(
        gm.fixed_point.dirichlet_contraction_threshold(0.7), abs=1e-12
    )


def test_perturbed_lambda_fails_the_stefan_checks(gm, tmp_path):
    wl = workloads.StefanCases(1, gm, tmp_path)
    op = wl.draw(0)
    lam, phi_prime, fields, sol = wl.run(op)
    assert wl.check(op, (lam, phi_prime, fields, sol)) == []
    assert wl.check_reference(op, (lam, phi_prime, fields, sol)) == []
    shifted = lam * (1.0 + 1e-9)
    assert wl.check(op, (shifted, phi_prime, fields, sol))
    assert wl.check_reference(op, (lam + 1e-12, phi_prime, fields, sol))


def test_perturbed_field_fails_the_stefan_checks(gm, tmp_path):
    wl = workloads.StefanCases(1, gm, tmp_path)
    op = wl.draw(1)
    lam, phi_prime, fields, sol = wl.run(op)
    d_temp = op.physical["tf"] - op.physical["tinf"]
    t, s, temps = fields[1]
    bumped = list(temps)
    bumped[25] += 1e-9 * d_temp
    out = (lam, phi_prime, [fields[0], (t, s, bumped), fields[2]], sol)
    assert wl.check(op, out) == []  # still monotone and in range
    assert wl.check_reference(op, out)
    cold_front = list(temps)
    cold_front[-1] -= 1e-6
    assert wl.check(op, (lam, phi_prime, [fields[0], (t, s, cold_front), fields[2]], sol))


def test_interpolation_error_between_nodes_fails_the_reference(gm, tmp_path):
    wl = workloads.StefanCases(1, gm, tmp_path)
    op = wl.draw(1)  # lambda* = 0.76; interpolation error grows with lambda*^2
    lam, phi_prime, fields, sol = wl.run(op)
    assert wl.check_reference(op, (lam, phi_prime, fields, sol)) == []
    # A 201-node grid reproduces the reads on the 51 points, which are nodes
    # of it too, but interpolates linearly in between.
    stefan = gm.stefan
    coarse = stefan.solve_stefan(stefan.PhysicalParams(**op.physical), gm.fixed_point.SolverConfig(grid_n=201))
    problems = wl.check_reference(op, (lam, phi_prime, fields, coarse))
    assert problems and all("between nodes" in p for p in problems)


def test_oracle_is_found_in_the_test_suite_when_gone_from_the_package(tmp_path, monkeypatch):
    (tmp_path / "oracles.py").write_text("def shoot_bvp(params, config):\n    return 'from tests'\n")
    monkeypatch.setattr(workloads, "TESTS", tmp_path)
    package = types.SimpleNamespace(modules={"gmerf.numerics": types.SimpleNamespace()})
    assert workloads.oracle(package, "gmerf.numerics", "shoot_bvp")(None, None) == "from tests"
    with pytest.raises(LookupError):
        workloads.oracle(package, "gmerf.numerics", "shoot_bvp_dirichlet")


def test_cubic_interp_is_exact_on_cubics():
    x = np.linspace(0.0, 2.0, 7)
    nodes = np.linspace(0.0, 2.0, 11)
    def cubic(t):
        return 1.0 - t + 0.5 * t**2 - 0.25 * t**3
    assert workloads.cubic_interp(x * 0.97 + 0.01, 2.0, cubic(nodes)) == pytest.approx(cubic(x * 0.97 + 0.01), abs=1e-14)


def _first(wl, kind):
    return next(op for op in map(wl.draw, range(100)) if op.kind == kind)


@pytest.mark.parametrize("kind", ["certified", "dirichlet", "beta0"])
def test_perturbed_profile_fails_the_reference(kind, gm, tmp_path):
    wl = workloads.ProfileFine(2, gm, tmp_path)
    op = _first(wl, kind)
    sol = wl.run(op)
    assert wl.check(op, sol) == []
    assert wl.check_reference(op, sol) == []
    values = np.array(sol.phi.values)
    values[1000:2000] += 1e-9  # keeps the profile monotone and in [0, 1]
    fake = types.SimpleNamespace(
        phi=types.SimpleNamespace(values=values),
        residual=sol.residual,
        contraction_certified=sol.contraction_certified,
        phi_prime_lambda=sol.phi_prime_lambda,
    )
    assert wl.check(op, fake) == []
    assert wl.check_reference(op, fake)
    values[-1] = 1.0 - 1e-12
    assert wl.check(op, fake)


@pytest.mark.parametrize("name", ["cli_coarse", "cli_sweep"])
def test_cli_ops_pass_their_checks(name, gm, tmp_path):
    wl = workloads.WORKLOADS[name](4, gm, tmp_path)
    for i in range(wl.block):
        op = wl.draw(i)
        wl.prepare(op)
        assert wl.check(op, wl.run(op)) == [], op.command


def test_cli_checks_catch_bad_output(gm, tmp_path):
    wl = workloads.CliCoarse(4, gm, tmp_path)
    op = wl.draw(0)
    assert op.command == "hscan"
    wl.prepare(op)
    assert wl.run(op) == 0
    out = Path(op.out)
    lines = out.read_text().splitlines()
    good = list(lines)
    lines[3] = lines[3].split(",")[0] + ",-1.0"
    out.write_text("\n".join(lines) + "\n")
    assert wl.check(op, 0)
    lines[3] = lines[3].split(",")[0] + ",nan"
    out.write_text("\n".join(lines) + "\n")
    assert wl.check(op, 0)
    out.write_text("\n".join(lines[:-1]) + "\n")
    assert wl.check(op, 0)
    assert wl.check(op, 2)
    # The output of another op of the same command does not pass.
    out.write_text("\n".join(good) + "\n")
    assert wl.check(op, 0) == []
    other = wl.draw(3)
    assert other.command == "hscan" and other.out == op.out
    assert wl.check(other, 0)


@pytest.mark.parametrize("name", ["cli_coarse", "cli_sweep"])
def test_cli_op_that_writes_nothing_fails(name, gm, tmp_path, monkeypatch):
    wl = workloads.WORKLOADS[name](4, gm, tmp_path)
    for i in range(wl.block):  # leave every command's file behind
        op = wl.draw(i)
        wl.prepare(op)
        assert wl.run(op) == 0
    monkeypatch.setattr(gm.cli, "main", lambda argv: 0)
    for i in range(wl.block, 2 * wl.block):
        op = wl.draw(i)
        wl.prepare(op)
        problems = wl.check(op, wl.run(op))
        assert problems and "wrote no" in problems[0], op.command


@pytest.mark.parametrize("name", ["cli_coarse", "cli_sweep", "stefan_cases"])
def test_traced_run_restores_every_wrapped_attribute(name, gm, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 16)  # the fourth block is the first traced one
    originals = {
        (mod, attr): getattr(gm.modules[mod], attr) for mod, attr, _, _ in tracing.WRAP_POINTS
    }
    wl = workloads.WORKLOADS[name](9, gm, tmp_path)
    tracer = tracing.Tracer(gm.modules)
    res = run.run_loop(wl, gm, 0.0, tracer)
    assert not res["failed"]
    assert res["latencies"][True]
    for (mod, attr), original in originals.items():
        assert getattr(gm.modules[mod], attr) is original, f"{mod}.{attr}"
    metrics = run.per_layer(res, wl, tracer)
    assert set(metrics) == set(run.LAYER_UNITS)
    if name == "stefan_cases":
        assert metrics["stefan.profile_solves_per_case"] > 0
    else:
        assert metrics["stefan.profile_solves_per_case"] == 0.0
        assert metrics[f"cli.{wl.rotation[0]}.self_s"] > 0.0


class _Interrupt(BaseException):
    pass


def test_wrappers_are_restored_when_an_op_is_interrupted(gm, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 4)
    wl = workloads.StefanCases(9, gm, tmp_path)
    original = gm.stefan.solve_stefan
    plain_run = wl.run

    def interrupted_when_traced(op):
        if gm.stefan.solve_stefan is not original:
            raise _Interrupt
        return plain_run(op)

    monkeypatch.setattr(wl, "run", interrupted_when_traced)
    with pytest.raises(_Interrupt):
        run.run_loop(wl, gm, 0.0, tracing.Tracer(gm.modules))
    assert gm.stefan.solve_stefan is original


def test_traced_solves_match_cache_misses_on_the_readme_case(gm):
    p = gm.stefan.PhysicalParams(rho=1.2, c=2.5, l=2.0, k0=1.7, h0=1.0, tf=1.0, tinf=-1.0, beta=0.25)
    cache = getattr(gm.stefan, "_solved", None)
    if not hasattr(cache, "cache_info"):
        pytest.skip("the package has no profile cache")
    cache.cache_clear()
    tracer = tracing.Tracer(gm.modules)
    tracer.install()
    try:
        gm.stefan.solve_stefan(p, gm.fixed_point.SolverConfig())
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["stefan.profile_solves_per_case"] == cache.cache_info().misses
    assert 0.0 < metrics["stefan.aux_solve_share"] < 1.0
    assert metrics["stefan.balance_evals_per_case"] >= metrics["stefan.profile_solves_per_case"]


def test_missing_names_are_reported_absent():
    modules = {"gmerf.fixed_point": types.SimpleNamespace()}
    tracer = tracing.Tracer(modules)
    tracer.install()
    tracer.restore()
    assert "numerics.cumulative_integral" in tracer.missing
    metrics = tracing.layer_metrics([], 0, tracer.missing)
    assert "numerics.cumint_calls" not in metrics
    assert "cli.gme.self_s" in metrics


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span(1, "p", 0.0, 10.0, None, 1),
        tracing.Span(2, "c", 1.0, 4.0, 1, 2),
        tracing.Span(3, "c", 3.0, 6.0, 1, 3),
        tracing.Span(4, "c", 8.0, 9.0, 1, 1),
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(4.0)  # [1, 6] and [8, 9] are covered
    assert own[2] == pytest.approx(3.0)


def test_neighbour_share():
    def solve(t, lam, gamma=1.0):
        return tracing.Span(t, "fixed_point.solve_gme", t, t + 0.5, None, 1,
                            {"beta": 0.1, "gamma": gamma, "lam": lam, "iterations": 3})

    assert tracing.neighbour_share([solve(1, 1.0), solve(2, 1.05), solve(3, 2.0), solve(4, 1.05, 2.0)]) == 0.25


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stefan_cases", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
