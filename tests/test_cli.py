"""Tests for the command-line front end: formats, exit codes, round-trips."""

import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gmerf
from gmerf import cli, fixed_point, stefan
from gmerf.cli import main
from gmerf.errors import BracketError, GmerfError
from gmerf.fixed_point import GMEParams, GMESolution, SolverConfig, solve_gme
from gmerf.numerics import GridFunction
from gmerf.stefan import boundary_slope_ratio, dirichlet_gap, solve_dirichlet, solve_lambda

GME_COLUMNS = "eta,phi,phi0,phi1_approx,err0_pointwise,err1_pointwise"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def fmt(x):
    return format(float(x), ".17g")


def csv_text(rows):
    return "\n".join(",".join(row) for row in rows) + "\n"


def reemit(text):
    # canonical re-emission: every float cell re-printed at 17 significant digits
    out_lines = []
    for line in text.split("\n"):
        cells = []
        for cell in line.split(","):
            try:
                cells.append(format(float(cell), ".17g"))
            except ValueError:
                cells.append(cell)
        out_lines.append(",".join(cells))
    return "\n".join(out_lines)


class TestTopLevel:
    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1


class TestParserOncePerProcess:
    def test_import_builds_none_and_two_calls_build_one(self):
        code = (
            "import contextlib, io, gmerf.cli as cli; built = [cli._build_parser.cache_info().misses]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['beta1', '--gamma', '1']); cli.main(['beta1', '--gamma', '2'])\n"
            "print(*built, cli._build_parser.cache_info().misses)"
        )
        src = str(Path(gmerf.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
        assert out.split() == ["0", "1"]

    @pytest.mark.parametrize("argv", [["gme", "--beta", "x"], ["frobnicate"], []])
    def test_usage_error_is_the_same_on_a_second_call(self, capsys, argv):
        cli._build_parser.cache_clear()
        first = run(capsys, argv)
        assert first[0] == 1 and first[2].startswith("usage: gmerf")
        assert run(capsys, argv) == first
        assert cli._build_parser.cache_info().misses == 1


class TestCsvCells:
    def test_matches_per_cell_format(self):
        rows = [
            ["text", "", 3, True, False, np.float64(0.1), np.int64(-7), math.nan],
            ("5% of a;b", math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 2**70, np.float64(-0.0)),
            [np.float64(1e16), 1 / 3, "ok", 0, np.int64(2**53 + 1), -5e-324, 1e-300, "x"],
            ["text", "", 3, True, False, np.float64(2.5), np.int64(0), 7.0],  # a repeated shape
        ]
        want = ["a,b,c,d,e,f,g,h"]
        want += [",".join(c if isinstance(c, str) else format(float(c), ".17g") for c in row) for row in rows]
        columns = [iter(column) for column in zip(*rows)]
        assert cli._csv(["a", "b", "c", "d", "e", "f", "g", "h"], columns) == "\n".join(want) + "\n"

    def test_array_columns_format_as_their_floats(self):
        columns = [np.array([0.1, -0.0, 1e-300, np.inf]), np.array([3, -7, 2**53 + 1, 0]), ["x", "", "5%", "y"]]
        want = ["a,b,c"] + [f"{format(float(a), '.17g')},{format(float(b), '.17g')},{c}" for a, b, c in zip(*columns)]
        assert cli._csv(["a", "b", "c"], columns) == "\n".join(want) + "\n"

    def test_empty_table_is_its_header(self):
        assert cli._csv(["eta", "phi"], []) == "eta,phi\n"


class TestBeta1:
    def test_default_set(self, capsys):
        code, out, _ = run(capsys, ["beta1"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["gamma", "beta1", "status"]
        assert [float(r[0]) for r in rows] == [0.1, 1.0, 10.0, 100.0]
        assert all(r[2] == "ok" for r in rows)
        # threshold falls as gamma rises
        vals = [float(r[1]) for r in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_single_gamma(self, capsys):
        code, out, _ = run(capsys, ["beta1", "--gamma", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(gmerf.contraction_threshold(1.0), rel=1e-15)

    def test_invalid_gamma_gets_row_entry_and_nonzero_exit(self, capsys):
        code, out, _ = run(capsys, ["beta1", "--gamma", "-1", "2"])
        assert code == 1
        _, rows = parse_csv(out)
        assert len(rows) == 2
        assert rows[0][1] == "" and rows[0][2] != "ok"
        assert rows[1][2] == "ok"

    def test_failed_threshold_gets_row_entry_and_solver_exit(self, capsys, monkeypatch):
        # Every positive finite gamma has a threshold now, so a failed search
        # at gamma = 1e-300 is simulated: its row carries the solver's message
        # and the other rows are still written.
        def threshold(gamma):
            if gamma == 1e-300:
                raise BracketError("no sign change found growing the bracket up to hi=1")
            return gmerf.contraction_threshold(gamma)

        monkeypatch.setattr(cli, "contraction_threshold", threshold)
        code, out, _ = run(capsys, ["beta1", "--gamma", "1", "1e-300", "5"])
        assert code == 2
        _, rows = parse_csv(out)
        assert [r[2] for r in rows[::2]] == ["ok", "ok"]
        assert rows[1][1] == "" and "no sign change" in rows[1][2]

    def test_empty_gamma_list_is_usage_error(self, capsys):
        assert main(["beta1", "--gamma"]) == 1

    def test_output_round_trips(self, capsys):
        _, out, _ = run(capsys, ["beta1"])
        assert reemit(out) == out


class TestGme:
    def test_columns_and_row_count(self, capsys):
        code, out, _ = run(capsys, ["gme", "--beta", "0.2", "--gamma", "1", "--lambda", "2", "--grid-n", "101"])
        assert code == 0
        header, rows = parse_csv(out)
        assert ",".join(header) == GME_COLUMNS
        assert len(rows) == 101

    def test_profile_column_is_monotone_unit_band(self, capsys):
        code, out, _ = run(capsys, ["gme", "--beta", "1.55", "--gamma", "0.1", "--lambda", "10"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1001
        phi = np.array([float(r[1]) for r in rows])
        assert np.all(phi >= 0.0) and np.all(phi <= 1.0)
        assert np.all(np.diff(phi) >= 0.0)
        assert phi[-1] == 1.0

    def test_zero_slope_leaves_no_zero_order_error(self, capsys):
        code, out, _ = run(capsys, ["gme", "--beta", "0", "--gamma", "1", "--lambda", "2"])
        assert code == 0
        _, rows = parse_csv(out)
        assert max(float(r[4]) for r in rows) < 1e-8
        # with beta = 0 both approximations coincide
        assert max(float(r[5]) for r in rows) < 1e-8

    def test_out_of_regime_slope_is_solver_error(self, capsys):
        code, _, err = run(capsys, ["gme", "--beta", "0.5", "--gamma", "1", "--lambda", "2"])
        assert code == 2
        assert "threshold" in err

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["gme", "--beta", "0.2", "--gamma", "1"]) == 1

    def test_huge_gamma_is_a_one_line_usage_error(self, capsys):
        # The profile solves; the first-order closed form's nu**2 would overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["gme", "--beta", "0", "--gamma", "1e307", "--lambda", "1"])
        assert (code, out) == (1, "")
        assert err.startswith("gmerf: error: gamma=1e+307 is too large") and err.count("\n") == 1

    def test_tiny_gamma_is_solved(self, capsys):
        # nu = 2 + gamma sqrt(pi) erf(lam) rounds to exactly 2 here.
        code, out, err = run(capsys, ["gme", "--beta", "0", "--gamma", "1e-17", "--lambda", "1", "--grid-n", "11"])
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) == 11
        assert max(float(r[4]) for r in rows) < 1e-15

    def test_writes_file_and_round_trips(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, ["gme", "--beta", "0.1", "--gamma", "1", "--lambda", "1", "--grid-n", "21", "--out", str(path)])
        assert code == 0
        text = path.read_text(encoding="utf-8")
        assert "\r" not in text
        assert text.endswith("\n")
        assert reemit(text) == text

    def test_evaluates_erf_at_most_five_times(self, capsys, monkeypatch):
        # Three calls on the nodes (Picard seed, phi0, phi1) and two on lambda
        # (the first-order constants, phi0's normalizer).
        calls = []
        for module in (gmerf.approx, fixed_point):
            def counting(x, erf=module.erf):
                calls.append(np.shape(x))
                return erf(x)

            monkeypatch.setattr(module, "erf", counting)
        assert run(capsys, ["gme", "--beta", "0.1", "--gamma", "0.37", "--lambda", "2.5", "--grid-n", "51"])[0] == 0
        assert len(calls) <= 5, calls


class TestHscan:
    def test_scan_columns_and_shape(self, capsys):
        code, out, _ = run(
            capsys,
            ["hscan", "--beta", "0.1", "--gamma", "1", "--lmin", "0.5", "--lmax", "2", "--steps", "4", "--grid-n", "201"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["lambda", "H"]
        assert len(rows) == 4
        hvals = [float(r[1]) for r in rows]
        assert all(a > b for a, b in zip(hvals, hvals[1:]))

    def test_single_step_emits_single_row_at_lmin(self, capsys):
        code, out, _ = run(
            capsys,
            ["hscan", "--beta", "0", "--gamma", "1", "--lmin", "0.7", "--lmax", "2", "--steps", "1", "--grid-n", "101"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0][0]) == 0.7

    def test_matches_per_point_slope_ratios_byte_for_byte(self, capsys, monkeypatch):
        monkeypatch.setattr(fixed_point, "_CHUNK_ELEMENTS", 3 * 101)  # 7 points: 3 chunks
        config = SolverConfig(grid_n=101)
        lams = np.linspace(0.05, 3.0, 7)
        expected = csv_text(
            [["lambda", "H"]] + [[fmt(x), fmt(boundary_slope_ratio(float(x), 0.2, 1.5, config))] for x in lams]
        )
        code, out, _ = run(
            capsys,
            ["hscan", "--beta", "0.2", "--gamma", "1.5", "--lmin", "0.05", "--lmax", "3", "--steps", "7", "--grid-n", "101"],
        )
        assert code == 0
        assert out == expected

    def test_out_of_regime_slope_is_solver_error(self, capsys):
        code, out, err = run(
            capsys, ["hscan", "--beta", "0.5", "--gamma", "10", "--lmin", "0.5", "--lmax", "2", "--steps", "3"]
        )
        assert code == 2
        assert out == ""
        assert "contraction threshold" in err

    def test_overflowing_ratio_is_a_one_line_usage_error(self, capsys):
        # phi'(lam)/lam overflows at a subnormal lam: no table is written.
        argv = ["hscan", "--beta", "0.1", "--gamma", "1", "--lmin", "1e-320", "--lmax", "1e-319", "--steps", "2", "--grid-n", "51"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "gmerf: error: phi'(lam)/lam = inf is not finite at lam=1e-320\n"

    def test_range_touching_zero_is_rejected(self, capsys):
        code, _, err = run(capsys, ["hscan", "--beta", "0", "--gamma", "1", "--lmin", "0", "--lmax", "2", "--steps", "3"])
        assert code == 1
        assert "lmin" in err

    @pytest.mark.parametrize(
        "lmax, steps, message",
        [("0.5", "3", "--lmax must be >= --lmin"), ("2", "0", "--steps must be >= 1")],
        ids=["lmax-below-lmin", "no-steps"],
    )
    def test_bad_scan_range_is_usage_error(self, capsys, lmax, steps, message):
        argv = ["hscan", "--beta", "0", "--gamma", "1", "--lmin", "1", "--lmax", lmax, "--steps", steps]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert message in err


class TestSolve:
    FLAGS = ["--rho", "1.2", "--c", "2.5", "--l", "80", "--k0", "1.7", "--h0", "1.0", "--tf", "1", "--tinf", "-1", "--beta", "0.25"]

    def test_report_shape_and_key_order(self, capsys):
        code, out, _ = run(capsys, ["solve", *self.FLAGS, "--times", "1", "4"])
        assert code == 0
        report = json.loads(out)
        assert list(report.keys()) == ["lambda_star", "ste", "bi", "gamma", "alpha0", "front", "profiles"]
        assert report["ste"] == pytest.approx(2.5 * 2.0 / 80.0)
        assert report["gamma"] == pytest.approx(2.0 * report["bi"])

    def test_front_scales_as_sqrt_time(self, capsys):
        _, out, _ = run(capsys, ["solve", *self.FLAGS, "--times", "1", "4"])
        front = json.loads(out)["front"]
        assert front[1][1] == pytest.approx(2.0 * front[0][1], rel=1e-14)

    def test_position_on_front_reports_phase_change_temperature(self, capsys):
        _, out, _ = run(capsys, ["solve", *self.FLAGS, "--times", "1"])
        report = json.loads(out)
        s = report["front"][0][1]
        code, out, _ = run(capsys, ["solve", *self.FLAGS, "--times", "1", "--positions", "0", str(s)])
        assert code == 0
        profile = json.loads(out)["profiles"][0][1]
        assert profile[-1][1] == pytest.approx(1.0, abs=1e-9)
        assert -1.0 < profile[0][1] < 1.0

    def test_position_beyond_front_is_validation_error(self, capsys):
        code, _, err = run(capsys, ["solve", *self.FLAGS, "--times", "1", "--positions", "1e9"])
        assert code == 1
        assert "front" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = dict(rho=1.2, c=2.5, l=80.0, k0=1.7, h0=1.0, tf=1.0, tinf=-1.0, beta=0.25, times=[1.0], grid_n=301)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, _ = run(capsys, ["solve", "--config", str(path)])
        assert code == 0
        base = json.loads(out)["lambda_star"]
        # overriding the latent heat moves the front coefficient
        code, out, _ = run(capsys, ["solve", "--config", str(path), "--l", "8"])
        assert code == 0
        assert json.loads(out)["lambda_star"] > base

    @pytest.mark.parametrize("grid_n", [2.5, True, "51", 2])
    def test_bad_grid_n_in_config_is_usage_error(self, capsys, tmp_path, grid_n):
        cfg = dict(rho=1.2, c=2.5, l=80.0, k0=1.7, h0=1.0, tf=1.0, tinf=-1.0, grid_n=grid_n)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, _, err = run(capsys, ["solve", "--config", str(path)])
        assert code == 1
        assert "grid_n" in err

    @pytest.mark.parametrize(
        "key, value",
        [("times", "14"), ("times", 5), ("times", [1.0, "x"]), ("positions", 3), ("rho", [1.2]), ("rho", 10**400)],
        ids=["times-string", "times-number", "times-element", "positions-number", "rho-list", "rho-overflow"],
    )
    def test_malformed_config_value_is_usage_error(self, capsys, tmp_path, key, value):
        # A list must be a JSON list (a string is not split into characters)
        # and a number must convert to a float.
        cfg = dict(rho=1.2, c=2.5, l=80.0, k0=1.7, h0=1.0, tf=1.0, tinf=-1.0, grid_n=51)
        path = tmp_path / "params.json"
        path.write_text(json.dumps({**cfg, key: value}), encoding="utf-8")
        code, out, err = run(capsys, ["solve", "--config", str(path)])
        assert code == 1
        assert out == ""
        assert key in err

    @pytest.mark.parametrize(
        "content, message",
        [
            ([1.2, 2.5], "config file must hold a JSON object, got list"),
            ({**dict(rho=1.2, c=2.5, l=80.0, k0=1.7, h0=1.0, tf=1.0, tinf=-1.0), "times": []}, "times must list"),
        ],
        ids=["list-file", "no-times"],
    )
    def test_unusable_config_is_usage_error(self, capsys, tmp_path, content, message):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        code, out, err = run(capsys, ["solve", "--config", str(path)])
        assert (code, out) == (1, "")
        assert message in err

    def test_numeric_strings_in_config_are_numbers(self, capsys, tmp_path):
        cfg = dict(rho=1.2, c=2.5, l=80.0, k0=1.7, h0=1.0, tf=1.0, tinf=-1.0, times=[1.0], grid_n=51)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        _, expected, _ = run(capsys, ["solve", "--config", str(path)])
        path.write_text(json.dumps({**cfg, "rho": "1.2", "times": ["1"]}), encoding="utf-8")
        assert run(capsys, ["solve", "--config", str(path)]) == (0, expected, "")

    def test_missing_parameters_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["solve", "--rho", "1"])
        assert code == 1
        assert "missing" in err

    def test_inverted_temperatures_is_validation_error(self, capsys):
        argv = ["solve", "--rho", "1", "--c", "1", "--l", "1", "--k0", "1", "--h0", "1", "--tf", "-1", "--tinf", "1"]
        assert main(argv) == 1

    @pytest.mark.parametrize("rho_c", ["1e-200", "1e-160"], ids=["underflow", "overflow"])
    def test_unusable_diffusivity_is_validation_error(self, capsys, rho_c):
        # rho c underflows to 0, or k0/(rho c) overflows to inf.
        code, out, err = run(capsys, ["solve", *self.FLAGS, "--rho", rho_c, "--c", rho_c])
        assert (code, out) == (1, "")
        assert "alpha0 must be finite and positive" in err

    def test_out_of_regime_slope_is_solver_error(self, capsys):
        argv = ["solve", *self.FLAGS[:-1], "0.5"]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "threshold" in err

    def test_refusal_names_no_argument_the_command_cannot_take(self, capsys):
        # solve_gme's override is not reachable from the command line.
        argv = ["solve", "--rho", "1", "--c", "1", "--l", "1", "--k0", "1", "--h0", "0.5", "--tf", "1", "--tinf", "0", "--beta", "0.5"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("gmerf: solver error: beta=0.5 is at or above the certified contraction threshold ")
        assert "allow_unproven" not in err

    def test_overflowing_balance_scale_is_solved(self, capsys):
        # Ste = 1.5e308, so (1 + beta) Ste overflows while 2/((1 + beta) Ste) does not.
        argv = ["solve", "--rho", "1", "--c", "1", "--l", "6.666666666666667e-309", "--k0", "1", "--h0", "0.5",
                "--tf", "1", "--tinf", "0", "--beta", "0.25", "--grid-n", "201"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["lambda_star"] == solve_lambda(0.25, 1.0, report["ste"], SolverConfig(grid_n=201))
        assert report["lambda_star"] == pytest.approx(29.6833, rel=1e-5)

    def test_water_like_set_validated_against_scan_oracle(self, capsys, tmp_path):
        cfg = dict(rho=1000.0, c=4.19, l=333.0, k0=0.556e-2, h0=0.02, tf=0.0, tinf=-10.0, beta=0.1)
        path = tmp_path / "water.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, _ = run(capsys, ["solve", "--config", str(path)])
        assert code == 0
        report = json.loads(out)
        p = gmerf.PhysicalParams(**cfg)
        rhs = 2.0 / ((1.0 + p.beta) * p.ste)
        lo, hi = 1e-6, 5.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if boundary_slope_ratio(mid, p.beta, p.gamma) > rhs:
                lo = mid
            else:
                hi = mid
        assert report["lambda_star"] == pytest.approx(0.5 * (lo + hi), abs=1e-8)


class TestDirichlet:
    def test_gap_table_strictly_decreasing(self, capsys):
        code, out, _ = run(
            capsys,
            ["dirichlet", "--beta", "0", "--lambda", "10", "--gamma", "0.1", "1", "10", "100", "--grid-n", "501"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["gamma", "sup_gap"]
        gaps = [float(r[1]) for r in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_curve_files_for_constant_conductivity(self, capsys, tmp_path):
        curve_dir = tmp_path / "curves"
        code, _, _ = run(
            capsys,
            ["dirichlet", "--beta", "0", "--lambda", "2", "--gamma", "1", "--grid-n", "101", "--curve-dir", str(curve_dir)],
        )
        assert code == 0
        files = sorted(curve_dir.glob("*.csv"))
        assert [f.name for f in files] == ["curves_gamma_1.csv"]
        text = files[0].read_text(encoding="utf-8")
        header, rows = parse_csv(text)
        assert header == ["eta", "phi_gamma", "phi_dag"]
        assert len(rows) == 101
        # prescribed-value profile reduces to the scaled error function
        for r in rows[:: 20]:
            eta, dag = float(r[0]), float(r[2])
            assert dag == pytest.approx(math.erf(eta) / math.erf(2.0), abs=1e-7)
        assert reemit(text) == text


    def test_matches_per_point_solves_byte_for_byte(self, capsys, tmp_path):
        beta, lam, gammas = 0.01, 1.5, [0.3, 3.0, 20.0]
        config = SolverConfig(grid_n=101)
        table = [["gamma", "sup_gap"]] + [[fmt(g), fmt(gap)] for g, gap in dirichlet_gap(beta, lam, gammas, config)]
        dag = solve_dirichlet(beta, lam, config)
        curve_dir = tmp_path / "curves"
        argv = ["dirichlet", "--beta", str(beta), "--lambda", str(lam), "--gamma", *map(str, gammas)]
        code, out, _ = run(capsys, argv + ["--grid-n", "101", "--curve-dir", str(curve_dir)])
        assert code == 0
        assert out == csv_text(table)
        for gamma in gammas:
            robin = solve_gme(GMEParams(beta, gamma, lam), config)
            curve = [["eta", "phi_gamma", "phi_dag"]] + [
                [fmt(x), fmt(a), fmt(b)] for x, a, b in zip(dag.phi.nodes, robin.phi.values, dag.phi.values)
            ]
            path = curve_dir / f"curves_gamma_{format(gamma, 'g')}.csv"
            assert path.read_text(encoding="utf-8") == csv_text(curve)

    def test_prescribed_value_profile_is_solved_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        solve = stefan.solve_gme

        def counting(params, *args, **kwargs):
            calls.append(params.gamma)
            return solve(params, *args, **kwargs)

        monkeypatch.setattr(stefan, "solve_gme", counting)
        argv = ["dirichlet", "--beta", "0", "--lambda", "1.3", "--gamma", "1", "10", "--grid-n", "101"]
        assert run(capsys, argv + ["--curve-dir", str(tmp_path / "curves")])[0] == 0
        assert calls.count(math.inf) == 1

    def test_gammas_sharing_a_curve_file_are_rejected_before_solving(self, capsys, tmp_path):
        # Both gammas print as "5.87139" under %g, and so does the second
        # one's repr, so the second curve would overwrite the first.
        curve_dir = tmp_path / "curves"
        argv = ["dirichlet", "--beta", "0", "--lambda", "1", "--gamma", "5.871385339205846", "5.87139", "--grid-n", "51"]
        code, out, err = run(capsys, argv + ["--curve-dir", str(curve_dir)])
        assert code == 1
        assert out == "" and not curve_dir.exists()
        assert "5.871385339205846" in err and "5.87139 " in err
        # Without curve files the pair is a valid table.
        assert run(capsys, argv)[0] == 0

    @pytest.mark.parametrize("gammas", [["5.871385339205846", "5.871390121497058"], ["1.0000001", "1.0000002", "1.0000002"]])
    def test_gammas_with_one_short_name_get_distinct_curve_files(self, capsys, tmp_path, gammas):
        # The first keeps its %g name and a later, different gamma takes its
        # repr; each file holds the curve its gamma writes when run alone.
        argv = ["dirichlet", "--beta", "0", "--lambda", "1", "--grid-n", "51", "--gamma"]
        assert run(capsys, [*argv, *gammas, "--curve-dir", str(tmp_path / "both")])[0] == 0
        names = [f"curves_gamma_{format(float(gammas[0]), 'g')}.csv", f"curves_gamma_{gammas[1]}.csv"]
        assert sorted(f.name for f in (tmp_path / "both").iterdir()) == sorted(names)
        for i, (name, gamma) in enumerate(zip(names, gammas)):
            assert run(capsys, [*argv, gamma, "--curve-dir", str(tmp_path / str(i))])[0] == 0
            (alone,) = (tmp_path / str(i)).iterdir()
            assert (tmp_path / "both" / name).read_bytes() == alone.read_bytes()

    def test_repeated_gamma_shares_its_curve_file(self, capsys, tmp_path):
        curve_dir = tmp_path / "curves"
        argv = ["dirichlet", "--beta", "0", "--lambda", "1", "--gamma", "1", "1", "2", "--grid-n", "51"]
        code, out, _ = run(capsys, argv + ["--curve-dir", str(curve_dir)])
        assert code == 0
        assert len(parse_csv(out)[1]) == 3
        assert sorted(f.name for f in curve_dir.iterdir()) == ["curves_gamma_1.csv", "curves_gamma_2.csv"]


class TestSweep:
    def make_spec(self, tmp_path, **extra):
        spec = {"beta": [0.0, 0.1], "gamma": [1.0, 10.0], "lambda": [1.0, 2.0], "grid_n": 201}
        spec.update(extra)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path

    def test_cartesian_product_in_input_order(self, capsys, tmp_path):
        path = self.make_spec(tmp_path, beta=[0.0, 0.02], gamma=[1.0, 10.0])
        code, out, _ = run(capsys, ["sweep", "--spec", str(path)])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["beta", "gamma", "lambda", "d_coeff", "phi_prime_lambda", "iterations", "residual", "status"]
        assert len(rows) == 8
        key = [(float(r[0]), float(r[1]), float(r[2])) for r in rows]
        assert key == [(b, g, l) for b in (0.0, 0.02) for g in (1.0, 10.0) for l in (1.0, 2.0)]
        assert all(r[7] == "ok" for r in rows)

    def test_concurrent_runs_are_deterministic(self, capsys, tmp_path):
        path = self.make_spec(tmp_path, beta=[0.0, 0.02], gamma=[1.0, 10.0])
        _, out1, _ = run(capsys, ["sweep", "--spec", str(path), "--jobs", "1"])
        _, out4, _ = run(capsys, ["sweep", "--spec", str(path), "--jobs", "4"])
        assert out1 == out4
        assert reemit(out1) == out1

    def test_failed_points_get_status_rows_and_exit_two(self, capsys, tmp_path):
        # beta = 0.1 is beyond the certified threshold for gamma = 10
        path = self.make_spec(tmp_path)
        code, out, _ = run(capsys, ["sweep", "--spec", str(path)])
        assert code == 2
        _, rows = parse_csv(out)
        bad = [r for r in rows if r[7] != "ok"]
        assert len(bad) == 2
        assert all(r[3] == "" for r in bad)
        assert all("," not in r[7] for r in bad)

    def test_post_condition_breach_exits_two(self, capsys, tmp_path):
        # At 4 nodes (0.01, 2, 5) converges to a profile that is not
        # non-decreasing: a solver failure, so exit 2, not a usage error.
        path = self.make_spec(tmp_path, beta=[0.01], gamma=[2.0], **{"lambda": [5.0]})
        code, out, _ = run(capsys, ["sweep", "--spec", str(path), "--grid-n", "4"])
        assert code == 2
        _, rows = parse_csv(out)
        assert [r[7] for r in rows] == ["solution profile is not non-decreasing"]

    @pytest.mark.parametrize("grid_n", [64, 101])
    def test_matches_per_point_solves_byte_for_byte(self, capsys, tmp_path, monkeypatch, grid_n):
        # Mixed rows: invalid points, refused slopes, gamma = inf, several
        # chunks of three rows each.
        monkeypatch.setattr(fixed_point, "_CHUNK_ELEMENTS", 3 * grid_n)
        betas, gammas, lams = [-0.1, 0.0, 0.05, 0.3], [0.5, 10.0, math.inf], [0.2, 1.0, 3.0]
        path = self.make_spec(tmp_path, beta=betas, gamma=[0.5, 10.0, 1e999], **{"lambda": lams}, grid_n=grid_n)
        config = SolverConfig(grid_n=grid_n)
        rows = [["beta", "gamma", "lambda", "d_coeff", "phi_prime_lambda", "iterations", "residual", "status"]]
        for b in betas:
            for g in gammas:
                for v in lams:
                    head = [fmt(b), fmt(g), fmt(v)]
                    try:
                        sol = solve_gme(GMEParams(b, g, v), config)
                    except (GmerfError, ValueError) as exc:
                        rows.append(head + ["", "", "", "", str(exc).replace(",", ";")])
                    else:
                        fields = (sol.d_coeff, sol.phi_prime_lambda, sol.iterations, sol.residual)
                        rows.append(head + [fmt(x) for x in fields] + ["ok"])
        code, out, _ = run(capsys, ["sweep", "--spec", str(path)])
        assert code == 2
        assert out == csv_text(rows)
        statuses = [r[-1] for r in rows[1:]]
        assert "ok" in statuses
        assert any("must be" in st for st in statuses)  # invalid point
        assert any("contraction threshold" in st for st in statuses)  # refused slope

    def test_huge_slope_gets_a_refusal_row(self, capsys, tmp_path):
        path = self.make_spec(tmp_path, beta=[1e300], gamma=[1e999, 1.0], **{"lambda": [1.0]}, grid_n=31)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, ["sweep", "--spec", str(path)])
        assert code == 2
        _, rows = parse_csv(out)
        assert len(rows) == 2
        assert all("is at or above the certified contraction threshold" in r[7] for r in rows)

    @pytest.mark.parametrize("grid_n", [2.5, True, "51", 2])
    def test_bad_grid_n_in_spec_is_usage_error(self, capsys, tmp_path, grid_n):
        code, _, err = run(capsys, ["sweep", "--spec", str(self.make_spec(tmp_path, grid_n=grid_n))])
        assert code == 1
        assert "grid_n" in err

    @pytest.mark.parametrize(
        "key, value",
        [("beta", "01"), ("lambda", 2.0), ("gamma", [1.0, None])],
        ids=["beta-string", "lambda-number", "gamma-element"],
    )
    def test_malformed_list_is_usage_error(self, capsys, tmp_path, key, value):
        code, out, err = run(capsys, ["sweep", "--spec", str(self.make_spec(tmp_path, **{key: value}))])
        assert code == 1
        assert out == ""
        assert key in err

    def test_missing_list_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"beta": [0.0], "gamma": [1.0]}), encoding="utf-8")
        assert main(["sweep", "--spec", str(path)]) == 1

    @pytest.mark.parametrize(
        "spec, flags, message",
        [
            ({"beta": [], "gamma": [1.0], "lambda": [1.0]}, [], "must be non-empty"),
            ({"beta": [0.0], "gamma": [1.0], "lambda": [1.0]}, ["--jobs", "0"], "--jobs must be >= 1"),
            ([0.0, 1.0, 1.0], [], "sweep spec must hold a JSON object, got list"),
        ],
        ids=["empty-beta", "no-jobs", "list-file"],
    )
    def test_unusable_spec_is_usage_error(self, capsys, tmp_path, spec, flags, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run(capsys, ["sweep", "--spec", str(path), *flags])
        assert (code, out) == (1, "")
        assert message in err

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["sweep", "--spec", str(path)]) == 1


class TestBatchAtScale:
    """At the benchmark's sizes, a batch gives the tables lone solves give and builds no per-row objects."""

    CONFIG = SolverConfig(grid_n=201)

    @staticmethod
    def sweep_spec(tmp_path, seed):
        # Shaped like the cli_sweep workload: 2 betas x 4 gammas x 25 lambdas,
        # each beta below the threshold of the largest gamma.
        rng = np.random.default_rng(seed)
        gammas = sorted(np.exp(rng.uniform(math.log(0.1), math.log(10.0), 4)).tolist())
        betas = sorted((rng.uniform(0.0, 0.9, 2) * gmerf.contraction_threshold(gammas[-1])).tolist())
        lam = math.exp(rng.uniform(math.log(0.1), math.log(2.0)))
        spec = {"beta": betas, "gamma": gammas, "lambda": np.geomspace(lam, 2.0 * lam, 25).tolist()}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path, spec

    HSCAN = ["hscan", "--beta", "0.07", "--gamma", "1.7", "--lmin", "0.05", "--lmax", "5", "--steps", "100", "--grid-n", "201"]

    def test_sweep_matches_lone_solves_byte_for_byte(self, capsys, tmp_path):
        path, spec = self.sweep_spec(tmp_path, 5)
        rows = [["beta", "gamma", "lambda", "d_coeff", "phi_prime_lambda", "iterations", "residual", "status"]]
        for point in itertools.product(spec["beta"], spec["gamma"], spec["lambda"]):
            sol = solve_gme(GMEParams(*point), self.CONFIG)
            numbers = (*point, sol.d_coeff, sol.phi_prime_lambda, sol.iterations, sol.residual)
            rows.append([fmt(x) for x in numbers] + ["ok"])
        assert len(rows) == 201
        assert run(capsys, ["sweep", "--spec", str(path), "--grid-n", "201"]) == (0, csv_text(rows), "")

    def test_hscan_matches_lone_solves_byte_for_byte(self, capsys):
        rows = [["lambda", "H"]]
        for lam in np.linspace(0.05, 5.0, 100).tolist():
            rows.append([fmt(lam), fmt(solve_gme(GMEParams(0.07, 1.7, lam), self.CONFIG).phi_prime_lambda / lam)])
        assert run(capsys, self.HSCAN) == (0, csv_text(rows), "")

    def test_valid_points_build_no_per_row_objects(self, capsys, tmp_path, monkeypatch):
        built = []
        for cls in (GMEParams, GridFunction, GMESolution):
            def counting(self, original=cls.__post_init__):
                built.append(type(self).__name__)
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        path, _ = self.sweep_spec(tmp_path, 6)
        assert run(capsys, ["sweep", "--spec", str(path), "--grid-n", "201"])[0] == 0
        assert run(capsys, self.HSCAN)[0] == 0
        assert built == []
        # Only the prescribed-value profile is an object; the 4 flux-condition rows are not.
        # `solve_gme` builds its GMESolution without __post_init__, around a
        # GridFunction that is counted.
        dirichlet = ["dirichlet", "--beta", "0.002", "--lambda", "1.2", "--gamma", "0.1", "1", "10", "100"]
        assert run(capsys, [*dirichlet, "--curve-dir", str(tmp_path / "curves"), "--grid-n", "201"])[0] == 0
        assert built == ["GMEParams", "GridFunction"]


def test_sweep_and_hscan_leave_numpy_ma_unloaded(tmp_path):
    # Nothing on the batch path needs numpy.ma, which costs about 1.2 MiB and
    # 14 ms when first loaded (np.unique loads it). numpy before 2.0 loads it
    # on import, so the test asks only that the commands load nothing more.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"beta": [0.0, 0.05], "gamma": [1.0, 3.0], "lambda": [0.5, 1.0]}), encoding="utf-8")
    code = (
        "import contextlib, io, sys, gmerf.cli as cli\n"
        "before = 'numpy.ma' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['sweep', '--spec', {str(spec)!r}, '--grid-n', '51']) == 0\n"
        "    assert cli.main(['hscan', '--beta', '0.05', '--gamma', '2', '--lmin', '0.1', '--lmax', '2', '--steps', '20']) == 0\n"
        "print(before, 'numpy.ma' in sys.modules, int(sys.modules['numpy'].__version__.split('.')[0]))"
    )
    src = str(Path(gmerf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    before, after, major = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert after == before
    assert major == "1" or after == "False"


def test_fresh_import_needs_only_numpy():
    # numpy is the only runtime dependency: importing the package and its
    # CLI in a fresh interpreter loads no other third-party package (private
    # "_"-prefixed helper modules aside).
    code = (
        "import sys; before = set(sys.modules); import gmerf, gmerf.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    src = str(Path(gmerf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    loaded = {name for name in out.split() if not name.startswith("_")}
    assert loaded - set(sys.stdlib_module_names) == {"gmerf", "numpy"}
