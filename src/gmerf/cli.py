"""Command-line front end: curve and table emission for the solver package.

Figures are emitted as data (CSV), never as images; any plotting is an
external step. Every CSV uses a header row, LF line endings, and floats
printed with 17 significant digits, so a file parsed and re-emitted is
byte-identical. JSON reports are UTF-8 with stable (insertion) key order.

Exit codes, stable across commands: 0 success, 1 usage or validation error,
2 solver failure. The grid resolution is ``--grid-n``, else a config or spec
file's ``grid_n``, else 1001. The argument parser is built once per process,
on the first `main` call, not at import.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .approx import approx_coeffs, first_order, zero_order
from .errors import GmerfError
from .fixed_point import (
    DEFAULT_CONFIG,
    GMEParams,
    SolverConfig,
    _raise_first,
    _solve_rows,
    contraction_threshold,
    solve_gme,
)
from .numerics import _require
from .stefan import (
    PhysicalParams,
    _dirichlet_comparison,
    front_position,
    solve_stefan,
    temperature,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2

_DEFAULT_GAMMAS = (0.1, 1.0, 10.0, 100.0)
_PROFILE_POINTS = 51


def _sanitize(message: str) -> str:
    # Error text goes into single CSV cells: no commas, no line breaks.
    return message.replace(",", ";").replace("\n", " ")


@functools.lru_cache(maxsize=64)
def _row_template(kinds: tuple[type, ...]) -> str:
    # Text cells as given; numbers as "%.17g", the text of format(float(x), ".17g").
    return ",".join("%s" if issubclass(kind, str) else "%.17g" for kind in kinds)


def _csv(header: list[str], rows) -> str:
    """The CSV text of a table: text cells as given, every other cell with 17 significant digits."""
    lines = [",".join(header)]
    lines += [_row_template(tuple(map(type, row))) % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"


def _exit_code(failures) -> int:
    """Exit code of a table with failed rows: 2 if any failure is a solver failure, else 1."""
    return max((EXIT_SOLVER if isinstance(exc, GmerfError) else EXIT_USAGE for exc in failures), default=EXIT_OK)


def _emit(text: str, out: str | Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _config_from(args: argparse.Namespace, file_value=None) -> SolverConfig:
    """The solve settings: grid_n from --grid-n, else the file's grid_n, else 1001; SolverConfig validates it."""
    grid_n = next((value for value in (args.grid_n, file_value) if value is not None), DEFAULT_CONFIG.grid_n)
    return SolverConfig(grid_n=grid_n)


def _cmd_beta1(args: argparse.Namespace) -> int:
    gammas = list(_DEFAULT_GAMMAS) if args.gamma is None else args.gamma
    rows, failures = [], []
    for gamma in gammas:
        try:
            rows.append([gamma, contraction_threshold(gamma), "ok"])
        except (GmerfError, ValueError) as exc:
            rows.append([gamma, "", _sanitize(str(exc))])
            failures.append(exc)
    _emit(_csv(["gamma", "beta1", "status"], rows), args.out)
    return _exit_code(failures)


def _cmd_gme(args: argparse.Namespace) -> int:
    config = _config_from(args)
    # A one-off solve: the process-wide profile cache stays for the front solves.
    sol = solve_gme(GMEParams(args.beta, args.gamma, args.lam), config)
    coeffs = approx_coeffs(args.gamma, args.lam)
    eta, phi = sol.phi.nodes, sol.phi.values
    phi0 = zero_order(eta, args.gamma, args.lam)
    phi1 = phi0 + args.beta * first_order(eta, coeffs)
    header = ["eta", "phi", "phi0", "phi1_approx", "err0_pointwise", "err1_pointwise"]
    _emit(_csv(header, zip(eta, phi, phi0, phi1, np.abs(phi - phi0), np.abs(phi - phi1))), args.out)
    return EXIT_OK


def _cmd_hscan(args: argparse.Namespace) -> int:
    _require("--lmin", args.lmin)
    if not (math.isfinite(args.lmax) and args.lmax >= args.lmin):
        raise ValueError(f"--lmax must be >= --lmin, got {args.lmax}")
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    config = _config_from(args)
    lams = np.linspace(args.lmin, args.lmax, args.steps)
    rows = _solve_rows([(args.beta, args.gamma, float(lam)) for lam in lams], config)
    _raise_first(rows.errors)
    _emit(_csv(["lambda", "H"], zip(lams.tolist(), (rows.phi_prime_lambda / lams).tolist())), args.out)
    return EXIT_OK


def _load_json_object(path: str, what: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{what} must hold a JSON object, got {type(data).__name__}")
    return data


def _number(key: str, value) -> float:
    """A file value as a float; a ValueError naming the key if float() refuses it."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def _numbers(key: str, value) -> list[float]:
    """A file list as floats: a JSON list only (a string is refused), each element as `_number`."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    return [_number(key, v) for v in value]


def _cmd_solve(args: argparse.Namespace) -> int:
    file_vals = _load_json_object(args.config, "config file") if args.config else {}

    def pick(name: str, default=None, read=_number):
        # A flag arrives typed from argparse; a file value is read here, once.
        value = getattr(args, name)
        if value is None and file_vals.get(name) is not None:
            value = read(name, file_vals[name])
        return default if value is None else value

    values = {f.name: pick(f.name, 0.0 if f.name == "beta" else None) for f in dataclasses.fields(PhysicalParams)}
    missing = [name for name, value in values.items() if value is None]
    if missing:
        raise ValueError(f"missing physical parameters: {' '.join(missing)}")
    physical = PhysicalParams(**values)
    times = pick("times", [1.0], _numbers)
    if not times:
        raise ValueError("times must list at least one time")
    for t in times:
        _require("times", t)
    positions = pick("positions", None, _numbers)

    config = _config_from(args, file_vals.get("grid_n"))
    sol = solve_stefan(physical, config)
    profiles = []
    for t in times:
        xs = positions if positions is not None else np.linspace(0.0, front_position(sol, t), _PROFILE_POINTS)
        profiles.append([t, [[float(x), temperature(sol, float(x), t)] for x in xs]])
    report = {
        "lambda_star": sol.lambda_star,
        "ste": physical.ste,
        "bi": physical.bi,
        "gamma": physical.gamma,
        "alpha0": physical.alpha0,
        "front": [[t, front_position(sol, t)] for t in times],
        "profiles": profiles,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK


def _curve_names(gammas: list[float]) -> list[str]:
    """One curve file name per gamma; two different gammas may not share one."""
    names = [f"curves_gamma_{format(float(gamma), 'g')}.csv" for gamma in gammas]
    owner: dict[str, float] = {}
    for name, gamma in zip(names, gammas):
        if owner.setdefault(name, gamma) != gamma:
            raise ValueError(f"--gamma {owner[name]!r} and {gamma!r} would both write {name}")
    return names


def _cmd_dirichlet(args: argparse.Namespace) -> int:
    config = _config_from(args)
    names = None if args.curve_dir is None else _curve_names(args.gamma)
    dag, robins, gaps = _dirichlet_comparison(args.beta, args.lam, args.gamma, config)
    _emit(_csv(["gamma", "sup_gap"], zip(args.gamma, gaps)), args.out)

    if names is not None:
        outdir = Path(args.curve_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, robin in zip(names, robins):
            curve = zip(dag.phi.nodes, robin, dag.phi.values)
            _emit(_csv(["eta", "phi_gamma", "phi_dag"], curve), outdir / name)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _load_json_object(args.spec, "sweep spec")
    try:
        betas, gammas, lams = (_numbers(key, spec[key]) for key in ("beta", "gamma", "lambda"))
    except KeyError as exc:
        raise ValueError(f"sweep spec missing key {exc}") from None
    if not (betas and gammas and lams):
        raise ValueError("sweep lists beta, gamma, lambda must be non-empty")
    config = _config_from(args, spec.get("grid_n"))
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")

    points = list(itertools.product(betas, gammas, lams))
    rows = _solve_rows(points, config)
    numbers = zip(rows.d_coeff, rows.phi_prime_lambda, rows.iterations, rows.residual)
    table = [
        [*point, *values, "ok"] if exc is None else [*point, "", "", "", "", _sanitize(str(exc))]
        for point, values, exc in zip(points, numbers, rows.errors)
    ]
    header = ["beta", "gamma", "lambda", "d_coeff", "phi_prime_lambda", "iterations", "residual", "status"]
    _emit(_csv(header, table), args.out)
    return _exit_code(exc for exc in rows.errors if exc is not None)


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1 (argparse's stock choice of 2 is reserved for
    # solver failures here).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_grid_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-n", type=int, default=None, help="grid nodes, >= 3; beats a file's grid_n (default 1001)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gmerf", description="Temperature-dependent-conductivity solidification solver.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "beta1",
        help="contraction thresholds beta1(gamma)",
        description="CSV table gamma,beta1,status; rows with an invalid gamma (exit 1) or a failed solve (exit 2) carry the message.",
    )
    p.add_argument("--gamma", type=float, nargs="+", default=None, help="gamma values (default: 0.1 1 10 100)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_beta1)

    p = sub.add_parser(
        "gme",
        help="solved profile plus closed-form approximations",
        description="CSV curve eta,phi,phi0,phi1_approx,err0_pointwise,err1_pointwise with one row per grid node.",
    )
    p.add_argument("--beta", type=float, required=True, help="conductivity slope, >= 0")
    p.add_argument("--gamma", type=float, required=True, help="flux-condition coefficient, > 0")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="right endpoint, > 0")
    _add_grid_out(p)
    p.set_defaults(func=_cmd_gme)

    p = sub.add_parser(
        "hscan",
        help="front-balance curve H(lambda) = phi'(lambda)/lambda",
        description=(
            "CSV curve lambda,H over a uniform lambda range. All lambdas are solved as one batch; if any "
            "fails, no table is written and the first failure in lambda order is reported."
        ),
    )
    p.add_argument("--beta", type=float, required=True, help="conductivity slope, >= 0")
    p.add_argument("--gamma", type=float, required=True, help="flux-condition coefficient, > 0")
    p.add_argument("--lmin", type=float, required=True, help="smallest lambda, > 0")
    p.add_argument("--lmax", type=float, required=True, help="largest lambda, >= lmin")
    p.add_argument("--steps", type=int, required=True, help="number of scan points, >= 1")
    _add_grid_out(p)
    p.set_defaults(func=_cmd_hscan)

    p = sub.add_parser(
        "solve",
        help="full solidification solve from physical data",
        description=(
            "JSON report {lambda_star, ste, bi, gamma, alpha0, front, profiles}. Parameters come from "
            "--config (flat JSON object mirroring the flag names) and/or flags; flags override file values. "
            "Without --positions each profile samples 51 points from the face to the front."
        ),
    )
    p.add_argument("--config", default=None, help="JSON parameter file")
    p.add_argument("--rho", type=float, default=None, help="density, > 0")
    p.add_argument("--c", type=float, default=None, help="specific heat, > 0")
    p.add_argument("--l", type=float, default=None, help="latent heat, > 0")
    p.add_argument("--k0", type=float, default=None, help="reference conductivity, > 0")
    p.add_argument("--h0", type=float, default=None, help="boundary flux coefficient, > 0")
    p.add_argument("--tf", type=float, default=None, help="phase-change temperature, > tinf")
    p.add_argument("--tinf", type=float, default=None, help="ambient temperature")
    p.add_argument("--beta", type=float, default=None, help="conductivity slope, >= 0 (default 0)")
    p.add_argument("--times", type=float, nargs="+", default=None, help="report times, > 0 (default: 1.0)")
    p.add_argument("--positions", type=float, nargs="+", default=None, help="report positions within [0, s(t)]")
    _add_grid_out(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "dirichlet",
        help="prescribed-value profile vs flux-condition profiles",
        description=(
            "CSV table gamma,sup_gap of sup-norm gaps to the prescribed-value profile. With --curve-dir, "
            "also writes curves_gamma_<g>.csv (eta,phi_gamma,phi_dag) per gamma."
        ),
    )
    p.add_argument("--beta", type=float, required=True, help="conductivity slope, >= 0")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="right endpoint, > 0")
    p.add_argument("--gamma", type=float, nargs="+", required=True, help="gamma values to compare")
    p.add_argument("--curve-dir", default=None, help="directory for per-gamma curve files")
    _add_grid_out(p)
    p.set_defaults(func=_cmd_dirichlet)

    p = sub.add_parser(
        "sweep",
        help="batch profile solves over a parameter grid",
        description=(
            "CSV table beta,gamma,lambda,d_coeff,phi_prime_lambda,iterations,residual,status over the "
            "cartesian product of the spec file's beta/gamma/lambda lists (optional grid_n). Rows keep "
            "input order and are solved as one batch; failed rows carry the message in status and flip the "
            "exit code (2 if any solver failure, else 1 if any invalid point)."
        ),
    )
    p.add_argument("--spec", required=True, help="JSON spec file with lists beta, gamma, lambda")
    # Kept because the benchmark's cli_sweep workload passes it.
    p.add_argument("--jobs", type=int, default=None, help="accepted for compatibility, >= 1; no effect (all points are solved as one batch)")
    _add_grid_out(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GmerfError as exc:
        print(f"gmerf: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"gmerf: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
