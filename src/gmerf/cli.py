"""Command-line front end: curve and table emission for the solver package.

Figures are emitted as data (CSV), never as images; any plotting is an
external step. Every CSV uses a header row, LF line endings, and floats
printed with 17 significant digits, so a file parsed and re-emitted is
byte-identical. JSON reports are UTF-8 with stable (insertion) key order.

Exit codes, stable across commands: 0 success, 1 usage or validation error,
2 solver failure. The optional ``GME_GRID_N`` environment variable overrides
the default grid resolution; an explicit ``--grid-n`` beats both.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .approx import approx_coeffs, first_order, zero_order
from .errors import GmerfError
from .fixed_point import (
    DEFAULT_CONFIG,
    GMEParams,
    SolverConfig,
    contraction_threshold,
)
from .stefan import (
    PhysicalParams,
    _solved,
    boundary_slope_ratio,
    dirichlet_gap,
    front_position,
    solve_dirichlet,
    solve_stefan,
    temperature,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2

_DEFAULT_GAMMAS = (0.1, 1.0, 10.0, 100.0)
_PROFILE_POINTS = 51


def _fmt(x: float) -> str:
    """Canonical float text: 17 significant digits, parses back to the same double."""
    return format(float(x), ".17g")


def _sanitize(message: str) -> str:
    # Error text goes into single CSV cells: no commas, no line breaks.
    return message.replace(",", ";").replace("\n", " ")


def _csv(rows: list[list[str]]) -> str:
    return "\n".join(",".join(row) for row in rows) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _resolve_grid_n(flag_value: int | None, file_value=None) -> int:
    """Grid resolution precedence: --grid-n flag, config file, GME_GRID_N, 1001."""
    if flag_value is not None:
        return flag_value
    if file_value is not None:
        if not isinstance(file_value, int) or isinstance(file_value, bool):
            raise ValueError(f"grid_n must be an integer, got {file_value!r}")
        return file_value
    env = os.environ.get("GME_GRID_N")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"GME_GRID_N must be an integer, got {env!r}") from None
    return DEFAULT_CONFIG.grid_n


def _config_from(args: argparse.Namespace, file_value=None) -> SolverConfig:
    return SolverConfig(grid_n=_resolve_grid_n(args.grid_n, file_value))


def _cmd_beta1(args: argparse.Namespace) -> int:
    gammas = list(_DEFAULT_GAMMAS) if args.gamma is None else args.gamma
    rows = [["gamma", "beta1", "status"]]
    bad = False
    for gamma in gammas:
        try:
            root = contraction_threshold(gamma)
        except ValueError as exc:
            rows.append([_fmt(gamma), "", _sanitize(str(exc))])
            bad = True
        else:
            rows.append([_fmt(gamma), _fmt(root), "ok"])
    _emit(_csv(rows), args.out)
    return EXIT_USAGE if bad else EXIT_OK


def _cmd_gme(args: argparse.Namespace) -> int:
    config = _config_from(args)
    sol = _solved(args.beta, args.gamma, args.lam, config)
    coeffs = approx_coeffs(args.gamma, args.lam)
    eta = sol.phi.nodes
    phi = sol.phi.values
    phi0 = zero_order(eta, args.gamma, args.lam)
    phi1 = phi0 + args.beta * first_order(eta, coeffs)
    rows = [["eta", "phi", "phi0", "phi1_approx", "err0_pointwise", "err1_pointwise"]]
    for i in range(eta.size):
        rows.append(
            [
                _fmt(eta[i]),
                _fmt(phi[i]),
                _fmt(phi0[i]),
                _fmt(phi1[i]),
                _fmt(abs(phi[i] - phi0[i])),
                _fmt(abs(phi[i] - phi1[i])),
            ]
        )
    _emit(_csv(rows), args.out)
    return EXIT_OK


def _cmd_hscan(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.lmin) and args.lmin > 0.0):
        raise ValueError(f"--lmin must be positive (the scanned ratio is undefined at 0), got {args.lmin}")
    if not (math.isfinite(args.lmax) and args.lmax >= args.lmin):
        raise ValueError(f"--lmax must be >= --lmin, got {args.lmax}")
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    config = _config_from(args)
    rows = [["lambda", "H"]]
    for lam in np.linspace(args.lmin, args.lmax, args.steps):
        rows.append([_fmt(lam), _fmt(boundary_slope_ratio(float(lam), args.beta, args.gamma, config))])
    _emit(_csv(rows), args.out)
    return EXIT_OK


def _load_json_object(path: str, what: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{what} must hold a JSON object, got {type(data).__name__}")
    return data


def _cmd_solve(args: argparse.Namespace) -> int:
    file_vals = _load_json_object(args.config, "config file") if args.config else {}

    def pick(name: str, default=None):
        flag = getattr(args, name)
        return flag if flag is not None else file_vals.get(name, default)

    missing = [n for n in ("rho", "c", "l", "k0", "h0", "tf", "tinf") if pick(n) is None]
    if missing:
        raise ValueError(f"missing physical parameters: {' '.join(missing)}")
    physical = PhysicalParams(
        rho=float(pick("rho")),
        c=float(pick("c")),
        l=float(pick("l")),
        k0=float(pick("k0")),
        h0=float(pick("h0")),
        tf=float(pick("tf")),
        tinf=float(pick("tinf")),
        beta=float(pick("beta", 0.0)),
    )
    times = [float(t) for t in pick("times", [1.0])]
    if not times or any(not (math.isfinite(t) and t > 0.0) for t in times):
        raise ValueError(f"times must be positive, got {times}")
    positions = pick("positions")
    if positions is not None:
        positions = [float(x) for x in positions]

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


def _cmd_dirichlet(args: argparse.Namespace) -> int:
    config = _config_from(args)
    rows = [["gamma", "sup_gap"]]
    rows += [[_fmt(gamma), _fmt(gap)] for gamma, gap in dirichlet_gap(args.beta, args.lam, args.gamma, config)]
    _emit(_csv(rows), args.out)

    if args.curve_dir is not None:
        outdir = Path(args.curve_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        dag = solve_dirichlet(args.beta, args.lam, config)
        eta = dag.phi.nodes
        for gamma in args.gamma:
            robin = _solved(args.beta, float(gamma), args.lam, config)
            curve = [["eta", "phi_gamma", "phi_dag"]]
            for i in range(eta.size):
                curve.append([_fmt(eta[i]), _fmt(robin.phi.values[i]), _fmt(dag.phi.values[i])])
            name = f"curves_gamma_{format(float(gamma), 'g')}.csv"
            with open(outdir / name, "w", encoding="utf-8", newline="") as fh:
                fh.write(_csv(curve))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _load_json_object(args.spec, "sweep spec")
    try:
        betas = [float(b) for b in spec["beta"]]
        gammas = [float(g) for g in spec["gamma"]]
        lams = [float(v) for v in spec["lambda"]]
    except KeyError as exc:
        raise ValueError(f"sweep spec missing key {exc}") from None
    except TypeError:
        raise ValueError("sweep spec entries beta, gamma, lambda must be lists of numbers") from None
    if not (betas and gammas and lams):
        raise ValueError("sweep lists beta, gamma, lambda must be non-empty")
    config = _config_from(args, spec.get("grid_n"))
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")

    rows = [["beta", "gamma", "lambda", "d_coeff", "phi_prime_lambda", "iterations", "residual", "status"]]
    saw_solver = saw_usage = False
    for beta, gamma, lam in itertools.product(betas, gammas, lams):
        head = [_fmt(beta), _fmt(gamma), _fmt(lam)]
        try:
            sol = _solved(beta, gamma, lam, config)
        except (GmerfError, ValueError) as exc:
            rows.append(head + ["", "", "", "", _sanitize(str(exc))])
            if isinstance(exc, GmerfError):
                saw_solver = True
            else:
                saw_usage = True
        else:
            rows.append(
                head
                + [_fmt(sol.d_coeff), _fmt(sol.phi_prime_lambda), _fmt(sol.iterations), _fmt(sol.residual), "ok"]
            )
    _emit(_csv(rows), args.out)
    if saw_solver:
        return EXIT_SOLVER
    if saw_usage:
        return EXIT_USAGE
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1 (argparse's stock choice of 2 is reserved for
    # solver failures here).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_grid_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-n", type=int, default=None, help="grid nodes (default 1001; GME_GRID_N overrides)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gmerf", description="Temperature-dependent-conductivity solidification solver.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "beta1",
        help="contraction thresholds beta1(gamma)",
        description="CSV table gamma,beta1,status; rows with invalid gamma carry the message and flip the exit code to 1.",
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
        description="CSV curve lambda,H over a uniform lambda range (each row is a full solve; results are cached per process).",
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
            "input order; failed rows carry the message in status and flip the exit code (2 if any "
            "solver failure, else 1 if any invalid point)."
        ),
    )
    p.add_argument("--spec", required=True, help="JSON spec file with lists beta, gamma, lambda")
    p.add_argument("--jobs", type=int, default=None, help="accepted for compatibility, >= 1; solves run in order")
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
