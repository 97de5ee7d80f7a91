"""The three benchmark workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop with one client. Operation ``i`` of a run
draws its inputs from `Draws`, seeded by (workload, seed, i) and stratified
over blocks of operations, so the same seed gives the same inputs whatever
the timing, and no two operations of a run share a parameter point: the
package's profile cache never serves one operation's result to another.

Inputs are drawn without calling the package (the contraction thresholds that
bound the slopes are recomputed here), so every version of the package sees
identical inputs. The references are the package's own referees (a
64001-node solve, the RK4 shooting oracles, the beta = 0 closed form), run
after the timed loop.

Tolerances were set from the errors measured on the package at the commit
that introduced this benchmark, with the headroom stated next to each; they
may be tightened but never loosened.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SQRT_PI = math.sqrt(math.pi)
TESTS = Path(__file__).resolve().parent.parent / "tests"

# Per-operation checks.
# The front balance H(lam) = phi'(lam)/lam against 2/((1+beta) Ste). Since
# phi'' < 0, |H'| >= H/lam, so lam |H/rhs - 1| bounds the distance to the
# root in lam; Brent stops within root_tol = 1e-12. Measured max 4.8e-13 over
# 800 cases; the check allows 5e-12.
TOL_BALANCE_LAM = 5e-12
# front_position against 2 lam* sqrt(alpha0 t): the same three roundings.
TOL_FRONT = 1e-15
# temperature() documents that it returns tf exactly on the front. At the
# defining commit it does not in 1% to 2% of front reads: x / (2 sqrt(alpha0 t))
# rounds just below lam*, and the read is up to 2 ulps of max(|tf|, |tinf|)
# off. The check allows 4 ulps; `front_inexact` counts the reads that are not
# exact, so the defect stays visible until the package fixes it.
TOL_FRONT_TEMP_ULPS = 4
# Sampled reference checks, measured maxima at the defining commit:
# |d lam*| 5.9e-15 and field 2.5e-14 of (tf - tinf) at the op's own reads
# against the 64001-node solve over 85 cases; the op's reads fall on nodes of
# the 1001-node grid, so that is the node error.
TOL_LAMBDA_REF = 1e-13
TOL_FIELD_REF = 2e-13
# Field at OFF_NODE_READS seeded points per time, between the nodes: 1.2e-7
# over 400 cases, the error of linear interpolation on the 1001-node grid
# (the 64001-node reference is interpolated by cubics, exact to rounding).
# Headroom 4x: a default grid of 201 nodes read linearly fails it.
TOL_FIELD_OFF_NODE = 5e-7
OFF_NODE_READS = 64
# Profile against shoot_bvp / shoot_bvp_dirichlet on the 2001-node subgrid:
# 4.9e-12 over 500 solves (8x headroom); beta = 0 profile against
# approx.zero_order on every node: 9.1e-15 over 90 solves (11x headroom).
TOL_SHOOT_REF = 4e-11
TOL_CLOSED_FORM = 1e-13

REF_GRID_N = 64001
SHOOT_STRIDE = 32  # 64001 nodes -> the 2001-node subgrid
REF_WINDOW = 40  # sampled operations are drawn from the first 40 of a run


def beta1(gamma: float) -> float:
    """Positive root of (sqrt(pi)/2) gamma x sqrt(1+x) (3+x) = 1, by bisection."""

    def g(x):
        return 0.5 * SQRT_PI * gamma * x * math.sqrt(1.0 + x) * (3.0 + x) - 1.0

    return _bisect(g)


def dirichlet_beta1(lam: float) -> float:
    """Positive root of x (1+x)^1.5 (3+x) = erf(lam), by bisection."""
    target = math.erf(lam)
    return _bisect(lambda x: x * (1.0 + x) ** 1.5 * (3.0 + x) - target)


def _bisect(f) -> float:
    lo, hi = 0.0, 1.0
    while f(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _loguniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rng(workload: str, seed: int, tag) -> random.Random:
    return random.Random(f"{workload}:{seed}:{tag}")


STRATA = 20


class Draws:
    """Uniform draws for operation ``i``, stratified over blocks of STRATA ops.

    The k-th draw of the ops in one block falls once into each of STRATA equal
    sub-intervals (a Latin hypercube per block), so every block carries the
    same spread of parameters and of cost whatever the seed. That keeps the
    run-to-run variation of the timings down to the machine's own.
    """

    def __init__(self, workload: str, seed: int, i: int):
        block, self._pos = divmod(i, STRATA)
        self._block = f"{workload}:{seed}:block{block}"
        self._rng = _rng(workload, seed, i)
        self._dim = 0

    def random(self) -> float:
        perm = random.Random(f"{self._block}:{self._dim}").sample(range(STRATA), STRATA)
        self._dim += 1
        return (perm[self._pos] + self._rng.random()) / STRATA

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()


def reference_indices(workload: str, seed: int, k: int) -> list[int]:
    """Seeded operations whose outputs are checked against a reference."""
    return sorted(_rng(workload, seed, "reference").sample(range(REF_WINDOW), k))


# -- references -------------------------------------------------------------


def oracle(gm, module: str, name: str):
    """A reference function of the package, looked up by name.

    The shooting oracles may move from ``gmerf.numerics`` into the test suite
    (they are used only as referees); then the module under ``tests/`` that
    defines the name is loaded instead.
    """
    found = getattr(gm.modules.get(module), name, None)
    if found is not None:
        return found
    for path in sorted(TESTS.glob("*.py")):
        if f"def {name}(" in path.read_text(encoding="utf-8"):
            spec = importlib.util.spec_from_file_location(f"perfbench_oracle_{path.stem}", path)
            loaded = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(loaded)
            return getattr(loaded, name)
    raise LookupError(f"no reference {name!r} in {module} or under {TESTS}")


def cubic_interp(x: np.ndarray, lam: float, values: np.ndarray) -> np.ndarray:
    """Four-point Lagrange interpolation of node values on a uniform grid of [0, lam].

    On the 64001-node reference grid its error is far below rounding, so the
    reference field at any point is as accurate as the reference nodes.
    """
    n = values.size
    u = np.clip(x, 0.0, lam) * ((n - 1) / lam)
    j = np.clip(np.floor(u).astype(int) - 1, 0, n - 4)
    u = u - j
    v0, v1, v2, v3 = (values[j + k] for k in range(4))
    return (
        -(u - 1.0) * (u - 2.0) * (u - 3.0) / 6.0 * v0
        + u * (u - 2.0) * (u - 3.0) / 2.0 * v1
        - u * (u - 1.0) * (u - 3.0) / 2.0 * v2
        + u * (u - 1.0) * (u - 2.0) / 6.0 * v3
    )


def _profile_problems(values: np.ndarray, n: int) -> list[str]:
    out = []
    if values.shape != (n,):
        return [f"profile has shape {values.shape}, expected ({n},)"]
    if not np.all(np.isfinite(values)):
        out.append("profile has non-finite values")
    if values[-1] != 1.0:
        out.append(f"profile endpoint {values[-1]!r} is not 1")
    if values.min() < 0.0 or values.max() > 1.0:
        out.append("profile leaves [0, 1]")
    if np.any(np.diff(values) < 0.0):
        out.append("profile is not non-decreasing")
    return out


class Workload:
    """What run.run_loop drives: draw an op, prepare it, run it, check it."""

    name = ""
    block = 1  # ops per rotation; a traced run traces whole blocks
    n_references = 0  # seeded ops checked against a reference after the loop

    def __init__(self, seed: int, gm, tmpdir: Path):
        self.seed = seed
        self._gm = gm
        self._dir = tmpdir

    def prepare(self, op) -> None:
        """Write the op's input files; runs outside the timed region."""

    def facts(self) -> dict[str, float]:
        """Per-layer figures this workload measures itself (see FACT_NAMES)."""
        return {}


# Per-layer metrics that come from the workloads' own checks; a workload that
# does not measure one reports 0.
FACT_NAMES = (
    "fixed_point.ref_err_max",
    "stefan.lambda_err_max",
    "stefan.field_err_max",
    "stefan.front_inexact_share",
    "cli.output_bytes",
)


# -- stefan_cases ---------------------------------------------------------


@dataclass(frozen=True)
class StefanCase:
    physical: dict
    times: tuple
    beta: float
    gamma: float
    ste: float


class StefanCases(Workload):
    """One op: solve_stefan on a fresh physical case, then 3 x 51 field reads."""

    name = "stefan_cases"
    n_references = 3

    def __init__(self, seed: int, gm, tmpdir: Path):
        super().__init__(seed, gm, tmpdir)
        self.lambda_err_max = 0.0
        self.field_err_max = 0.0
        self.front_reads = 0
        self.front_inexact = 0

    def draw(self, i) -> StefanCase:
        rng = Draws(self.name, self.seed, i)
        gamma = _loguniform(rng, 0.1, 10.0)
        beta = rng.uniform(0.0, 0.9) * beta1(gamma)
        ste = _loguniform(rng, 0.05, 5.0)
        rho = rng.uniform(500.0, 9000.0)
        c = rng.uniform(100.0, 4500.0)
        k0 = _loguniform(rng, 0.1, 400.0)
        tinf = rng.uniform(-60.0, 0.0)
        tf = tinf + rng.uniform(1.0, 60.0)
        alpha0 = k0 / (rho * c)
        h0 = gamma * k0 / (2.0 * math.sqrt(alpha0))
        l = c * (tf - tinf) / ste
        times = tuple(sorted(_loguniform(rng, 1.0, 1e4) for _ in range(3)))
        physical = dict(rho=rho, c=c, l=l, k0=k0, h0=h0, tf=tf, tinf=tinf, beta=beta)
        return StefanCase(physical, times, beta, gamma, c * (tf - tinf) / l)

    def span_name(self, op) -> str:
        return "op.stefan_case"

    def facts(self) -> dict[str, float]:
        return {
            "stefan.lambda_err_max": self.lambda_err_max,
            "stefan.field_err_max": self.field_err_max,
            "stefan.front_inexact_share": self.front_inexact / self.front_reads if self.front_reads else 0.0,
        }

    def run(self, op: StefanCase):
        stefan = self._gm.stefan
        # The config is passed explicitly, as ``gmerf solve`` does.
        sol = stefan.solve_stefan(stefan.PhysicalParams(**op.physical), self._gm.fixed_point.SolverConfig())
        fields = []
        for t in op.times:
            s = stefan.front_position(sol, t)
            temps = [stefan.temperature(sol, float(x), t) for x in np.linspace(0.0, s, 51)]
            fields.append((t, s, temps))
        # The solution goes along so that the reference check can take further
        # field reads, untimed.
        return sol.lambda_star, sol.gme.phi_prime_lambda, fields, sol

    def check(self, op: StefanCase, out) -> list[str]:
        lam, phi_prime, fields, _ = out
        p = op.physical
        if not (math.isfinite(lam) and lam > 0.0):
            return [f"lambda* = {lam!r}"]
        problems = []
        rhs = 2.0 / ((1.0 + op.beta) * op.ste)
        off = lam * abs(phi_prime / lam / rhs - 1.0)
        if not off <= TOL_BALANCE_LAM:
            problems.append(f"front balance is {off:.3g} in lambda from its root")
        alpha0 = p["k0"] / (p["rho"] * p["c"])
        for t, s, temps in fields:
            expect = 2.0 * lam * math.sqrt(alpha0 * t)
            if not abs(s - expect) <= TOL_FRONT * expect:
                problems.append(f"front_position {s!r} != {expect!r} at t={t}")
            self.front_reads += 1
            if temps[-1] != p["tf"]:
                self.front_inexact += 1
                ulps = abs(temps[-1] - p["tf"]) / math.ulp(max(abs(p["tf"]), abs(p["tinf"])))
                if not ulps <= TOL_FRONT_TEMP_ULPS:
                    problems.append(f"temperature at the front {temps[-1]!r} != tf {p['tf']!r}")
            arr = np.asarray(temps)
            slack = 1e-12 * (p["tf"] - p["tinf"])
            if not (
                np.all(np.isfinite(arr))
                and arr.min() >= p["tinf"] - slack
                and arr.max() <= p["tf"] + slack
                and np.all(np.diff(arr) >= 0.0)
            ):
                problems.append(f"temperature profile at t={t} is not monotone within [tinf, tf]")
        return problems

    def check_reference(self, op: StefanCase, out) -> list[str]:
        """lambda* and the field against a 64001-node solve.

        The field is compared at the op's own reads, which fall on nodes of
        every grid with n - 1 divisible by 50, and at OFF_NODE_READS seeded
        points per time, which fall between the nodes of any grid, so that
        interpolation error shows.
        """
        stefan = self._gm.stefan
        lam, _, fields, sol = out
        p = op.physical
        ref = stefan.solve_stefan(
            stefan.PhysicalParams(**p), self._gm.fixed_point.SolverConfig(grid_n=REF_GRID_N)
        )
        lam_ref = ref.lambda_star
        values = np.asarray(ref.gme.phi.values)
        alpha0 = p["k0"] / (p["rho"] * p["c"])
        d_temp = p["tf"] - p["tinf"]

        def field_err(xs, temps, t):
            t_ref = p["tinf"] + d_temp * cubic_interp(xs / (2.0 * math.sqrt(alpha0 * t)), lam_ref, values)
            return float(np.max(np.abs(np.asarray(temps) - t_ref))) / d_temp

        rng = _rng(self.name, self.seed, ("off-node", op.times))
        node_err = off_err = 0.0
        for t, s, temps in fields:
            node_err = max(node_err, field_err(np.linspace(0.0, s, 51), temps, t))
            xs = np.array(sorted(rng.uniform(0.0, s) for _ in range(OFF_NODE_READS)))
            off_err = max(off_err, field_err(xs, [stefan.temperature(sol, float(x), t) for x in xs], t))
        lam_err = abs(lam - lam_ref)
        self.lambda_err_max = max(self.lambda_err_max, lam_err)
        self.field_err_max = max(self.field_err_max, node_err, off_err)
        problems = []
        if not lam_err <= TOL_LAMBDA_REF:
            problems.append(f"lambda* differs from the {REF_GRID_N}-node reference by {lam_err:.3g}")
        if not node_err <= TOL_FIELD_REF:
            problems.append(f"field at the op's reads differs from the {REF_GRID_N}-node reference by {node_err:.3g}")
        if not off_err <= TOL_FIELD_OFF_NODE:
            problems.append(f"field between nodes differs from the {REF_GRID_N}-node reference by {off_err:.3g}")
        return problems


# -- cli_coarse and cli_sweep -------------------------------------------------

CLI_GRID_N = 201
# Command sizes are those the repository documents: the README's hscan
# (100 steps from lmin to 100 lmin) and dirichlet (4 gammas with
# --curve-dir), and the ROADMAP's 200-point sweep (--jobs 4 in the README,
# capped at the CPUs available).
HSCAN_STEPS = 100
HSCAN_SPAN = 100.0
DIRICHLET_GAMMAS = 4
SWEEP_SHAPE = (2, 4, 25)  # beta, gamma and lambda values: 200 points
SWEEP_JOBS = 4
HEADERS = {
    "sweep": ["beta", "gamma", "lambda", "d_coeff", "phi_prime_lambda", "iterations", "residual", "status"],
    "hscan": ["lambda", "H"],
    "gme": ["eta", "phi", "phi0", "phi1_approx", "err0_pointwise", "err1_pointwise"],
    "dirichlet": ["gamma", "sup_gap"],
}


@dataclass(frozen=True)
class CliOp:
    command: str
    argv: tuple
    out: str  # the CSV file the command writes
    files: dict  # name -> content written before the op (inputs)
    expect: dict  # "rows", plus the input values the output must echo


class CliCoarse(Workload):
    """One op: one in-process ``gmerf`` command, in a fixed rotation."""

    name = "cli_coarse"
    rotation = ("hscan", "gme", "dirichlet")

    def __init__(self, seed: int, gm, tmpdir: Path):
        super().__init__(seed, gm, tmpdir)
        self.block = len(self.rotation)
        self.jobs = min(SWEEP_JOBS, len(os.sched_getaffinity(0)))
        self.output_bytes: list[int] = []

    def draw(self, i) -> CliOp:
        command = self.rotation[i % len(self.rotation)]
        # Strata run over the successive ops of one command.
        rng = Draws(f"{self.name}.{command}", self.seed, i // len(self.rotation))
        gamma = _loguniform(rng, 0.1, 10.0)
        beta = rng.uniform(0.0, 0.9) * beta1(gamma)
        lam = _loguniform(rng, 0.1, 2.0)
        out = str(self._dir / f"{command}.csv")
        grid = ("--grid-n", str(CLI_GRID_N), "--out", out)
        files = {}
        if command == "sweep":
            gammas = sorted(_loguniform(rng, 0.1, 10.0) for _ in range(SWEEP_SHAPE[1]))
            betas = sorted(rng.uniform(0.0, 0.9) * beta1(gammas[-1]) for _ in range(SWEEP_SHAPE[0]))
            lams = list(np.geomspace(lam, 2.0 * lam, SWEEP_SHAPE[2]))
            spec = str(self._dir / "spec.json")
            files[spec] = json.dumps({"beta": betas, "gamma": gammas, "lambda": lams})
            argv = ("sweep", "--spec", spec, "--jobs", str(self.jobs)) + grid
            points = [(b, g, v) for b in betas for g in gammas for v in lams]
            expect = {"rows": len(points), "echo": points}
        elif command == "hscan":
            lmin = _loguniform(rng, 0.04, 0.0625)
            lmax = HSCAN_SPAN * lmin
            argv = ("hscan", "--beta", repr(beta), "--gamma", repr(gamma), "--lmin", repr(lmin),
                    "--lmax", repr(lmax), "--steps", str(HSCAN_STEPS)) + grid
            expect = {"rows": HSCAN_STEPS, "echo": [(x,) for x in np.linspace(lmin, lmax, HSCAN_STEPS)]}
        elif command == "gme":
            argv = ("gme", "--beta", repr(beta), "--gamma", repr(gamma), "--lambda", repr(lam)) + grid
            expect = {"rows": CLI_GRID_N, "echo": [(x,) for x in np.linspace(0.0, lam, CLI_GRID_N)]}
        else:
            gammas = sorted(_loguniform(rng, 0.1, 100.0) for _ in range(DIRICHLET_GAMMAS))
            beta = rng.uniform(0.0, 0.9) * beta1(gammas[-1])
            argv = ("dirichlet", "--beta", repr(beta), "--lambda", repr(lam), "--gamma",
                    *(repr(g) for g in gammas), "--curve-dir", str(self._dir / "curves")) + grid
            expect = {"rows": DIRICHLET_GAMMAS, "echo": [(g,) for g in gammas]}
        return CliOp(command, argv, out, files, expect)

    def span_name(self, op: CliOp) -> str:
        return f"cli.{op.command}"

    def facts(self) -> dict[str, float]:
        sizes = self.output_bytes
        return {"cli.output_bytes": sum(sizes) / len(sizes) if sizes else 0.0}

    def prepare(self, op: CliOp) -> None:
        # Outputs of earlier ops go first, so that a command that writes
        # nothing cannot pass on a stale file.
        Path(op.out).unlink(missing_ok=True)
        curves = self._dir / "curves"
        if curves.exists():
            shutil.rmtree(curves)
        for path, text in op.files.items():
            Path(path).write_text(text, encoding="utf-8")

    def run(self, op: CliOp):
        return self._gm.cli.main(list(op.argv))

    def check(self, op: CliOp, rc) -> list[str]:
        if rc != 0:
            return [f"{op.command} exited with {rc}"]
        out = Path(op.out)
        if not out.is_file():
            return [f"{op.command} wrote no {out.name}"]
        nbytes = out.stat().st_size
        rows = _read_csv(out)
        problems = _table_problems(op.command, rows, HEADERS[op.command], op.expect["rows"])
        if problems:
            return problems
        if op.command == "sweep":
            if any(r[-1] != "ok" for r in rows[1:]):
                problems.append("sweep row status is not ok")
            problems += _finite_problems(op.command, [r[:-1] for r in rows[1:]])
        else:
            problems += _finite_problems(op.command, rows[1:])
        if problems:
            return problems
        problems += _echo_problems(op.command, rows[1:], op.expect["echo"])
        if op.command == "hscan" and any(float(r[1]) <= 0.0 for r in rows[1:]):
            problems.append("hscan H is not positive")
        if op.command == "dirichlet":
            curves = self._dir / "curves"
            for g in op.expect["echo"]:
                path = curves / f"curves_gamma_{format(g[0], 'g')}.csv"
                if not path.exists():
                    problems.append(f"missing curve file {path.name}")
                    continue
                nbytes += path.stat().st_size
                crows = _read_csv(path)
                problems += _table_problems(path.name, crows, ["eta", "phi_gamma", "phi_dag"], CLI_GRID_N)
                problems += _finite_problems(path.name, crows[1:])
        self.output_bytes.append(nbytes)
        return problems


class CliSweep(CliCoarse):
    """One op: one in-process ``gmerf sweep`` over 200 points."""

    name = "cli_sweep"
    rotation = ("sweep",)


def _echo_problems(what, rows, echo, rtol=1e-14) -> list[str]:
    """The leading columns must repeat the op's own inputs, row by row."""
    for row, expected in zip(rows, echo):
        for text, x in zip(row, expected):
            if not abs(float(text) - x) <= rtol * abs(x):
                return [f"{what}: row {row[: len(expected)]} does not match the input {list(expected)}"]
    return []


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _table_problems(what, rows, header, n_rows) -> list[str]:
    if not rows or rows[0] != header:
        return [f"{what}: unexpected header {rows[0] if rows else None}"]
    if len(rows) - 1 != n_rows:
        return [f"{what}: {len(rows) - 1} rows, expected {n_rows}"]
    if any(len(r) != len(header) for r in rows):
        return [f"{what}: ragged rows"]
    return []


def _finite_problems(what, rows) -> list[str]:
    try:
        ok = all(math.isfinite(float(x)) for r in rows for x in r)
    except ValueError:
        ok = False
    return [] if ok else [f"{what}: a field is not a finite number"]


# -- profile_fine ----------------------------------------------------------


@dataclass(frozen=True)
class ProfileOp:
    kind: str  # "beta0", "certified", "unproven" or "dirichlet"
    beta: float
    gamma: float
    lam: float
    certified: bool


class ProfileFine(Workload):
    """One op: one profile solve on the 64001-node reference grid."""

    name = "profile_fine"
    n_references = 4

    def __init__(self, seed: int, gm, tmpdir: Path):
        super().__init__(seed, gm, tmpdir)
        self._config = gm.fixed_point.SolverConfig(grid_n=REF_GRID_N)
        self.ref_err_max = 0.0

    def draw(self, i) -> ProfileOp:
        # u picks the kind: 3, 4, 3 and 10 of every 20 ops are beta0,
        # dirichlet, unproven and certified.
        rng = Draws(self.name, self.seed, i)
        u = rng.random()
        gamma = _loguniform(rng, 0.1, 10.0)
        lam = _loguniform(rng, 0.05, 3.0)
        below = rng.uniform(0.05, 0.95)
        above = rng.uniform(1.05, 2.0)
        certified = rng.random() < 0.5
        if u < 0.15:
            return ProfileOp("beta0", 0.0, gamma, lam, True)
        if u < 0.35:
            threshold = dirichlet_beta1(lam)
            beta = (below if certified else above) * threshold
            return ProfileOp("dirichlet", beta, math.inf, lam, certified)
        if u < 0.5:
            return ProfileOp("unproven", above * beta1(gamma), gamma, lam, False)
        return ProfileOp("certified", below * beta1(gamma), gamma, lam, True)

    def span_name(self, op) -> str:
        return "op.profile_solve"

    def facts(self) -> dict[str, float]:
        return {"fixed_point.ref_err_max": self.ref_err_max}

    def run(self, op: ProfileOp):
        if op.kind == "dirichlet":
            return self._gm.stefan.solve_dirichlet(op.beta, op.lam, self._config)
        params = self._gm.fixed_point.GMEParams(beta=op.beta, gamma=op.gamma, lam=op.lam)
        return self._gm.fixed_point.solve_gme(params, self._config, allow_unproven=op.kind == "unproven")

    def check(self, op: ProfileOp, sol) -> list[str]:
        values = np.asarray(sol.phi.values)
        problems = _profile_problems(values, REF_GRID_N)
        if not sol.residual <= self._config.fp_tol:
            problems.append(f"residual {sol.residual:g} above fp_tol")
        if bool(sol.contraction_certified) != op.certified:
            problems.append(f"certified flag {sol.contraction_certified} != expected {op.certified}")
        if not (math.isfinite(sol.phi_prime_lambda) and sol.phi_prime_lambda > 0.0):
            problems.append(f"phi'(lam) = {sol.phi_prime_lambda!r}")
        if op.kind == "dirichlet" and values[0] != 0.0:
            problems.append(f"prescribed-value profile starts at {values[0]!r}")
        return problems

    def check_reference(self, op: ProfileOp, sol) -> list[str]:
        """beta = 0 against ``approx.zero_order`` on every node; other points
        against the package's RK4 shooting oracles on the 2001-node subgrid."""
        values = np.asarray(sol.phi.values)
        if op.kind == "beta0":
            zero_order = oracle(self._gm, "gmerf.approx", "zero_order")
            ref = zero_order(np.linspace(0.0, op.lam, values.size), op.gamma, op.lam)
            tol, what = TOL_CLOSED_FORM, "zero_order"
        else:
            values = values[::SHOOT_STRIDE]
            config = self._gm.fixed_point.SolverConfig(grid_n=values.size)
            if op.kind == "dirichlet":
                ref = oracle(self._gm, "gmerf.numerics", "shoot_bvp_dirichlet")(op.beta, op.lam, config)
            else:
                params = self._gm.fixed_point.GMEParams(beta=op.beta, gamma=op.gamma, lam=op.lam)
                ref = oracle(self._gm, "gmerf.numerics", "shoot_bvp")(params, config)
            ref = np.asarray(ref.values)
            tol, what = TOL_SHOOT_REF, "RK4 shooting"
        err = float(np.max(np.abs(values - ref)))
        self.ref_err_max = max(self.ref_err_max, err)
        return [] if err <= tol else [f"{op.kind} profile differs from {what} by {err:.3g}"]


WORKLOADS = {w.name: w for w in (StefanCases, CliCoarse, CliSweep, ProfileFine)}
