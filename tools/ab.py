"""Paired in-process A/B timing of two gmerf trees, at layers L2 to L4.

Usage, from the repository root:

    python tools/ab.py --base HEAD [--out BENCH.json]

The base is ``git archive <rev> src/gmerf``, unpacked to a temporary
directory and imported as the package ``gmerf_base``; the head is this
checkout's ``src/gmerf``, imported as ``gmerf_head`` (and once more as
``gmerf_head_again`` for the A/A runs). The package uses only relative
imports, so the copies live side by side in one interpreter, each with its
own caches, and no process start or heap layout of another process enters
the comparison.

Each run alternates the two packages op by op, ABBA, and reports per side
the min over k samples (a sample is the mean of a few calls at L2 and L3,
one op at L4) and the median paired ratio head/base with its quartiles.
The runs are:

- L2: ``solve_gme`` at 201, 1001 and 64001 nodes on the README's profile
  example (beta = 0.9 contraction_threshold(1), gamma = 1, lam = 2);
- L3: a cold ``solve_stefan`` of the README case (its profile cache, and
  the threshold cache of a tree that has one, cleared before every call);
- L4: the four workloads of ``perfbench/`` (``stefan_cases``,
  ``cli_coarse``, ``cli_sweep``, ``profile_fine``), imported read-only, op i
  drawn once and run on both sides;
- A/A: the head against its second copy on L2 at 201 nodes and on each
  workload, whose quartiles should contain 1.

Before timing, an untimed pass counts per side the profile solves per call
(per op at L4), the Picard iterations per solve, the quadrature passes per
call, all of them and those inside the front loop, and the front loop's
operator applications per call, and checks that both sides give the
same bits (profiles, ``lambda*`` and field reads, the CLI's CSV files, a
``profile_fine`` solution's profile and numbers). Workload ops are checked
with the workload's own ``check``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # perfbench/ is imported read-only
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SUBMODULES = ("numerics", "fixed_point", "approx", "stefan", "cli")
PAIRS = 40  # pairs per run at L2 and L3; twice as many at L4
SEED = 11  # perfbench seed of the L4 ops
README_CASE = dict(rho=1.2, c=2.5, l=2.0, k0=1.7, h0=1.0, tf=1.0, tinf=-1.0, beta=0.25)


def load(src: Path, name: str):
    """The package in directory src, imported under name with its submodules."""
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in SUBMODULES:
        setattr(pkg, sub, importlib.import_module(f"{name}.{sub}"))
    return pkg


class Side:
    """One package as perfbench's workloads see it (their ``gm``), with a scratch directory."""

    def __init__(self, pkg, tmp: Path):
        tmp.mkdir()
        self.pkg, self.tmp = pkg, tmp
        self.modules = {"gmerf": pkg, **{f"gmerf.{sub}": getattr(pkg, sub) for sub in SUBMODULES}}
        self.numerics, self.fixed_point, self.stefan, self.cli = pkg.numerics, pkg.fixed_point, pkg.stefan, pkg.cli

    def clear_caches(self):
        self.stefan._solved.cache_clear()
        # Only a tree from before certification by the inequality alone caches thresholds.
        getattr(self.fixed_point.contraction_threshold, "cache_clear", lambda: None)()


class Counts:
    """Counts profile solves, their Picard iterations, quadrature passes and the front loop's work while active.

    Wraps ``solve_gme`` where the package binds it and ``_solve_rows`` where
    the CLI and the front solve call it, so each solve is counted once.
    Quadrature passes are ``_cumint`` calls, wrapped at each module that
    binds it, so each call is counted once whichever module makes it. The
    front loop (``stefan._front_loop``) is counted by its operator
    applications (``stefan._apply``, which only the loop calls there) and the
    quadrature passes made while it runs; a tree without the loop counts 0
    of each.
    """

    def __init__(self, side: Side):
        self.side, self._saved = side, []
        self.solves = self.iterations = self.applications = 0
        self.passes = self.loop_passes = 0
        self._in_loop = False

    def _solved(self, out):
        self.solves += 1
        self.iterations += out.iterations

    def _rows(self, out):
        ok = [exc is None for exc in out.errors]
        self.solves += len(ok)
        self.iterations += int(np.sum(out.iterations[ok]))

    def _applied(self, out):
        self.applications += 1

    def _integrated(self, out):
        self.passes += 1
        self.loop_passes += self._in_loop

    def _wrap(self, module, attr, tally):
        original = getattr(module, attr, None)
        if original is None:
            return

        def counted(*args, **kwargs):
            out = original(*args, **kwargs)
            tally(out)
            return out

        self._saved.append((module, attr, original))
        setattr(module, attr, counted)

    def _mark_loop(self, module):
        # Flags the quadrature passes made while the front loop runs.
        original = module._front_loop

        def looped(*args, **kwargs):
            self._in_loop = True
            try:
                return original(*args, **kwargs)
            finally:
                self._in_loop = False

        self._saved.append((module, "_front_loop", original))
        module._front_loop = looped

    def __enter__(self):
        s = self.side
        for module in (s.fixed_point, s.stefan, s.cli):
            self._wrap(module, "solve_gme", self._solved)
        for module in (s.stefan, s.cli):
            self._wrap(module, "_solve_rows", self._rows)
        for module in (s.numerics, s.fixed_point, s.stefan):
            self._wrap(module, "_cumint", self._integrated)
        if hasattr(s.stefan, "_front_loop"):
            self._wrap(s.stefan, "_apply", self._applied)
            self._mark_loop(s.stefan)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)


# -- runs: each builds, per side, a list of ops; an op returns (seconds, output) --


def l2_ops(side: Side, n: int, reps: int, k: int):
    fp = side.fixed_point
    params = fp.GMEParams(beta=0.9 * fp.contraction_threshold(1.0), gamma=1.0, lam=2.0)
    config = fp.SolverConfig(grid_n=n)

    def op():
        t0 = time.perf_counter()
        for _ in range(reps):
            sol = fp.solve_gme(params, config)
        return (time.perf_counter() - t0) / reps, sol.phi.values.tobytes()

    op.calls = reps
    return [op] * k


def l3_ops(side: Side, reps: int, k: int):
    stefan = side.stefan

    def op():
        total = 0.0
        for _ in range(reps):
            side.clear_caches()
            t0 = time.perf_counter()
            sol = stefan.solve_stefan(stefan.PhysicalParams(**README_CASE))
            total += time.perf_counter() - t0
        return total / reps, (sol.lambda_star, sol.gme.phi.values.tobytes())

    op.calls = reps
    return [op] * k


def workload_ops(side: Side, name: str, seed: int, k: int, tmp: Path):
    wl = workloads.WORKLOADS[name](seed, side, tmp)

    def make(i):
        def op():
            case = wl.draw(i)
            wl.prepare(case)
            t0 = time.perf_counter()
            out = wl.run(case)
            dt = time.perf_counter() - t0
            problems = wl.check(case, out)
            if problems:
                raise AssertionError(f"{name} op {i} failed its check: {problems}")
            return dt, op_output(name, case, out)

        return op

    return [make(i) for i in range(k)]


def op_output(name: str, case, out):
    """What the bit check compares of one workload op."""
    if name == "stefan_cases":
        lam, phi_prime, fields, _ = out
        return lam, phi_prime, fields
    if name == "profile_fine":  # a solution; its 64001-node profile is compared by digest
        digest = hashlib.sha256(out.phi.values.tobytes()).hexdigest()
        return digest, out.d_coeff, out.phi_prime_lambda, out.iterations, out.residual, out.contraction_certified
    # A CLI op: its CSV, and the curve files `gmerf dirichlet` writes beside it.
    csv = Path(case.out)
    return [(path.name, path.read_bytes()) for path in (csv, *sorted((csv.parent / "curves").glob("*")))]


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return {"q1": q1, "median": med, "q3": q3}


def paired(name, layer, sides, build, counted=True):
    """Counts, bit check and ABBA-timed pairs of one run."""
    ops = [build(side) for side in sides]
    k, calls = len(ops[0]), getattr(ops[0][0], "calls", 1)
    record = {"name": name, "layer": layer, "pairs": k, "calls_per_sample": calls}
    if counted:
        outputs, record["counts"] = [], {}
        for label, side, side_ops in zip(("base", "head"), sides, ops):
            with Counts(side) as c:
                outputs.append([side_op()[1] for side_op in side_ops])
            side.clear_caches()
            record["counts"][label] = {
                "profile_solves_per_call": c.solves / (k * calls),
                "picard_iters_per_solve": c.iterations / c.solves if c.solves else 0.0,
                "quadrature_passes_per_call": c.passes / (k * calls),
                "loop_applications_per_call": c.applications / (k * calls),
                "loop_quadrature_passes_per_call": c.loop_passes / (k * calls),
            }
        record["outputs_identical"] = outputs[0] == outputs[1]
    times = [[], []]
    for i in range(k):
        gc.collect()
        for j in (0, 1) if i % 2 == 0 else (1, 0):
            times[j].append(ops[j][i]()[0])
    for side in sides:
        side.clear_caches()
    ratios = [h / b for b, h in zip(*times)]
    record["min_s"] = {"base": min(times[0]), "head": min(times[1])}
    record["min_ratio"] = min(times[1]) / min(times[0])
    record["median_s"] = {"base": statistics.median(times[0]), "head": statistics.median(times[1])}
    record["paired_ratio"] = quartiles(ratios)
    record["paired_ratio"]["head_faster_share"] = sum(r < 1.0 for r in ratios) / k
    r = record["paired_ratio"]
    print(f"{name:28s} min {record['min_s']['base'] * 1e3:9.3f} -> {record['min_s']['head'] * 1e3:9.3f} ms  "
          f"ratio {r['median']:.3f} [{r['q1']:.3f}, {r['q3']:.3f}]"
          + (f"  identical {record['outputs_identical']}  counts {record['counts']}" if counted else ""),
          file=sys.stderr)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the base tree")
    parser.add_argument("--out", help="write the JSON record here (default: standard output)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", args.base, "src/gmerf"], cwd=ROOT, check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "base", **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        base = Side(load(tmp / "base" / "src" / "gmerf", "gmerf_base"), tmp / "base_ops")
        head = Side(load(ROOT / "src" / "gmerf", "gmerf_head"), tmp / "head_ops")
        again = Side(load(ROOT / "src" / "gmerf", "gmerf_head_again"), tmp / "again_ops")
        ab, aa = (base, head), (head, again)

        def l4(name):
            return lambda s: workload_ops(s, name, SEED, 2 * PAIRS, s.tmp)

        runs = [
            paired("solve_gme n=201", "L2", ab, lambda s: l2_ops(s, 201, 20, PAIRS)),
            paired("solve_gme n=1001", "L2", ab, lambda s: l2_ops(s, 1001, 10, PAIRS)),
            paired("solve_gme n=64001", "L2", ab, lambda s: l2_ops(s, 64001, 1, PAIRS)),
            paired("cold solve_stefan README", "L3", ab, lambda s: l3_ops(s, 2, PAIRS)),
            *(paired(name, "L4", ab, l4(name)) for name in workloads.WORKLOADS),
            paired("A/A solve_gme n=201", "L2", aa, lambda s: l2_ops(s, 201, 20, PAIRS), counted=False),
            *(paired(f"A/A {name}", "L4", aa, l4(name), counted=False) for name in workloads.WORKLOADS),
        ]
    for run in runs:
        if run["name"].startswith("A/A"):
            run["sides"] = {"base": "head", "head": "head (second copy)"}
    record = {
        "what": "paired in-process A/B of src/gmerf against a base revision (tools/ab.py)",
        "base": subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip(),
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": len(os.sched_getaffinity(0)),
            "processor": platform.machine(),
        },
        "method": "per run, PAIRS ABBA pairs; min_s is the min over PAIRS samples per side, paired_ratio the quartiles of head/base",
        "runs": runs,
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
