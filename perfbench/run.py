"""gmerf benchmark: seeded workloads against the public API and the in-process CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload stefan_cases --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py for why each exists):

- ``stefan_cases``: ``solve_stefan`` on fresh physical cases plus field reads.
- ``cli_coarse``: ``gmerf`` commands hscan, gme, dirichlet at 201 nodes.
- ``cli_sweep``: ``gmerf sweep`` over 200 points at 201 nodes.
- ``profile_fine``: single profile solves on the 64001-node grid.

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
traces one block of operations in four and reports the per-layer metrics
from the traced ones (spans are also written to
``.perfbench_out/``). Every operation's output is checked; a seeded sample is
compared with a reference after the timed loop. Human-readable lines come
first; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with code 2 and prints no result when it is not there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 8
# With --trace 1, one block of operations in TRACE_EVERY is traced.
TRACE_EVERY = 4
# latency_p90_ms needs at least 10 samples beyond it, hence 100 operations.
MIN_OPS = 100
# The loop stops here even below MIN_OPS, so a run always ends in time.
HARD_CAP_S = 120.0
MODULES = ("gmerf", "gmerf.numerics", "gmerf.fixed_point", "gmerf.approx", "gmerf.stefan", "gmerf.cli")

UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "fail_ratio": "1",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "numerics.cumint_calls": "1/op",
    "numerics.cumint_nodes": "1/op",
    "numerics.cumint_s": "s/op",
    "numerics.cumint_ns_per_node": "ns",
    "numerics.find_root_calls": "1/op",
    "fixed_point.map_calls": "1/op",
    "fixed_point.map_self_s": "s/op",
    "fixed_point.solve_calls": "1/op",
    "fixed_point.solve_self_s": "s/op",
    "fixed_point.picard_iters_mean": "1",
    "fixed_point.threshold_calls": "1/op",
    "fixed_point.threshold_s": "s/op",
    "fixed_point.ref_err_max": "1",
    "stefan.profile_solves_per_case": "1",
    "stefan.balance_evals_per_case": "1",
    "stefan.aux_solve_share": "1",
    "stefan.self_s": "s/op",
    "stefan.cache_hit_ratio": "1",
    "stefan.field_calls": "1/op",
    "stefan.field_s": "s/op",
    "stefan.lambda_err_max": "1",
    "stefan.field_err_max": "1",
    "stefan.front_inexact_share": "1",
    "approx.s": "s/op",
    "cli.sweep.self_s": "s",
    "cli.hscan.self_s": "s",
    "cli.gme.self_s": "s",
    "cli.dirichlet.self_s": "s",
    "cli.output_bytes": "bytes/op",
    "workload.lambda_neighbour_share": "1",
    "trace.overhead_ratio": "1",
}


class SetupClock:
    """Wall time of a fresh interpreter running ``import gmerf.cli``.

    The samples are spread over the run, so that their median sees the same
    machine the timed operations see.
    """

    def __init__(self):
        self._env = dict(os.environ)
        old = self._env.get("PYTHONPATH")
        self._env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        self.samples: list[float] = []

    def sample(self, keep: bool = True) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gmerf.cli"], env=self._env, cwd=ROOT, check=True)
        if keep:
            self.samples.append(time.perf_counter() - start)


class Package:
    """The gmerf modules, looked up by attribute at call time."""

    def __init__(self):
        self.modules = {name: importlib.import_module(name) for name in MODULES}
        self.fixed_point = self.modules["gmerf.fixed_point"]
        self.stefan = self.modules["gmerf.stefan"]
        self.cli = self.modules["gmerf.cli"]

    def cache_info(self):
        info = getattr(getattr(self.stefan, "_solved", None), "cache_info", None)
        return info() if info is not None else None


def run_loop(wl, gm: Package, seconds: float, tracer, setup: SetupClock | None = None):
    """Closed loop with one client; returns per-op latencies and run facts.

    With `setup`, SETUP_REPEATS set-up samples are taken at even intervals of
    the loop; the time they take does not count against `seconds`.
    """
    # Warm-up operations use negative indices, which the timed loop never draws.
    for j in range(wl.block):
        op = wl.draw(-1 - j)
        wl.prepare(op)
        wl.run(op)
    if setup is not None:
        setup.sample(keep=False)  # writes the bytecode caches, which users have

    sampled_ids = set(workloads.reference_indices(wl.name, wl.seed, wl.n_references))
    sampled = {}
    failed: dict[int, list[str]] = {}
    latencies = {False: [], True: []}
    hits = lookups = 0
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        now = time.perf_counter()
        elapsed = now - start - paused
        if setup is not None and len(setup.samples) < SETUP_REPEATS and elapsed >= len(setup.samples) * seconds / SETUP_REPEATS:
            setup.sample()
            paused += time.perf_counter() - now
            continue
        if now - start >= HARD_CAP_S or (elapsed >= seconds and i >= MIN_OPS):
            break
        op = wl.draw(i)
        wl.prepare(op)
        traced = tracer is not None and (i // wl.block) % TRACE_EVERY == TRACE_EVERY - 1
        if traced:
            before = gm.cache_info()
            tracer.install()
        err = out = None
        try:
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span(wl.span_name(op), root=True):
                        out = wl.run(op)
                else:
                    out = wl.run(op)
            except Exception as exc:  # noqa: BLE001 - any raise is a failed op, recorded below
                err = exc
            dt = time.perf_counter() - t0
        finally:
            if traced:
                tracer.restore()
        if traced:
            after = gm.cache_info()
            if before is not None and after is not None:
                hits += after.hits - before.hits
                lookups += after.hits + after.misses - before.hits - before.misses
        latencies[traced].append(dt)
        problems = [f"raised {type(err).__name__}: {err}"] if err is not None else wl.check(op, out)
        if problems:
            failed[i] = problems
        elif i in sampled_ids:
            sampled[i] = (op, out)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while setup is not None and len(setup.samples) < SETUP_REPEATS:
        setup.sample()

    for k, (op, out) in sorted(sampled.items()):
        problems = wl.check_reference(op, out)
        if problems:
            failed[k] = problems
    return {
        "attempted": i,
        "failed": failed,
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb,
        "cache": (hits, lookups) if gm.cache_info() is not None else None,
    }


def end_to_end(res, setup_samples: list[float]) -> dict[str, float]:
    lat = res["latencies"][False]
    out = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
    }
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else None
    if p90 is not None and sum(1 for x in lat if x > p90) >= 10:
        out["latency_p90_ms"] = p90 * 1e3
    out["peak_rss_mb"] = res["peak_rss_mb"]
    return out


def per_layer(res, wl, tracer) -> dict[str, float]:
    untraced, traced = res["latencies"][False], res["latencies"][True]
    out = tracing.layer_metrics(tracer.spans, len(traced), tracer.missing)
    if res["cache"] is not None:
        hits, lookups = res["cache"]
        out["stefan.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    facts = wl.facts()
    out.update({name: facts.get(name, 0.0) for name in workloads.FACT_NAMES})
    if untraced and traced:
        out["trace.overhead_ratio"] = (sum(traced) / len(traced)) / (sum(untraced) / len(untraced))
    return {k: out[k] for k in LAYER_UNITS if k in out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gmerf" / "__init__.py").is_file():
        print(f"perfbench: no gmerf package under {SRC}", file=sys.stderr)
        return 2

    setup = None if args.trace else SetupClock()
    sys.path.insert(0, str(SRC))
    gm = Package()
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, gm, tmp)
        tracer = tracing.Tracer(gm.modules) if args.trace else None
        res = run_loop(wl, gm, args.seconds, tracer, setup)
    finally:
        shutil.rmtree(tmp)

    attempted, failed = res["attempted"], res["failed"]
    for k, problems in sorted(failed.items()):
        print(f"op {k} failed: {'; '.join(problems)}", file=sys.stderr)
    n_untraced = len(res["latencies"][False])
    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}  untraced samples {n_untraced}")
    print(f"fail_ratio = {len(failed) / attempted!r} {UNITS['fail_ratio']}")
    if args.trace:
        metrics = per_layer(res, wl, tracer)
        units = LAYER_UNITS
        if tracer.missing:
            print(f"not wrapped (gone from the package): {', '.join(tracer.missing)}")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.csv.gz")
    else:
        metrics = end_to_end(res, setup.samples)
        units = UNITS
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
