"""Span tracing of the gmerf layers from outside the package.

The tracer replaces public functions at the module attributes through which
the package calls them, records one span per call (name, start, end, parent,
thread, plus a few call facts), and puts every original back on `restore`.
Nothing under ``src/`` is edited; a name that a later version of the package
no longer has is skipped and listed in `Tracer.missing`.

Spans are kept in memory. Parents are tracked per thread; a span opened on a
worker thread with no open span of its own (the ``sweep`` thread pool) takes
the current operation span as its parent.
"""

from __future__ import annotations

import csv
import functools
import gzip
import threading
import time
from dataclasses import dataclass, field

# Fact extractors take (args, kwargs, result) of a wrapped call and return
# the few call facts the per-layer metrics need.


def _cumint_facts(args, kwargs, result):
    return {"nodes": int(result.values.size)}


def _solve_facts(args, kwargs, result):
    params = args[0]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    return {
        "beta": params.beta,
        "gamma": params.gamma,
        "lam": params.lam,
        "config": config,
        "iterations": int(result.iterations),
    }


def _stefan_facts(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    return {"config": config}


# (module, attribute, span name, fact extractor). The attribute is the name
# through which the package itself calls the function, so wrapping it
# intercepts the package's internal calls.
WRAP_POINTS = (
    ("gmerf.fixed_point", "cumulative_integral", "numerics.cumulative_integral", _cumint_facts),
    ("gmerf.fixed_point", "fixed_point_map", "fixed_point.fixed_point_map", None),
    ("gmerf.fixed_point", "contraction_threshold", "fixed_point.contraction_threshold", None),
    ("gmerf.fixed_point", "dirichlet_contraction_threshold", "fixed_point.dirichlet_contraction_threshold", None),
    ("gmerf.fixed_point", "solve_gme", "fixed_point.solve_gme", _solve_facts),
    ("gmerf.stefan", "solve_gme", "fixed_point.solve_gme", _solve_facts),
    ("gmerf.stefan", "solve_stefan", "stefan.solve_stefan", _stefan_facts),
    ("gmerf.stefan", "solve_lambda", "stefan.solve_lambda", None),
    ("gmerf.stefan", "boundary_slope_ratio", "stefan.boundary_slope_ratio", None),
    ("gmerf.stefan", "find_root", "numerics.find_root", None),
    ("gmerf.stefan", "temperature", "stefan.temperature", None),
    ("gmerf.stefan", "front_position", "stefan.front_position", None),
    ("gmerf.cli", "approx_coeffs", "approx.approx_coeffs", None),
    ("gmerf.cli", "zero_order", "approx.zero_order", None),
    ("gmerf.cli", "first_order", "approx.first_order", None),
)


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    facts: dict = field(default_factory=dict)


class Tracer:
    """Installs wrappers, records spans, restores the originals."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_sid = 0
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.missing = sorted(
            {name for mod, attr, name, _ in WRAP_POINTS if not hasattr(modules.get(mod), attr)}
        )
        self.root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            self._next_sid += 1
            sid = self._next_sid
        stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, parent, facts) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span = Span(sid, name, start, end, parent, threading.get_ident(), facts or {})
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, *, root: bool = False):
        """Context manager recording a span from the benchmark's own code."""
        return _SpanContext(self, name, root)

    def _wrapper(self, original, name, facts_of):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter()
            facts = None
            try:
                result = original(*args, **kwargs)
                if facts_of is not None:
                    facts = facts_of(args, kwargs, result)
                return result
            finally:
                tracer._close(sid, name, start, parent, facts)

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for mod_name, attr, name, facts_of in WRAP_POINTS:
            module = self._modules.get(mod_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, facts_of))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Write every span as one gzipped CSV row."""
        columns = ("nodes", "beta", "gamma", "lam", "iterations")
        with gzip.open(path, "wt", encoding="utf-8", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(("sid", "name", "start", "end", "parent", "thread") + columns)
            for s in self.spans:
                out.writerow(
                    (s.sid, s.name, repr(s.start), repr(s.end), s.parent, s.thread)
                    + tuple(s.facts.get(c, "") for c in columns)
                )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, root: bool):
        self._tracer = tracer
        self._name = name
        self._root = root

    def __enter__(self):
        self._sid, self._parent = self._tracer._open()
        if self._root:
            self._tracer.root = self._sid
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._tracer._close(self._sid, self._name, self._start, self._parent, None)
        if self._root:
            self._tracer.root = None
        return False


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


FIELD_SPANS = ("stefan.temperature", "stefan.front_position")
STEFAN_SPANS = ("stefan.solve_stefan", "stefan.solve_lambda", "stefan.boundary_slope_ratio")
APPROX_SPANS = ("approx.approx_coeffs", "approx.zero_order", "approx.first_order")
THRESHOLD_SPANS = ("fixed_point.contraction_threshold", "fixed_point.dirichlet_contraction_threshold")
CLI_COMMANDS = ("sweep", "hscan", "gme", "dirichlet")
# Relative lambda distance within which an earlier solve at the same
# (beta, gamma) counts as a neighbour (a warm-start candidate).
NEIGHBOUR_RTOL = 0.1

# Metric -> the wrapped span names it is computed from. A metric whose spans
# could not be wrapped (the name is gone from the package) is left out.
NEEDS = {
    "numerics.cumint_calls": ("numerics.cumulative_integral",),
    "numerics.cumint_nodes": ("numerics.cumulative_integral",),
    "numerics.cumint_s": ("numerics.cumulative_integral",),
    "numerics.cumint_ns_per_node": ("numerics.cumulative_integral",),
    "numerics.find_root_calls": ("numerics.find_root",),
    "fixed_point.map_calls": ("fixed_point.fixed_point_map",),
    "fixed_point.map_self_s": ("fixed_point.fixed_point_map",),
    "fixed_point.solve_calls": ("fixed_point.solve_gme",),
    "fixed_point.solve_self_s": ("fixed_point.solve_gme",),
    "fixed_point.picard_iters_mean": ("fixed_point.solve_gme",),
    "fixed_point.threshold_calls": THRESHOLD_SPANS,
    "fixed_point.threshold_s": THRESHOLD_SPANS,
    "stefan.profile_solves_per_case": ("stefan.solve_stefan", "fixed_point.solve_gme"),
    "stefan.balance_evals_per_case": ("stefan.solve_stefan", "stefan.boundary_slope_ratio"),
    "stefan.aux_solve_share": ("stefan.solve_stefan", "fixed_point.solve_gme"),
    "stefan.self_s": STEFAN_SPANS,
    "stefan.field_calls": FIELD_SPANS,
    "stefan.field_s": FIELD_SPANS,
    "approx.s": APPROX_SPANS,
    "workload.lambda_neighbour_share": ("fixed_point.solve_gme",),
}


def layer_metrics(spans: list[Span], n_ops: int, missing=()) -> dict[str, float]:
    """Per-layer figures from the spans of `n_ops` traced operations.

    Counts and times are per operation unless the name says otherwise;
    ``cli.<command>.self_s`` is per operation of that command.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def dur(s):
        return s.end - s.start

    cumint = named("numerics.cumulative_integral")
    nodes = sum(s.facts.get("nodes", 0) for s in cumint)
    cumint_s = sum(dur(s) for s in cumint)
    maps = named("fixed_point.fixed_point_map")
    solves = named("fixed_point.solve_gme")
    done = [s for s in solves if "iterations" in s.facts]
    thresholds = named(*THRESHOLD_SPANS)
    cases = named("stefan.solve_stefan")
    by_sid = {s.sid: s for s in spans}

    def case_of(s):
        while s.parent is not None:
            s = by_sid.get(s.parent)
            if s is None:
                return None
            if s.name == "stefan.solve_stefan":
                return s
        return None

    case_solves = [(s, case_of(s)) for s in done]
    case_solves = [(s, c) for s, c in case_solves if c is not None]
    aux = sum(1 for s, c in case_solves if s.facts["config"] != c.facts.get("config"))
    balance = [s for s in named("stefan.boundary_slope_ratio") if case_of(s) is not None]
    fields = named(*FIELD_SPANS)
    outer_fields = [s for s in fields if by_sid.get(s.parent) is None or by_sid[s.parent].name not in FIELD_SPANS]

    out = {
        "numerics.cumint_calls": per_op(len(cumint)),
        "numerics.cumint_nodes": per_op(nodes),
        "numerics.cumint_s": per_op(cumint_s),
        "numerics.cumint_ns_per_node": ratio(cumint_s * 1e9, nodes),
        "numerics.find_root_calls": per_op(len(named("numerics.find_root"))),
        "fixed_point.map_calls": per_op(len(maps)),
        "fixed_point.map_self_s": per_op(sum(own[s.sid] for s in maps)),
        "fixed_point.solve_calls": per_op(len(solves)),
        "fixed_point.solve_self_s": per_op(sum(own[s.sid] for s in solves)),
        "fixed_point.picard_iters_mean": ratio(sum(s.facts["iterations"] for s in done), len(done)),
        "fixed_point.threshold_calls": per_op(len(thresholds)),
        "fixed_point.threshold_s": per_op(sum(dur(s) for s in thresholds)),
        "stefan.profile_solves_per_case": ratio(len(case_solves), len(cases)),
        "stefan.balance_evals_per_case": ratio(len(balance), len(cases)),
        "stefan.aux_solve_share": ratio(aux, len(case_solves)),
        "stefan.self_s": per_op(sum(own[s.sid] for s in named(*STEFAN_SPANS))),
        "stefan.field_calls": per_op(len(fields)),
        "stefan.field_s": per_op(sum(dur(s) for s in outer_fields)),
        "approx.s": per_op(sum(dur(s) for s in named(*APPROX_SPANS))),
        "workload.lambda_neighbour_share": neighbour_share(done),
    }
    for cmd in CLI_COMMANDS:
        ops = named(f"cli.{cmd}")
        out[f"cli.{cmd}.self_s"] = ratio(sum(own[s.sid] for s in ops), len(ops))
    return {k: v for k, v in out.items() if not set(NEEDS.get(k, ())) & set(missing)}


def neighbour_share(solves: list[Span]) -> float:
    """Share of profile solves whose lambda lies within NEIGHBOUR_RTOL of an
    earlier solve's lambda at the same (beta, gamma)."""
    seen: dict[tuple, list[float]] = {}
    hits = 0
    for s in sorted(solves, key=lambda s: s.start):
        lam = s.facts["lam"]
        earlier = seen.setdefault((s.facts["beta"], s.facts["gamma"]), [])
        if any(abs(lam - x) <= NEIGHBOUR_RTOL * x for x in earlier):
            hits += 1
        earlier.append(lam)
    return hits / len(solves) if solves else 0.0
