"""Closed-loop passes over a workload, the correctness gate, and metrics.

A pass runs every grid of a workload through ``gscfw.bench.run_experiment``
(set-up, solve and record writes, one cell after another), then reloads the
records and recomputes the profile.  Cells are timed from outside around
``build_problem``, ``make_start`` and ``run_method``; the solver's own
``elapsed_seconds`` is only used for the coverage diagnostic.  Probes of a
reference kernel bracket every ``run_method`` call and the pass, and every
timing is rescaled to the reference speed (see refspeed.py).  Passes repeat
with identical inputs until the time budget is spent; timings are medians
over passes.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from gscfw import bench as gbench

from refspeed import Timeline
from tracer import OBJECTIVE_METHODS, Patcher, Tracer, install_layers, instrument_instance
from workloads import PROFILE_EPSILONS, cell_count

# (name, unit) of every metric a run prints on its last line.
END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"), ("iters_per_s", "1/s"),
    ("iters_total", "count"), ("converged_frac", "ratio"), ("passed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    *[(f"problems.{m}.{k}", u) for m in ("value", "gradient", "hess_vec", "in_domain")
      for k, u in (("calls", "count"), ("s", "s"))],
    ("problems.max_step.calls", "count"), ("problems.calls_per_iter", "calls/it"),
    ("problems.value.per_iter", "calls/it"), ("problems.gradient.per_iter", "calls/it"),
    ("problems.generate.s", "s"), ("problems.construct.s", "s"), ("problems.self_s", "s"),
    ("sets.lmo.calls", "count"), ("sets.lmo.s", "s"), ("sets.lloo.calls", "count"),
    ("sets.max_feasible_step.calls", "count"), ("sets.self_s", "s"),
    ("gsc.local_geometry.calls", "count"), ("gsc.local_geometry.s", "s"), ("gsc.self_s", "s"),
    ("stepsize.analytic_step.calls", "count"), ("stepsize.analytic_step.s", "s"),
    ("stepsize.self_s", "s"),
    ("solvers.step_l.calls", "count"), ("solvers.step_m.calls", "count"),
    ("solvers.backtrack.trials", "count"), ("solvers.backtrack.accept_ratio", "ratio"),
    ("solvers.line_search.calls", "count"), ("solvers.active_set.updates", "count"),
    ("solvers.away_vertex.calls", "count"), ("solvers.self_s", "s"),
    ("solvers.trace_time_coverage", "ratio"),
    ("bench.build_problem.s", "s"), ("bench.make_start.s", "s"),
    ("bench.records.write_s", "s"), ("bench.records.bytes", "B"),
    ("bench.records.load_s", "s"), ("bench.profile_points.s", "s"), ("bench.self_s", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.wall_s", "s"), ("trace.self_coverage", "ratio"),
]
# Printed in the report but kept off the last line: each is exactly 0 on a
# workload that never calls the function, whatever the seed.
REPORT_ONLY = [
    ("problems.max_step.s", "s"), ("sets.lloo.s", "s"), ("sets.max_feasible_step.s", "s"),
    ("solvers.line_search.s", "s"), ("solvers.active_set.s", "s"),
    ("solvers.away_vertex.s", "s"), ("stepsize.t_star.calls", "count"),
]
LAYERS = ("problems", "sets", "gsc", "stepsize", "solvers", "bench")

MIN_PASSES = 3  # untraced run: enough for a median and the repeat check
MIN_TRACED_PASSES = 2  # traced run: this many of each kind, alternating
FEASIBLE_TOL = 1e-7  # the solvers' own start check


@dataclass
class Cell:
    key: tuple  # (problem cell id, method, start)
    status: str
    iterations: int
    final_f: float
    final_gap: float
    setup: float  # build_problem + make_start, reference seconds
    seconds: float  # run_method, reference seconds
    setup_raw: float  # the same two in raw seconds
    seconds_raw: float
    elapsed_sum: float
    feasible: bool
    in_domain: bool


@dataclass
class Pass:
    traced: bool
    elapsed: float  # raw seconds from start to end, probes included
    wall: float  # reference seconds, probes excluded
    setup: float
    solve: float
    raw: dict  # "wall", "setup", "solve" in raw seconds
    speed: float  # median host speed over the pass, 1 = reference
    cells: list
    failed_keys: set
    grid_failures: int  # cells of grids that raised
    errors: list
    record_bytes: int
    tracer: Tracer

    @property
    def iterations(self) -> int:
        return sum(c.iterations for c in self.cells)

    @property
    def converged(self) -> int:
        return sum(c.status == "gap-converged" for c in self.cells)


def _check_cell(record, instance, setup, solve, timeline) -> Cell:
    trace = record.trace
    obj, feasible = instance.objective, instance.feasible_set
    # class methods: bypass the tracer's wrappers on the instance
    return Cell(key=(record.problem, record.method, record.start), status=trace.status,
                iterations=len(trace.iterations), final_f=float(trace.final_f),
                final_gap=float(trace.final_gap),
                setup=sum(timeline.scale(a, b) for a, b in setup),
                seconds=timeline.scale(*solve),
                setup_raw=sum(b - a for a, b in setup), seconds_raw=solve[1] - solve[0],
                elapsed_sum=sum(r.elapsed_seconds for r in trace.iterations),
                feasible=bool(type(feasible).contains(feasible, trace.x, tol=FEASIBLE_TOL)),
                in_domain=bool(type(obj).in_domain(obj, trace.x)))


def _certificate_failures(cells) -> set:
    """Cells i with f_i - f_j > gap_i on the same problem: the FW gap bounds
    f_i - f* from above, and every feasible f_j is at least f*."""
    bad = set()
    by_problem = {}
    for c in cells:
        by_problem.setdefault(c.key[0], []).append(c)
    for group in by_problem.values():
        for ci in group:
            if not (math.isfinite(ci.final_f) and math.isfinite(ci.final_gap)):
                bad.add(ci.key)
                continue
            for cj in group:
                if not math.isfinite(cj.final_f):
                    continue
                tol = 1e-9 * max(1.0, abs(ci.final_f), abs(cj.final_f))
                if ci.final_f - cj.final_f > ci.final_gap + tol:
                    bad.add(ci.key)
    return bad


def run_pass(grids, work_dir: Path, traced: bool) -> Pass:
    tracer, patcher, timeline = Tracer(), Patcher(), Timeline()
    probe = tracer.wrap("ref.probe", timeline.probe)  # in no layer
    captured = []  # (instance, setup intervals, solve interval) per run_method call
    setup = []  # build_problem and make_start intervals since the last run_method call

    def timed(fn):
        def call(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                setup.append((t0, time.perf_counter()))
        return call

    build = timed(tracer.wrap("bench.build_problem", gbench.build_problem))

    def build_problem(spec):
        instance = build(spec)
        return instrument_instance(tracer, instance) if traced else instance

    run_method = tracer.wrap("solvers.run", gbench.run_method)

    def timed_run(method, instance, x0, active, config):
        probe()
        t0 = time.perf_counter()
        trace = run_method(method, instance, x0, active, config)
        t1 = time.perf_counter()
        probe()
        captured.append((instance, list(setup), (t0, t1)))
        setup.clear()
        return trace

    patcher.set(gbench, "build_problem", build_problem)
    patcher.set(gbench, "make_start", timed(tracer.wrap("bench.make_start", gbench.make_start)))
    patcher.set(gbench, "run_method", timed_run)
    if traced:
        install_layers(tracer, patcher)
    run_experiment = tracer.wrap("bench.run_experiment", gbench.run_experiment)
    load_records = tracer.wrap("bench.records.load", gbench.load_records)

    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    results, errors, grid_failures = [], [], 0
    t0 = time.perf_counter()
    probe()
    try:
        for grid in grids:
            first = len(captured)
            try:
                records = run_experiment(grid, out_dir=work_dir)
            except Exception:  # one failing grid must not hide the others
                errors.append(traceback.format_exc())
                grid_failures += cell_count([grid])
                continue
            results.extend(zip(records, captured[first:]))
        probe()
        gbench.profile_points(load_records(work_dir), PROFILE_EPSILONS)
    finally:
        probe()
        elapsed = time.perf_counter() - t0
        patcher.restore()

    cells = [_check_cell(record, *captured_cell, timeline)
             for record, captured_cell in results]
    failed = {c.key for c in cells if not (c.feasible and c.in_domain)}
    failed |= _certificate_failures(cells)
    record_bytes = sum(p.stat().st_size for p in work_dir.glob("*.jsonl"))
    return Pass(traced=traced, elapsed=elapsed, wall=timeline.wall(),
                setup=sum(c.setup for c in cells), solve=sum(c.seconds for c in cells),
                raw={"wall": timeline.raw_wall(), "setup": sum(c.setup_raw for c in cells),
                     "solve": sum(c.seconds_raw for c in cells)},
                speed=timeline.speed(),
                cells=cells, failed_keys=failed, grid_failures=grid_failures, errors=errors,
                record_bytes=record_bytes, tracer=tracer)


def layer_metrics(p: Pass) -> dict:
    """Per-layer numbers of one traced pass."""
    sm = p.tracer.summary()
    counters = p.tracer.counters

    def calls(name):
        return sm.get(name, {}).get("calls", 0)

    def secs(name):
        return sm.get(name, {}).get("s", 0.0)

    iters = max(p.iterations, 1)
    m = {}
    for method in OBJECTIVE_METHODS:
        m[f"problems.{method}.calls"] = calls(f"problems.{method}")
        m[f"problems.{method}.s"] = secs(f"problems.{method}")
    m["problems.calls_per_iter"] = sum(calls(f"problems.{f}") for f in OBJECTIVE_METHODS) / iters
    m["problems.value.per_iter"] = calls("problems.value") / iters
    m["problems.gradient.per_iter"] = calls("problems.gradient") / iters
    for name in ("problems.generate", "problems.construct", "sets.lmo", "sets.lloo",
                 "sets.max_feasible_step", "gsc.local_geometry", "stepsize.analytic_step",
                 "solvers.line_search", "solvers.away_vertex", "bench.build_problem",
                 "bench.make_start", "bench.profile_points"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
    m["stepsize.t_star.calls"] = calls("stepsize.t_star")
    m["solvers.step_l.calls"] = calls("solvers.step_l")
    m["solvers.step_m.calls"] = calls("solvers.step_m")
    trials = counters["solvers.backtrack.trials"]
    m["solvers.backtrack.trials"] = trials
    m["solvers.backtrack.accept_ratio"] = (counters["solvers.backtrack.accepted"] / trials
                                           if trials else 0.0)
    m["solvers.active_set.updates"] = calls("solvers.active_set.update")
    m["solvers.active_set.s"] = (secs("solvers.active_set.update")
                                 + secs("solvers.active_set.reconstruct"))
    m["bench.records.write_s"] = secs("bench.records.write")
    m["bench.records.load_s"] = secs("bench.records.load")
    m["bench.records.bytes"] = p.record_bytes
    self_total = 0.0
    for layer in LAYERS:
        own = sum(v["self_s"] for k, v in sm.items() if k.split(".", 1)[0] == layer)
        m[f"{layer}.self_s"] = own
        self_total += own
    # span times are raw seconds, so they are set against the raw wall
    wall = p.raw["wall"]
    m["trace.wall_s"] = wall
    m["trace.self_coverage"] = self_total / wall
    if self_total > wall:
        raise RuntimeError(f"layer self times {self_total} exceed the traced wall {wall}")
    return m


def timing_stats(samples) -> dict:
    """Median, plus the highest listed percentile with at least ten samples
    beyond it (nearest rank), and the sample count."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "percentile": None, "value": None}
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            out["percentile"], out["value"] = q, xs[rank - 1]
            break
    return out


@dataclass
class RunResult:
    passes: list
    attempted: int
    failed: int
    metrics: dict  # name -> value, every metric this run measured
    stats: dict  # timing name -> timing_stats
    cells: list  # per-cell summaries


def _repeat_failures(passes) -> list:
    """Per pass, the cells whose status or iteration count differs from the
    first pass that ran them."""
    first = {}
    out = []
    for p in passes:
        bad = set()
        for c in p.cells:
            ref = first.setdefault(c.key, (c.status, c.iterations))
            if ref != (c.status, c.iterations):
                bad.add(c.key)
        out.append(bad)
    return out


def run_workload(grids, seconds: float, traced: bool, work_dir: Path) -> RunResult:
    n_cells = cell_count(grids)
    passes = []
    t_start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes, in pairs
        traced_next = traced and len(passes) % 2 == 1
        if not traced_next and len(passes) >= (2 * MIN_TRACED_PASSES if traced else MIN_PASSES):
            # stop once the next pass (or pair) would likely end past the budget
            ahead = sum(statistics.median(p.elapsed for p in passes if p.traced == kind)
                        for kind in {False, traced})
            if time.perf_counter() - t_start + ahead > seconds:
                break
        passes.append(run_pass(grids, work_dir, traced=traced_next))
    shutil.rmtree(work_dir, ignore_errors=True)

    repeats = _repeat_failures(passes)
    attempted = n_cells * len(passes)
    failed = sum(len(p.failed_keys | r) + p.grid_failures for p, r in zip(passes, repeats))
    untraced = [p for p in passes if not p.traced]
    stats = {name: timing_stats([getattr(p, attr) for p in untraced])
             for name, attr in (("wall_s", "wall"), ("setup_s", "setup"), ("solve_s", "solve"))}
    metrics = {name: s["median"] for name, s in stats.items()}
    metrics["iters_per_s"] = statistics.median(p.iterations / p.solve if p.solve > 0 else 0.0
                                               for p in untraced)
    metrics["iters_total"] = untraced[0].iterations
    metrics["converged_frac"] = sum(p.converged for p in passes) / attempted
    metrics["passed_frac"] = 1.0 - failed / attempted
    metrics["failed_frac"] = failed / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        layers = [layer_metrics(p) for p in passes if p.traced]
        for name in layers[0]:
            metrics[name] = statistics.median(m[name] for m in layers)
        traced_wall = statistics.median(p.wall for p in passes if p.traced)
        metrics["trace.overhead_frac"] = traced_wall / metrics["wall_s"] - 1.0
        metrics["solvers.trace_time_coverage"] = statistics.median(
            sum(c.elapsed_sum for c in p.cells) / p.raw["solve"] if p.raw["solve"] > 0
            else 0.0
            for p in untraced)

    cells = []
    for i, c in enumerate(untraced[0].cells):
        secs = statistics.median(p.cells[i].seconds for p in untraced
                                 if i < len(p.cells) and p.cells[i].key == c.key)
        cells.append({"problem": c.key[0], "method": c.key[1], "start": c.key[2],
                      "status": c.status, "iterations": c.iterations,
                      "us_per_iter": 1e6 * secs / max(c.iterations, 1)})
    return RunResult(passes=passes, attempted=attempted, failed=failed, metrics=metrics,
                     stats=stats, cells=cells)


def _format_timing(name, unit, s) -> str:
    tail = (f"p{s['percentile']:g} {s['value']:.4f}" if s["percentile"] is not None
            else "no percentile from p75 up has ten samples beyond it")
    return f"  {name:<16} median {s['median']:.4f} {unit}; {tail}; n={s['n']} passes"


def print_report(result: RunResult, traced: bool):
    """The readable part of a run's output, before the JSON line."""
    kinds = "".join("T" if p.traced else "U" for p in result.passes)
    print(f"# passes: {len(result.passes)} ({kinds}); cells attempted {result.attempted}, "
          f"failed {result.failed} (failed_frac {result.metrics['failed_frac']:.4f})")
    print("# pass wall times (reference s): "
          + " ".join(f"{p.wall:.3f}" for p in result.passes))
    print("# pass wall times (raw s):       "
          + " ".join(f"{p.raw['wall']:.3f}" for p in result.passes))
    print("# host speed per pass (1 = reference): "
          + " ".join(f"{p.speed:.3f}" for p in result.passes))
    untraced = [p for p in result.passes if not p.traced]
    print("# raw medians over untraced passes: " + ", ".join(
        f"{k}_s {statistics.median(p.raw[k] for p in untraced):.4f} s"
        for k in ("wall", "setup", "solve")))
    print("# timings below are rescaled to the reference speed (refspeed.py)")
    for name, unit in END_TO_END:
        if name in result.stats:
            print(_format_timing(name, unit, result.stats[name]))
        else:
            print(f"  {name:<16} {result.metrics[name]:.6g} {unit}")
    if traced:
        print("# per-layer (median over traced passes):")
        for name, unit in PER_LAYER + REPORT_ONLY:
            print(f"  {name:<34} {result.metrics[name]:.6g} {unit}")
    print("# cells (median over untraced passes):")
    for c in result.cells:
        print(f"  {c['problem'][:48]:<48} {c['method']:<15} s{c['start']} "
              f"{c['status']:<14} {c['iterations']:>6} it {c['us_per_iter']:>9.1f} us/it")
    for p in result.passes:
        for err in p.errors:
            print(err, file=sys.stderr)
