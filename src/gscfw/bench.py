"""Experiment harness: config-driven grids, relative-error statistics, and
performance profiles.

A grid run executes (problem x method x start) cells, estimates each
problem's optimal value as the best value any method attained, writes one
record file per run (a header line, then a line of per-iteration columns),
and a CSV profile summary.  Fixed-seed
reruns are bit-identical apart from wall-time fields.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import math
import numbers
import zlib
from dataclasses import dataclass, fields
from itertools import starmap
from operator import attrgetter
from pathlib import Path

import numpy as np

from .problems import (ProblemInstance, covariance_generator, covariance_problem,
                       dwd_problem, logistic_problem, portfolio_generator,
                       portfolio_problem, synthetic_classification)
from .sets import SimplexLLOO, UnitSimplex
from .solvers import SOLVERS, IterationRecord, RunTrace, SolverConfig, asfwgsc, fwlloo

make_simplex_lloo = SimplexLLOO  # a name the benchmark's tracer rebinds to wrap queries


class ConfigError(ValueError):
    """Malformed experiment configuration."""


# ---------------------------------------------------------------------------
# Relative error and profile statistics
# ---------------------------------------------------------------------------

def relative_error(f_value, f_star: float):
    """(f - f*) / max(|f*|, 1e-12), elementwise over f; the absolute-value
    denominator keeps the statistic meaningful for negative optima.
    Rounding-level negativity is clamped to zero."""
    err = (np.asarray(f_value, dtype=float) - f_star) / max(abs(f_star), 1e-12)
    return np.where((-1e-12 <= err) & (err < 0.0), 0.0, err)[()]


@dataclass(frozen=True)
class RunRecord:
    problem: str
    method: str
    start: int
    trace: RunTrace
    f_star_estimate: float

    def hits(self, epsilons):
        """Per epsilon, (k, seconds) of the first iterate k with relative error
        <= epsilon and the wall time when it was produced, or None."""
        errors = relative_error(self.trace.f_values(), self.f_star_estimate)
        seconds = self.trace.cumulative_seconds()
        firsts = [np.flatnonzero(errors <= eps)[:1] for eps in epsilons]
        return [(int(k[0]), seconds[k[0]]) if k.size else None for k in firsts]


@dataclass(frozen=True)
class ProfilePoint:
    epsilon: float
    method: str
    rho: float
    rho_iter: float | None
    rho_time: float | None


def _ratio_average(records, scores):
    """Per method, the mean over problems of the mean over their (problem,
    start) instances of its score over the instance's best score.  None
    scores (not solved) are left out, and so is a method that solved none."""
    instances = {}
    for r, score in zip(records, scores):
        instances.setdefault(r.problem, {}).setdefault(r.start, {})[r.method] = score
    out = {}
    for method in sorted({r.method for r in records}):
        per_problem = []
        for problem in sorted(instances):
            ratios = []
            for inst in instances[problem].values():
                own = inst.get(method)
                if own is not None:
                    best = min(v for v in inst.values() if v is not None)
                    ratios.append((1.0 if own <= 0.0 else max(own, 1.0)) if best <= 0.0
                                  else own / best)
            if ratios:
                per_problem.append(sum(ratios) / len(ratios))
        if per_problem:
            out[method] = sum(per_problem) / len(per_problem)
    return out


def profile_points(records, epsilons):
    """Per-method profile rows over an epsilon grid: the fraction of a method's
    runs that reach epsilon, and its average iteration and time ratios."""
    records = list(records)
    epsilons = sorted(epsilons)
    table = [r.hits(epsilons) for r in records]  # one row per record, one column per epsilon
    rows = []
    for eps, hits in zip(epsilons, zip(*table)):
        iters = _ratio_average(records, [None if h is None else h[0] for h in hits])
        times = _ratio_average(records, [None if h is None else h[1] for h in hits])
        for method in sorted({r.method for r in records}):
            mine = [h is not None for r, h in zip(records, hits) if r.method == method]
            rows.append(ProfilePoint(eps, method, sum(mine) / len(mine),
                                     iters.get(method), times.get(method)))
    return rows


# ---------------------------------------------------------------------------
# Problem and start construction from grid specs
# ---------------------------------------------------------------------------

DEFAULT_SIZES = {
    "logistic": {"p": 500, "n": 50, "density": 0.15, "gamma": None, "radius": 10.0, "nu_mode": 2},
    "portfolio": {"p": 200, "n": 100},
    "dwd": {"p": 200, "d": 30, "q": 2.0, "u": 5.0, "big_r": 10.0},
    "covariance": {"p": 30},
}


# Methods that run on some families only: asfwgsc needs the vertex start
# make_start gives every family but dwd, fwlloo the simplex's ball-restricted
# oracle.  Other methods run on every family.
_METHOD_FAMILIES = {"asfwgsc": ("logistic", "portfolio", "covariance"), "fwlloo": ("portfolio",)}

_SPEC_RANGES = (
    (("p", "n", "d", "q"), "finite and >= 1", lambda v: 1 <= v < math.inf),
    (("seed",), ">= 0", lambda v: v >= 0),
    (("gamma", "radius", "u", "big_r"), "finite and > 0", lambda v: 0 < v < math.inf),
    (("density",), "in (0, 1]", lambda v: 0 < v <= 1),
    (("nu_mode",), "2 or 3", lambda v: v in (2, 3)),
)


def _integer(value) -> int:
    """An int or an integral float as an int; anything else is a ValueError."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _check_spec(spec):
    """The family name of a grid spec and its parameters: the family's
    DEFAULT_SIZES and seed, overridden by the spec and cast to the defaults'
    types.  Other keys, and values that do not cast or are out of range, are a ConfigError."""
    if not isinstance(spec, dict) or spec.get("name") not in DEFAULT_SIZES:
        raise ConfigError(f"bad problem spec {spec!r}")
    name = spec["name"]
    unknown = sorted(set(spec) - set(DEFAULT_SIZES[name]) - {"name", "seed"})
    if unknown:
        raise ConfigError(f"unknown keys {unknown} for problem {name!r}")
    defaults = {**DEFAULT_SIZES[name], "seed": 0}
    params = {**defaults, **spec}
    try:
        for key, default in defaults.items():
            if default is not None or params[key] is not None:
                cast = float if default is None else type(default)
                params[key] = (_integer if cast is int else cast)(params[key])
        for keys, allowed, ok in _SPEC_RANGES:
            for key in keys:
                if params.get(key) is not None and not ok(params[key]):
                    raise ValueError(f"must be {allowed}, got {params[key]!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key!r} for problem {name!r}: {exc}") from exc
    return name, params


def build_problem(spec: dict) -> ProblemInstance:
    """Instantiate a benchmark problem from a grid-spec dictionary."""
    name, params = _check_spec(spec)
    seed = params["seed"]
    if name == "logistic":
        data = synthetic_classification(params["p"], params["n"],
                                        density=params["density"], seed=seed)
        gamma = params["gamma"]
        gamma = 1.0 / data.count if gamma is None else gamma
        return logistic_problem(data, gamma, params["radius"], params["nu_mode"])
    if name == "portfolio":
        returns = portfolio_generator(params["p"], params["n"], seed)
        return portfolio_problem(returns)
    if name == "dwd":
        data = synthetic_classification(params["p"], params["d"], seed=seed)
        return dwd_problem(data, q=params["q"], u=params["u"], big_r=params["big_r"])
    returns = covariance_generator(params["p"], seed)
    return covariance_problem(returns)


def make_start(instance: ProblemInstance, start_seed: int):
    """Starting point recipe per problem family.

    Returns (x0, weights) with weights the {vertex_id: weight} dict of x0
    over the family's polytope, or None for dwd (no vertex start).
    logistic: random l1-ball vertex; portfolio: random simplex vertex;
    dwd: (0, 0, xi) with xi drawn from its block; covariance: a random
    diagonal matrix with diagonal on the scaled simplex.
    """
    rng = np.random.default_rng(np.random.SeedSequence([abs(start_seed), 977]))
    family = instance.name.split("-")[0]
    feasible = instance.feasible_set
    obj = instance.objective
    if family == "logistic":
        i = int(rng.integers(feasible.dimension))
        sign = 1 if rng.integers(2) else -1
        vid = (i, sign)
        x0 = feasible.vertex(vid)
        return x0, {vid: 1.0}
    if family == "portfolio":
        for _ in range(1000):
            i = int(rng.integers(feasible.dimension))
            x0 = feasible.vertex(i)
            if obj.in_domain(x0):
                return x0, {i: 1.0}
        raise ConfigError("no feasible simplex vertex found")
    if family == "dwd":
        ball, _, slack = feasible.blocks
        d, p, radius = ball.dimension, slack.dimension, slack.radius
        direction = np.abs(rng.standard_normal(p))
        direction /= max(np.linalg.norm(direction), 1e-300)
        xi = direction * radius * rng.uniform() ** (1.0 / p)
        x0 = np.concatenate([np.zeros(d), [0.0], xi])
        if not obj.in_domain(x0):
            x0[d + 1:] = np.maximum(xi, 1e-6)
        return x0, None
    if family == "covariance":
        p = feasible.p
        diag = rng.dirichlet(np.ones(p)) * feasible.radius
        x0 = np.diag(diag)
        return x0, {(i, i, 1): diag[i] / feasible.radius for i in range(p)}
    raise ConfigError(f"no start recipe for {instance.name!r}")


def run_method(method: str, instance: ProblemInstance, x0, weights, config: SolverConfig) -> RunTrace:
    if method not in SOLVERS:
        raise ConfigError(f"unknown method {method!r}")
    if method == "asfwgsc":
        if weights is None:
            raise ConfigError(f"{instance.name} provides no vertex representation "
                              "for the away-step solver")
        return asfwgsc(instance.objective, instance.feasible_set, weights, config)
    if method == "fwlloo":
        feasible = instance.feasible_set
        if not isinstance(feasible, UnitSimplex):
            raise ConfigError("fwlloo requires a set with a ball-restricted oracle "
                              "(unit simplex only)")
        return fwlloo(instance.objective, feasible, make_simplex_lloo(feasible.dimension),
                      x0, config)
    return SOLVERS[method](instance.objective, instance.feasible_set, x0, config)


# ---------------------------------------------------------------------------
# Record serialization
# ---------------------------------------------------------------------------

RECORD_SCHEMA = 3  # the record layout's version, written in every header; no other is read
# IterationRecord field, in field order -> column key and the cast on writing
_ROW_SCHEMA = (
    ("k", "k", int), ("f_value", "f", float), ("gap", "gap", float), ("alpha", "alpha", float),
    ("step_kind", "kind", str), ("backtrack_count", "backtracks", int),
    ("estimate", "estimate", float), ("elapsed_seconds", "elapsed", float),
    ("predicted_decrease", "predicted", float), ("certificate", "certificate", float),
    ("radius", "radius", float),
)
# header key -> the cast on writing and reading
_HEADER_TYPES = {"schema": int, "problem": str, "method": str, "start": int, "status": str,
                 "final_f": float, "final_gap": float, "f_star_estimate": float,
                 "n_iterations": int}
# null is read back only for a record field that may be None, and for an unknown f*
_NULLABLE = {f.name for f in fields(IterationRecord) if f.default is None} | {"f_star_estimate"}


def _typed(key: str, values, cast, nullable: bool, n: int) -> list:
    """``values``, a list of ``n`` values as the writer's cast leaves them,
    checked in one pass: another length, null for a field that is never
    None, or another JSON type (a bool, or an int in a float field) is a
    ValueError.  A float column may instead be one base64 string of ``n``
    little-endian float64s; a bad string or another byte count is a ValueError."""
    if cast is float and isinstance(values, str):
        packed = base64.b64decode(values, validate=True)
        if len(packed) != 8 * n:
            raise ValueError(f"{key} must pack {8 * n} bytes, got {len(packed)}")
        return np.frombuffer(packed, "<f8").tolist()
    if not isinstance(values, list) or len(values) != n:
        got = f"{len(values)}" if isinstance(values, list) else f"{values!r:.60}"
        raise ValueError(f"{key} must be a list of {n} values, got {got}")
    allowed = {cast, type(None)} if nullable else {cast}
    if not set(map(type, values)) <= allowed:
        bad = next(v for v in values if type(v) not in allowed)
        raise ValueError(f"{key} must be {cast.__name__}, got {bad!r}")
    return values


def trace_to_lines(problem: str, method: str, start: int, trace: RunTrace,
                   f_star_estimate=None):
    """Two-line record: the header object, then one object mapping each row
    key to its column of ``n_iterations`` values.  A float column with no
    None is one base64 string of their little-endian float64 bytes, so every
    bit survives; any other column is a JSON list (null where a field is None)."""
    values = {"schema": RECORD_SCHEMA, "problem": problem, "method": method, "start": start,
              "status": trace.status, "final_f": trace.final_f, "final_gap": trace.final_gap,
              "f_star_estimate": f_star_estimate, "n_iterations": len(trace.iterations)}
    header = {key: None if values[key] is None else cast(values[key])
              for key, cast in _HEADER_TYPES.items()}
    columns = {}
    for name, key, cast in _ROW_SCHEMA:
        column = list(map(attrgetter(name), trace.iterations))
        columns[key] = (base64.b64encode(np.array(column, dtype="<f8").tobytes()).decode()
                        if cast is float and None not in column else
                        [None if v is None else cast(v) for v in column])
    return [json.dumps({"type": "header", **header}, sort_keys=True),
            json.dumps(columns, sort_keys=True)]


def write_record(path: Path, lines):
    path.write_text("\n".join(lines) + "\n")


def record_filename(problem: str, method: str, start: int) -> str:
    return f"{problem}__{method}__s{start}.jsonl"


# ---------------------------------------------------------------------------
# Grid runner
# ---------------------------------------------------------------------------

_SOLVER_FIELDS = tuple(f.name for f in fields(SolverConfig) if f.name != "keep_iterates")
_GRID_KEYS = ("problems", "methods", "n_starts", "seed", "profile_epsilons", "out_dir")
DEFAULT_EPSILONS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)  # the profile grid when a config names none


def epsilon_grid(values) -> list:
    """A profile's relative-error grid as floats: a non-empty list of finite
    values >= 0, or a ConfigError."""
    try:
        grid = [float(eps) for eps in values] if isinstance(values, list) else []
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad epsilon grid: {exc}") from exc
    if not grid or not all(0.0 <= eps < math.inf for eps in grid):
        raise ConfigError(f"the epsilon grid must be a non-empty list of finite numbers "
                          f">= 0, got {values!r}")
    return grid


def _parse_config(config: dict):
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("problems", "methods"):
        if key not in config or not isinstance(config[key], list) or not config[key]:
            raise ConfigError(f"config needs a nonempty {key!r} list")
    unknown = sorted(set(config) - set(_GRID_KEYS) - set(_SOLVER_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    if not isinstance(config.get("out_dir", ""), str):
        raise ConfigError(f"out_dir must be a string, got {config['out_dir']!r}")
    try:
        solver_config = SolverConfig(**{k: _integer(config[k]) if k == "max_iter" else config[k]
                                        for k in _SOLVER_FIELDS if k in config})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver settings: {exc}") from exc
    epsilons = epsilon_grid(config.get("profile_epsilons", list(DEFAULT_EPSILONS)))
    try:
        n_starts = _integer(config.get("n_starts", 1))
        base_seed = _integer(config.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid settings: {exc}") from exc
    if n_starts < 1 or base_seed < 0:
        raise ConfigError(f"need n_starts >= 1 and seed >= 0, got {n_starts} and {base_seed}")
    methods = list(config["methods"])
    for i, m in enumerate(methods):
        if m not in SOLVERS:
            raise ConfigError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise ConfigError(f"method {m!r} is named twice")
    problems = {}  # cell id -> spec; two specs with one id would write one set of files
    for spec in config["problems"]:
        family, _ = _check_spec(spec)
        for m in methods:
            allowed = _METHOD_FAMILIES.get(m, (family,))
            if family not in allowed:
                raise ConfigError(f"method {m!r} does not run on {family!r} problems "
                                  f"(only on {', '.join(allowed)})")
        cell_id = _cell_id(spec)
        if cell_id in problems:
            raise ConfigError(f"problem {cell_id!r} is named twice")
        problems[cell_id] = dict(spec)
    return problems, methods, n_starts, base_seed, solver_config, epsilons


def _cell_id(problem_spec: dict) -> str:
    """The family name, then each key the spec carries with its value as
    ``_check_spec`` casts it, so specs that build one problem share one id."""
    name, params = _check_spec(problem_spec)
    tags = [f"{k}{params[k]}" for k in sorted(problem_spec) if k != "name"]
    return "-".join([name] + tags) if tags else name


def run_experiment(config, out_dir=None, dry_run: bool = False):
    """Execute a (problem x method x start) grid and write record files.

    Cells run one after another, spec-major: each problem is built once,
    shared by its (method, start) cells, which leave it unchanged, and
    released before the next is built.  Returns the list of RunRecords in
    that order (empty for a dry run).
    """
    if isinstance(config, (str, Path)):
        try:
            config = json.loads(Path(config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    problems, methods, n_starts, base_seed, solver_config, epsilons = _parse_config(config)
    out_dir = Path(out_dir if out_dir is not None else config.get("out_dir", "records"))

    if dry_run:
        for cell_id in problems:
            for method in methods:
                for start in range(n_starts):
                    print(f"{cell_id} x {method} x start{start}")
        return []

    results = []
    f_star = {}  # f*_j: best value attained on problem j by any method from any start
    for cell_id, spec in problems.items():
        instance = build_problem(spec)
        cell_tag = zlib.crc32(cell_id.encode())  # stable across processes
        for method in methods:
            for start in range(n_starts):
                start_seed = int(np.random.SeedSequence(
                    [base_seed, cell_tag, start]).generate_state(1)[0])
                x0, weights = make_start(instance, start_seed)
                trace = run_method(method, instance, x0, weights, solver_config)
                results.append((cell_id, method, start, trace))
                f_star[cell_id] = min(f_star.get(cell_id, math.inf), trace.best_f())
        del instance, x0, weights  # release this problem before the next is built

    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for problem, method, start, trace in results:
        records.append(RunRecord(problem, method, start, trace, f_star[problem]))
        lines = trace_to_lines(problem, method, start, trace, f_star[problem])
        write_record(out_dir / record_filename(problem, method, start), lines)

    write_profile_csv(out_dir / "profiles.csv", profile_points(records, epsilons))
    return records


def profile_table(rows) -> str:
    """The profile as CSV text, every line ended by "\\n": the header, then a line per row."""
    out = io.StringIO()
    table = csv.writer(out, lineterminator="\n")
    table.writerow(["epsilon", "method", "rho", "rho_iter", "rho_time"])
    table.writerows([f"{row.epsilon:g}", row.method, f"{row.rho:.6f}",
                     "" if row.rho_iter is None else f"{row.rho_iter:.6f}",
                     "" if row.rho_time is None else f"{row.rho_time:.6f}"] for row in rows)
    return out.getvalue()


def write_profile_csv(path: Path, rows):
    path.write_text(profile_table(rows), newline="")


def load_records(directory) -> list:
    """Read record files back into RunRecords (for the profile subcommand).
    Only the layout ``trace_to_lines`` writes loads; an empty, truncated,
    incomplete or other-schema file is a ConfigError naming it."""
    out = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        try:
            first, *rest = path.read_text().splitlines()
            header = json.loads(first)
            header = {key: _typed(key, [header.get(key)], cast, key in _NULLABLE, 1)[0]
                      for key, cast in _HEADER_TYPES.items()}
            if header["schema"] != RECORD_SCHEMA or len(rest) != 1:
                raise ValueError(f"schema {header['schema']} in {len(rest) + 1} lines, "
                                 f"expected schema {RECORD_SCHEMA} in 2")
            columns = json.loads(rest[0])
            iterations = list(starmap(IterationRecord, zip(*(
                _typed(key, columns.get(key), cast, name in _NULLABLE, header["n_iterations"])
                for name, key, cast in _ROW_SCHEMA))))
            trace = RunTrace(iterations=iterations, status=header["status"],
                             final_f=header["final_f"], final_gap=header["final_gap"],
                             x=np.empty(0), meta={"problem": header["problem"],
                                                  "solver": header["method"]})
            f_star = header["f_star_estimate"]
            out.append(RunRecord(header["problem"], header["method"], header["start"], trace,
                                 trace.best_f() if f_star is None else f_star))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path} is not a complete record file: {exc!r}") from exc
    return out
