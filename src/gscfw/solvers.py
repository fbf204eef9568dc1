"""Projection-free solvers for generalized self-concordant objectives.

Seven variants share the same trace format: the classic oblivious and
line-search baselines, the analytic-step method, two backtracking methods
(over a local Lipschitz estimate and over the self-concordance constant),
a ball-restricted-oracle accelerated method, and an away-step method with
explicit vertex representation.  A solver run owns its mutable state and is
single-threaded; several runs may share immutable objectives and sets.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from itertools import accumulate, compress, islice

import numpy as np

from .gsc import (Line, LocalGeometry, Objective, Point, analytic_step, bisect, inner, l2_norm,
                  max_feasible_step, t_star)  # t_star unused: perfbench/tracer.py rebinds it
from .sets import FeasibleSet, VertexSet, gap as fw_gap

_LINE_SEARCH_TOL = 1e-10  # bracket width at which the exact line search stops
_BACKTRACK_LIMIT = 100  # doublings; beyond this the model is being misused
# Trial estimates shrink by gamma_d after every accepted step; without a floor
# a long quadratic-like phase drives them so low that recovery would blow the
# doubling budget once real curvature reappears.
_ESTIMATE_FLOOR = 1e-10


class BacktrackingError(RuntimeError):
    """Backtracking exceeded its doubling budget (model misuse)."""


@dataclass
class SolverConfig:
    epsilon: float = 1e-6
    max_iter: int = 1000
    gamma_u: float = 2.0
    gamma_d: float = 0.9
    l_init: float | None = None  # None: phi''(0)/||v||^2 along the first direction
    mu_init: float = 1.0
    sigma_f: float | None = None  # None: smallest Hessian eigenvalue at x0
    keep_iterates: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 0):
            raise ValueError(f"max_iter must be an integer >= 0, got {self.max_iter!r}")
        if not (math.inf > self.gamma_u > 1.0 > self.gamma_d > 0.0):
            raise ValueError("need a finite gamma_u > 1 > gamma_d > 0")
        for name in ("l_init", "mu_init", "sigma_f"):
            value = getattr(self, name)
            if value is None and name != "mu_init":
                continue
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not (math.isfinite(value) and value > 0.0)):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


@dataclass
class IterationRecord:
    k: int
    f_value: float
    gap: float  # FW gap, or the modified gap for away-step runs
    alpha: float
    step_kind: str  # forward | away | drop | zero
    backtrack_count: int = 0
    estimate: float | None = None  # L_k, mu_k, or the radius-decay product
    elapsed_seconds: float = 0.0
    predicted_decrease: float | None = None
    certificate: float | None = None
    radius: float | None = None


@dataclass
class RunTrace:
    iterations: list
    status: str  # gap-converged | iteration-cap
    final_f: float
    final_gap: float
    x: np.ndarray
    meta: dict = field(default_factory=dict)
    iterates: list | None = None

    def f_values(self):
        """Objective value at every iterate, final point included."""
        return [rec.f_value for rec in self.iterations] + [self.final_f]

    def cumulative_seconds(self):
        """Wall time elapsed when each iterate was produced (iterate 0 at 0)."""
        return list(accumulate((rec.elapsed_seconds for rec in self.iterations), initial=0.0))

    def best_f(self):
        return min(self.f_values())


def _start(obj: Objective, feasible: FeasibleSet, x0, solver: str):
    """The evaluation cache at a validated float copy of the start, and the
    run's metadata.  f is +inf outside dom f, so one finite f(x0) admits the
    start; a start outside dom f, or one where f or its gradient overflows,
    is a ValueError.  The loop's first gradient is the one checked here."""
    x = np.array(x0, dtype=float)
    if not feasible.contains(x, tol=1e-7):
        raise ValueError("initial point is not feasible")
    point = obj.at(x)
    if not math.isfinite(point.value()):
        raise ValueError(f"initial point has f = {point.value()}: outside dom f or overflowing")
    if not np.isfinite(point.gradient()).all():
        raise ValueError("initial point has a non-finite gradient where f is finite")
    return point, {"solver": solver, "problem": obj.name}


def _frank_wolfe(feasible: FeasibleSet, point: Point, config: SolverConfig, meta: dict,
                 step) -> RunTrace:
    """The iteration every solver shares: gradient, oracle, gap, stop test,
    record, step, move.

    ``point`` is the evaluation cache at the iterate (``Objective.at``).  The
    loop builds each iteration's record as ``IterationRecord(k, f, gap, 0.0,
    "forward")`` and hands it to ``step(point, s_id, s, rec, at_x)``, which carries
    the solver's own state, fills in alpha and its own fields of ``rec`` and returns
    ``(line, t)``; ``s_id``, ``s`` are the vertex id and its atom (a, b, h) on
    polytopes, else None and the dense answer (``_toward`` takes either), and ``at_x``
    is the gap's <g, x>.  The loop then moves to ``line.at(t)``, the point with
    whatever the line already knows there (margins, f), which at t = 0 is the iterate
    itself, and labels a step of t = 0 ``zero``.  The run ends at the gap test or at
    the cap, and the gap test runs first, so the final gap is the one at the final
    iterate.  A zero step is one more iteration, and a record's wall time spans its
    whole iteration, step bookkeeping included.
    """
    indexed = isinstance(feasible, VertexSet)
    records = []
    iterates = [point.x.copy()] if config.keep_iterates else None
    status = "iteration-cap"
    for k in range(config.max_iter + 1):
        t0 = time.perf_counter()
        g = point.gradient()
        s_id, s = (feasible.lmo_indexed(g, symmetric=True) if point.symmetric_gradient else
                   feasible.lmo_indexed(g)) if indexed else (None, feasible.lmo(g))
        if indexed:  # <g, s> = h g_a + h g_b, as away_vertex scores it
            (a, b, h), flat = s, g.ravel()
            score = h * float(flat[a]) + h * float(flat[b])
        at_x = inner(g, point.x)
        gp = fw_gap(g, at_x, score if indexed else inner(g, s))
        if gp <= config.epsilon:
            status = "gap-converged"
            break
        if k == config.max_iter:
            break
        rec = IterationRecord(k, point.value(), gp, 0.0, "forward")
        line, t = step(point, s_id, s, rec, at_x)
        point = line.at(t)
        if t == 0.0:
            rec.step_kind = "zero"
        rec.elapsed_seconds = time.perf_counter() - t0
        records.append(rec)
        if iterates is not None:
            iterates.append(np.array(point.x, copy=True))
    return RunTrace(iterations=records, status=status, final_f=point.value(), final_gap=gp,
                    x=point.x, meta=meta, iterates=iterates)


def _toward(point: Point, s) -> Line:
    """The line toward the loop's answer ``s``: an atom (a, b, h) on a polytope, else a point."""
    return point.toward_atom(*s) if isinstance(s, tuple) else point.toward(s)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def fw_standard(obj: Objective, feasible: FeasibleSet, x0, config: SolverConfig) -> RunTrace:
    """Oblivious 2/(k+2) schedule; domain-violating candidates are zeroed."""
    point, meta = _start(obj, feasible, x0, "fw-standard")

    def step(point, s_id, s, rec, at_x):
        line, alpha = _toward(point, s), 2.0 / (rec.k + 2.0)
        if line.in_domain(alpha):  # else a zero step
            rec.alpha = alpha
        return line, rec.alpha

    return _frank_wolfe(feasible, point, config, meta, step)


def _exact_line_search(line: Line) -> float:
    """Bisection on the slope of ``line`` over its domain-feasible range,
    to an interval of width ``_LINE_SEARCH_TOL``."""
    t_max = max_feasible_step(line)
    if line.slope(t_max) <= 0.0:
        return t_max
    lo, hi = bisect(lambda t: line.slope(t) < 0.0, t_max, _LINE_SEARCH_TOL)  # slope(0) = -gap
    return 0.5 * (lo + hi)


def fw_line_search(obj: Objective, feasible: FeasibleSet, x0, config: SolverConfig) -> RunTrace:
    """Exact line search within the domain-feasible segment."""
    point, meta = _start(obj, feasible, x0, "fw-line-search")

    def step(point, s_id, s, rec, at_x):
        line = _toward(point, s)
        rec.alpha = _exact_line_search(line)
        return line, rec.alpha

    return _frank_wolfe(feasible, point, config, meta, step)


# ---------------------------------------------------------------------------
# Analytic step
# ---------------------------------------------------------------------------

def fwgsc(obj: Objective, feasible: FeasibleSet, x0, config: SolverConfig) -> RunTrace:
    """Frank-Wolfe with the closed-form step from the GSC descent model.

    Every iterate stays feasible and in the domain without any line search
    or domain oracle, and f decreases by at least the recorded prediction.
    """
    point, meta = _start(obj, feasible, x0, "fwgsc")

    def step(point, s_id, s, rec, at_x):
        line = _toward(point, s)
        geom = LocalGeometry.from_direction(line, rec.gap)
        rec.alpha, rec.predicted_decrease = analytic_step(obj.spec, geom, cap=1.0)
        return line, rec.alpha

    return _frank_wolfe(feasible, point, config, meta, step)


# ---------------------------------------------------------------------------
# Backtracking over the local Lipschitz estimate or the self-concordance constant
# ---------------------------------------------------------------------------

def _backtrack(line: Line, estimate: float, config: SolverConfig, trial, rule: str):
    """The search of both step rules (Pedregosa et al., 2020): gamma_d times
    the estimate, floored, is doubled until ``trial(estimate)`` = (alpha,
    model) is a step in the domain with f there below the model.  Returns
    (alpha, estimate, backtracks)."""
    est = max(config.gamma_d * estimate, _ESTIMATE_FLOOR)
    slack = 1e-12 * (1.0 + abs(line.point.value()))
    for count in range(_BACKTRACK_LIMIT + 1):
        alpha, model = trial(est)
        if line.in_domain(alpha) and line.value(alpha) <= model + slack:
            return alpha, est, count
        est *= config.gamma_u
    raise BacktrackingError(f"{rule} backtracking exceeded {_BACKTRACK_LIMIT} doublings")


def step_l(line: Line, gap: float, l_prev: float, config: SolverConfig):
    """Backtracking over L: the step min(1, gap/(L beta^2)) against the
    quadratic model.  Returns (alpha, L_new, backtracks)."""
    f_x = line.point.value()
    beta2 = float(np.vdot(line.v, line.v))  # +inf on overflow, without ndarray.dot's warning
    if not 0.0 < beta2 < math.inf:  # 0 (underflowed or v = 0), overflowed or NaN
        raise ValueError("zero direction" if beta2 == 0.0 else f"direction with ||v||^2 = {beta2}")

    def trial(lt):
        alpha = min(1.0, gap / (lt * beta2))
        return alpha, f_x - alpha * gap + 0.5 * lt * alpha * alpha * beta2

    return _backtrack(line, l_prev, config, trial, "quadratic-model")


def lbtfwgsc(obj: Objective, feasible: FeasibleSet, x0, config: SolverConfig) -> RunTrace:
    """Backtracking over the gradient's local Lipschitz modulus."""
    point, meta = _start(obj, feasible, x0, "lbtfwgsc")
    l_prev = meta["l_init"] = config.l_init

    def step(point, s_id, s, rec, at_x):
        nonlocal l_prev
        line = _toward(point, s)
        if l_prev is None:  # phi''(0)/||v||^2 along the first direction; step_l rejects v = 0
            beta2 = float(np.vdot(line.v, line.v))
            if not beta2 < math.inf:  # as in from_direction: before the curvature overflows
                raise ValueError(f"direction with ||v||^2 = {beta2}")
            l_prev = max(1e-6, line.curvature() / (beta2 or math.inf))
            meta["l_init"] = l_prev
        rec.alpha, l_prev, rec.backtrack_count = step_l(line, rec.gap, l_prev, config)
        rec.estimate = l_prev
        return line, rec.alpha

    return _frank_wolfe(feasible, point, config, meta, step)


def step_m(line: Line, gap: float, mu_prev: float, config: SolverConfig):
    """Backtracking over mu: the analytic step with constant mu against its
    predicted decrease.  Returns (alpha, mu_new, backtracks)."""
    f_x = line.point.value()
    geom = LocalGeometry.from_direction(line, gap)
    spec = line.point.obj.spec

    def trial(mt):
        alpha, predicted = analytic_step(spec, geom, 1.0, mt)
        return alpha, f_x - predicted

    return _backtrack(line, mu_prev, config, trial, "GSC-constant")


def mbtfwgsc(obj: Objective, feasible: FeasibleSet, x0, config: SolverConfig) -> RunTrace:
    """Backtracking over the generalized self-concordance constant."""
    point, meta = _start(obj, feasible, x0, "mbtfwgsc")
    mu_prev = config.mu_init

    def step(point, s_id, s, rec, at_x):
        nonlocal mu_prev
        line = _toward(point, s)
        rec.alpha, mu_prev, rec.backtrack_count = step_m(line, rec.gap, mu_prev, config)
        rec.estimate = mu_prev
        return line, rec.alpha

    return _frank_wolfe(feasible, point, config, meta, step)


# ---------------------------------------------------------------------------
# Ball-restricted oracle acceleration
# ---------------------------------------------------------------------------

def smallest_hessian_eigenvalue(obj: Objective, x) -> float:
    h = obj.hessian(x)
    if not np.isfinite(h).all():  # eigvalsh would fail to converge, or answer 0 for a NaN
        raise ValueError("non-finite Hessian at the start")
    return float(np.linalg.eigvalsh((h + h.T) / 2.0)[0])


def fwlloo(obj: Objective, feasible: FeasibleSet, lloo, x0, config: SolverConfig) -> RunTrace:
    """Ball-restricted oracle variant with geometrically shrinking radius.

    Maintains the certificate f(x_k) - f* <= gap(x_0) * c_k with
    c_k = exp(-sum alpha_i / 2), and queries the oracle on the ball of radius
    r_k = r_0 sqrt(c_k), r_0 = sqrt(2 gap(x_0) / sigma_f).  Needs a
    strong-convexity estimate sigma_f; when absent it is taken as the
    smallest Hessian eigenvalue at the start, floored at 1e-10.
    """
    point, meta = _start(obj, feasible, x0, "fwlloo")
    sigma = config.sigma_f
    if sigma is None:
        sigma = max(smallest_hessian_eigenvalue(obj, point.x), 1e-10)
    meta["sigma_f"] = sigma
    gap0 = r_0 = None
    c_k = 1.0

    def step(point, s_id, s, rec, at_x):
        nonlocal gap0, r_0, c_k
        if rec.k == 0:
            gap0 = rec.gap
            r_0 = meta["r_0"] = math.sqrt(2.0 * gap0 / sigma)
        rec.estimate, rec.certificate, rec.radius = c_k, gap0 * c_k, r_0 * math.sqrt(c_k)
        u = lloo.query(point.x, rec.radius, point.gradient())
        a = (u != 0.0).nonzero()[0]  # a bool mask, as float nonzero is slow
        # a vertex u_a e_a goes on as its atom (a, a, u_a / 2), any other answer as a point
        line = point.toward_atom(a[0], a[0], 0.5 * u[a[0]]) if len(a) == 1 else point.toward(u)
        # the merit is half the certificate, so xi = 2 e^2 / (gap0 c_k)
        geom = LocalGeometry.from_direction(line, 0.5 * gap0 * c_k)
        if geom.beta != 0.0:  # else the oracle answered x itself: a zero step
            rec.alpha = analytic_step(obj.spec, geom, cap=1.0)[0]
            c_k *= math.exp(-0.5 * rec.alpha)
        return line, rec.alpha

    return _frank_wolfe(feasible, point, config, meta, step)


# ---------------------------------------------------------------------------
# Away steps with vertex representation
# ---------------------------------------------------------------------------

_PURGE_TOL = 1e-12


class ActiveSet:
    """Iterate as an explicit convex combination of polytope vertices: ``rows`` maps each id
    to its row r, in entry order, and row r holds the id's weight ``weights[r]`` and its atom
    (a, b, h) as ``pairs[r]`` and ``heights[r]``, asked of the polytope once, when it enters."""

    def __init__(self, polytope: VertexSet, weights: dict):
        self.polytope = polytope
        self.rows = {vid: r for r, vid in enumerate(weights)}
        self.weights = np.fromiter(weights.values(), dtype=float, count=len(self.rows))
        atoms = [polytope.atom(vid) for vid in self.rows]
        self.pairs = np.array([(a, b) for a, b, _ in atoms], dtype=np.intp).reshape(-1, 2)
        self.heights = np.array([h for _, _, h in atoms], dtype=float)
        self._normalize()

    def _normalize(self):
        low = self.weights < _PURGE_TOL  # False for NaN, which then fails the mass check
        if low.any():
            keep = ~low
            self.rows = {vid: r for r, vid in enumerate(compress(self.rows, keep))}
            self.weights, self.pairs, self.heights = (
                self.weights[keep], self.pairs[keep], self.heights[keep])
        # a sequential sum in entry order (np.sum would sum pairwise)
        total = np.add.accumulate(self.weights)[-1] if self.rows else 0.0
        if not math.isfinite(total) or total <= 0.0:
            raise ValueError("active set lost all mass")
        if abs(total - 1.0) > 1e-15:
            self.weights /= total

    def forward_update(self, vid, alpha: float):
        """x <- (1 - alpha) x + alpha * vertex."""
        self.weights *= 1.0 - alpha
        if vid in self.rows:
            self.weights[self.rows[vid]] += alpha
        else:
            a, b, h = self.polytope.atom(vid)
            self.rows[vid] = len(self.rows)
            self.weights = np.concatenate((self.weights, [alpha]))
            self.heights = np.concatenate((self.heights, [h]))
            self.pairs = np.concatenate((self.pairs, [(a, b)]))
        self._normalize()

    def away_update(self, vid, alpha: float):
        """x <- (1 + alpha) x - alpha * vertex; alpha = weight/(1-weight) drops it."""
        self.weights *= 1.0 + alpha
        self.weights[self.rows[vid]] -= alpha
        self._normalize()

    def reconstruct(self):
        return np.bincount(self.pairs.ravel(), (self.weights * self.heights).repeat(2),
                           minlength=self.polytope.dimension).reshape(self.polytope.shape)


def away_vertex(grad, active: ActiveSet):
    """The active vertex most aligned with grad (lowest id on ties), its row and <grad, vertex>."""
    scores = (active.heights[:, None] * grad.ravel()[active.pairs]).sum(axis=1)  # h g_a + h g_b
    row = int(scores.argmax())
    ties = scores == scores[row]  # the argmax row's id by position, unless it ties exactly
    uid = (next(islice(active.rows, row, None)) if np.count_nonzero(ties) == 1 else
           min(compress(active.rows, ties)))
    return uid, active.rows[uid], float(scores[row])


def asfwgsc(obj: Objective, polytope: VertexSet, start: dict, config: SolverConfig) -> RunTrace:
    """Away-step variant over a polytope with vertex-representation updates.

    ``start`` maps vertex ids to their weights at the starting point.  Away
    steps are capped at weight/(1-weight); hitting the cap drops the vertex.
    The active set's drift from the iterate is sampled at drop steps, every
    ``polytope.dimension`` iterations and at the final iterate.
    """
    if not isinstance(polytope, VertexSet):
        raise ValueError("away-step solver needs a polytope with vertex ids")
    active = ActiveSet(polytope, start)
    point, meta = _start(obj, polytope, active.reconstruct(), "asfwgsc")
    meta.update(active_set_max_drift=0.0, forced_forward_steps=0, drop_steps=0)

    def measure_drift(x):
        drift = l2_norm(active.reconstruct() - x) / (1.0 + l2_norm(x))
        meta["active_set_max_drift"] = max(meta["active_set_max_drift"], drift)

    def step(point, s_id, s, rec, at_x):
        uid, row, score = away_vertex(point.gradient(), active)
        away_gap = score - at_x
        forward = rec.gap >= away_gap
        mu_u = 0.0 if forward else active.weights[row]
        if mu_u >= 1.0 - 1e-12:
            forward = True  # away from the only vertex is undefined; flag it
            meta["forced_forward_steps"] += 1
        if forward:
            line, t_bar = point.toward_atom(*s), 1.0
        else:  # a negative step along the line toward the away atom, sized by the away gap
            line = point.toward_atom(*active.pairs[row].tolist(), float(active.heights[row]))
            t_bar, rec.gap, rec.step_kind = mu_u / (1.0 - mu_u), away_gap, "away"
        geom = LocalGeometry.from_direction(line, rec.gap)
        rec.alpha, rec.predicted_decrease = analytic_step(obj.spec, geom, cap=t_bar)
        if forward:
            active.forward_update(s_id, rec.alpha)
        else:
            active.away_update(uid, rec.alpha)
            if rec.alpha >= t_bar:
                rec.step_kind = "drop"
                meta["drop_steps"] += 1
        t = rec.alpha if forward else -rec.alpha
        if rec.step_kind == "drop" or (rec.k + 1) % polytope.dimension == 0:
            measure_drift(line.at(t).x)
        return line, t

    trace = _frank_wolfe(polytope, point, config, meta, step)
    measure_drift(trace.x)
    meta["active_set_size"] = len(active.rows)
    return trace


# ---------------------------------------------------------------------------
# Registry used by the benchmark harness
# ---------------------------------------------------------------------------

SOLVERS = {
    "fw-standard": fw_standard,
    "fw-line-search": fw_line_search,
    "fwgsc": fwgsc,
    "lbtfwgsc": lbtfwgsc,
    "mbtfwgsc": mbtfwgsc,
    "fwlloo": fwlloo,
    "asfwgsc": asfwgsc,
}
