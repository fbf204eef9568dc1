"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expensive shared runs live in module-scoped fixtures.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from gscfw import (SolverConfig, UnitSimplex, asfwgsc, fw_standard, fwgsc, fwlloo,
                   lbtfwgsc, mbtfwgsc, omega, portfolio_generator, portfolio_problem,
                   run_experiment)
from gscfw.bench import build_problem, make_start, relative_error
from gscfw.problems import MarginLine
from gscfw.sets import SimplexLLOO
from gscfw.stepsize import psi, t_star

from conftest import (IntervalSet, NegLogObjective, ShiftedQuadratic, descent_bounds,
                      numeric_psi_max, psi_at_tstar, psi_lower_bound, records_without_times)

FIXTURES = Path(__file__).parent / "fixtures"

ACCEPTANCE_BUDGET = 50_000


def _ok(n, message):
    print(f"\n[PASS] criterion {n}: {message}")


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def portfolio_reference():
    payload = json.loads((FIXTURES / "portfolio_reference.json").read_text())
    spec = payload["problem"]
    instance = build_problem(spec)
    x0, active = make_start(instance, start_seed=payload["start_seed"])
    return instance, x0, active, payload


@pytest.fixture(scope="module")
def fwgsc_long(portfolio_reference):
    """The long fwgsc run, and the evaluation cache it carried to its last
    iterate (the last point a line handed on)."""
    instance, x0, _, _ = portfolio_reference
    carried = []
    at = MarginLine.at

    def keep_last(line, t):
        carried[:] = [at(line, t)]
        return carried[0]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MarginLine, "at", keep_last)
        trace = fwgsc(instance.objective, instance.feasible_set, x0,
                      SolverConfig(epsilon=1e-14, max_iter=ACCEPTANCE_BUDGET))
    return trace, carried[0]


@pytest.fixture(scope="module")
def fwgsc_long_run(fwgsc_long):
    return fwgsc_long[0]


# ---------------------------------------------------------------------------
# 1. step-size oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_stepsize_oracle_equivalence():
    t_start = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        delta = float(10.0 ** rng.uniform(-3, 3))
        xi = float(10.0 ** rng.uniform(-3, 3))
        nu = float(rng.uniform(2.0, 3.0))
        if rng.random() < 0.2:
            nu = float(rng.choice([2.0, 3.0]))
        ts = t_star(delta, xi, nu)
        numeric = numeric_psi_max(delta, xi, nu)
        assert abs(numeric - ts) <= 1e-8 * (1.0 + ts)
        closed = psi_at_tstar(delta, xi, nu)
        assert abs(psi(delta, xi, nu, ts) - closed) <= 1e-10 * abs(closed)
        assert psi_lower_bound(delta, xi, nu) <= closed * (1.0 + 1e-9)
    assert time.monotonic() - t_start < 10.0
    _ok(1, "closed-form maximizer, optimal value, and lower bound verified on "
           "10^4 random parameter triples")


# ---------------------------------------------------------------------------
# 2. kernel checks and the descent sandwich on every benchmark objective
# ---------------------------------------------------------------------------

def _sample_pair(instance, rng):
    family = instance.name.split("-")[0]
    obj = instance.objective
    if family == "logistic":
        x = rng.standard_normal(obj.dimension)
        return x, x + 0.5 * rng.standard_normal(obj.dimension)
    if family == "portfolio":
        x = rng.dirichlet(np.ones(obj.dimension))
        y = x + rng.uniform() * (rng.dirichlet(np.ones(obj.dimension)) - x)
        return x, y
    if family == "dwd":
        ball, _, slack = instance.feasible_set.blocks
        x = np.concatenate([0.01 * rng.standard_normal(ball.dimension), [0.0],
                            1.0 + rng.uniform(size=slack.dimension)])
        y = x + 0.05 * rng.standard_normal(obj.dimension)
        return x, y
    d = rng.uniform(0.5, 2.0, size=obj.p)
    x = np.diag(d)
    raw = 0.1 * rng.standard_normal((obj.p, obj.p))
    return x, x + (raw + raw.T) / 2.0


def test_criterion_2_gsc_kernel_and_sandwich():
    t_start = time.monotonic()
    # limit at 0 along shrinking arguments, tolerance 1e-6
    for nu in np.arange(2.0, 3.0001, 0.1):
        for t in (1e-8, -1e-8, 1e-9, 1e-12):
            assert abs(omega(float(nu), t) - 0.5) < 1e-6
    # nonnegativity and midpoint convexity on 1000 samples
    rng = np.random.default_rng(7)
    for _ in range(1000):
        nu = float(rng.uniform(2.0, 3.0))
        hi = 0.999 if nu > 2.0 + 1e-9 else 3.0
        t1, t2, t3 = np.sort(rng.uniform(-3.0, hi, size=3))
        vals = [omega(nu, float(t)) for t in (t1, t2, t3)]
        assert min(vals) >= 0.0
        assert omega(nu, float((t1 + t3) / 2)) <= (vals[0] + vals[2]) / 2.0 + 1e-12

    # descent sandwich, 1000 sampled pairs per benchmark objective
    instances = [
        build_problem({"name": "logistic", "p": 120, "n": 30, "seed": 3}),
        build_problem({"name": "portfolio", "p": 60, "n": 25, "seed": 5}),
        build_problem({"name": "dwd", "p": 40, "d": 10, "seed": 7}),
        build_problem({"name": "covariance", "p": 8, "seed": 9}),
    ]
    for instance in instances:
        obj = instance.objective
        rng = np.random.default_rng(11)
        upper_engaged = 0
        for _ in range(1000):
            x, y = _sample_pair(instance, rng)
            if not (obj.in_domain(x) and obj.in_domain(y)):
                continue
            lower, upper = descent_bounds(obj, x, y)
            fy = obj.value(y)
            scale = 1.0 + abs(fy)
            assert lower <= fy + 1e-8 * scale, instance.name
            if upper is not None:
                assert fy <= upper + 1e-8 * scale, instance.name
                upper_engaged += 1
        assert upper_engaged > 100, instance.name
    assert time.monotonic() - t_start < 30.0
    _ok(2, "kernel limit/convexity and the two-sided descent bounds hold on "
           "all four benchmark objectives")


# ---------------------------------------------------------------------------
# 3. feasibility and monotonicity at desk scale
# ---------------------------------------------------------------------------

def test_criterion_3_feasible_monotone_traces():
    t_start = time.monotonic()
    specs = [
        {"name": "logistic", "p": 500, "n": 50, "seed": 7},
        {"name": "portfolio", "p": 200, "n": 100, "seed": 23},
        {"name": "dwd", "p": 200, "d": 30, "seed": 13},
        {"name": "covariance", "p": 30, "seed": 17},
    ]
    config = SolverConfig(epsilon=1e-300, max_iter=2000, keep_iterates=True)
    checked = 0
    for spec in specs:
        instance = build_problem(spec)
        x0, active = make_start(instance, start_seed=55)
        runs = [(fwgsc, x0), (lbtfwgsc, x0), (mbtfwgsc, x0)]
        # the away-step solver needs a polytope; the dwd set is not one
        if active is not None:
            runs.append((asfwgsc, active))
        for solver, start in runs:
            trace = solver(instance.objective, instance.feasible_set, start, config)
            # a run may stop early only by hitting an exact zero gap
            assert len(trace.iterations) == 2000 or trace.final_gap <= 1e-300
            fs = trace.f_values()
            assert all(fs[i + 1] <= fs[i] + 1e-10 * (1.0 + abs(fs[i]))
                       for i in range(len(fs) - 1))
            for it in trace.iterates:
                assert instance.feasible_set.contains(it, tol=1e-7)
                assert instance.objective.in_domain(it)
            checked += 1
    assert checked == 15
    assert time.monotonic() - t_start < 180.0
    _ok(3, "15 desk-scale runs (4 problems x solvers) stay feasible, in-domain, "
           "and monotone over 2000 iterations")


# ---------------------------------------------------------------------------
# 4. sublinear rate evidence on the portfolio instance
# ---------------------------------------------------------------------------

def test_criterion_4_sublinear_rate(portfolio_reference, fwgsc_long_run):
    _, x0, _, payload = portfolio_reference
    f_star = payload["f_star"]
    trace = fwgsc_long_run
    h0 = trace.f_values()[0] - f_star
    assert h0 > 0
    best = math.inf
    for k, rec in enumerate(trace.iterations, start=1):
        best = min(best, rec.predicted_decrease)
        assert best <= h0 / k * (1.0 + 1e-9) + 1e-12
    hits = [k for k, f in enumerate(trace.f_values())
            if relative_error(f, f_star) <= 1e-4]
    assert hits and hits[0] <= ACCEPTANCE_BUDGET
    _ok(4, f"min-predicted-decrease bound holds for every prefix and relative "
           f"error 1e-4 is reached at iteration {hits[0]} <= {ACCEPTANCE_BUDGET}")


def test_carried_margins_match_a_fresh_evaluation(portfolio_reference, fwgsc_long):
    """Margins carried as z + alpha dz over the whole run stay within 1e-11
    of B x computed afresh at the final iterate, and so does f."""
    instance, _, _, _ = portfolio_reference
    obj = instance.objective
    trace, carried = fwgsc_long
    assert len(trace.iterations) == ACCEPTANCE_BUDGET
    assert np.array_equal(carried.x, trace.x)
    fresh = obj.at(trace.x)
    assert np.all(np.abs(carried.z - fresh.z) <= 1e-11 * np.abs(fresh.z))
    assert carried.value() == trace.final_f
    assert math.isclose(trace.final_f, fresh.value(), rel_tol=1e-11)
    assert obj.in_domain(trace.x)


# ---------------------------------------------------------------------------
# 5. linear-rate evidence: away steps and the ball-restricted oracle
# ---------------------------------------------------------------------------

def test_criterion_5_linear_rate(portfolio_reference, fwgsc_long_run):
    instance, x0, active, payload = portfolio_reference
    f_star = payload["f_star"]

    def first_hit(trace, tol):
        for k, f in enumerate(trace.f_values()):
            if relative_error(f, f_star) <= tol:
                return k
        return None

    n_fw = first_hit(fwgsc_long_run, 1e-6)
    budget_fw = n_fw if n_fw is not None else ACCEPTANCE_BUDGET
    asfw = asfwgsc(instance.objective, instance.feasible_set, active,
                   SolverConfig(epsilon=1e-13, max_iter=ACCEPTANCE_BUDGET))
    n_asfw = first_hit(asfw, 1e-6)
    assert n_asfw is not None
    assert n_asfw <= 0.05 * budget_fw, (n_asfw, budget_fw)

    lloo_trace = fwlloo(instance.objective, instance.feasible_set,
                        SimplexLLOO(instance.feasible_set.dimension), x0,
                        SolverConfig(epsilon=1e-12, max_iter=2000))
    fs = lloo_trace.f_values()
    for k, rec in enumerate(lloo_trace.iterations):
        h_k = fs[k] - f_star
        assert h_k <= rec.certificate + 1e-9 * (1.0 + abs(fs[k]))
    _ok(5, f"away-step solver reached 1e-6 in {n_asfw} iterations "
           f"(<= 5% of {budget_fw}); the radius-decay certificate held at "
           f"every ball-oracle iteration")


# ---------------------------------------------------------------------------
# 6. backtracking estimate bounds on known-curvature objectives
# ---------------------------------------------------------------------------

def test_criterion_6_backtracking_bounds():
    # quadratic with known curvature L over the simplex
    curvature = 3.0
    quad = ShiftedQuadratic([0.6, 0.2, 0.2], curvature=curvature)
    feasible = UnitSimplex(3)
    config = SolverConfig(epsilon=1e-12, max_iter=300, l_init=0.05, mu_init=1e-3)
    trace_l = lbtfwgsc(quad, feasible, np.array([0.0, 1.0, 0.0]), config)
    for rec in trace_l.iterations:
        assert rec.estimate <= max(config.l_init, config.gamma_u * curvature) + 1e-12
    trace_m = mbtfwgsc(quad, feasible, np.array([0.0, 1.0, 0.0]), config)
    for rec in trace_m.iterations:
        # constant-0 objective: the estimate can only decay from its seed
        assert rec.estimate <= max(config.mu_init, config.gamma_u * quad.spec.m) + 1e-12

    # 1-d Burg entropy -ln(t) over [0.1, 1]: order 3, constant 2, curvature <= 100
    burg = NegLogObjective(1)
    seg = IntervalSet(0.1, 1.0)
    config2 = SolverConfig(epsilon=1e-12, max_iter=300, l_init=1.0, mu_init=1.0)
    trace_l2 = lbtfwgsc(burg, seg, np.array([0.3]), config2)
    l_bound = max(config2.l_init, config2.gamma_u * 100.0)
    for rec in trace_l2.iterations:
        assert rec.estimate <= l_bound + 1e-12
    trace_m2 = mbtfwgsc(burg, seg, np.array([0.3]), config2)
    mu_bound = max(config2.mu_init, config2.gamma_u * 2.0)
    for rec in trace_m2.iterations:
        assert rec.estimate <= mu_bound + 1e-12
    _ok(6, "curvature and self-concordance estimates stayed below "
           "max(seed, gamma_u * truth) on both known-curvature problems")


# ---------------------------------------------------------------------------
# 7. the motivating two-variable log barrier
# ---------------------------------------------------------------------------

def test_criterion_7_log_barrier_regression():
    obj = NegLogObjective(2)
    feasible = UnitSimplex(2)
    x0 = np.array([0.25, 0.75])
    standard = fw_standard(obj, feasible, x0, SolverConfig(epsilon=1e-10, max_iter=50))
    first = standard.iterations[0]
    assert first.step_kind == "zero" and first.alpha == 0.0

    gsc = fwgsc(obj, feasible, x0, SolverConfig(epsilon=1e-10, max_iter=200,
                                                keep_iterates=True))
    fs = gsc.f_values()
    assert all(fs[i + 1] <= fs[i] + 1e-12 for i in range(len(fs) - 1))
    assert fs[-1] < fs[0]
    for it in gsc.iterates:
        assert obj.in_domain(it)
    _ok(7, "the oblivious step is zeroed at the first vertex jump while the "
           "analytic step decreases monotonically from the same start")


# ---------------------------------------------------------------------------
# 8. away-step bookkeeping
# ---------------------------------------------------------------------------

def test_criterion_8_active_set_bookkeeping():
    for seed, start_seed in ((23, 101), (42, 3), (7, 9)):
        instance = portfolio_problem(portfolio_generator(120, 60, seed=seed))
        x0, active = make_start(instance, start_seed=start_seed)
        trace = asfwgsc(instance.objective, instance.feasible_set, active,
                        SolverConfig(epsilon=1e-12, max_iter=3000))
        assert trace.meta["active_set_max_drift"] <= 1e-9
        drops = 0
        for k, rec in enumerate(trace.iterations, start=1):
            drops += rec.step_kind == "drop"
            assert drops <= math.ceil(k / 2) + 1
    _ok(8, "weight reconstruction stayed within 1e-9 and drop steps within "
           "ceil(k/2)+1 on every prefix of three seeded runs")


# ---------------------------------------------------------------------------
# 9. harness integrity
# ---------------------------------------------------------------------------

def test_criterion_9_harness_integrity(tmp_path):
    config = {
        "problems": [{"name": "portfolio", "p": 40, "n": 12, "seed": 3},
                     {"name": "covariance", "p": 5, "seed": 4}],
        "methods": ["fwgsc", "mbtfwgsc", "asfwgsc"],
        "n_starts": 2,
        "epsilon": 1e-8,
        "max_iter": 400,
        "seed": 99,
        "profile_epsilons": [1e-1, 1e-3, 1e-5, 1e-7],
    }
    records = run_experiment(dict(config, out_dir=str(tmp_path / "a")))
    assert len(records) == 2 * 3 * 2
    from gscfw.bench import profile_points
    rows = profile_points(records, config["profile_epsilons"])
    for method in ("fwgsc", "mbtfwgsc", "asfwgsc"):
        rhos = [r.rho for r in rows if r.method == method]
        assert all(0.0 <= r <= 1.0 for r in rhos)
        assert all(rhos[i] <= rhos[i + 1] + 1e-12 for i in range(len(rhos) - 1))
        ratios = [r.rho_iter for r in rows if r.method == method and r.rho_iter is not None]
        assert all(r >= 1.0 - 1e-12 for r in ratios)
    for rec in records:
        assert rec.f_star_estimate <= min(rec.trace.f_values()) + 1e-12
        if rec.trace.status == "gap-converged":
            assert rec.trace.final_gap <= config["epsilon"]

    run_experiment(dict(config, out_dir=str(tmp_path / "b")))

    assert records_without_times(tmp_path / "a") == records_without_times(tmp_path / "b")
    _ok(9, "profile invariants hold on a 3-method x 2-problem x 2-start grid "
           "and fixed-seed reruns are bit-identical modulo wall time")
