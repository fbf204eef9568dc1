import math
import os
import sys
import time
from collections import Counter

import numpy as np
import pytest

import gscfw
from gscfw import (SOLVERS, ActiveSet, BacktrackingError, GscSpec, LocalGeometry, Point,
                   ProblemInstance, SolverConfig, UnitSimplex, analytic_step, asfwgsc,
                   away_vertex, fw_line_search, fw_standard, fwgsc, fwlloo, inner,
                   lbtfwgsc, mbtfwgsc, step_l, step_m)
from gscfw.bench import build_problem, make_start, run_method
from gscfw.problems import MarginLine, MarginPoint
from gscfw.sets import SimplexLLOO, VertexSet

from conftest import (IntervalSet, LinearObjective, NegLogObjective, QuadraticObjective,
                      ShiftedQuadratic, reference_inner, reference_lloo_query)


def _simplex_log_barrier():
    # f(x, y) = -ln x - ln y over the unit simplex
    return NegLogObjective(2), UnitSimplex(2)


# ---------------------------------------------------------------------------
# fw_standard
# ---------------------------------------------------------------------------

def test_fw_standard_zeroes_first_step_on_log_barrier():
    obj, feasible = _simplex_log_barrier()
    x0 = np.array([0.25, 0.75])
    trace = fw_standard(obj, feasible, x0, SolverConfig(epsilon=1e-10, max_iter=30))
    first = trace.iterations[0]
    # the oblivious step alpha_0 = 1 lands on a vertex outside the domain
    assert first.alpha == 0.0
    assert first.step_kind == "zero"
    assert all(obj.in_domain(it) for it in ([trace.x]))


def test_fw_standard_converges_on_1d_quadratic():
    obj = ShiftedQuadratic([0.3])
    feasible = IntervalSet(0.0, 1.0)
    trace = fw_standard(obj, feasible, np.array([1.0]),
                        SolverConfig(epsilon=1e-14, max_iter=2000))
    assert abs(trace.x[0] - 0.3) < 1e-3
    assert trace.status in ("gap-converged", "iteration-cap")


def test_fw_standard_immediate_exit():
    obj = ShiftedQuadratic([0.5, 0.5])
    feasible = UnitSimplex(2)
    trace = fw_standard(obj, feasible, np.array([0.5, 0.5]),
                        SolverConfig(epsilon=1e-6, max_iter=100))
    assert trace.status == "gap-converged"
    assert len(trace.iterations) == 0
    assert trace.final_gap <= 1e-6


def test_fw_standard_zero_steps_run_to_the_cap():
    # dom f is |x - 1/2| < 1e-3 and the oracle's vertex 0 is 1/2 away, so
    # every candidate 2/(k+2) up to k ~ 1000 leaves it: the run waits
    class Narrow(ShiftedQuadratic):
        def value(self, x):
            return super().value(x) if self.in_domain(x) else math.inf

        def in_domain(self, x):
            return bool(abs(x[0] - 0.5) < 1e-3)

    trace = fw_standard(Narrow([0.25]), IntervalSet(0.0, 1.0), np.array([0.5]),
                        SolverConfig(epsilon=1e-6, max_iter=60))
    assert trace.status == "iteration-cap" and len(trace.iterations) == 60
    assert all(rec.step_kind == "zero" and rec.alpha == 0.0 for rec in trace.iterations)
    assert np.array_equal(trace.x, [0.5]) and trace.final_gap == 0.125


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["fw-standard", "fw-line-search", "fwgsc", "lbtfwgsc",
                                    "mbtfwgsc"])
def test_start_where_f_overflows_is_rejected(method):
    # q = 1e4 overflows z^-q at the start's slack margins: f(x0) = +inf
    inst = build_problem({"name": "dwd", "p": 40, "d": 6, "q": 1e4, "seed": 3})
    x0, _ = make_start(inst, 5)
    with pytest.raises(ValueError, match="initial point has f = inf"):
        SOLVERS[method](inst.objective, inst.feasible_set, x0, SolverConfig(max_iter=5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["fw-standard", "fw-line-search", "fwgsc", "lbtfwgsc",
                                    "mbtfwgsc"])
def test_start_where_the_gradient_overflows_is_rejected(method):
    # big_r = 1e-300 leaves f(x0) = 2.5e303 finite, but its gradient holds
    # inf and NaN; the run used to stop at the first oracle call instead
    inst = build_problem({"name": "dwd", "p": 20, "d": 4, "big_r": 1e-300})
    x0, _ = make_start(inst, 0)
    assert math.isfinite(inst.objective.value(x0))
    with pytest.raises(ValueError, match="initial point has a non-finite gradient"):
        SOLVERS[method](inst.objective, inst.feasible_set, x0, SolverConfig(max_iter=5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_gradient_that_overflows_to_inf_mid_run_ends_in_a_typed_error():
    # at q = 100 the start is finite, but z^(-q-1) overflows at a late
    # iterate; the ball oracles raise before 0 * inf can warn
    inst = build_problem({"name": "dwd", "p": 40, "d": 6, "q": 100, "seed": 3})
    x0, _ = make_start(inst, 5)
    with pytest.raises(ValueError, match="non-finite gradient"):
        fw_standard(inst.objective, inst.feasible_set, x0,
                    SolverConfig(epsilon=1e-6, max_iter=1000))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["fwgsc", "lbtfwgsc", "mbtfwgsc", "fw-line-search"])
def test_gsc_solvers_keep_descending_where_the_gradient_norm_overflows(method):
    # at q = 100 the squared norm of the ball blocks' gradients overflows on
    # every oracle call; ball oracles that answered 0 there gave gaps against
    # a wrong vertex, and fwgsc and mbtfwgsc stopped "converged" at f = 7.86e167;
    # fw-line-search's slope at the boundary probe overflows in d1 @ dz
    inst = build_problem({"name": "dwd", "p": 40, "d": 6, "q": 100, "seed": 3})
    x0, _ = make_start(inst, 5)
    trace = SOLVERS[method](inst.objective, inst.feasible_set, x0,
                            SolverConfig(epsilon=1e-8, max_iter=200))
    assert trace.status == "iteration-cap" and len(trace.iterations) == 200
    assert trace.final_f < 2e167 and trace.final_gap > 0.0


# ---------------------------------------------------------------------------
# fw_line_search
# ---------------------------------------------------------------------------

def test_line_search_matches_analytic_quadratic_minimizer():
    obj = ShiftedQuadratic([0.25, 0.25, 0.5], curvature=2.0)
    feasible = UnitSimplex(3)
    x0 = np.array([1.0, 0.0, 0.0])
    trace = fw_line_search(obj, feasible, x0, SolverConfig(epsilon=1e-12, max_iter=1))
    g = obj.gradient(x0)
    s = feasible.lmo(g)
    v = s - x0
    expected = -float(g @ v) / (2.0 * float(v @ v))  # argmin of the 1-d quadratic
    assert 0.0 < expected < 1.0
    assert trace.iterations[0].alpha == pytest.approx(expected, abs=1e-8)


def test_line_search_takes_full_step_at_boundary_optimum():
    obj = ShiftedQuadratic([0.0, 1.0])
    feasible = UnitSimplex(2)
    trace = fw_line_search(obj, feasible, np.array([1.0, 0.0]),
                           SolverConfig(epsilon=1e-12, max_iter=1))
    assert trace.iterations[0].alpha == pytest.approx(1.0)


def test_line_search_respects_domain_on_log_barrier():
    obj, feasible = _simplex_log_barrier()
    trace = fw_line_search(obj, feasible, np.array([0.25, 0.75]),
                           SolverConfig(epsilon=1e-9, max_iter=200, keep_iterates=True))
    for it in trace.iterates:
        assert obj.in_domain(it)
    # optimum of -ln x - ln y on the simplex is (1/2, 1/2)
    assert np.allclose(trace.x, [0.5, 0.5], atol=1e-4)


# ---------------------------------------------------------------------------
# fwgsc
# ---------------------------------------------------------------------------

def test_fwgsc_monotone_feasible_on_portfolio(portfolio_toy):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    x0 = feasible.vertex(0)
    assert obj.in_domain(x0)
    trace = fwgsc(obj, feasible, x0, SolverConfig(epsilon=1e-12, max_iter=400,
                                                  keep_iterates=True))
    fs = trace.f_values()
    assert all(fs[i + 1] <= fs[i] + 1e-12 for i in range(len(fs) - 1))
    for it in trace.iterates:
        assert feasible.contains(it, tol=1e-8)
        assert obj.in_domain(it)


def test_fwgsc_sufficient_decrease_realized(portfolio_toy):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    trace = fwgsc(obj, feasible, feasible.vertex(1),
                  SolverConfig(epsilon=1e-12, max_iter=300))
    fs = trace.f_values()
    for k, rec in enumerate(trace.iterations):
        actual = fs[k] - fs[k + 1]
        assert actual >= rec.predicted_decrease - 1e-9 * (1.0 + abs(fs[k]))


def test_fwgsc_dikin_step_safety(portfolio_toy):
    # alpha * M * delta stays strictly below 1 for nu > 2
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    x = np.asarray(feasible.vertex(2), dtype=float)
    config = SolverConfig(epsilon=1e-12, max_iter=200)
    from gscfw.sets import gap as fw_gap
    for _ in range(200):
        g = obj.gradient(x)
        s = feasible.lmo(g)
        gp = fw_gap(g, inner(g, x), inner(g, s))
        if gp <= config.epsilon:
            break
        v = s - x
        geom = LocalGeometry.from_direction(obj.at(x).restrict(v), gp)
        alpha, _ = analytic_step(obj.spec, geom, cap=1.0)
        assert alpha * obj.spec.m * geom.delta < 1.0
        x = x + alpha * v
        assert obj.in_domain(x)


def test_fwgsc_immediate_exit():
    obj = ShiftedQuadratic([0.5, 0.5])
    trace = fwgsc(obj, UnitSimplex(2), np.array([0.5, 0.5]),
                  SolverConfig(epsilon=1e-6, max_iter=10))
    assert trace.status == "gap-converged" and len(trace.iterations) == 0


def test_fwgsc_steps_on_no_nan_where_the_geometry_overflows():
    # DWD at u = 1e160 overflows ||v||: a ValueError before any curvature, whose
    # overflow would warn (an error under RuntimeWarning-as-error) and give a NaN
    # geometry; lbtfwgsc's ||v||^2 = inf would make every trial alpha = 0
    inst = build_problem({"name": "dwd", "u": 1e160})
    x0, _ = make_start(inst, 1)
    # a given l_init skips lbtfwgsc's first estimate, so step_l sees ||v||^2 first
    for method, config in ((fwgsc, {}), (lbtfwgsc, {}), (lbtfwgsc, {"l_init": 1.0}),
                           (mbtfwgsc, {})):
        with pytest.raises(ValueError, match=r"^direction with \|\|v\|\|\^2 = inf$"):
            method(inst.objective, inst.feasible_set, x0, SolverConfig(epsilon=1e-6, **config))
    # logistic at gamma = 1e300: e = 1e151 meets a gap near 1e-16, so xi = +inf and alpha = 0
    inst = build_problem({"name": "logistic", "gamma": 1e300, "seed": 2})
    x0, _ = make_start(inst, 1)
    trace = fwgsc(inst.objective, inst.feasible_set, x0, SolverConfig(epsilon=5e-324, max_iter=150))
    predicted = [rec.predicted_decrease for rec in trace.iterations if rec.alpha == 0.0]
    assert predicted and set(predicted) == {0.0}
    assert not any(math.isnan(rec.predicted_decrease) for rec in trace.iterations)


@pytest.mark.parametrize("method", ["fwgsc", "mbtfwgsc", "asfwgsc"])
def test_a_step_of_zero_length_is_recorded_zero(method, monkeypatch):
    # the gamma = 1e300 run above stalls at alpha = 0 on most iterations
    inst = build_problem({"name": "logistic", "gamma": 1e300, "seed": 2})
    x0, weights = make_start(inst, 1)
    point_at, asked = MarginLine._point_at, []

    def counted(line, t):
        asked.append(t)
        return point_at(line, t)

    monkeypatch.setattr(MarginLine, "_point_at", counted)
    trace = run_method(method, inst, x0, weights, SolverConfig(epsilon=5e-324, max_iter=150))
    # a line's point at t = 0 is its own: no step, trial or drift sample builds one at x
    assert asked and 0.0 not in asked
    kinds = Counter((rec.alpha == 0.0, rec.step_kind) for rec in trace.iterations)
    assert set(kinds) == {(True, "zero"), (False, "forward")}
    # a zero step keeps its iterate, so the next f is the same float bit for bit
    fs = np.array(trace.f_values()).view(np.int64)
    assert all(fs[rec.k + 1] == fs[rec.k] for rec in trace.iterations if rec.step_kind == "zero")


def test_fwgsc_min_predicted_decrease_bound(portfolio_toy):
    # min_{k<K} Delta_k <= (f(x0) - f*) / K, f* from a long reference run
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    x0 = feasible.vertex(0)
    ref = fw_line_search(obj, feasible, x0, SolverConfig(epsilon=1e-13, max_iter=8000))
    f_star = ref.best_f()
    trace = fwgsc(obj, feasible, x0, SolverConfig(epsilon=1e-12, max_iter=500))
    h0 = trace.f_values()[0] - f_star
    best = math.inf
    for k, rec in enumerate(trace.iterations, start=1):
        best = min(best, rec.predicted_decrease)
        assert best <= h0 / k + 1e-12


# ---------------------------------------------------------------------------
# step_l / lbtfwgsc
# ---------------------------------------------------------------------------

def test_step_l_quadratic_curvature():
    obj = QuadraticObjective(3, curvature=4.0)
    feasible = UnitSimplex(3)
    x = np.array([0.2, 0.3, 0.5])
    g = obj.gradient(x)
    line = obj.at(x).restrict(feasible.lmo(g) - x)
    config = SolverConfig()
    alpha, l_new, backtracks = step_l(line, -line.slope(0.0), 4.0, config)
    # the first trial shrinks below the true curvature, so at most one doubling
    assert backtracks <= 1
    assert l_new <= max(4.0, config.gamma_u * 4.0)
    assert 0.0 < alpha <= 1.0


def test_step_l_recovers_from_tiny_estimate():
    obj = QuadraticObjective(3, curvature=4.0)
    feasible = UnitSimplex(3)
    x = np.array([0.2, 0.3, 0.5])
    line = obj.at(x).restrict(feasible.lmo(obj.gradient(x)) - x)
    config = SolverConfig()
    alpha, l_new, _ = step_l(line, -line.slope(0.0), 4.0 / 1000.0, config)
    assert l_new <= max(4.0 / 1000.0, config.gamma_u * 4.0)


def test_step_l_raises_a_tiny_estimate_to_the_floor_exactly():
    # along a linear f the quadratic model holds for every L, so the first
    # trial is taken: gamma_d * 1e-12, raised to the floor 1e-10
    obj = LinearObjective([3.0, 1.0, 2.0])
    x = np.array([0.2, 0.3, 0.5])
    line = obj.at(x).restrict(UnitSimplex(3).lmo(obj.c) - x)
    alpha, l_new, backtracks = step_l(line, -line.slope(0.0), 1e-12, SolverConfig())
    assert (alpha, l_new, backtracks) == (1.0, 1e-10, 0)


def test_step_l_domain_violation_forces_doubling(portfolio_toy):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    # near-vertex point: the relaxed step overshoots the domain
    x = np.full(feasible.dimension, 1e-6)
    x[3] = 1.0 - 1e-6 * (feasible.dimension - 1)
    assert obj.in_domain(x)
    g = obj.gradient(x)
    v = feasible.lmo(g) - x
    line = obj.at(x).restrict(v)
    alpha, l_new, backtracks = step_l(line, -line.slope(0.0), 1e-8, SolverConfig())
    assert backtracks >= 1
    assert obj.in_domain(x + alpha * v)


def test_lbtfwgsc_monotone_and_model_bound(portfolio_toy):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    trace = lbtfwgsc(obj, feasible, feasible.vertex(0),
                     SolverConfig(epsilon=1e-12, max_iter=400))
    fs = trace.f_values()
    assert all(fs[i + 1] <= fs[i] + 1e-10 for i in range(len(fs) - 1))
    assert trace.status in ("gap-converged", "iteration-cap")
    # the estimate stays under max(L_init, gamma_u * curvature bound)
    # replay the run to validate the accepted quadratic model at every step;
    # the replay carries the evaluation cache from point to point and builds
    # each line toward the vertex as the solver does, so its gaps and steps
    # carry the same rounding as the recorded ones
    point = obj.at(np.asarray(feasible.vertex(0), dtype=float))
    l_prev = trace.meta["l_init"]
    from gscfw.sets import gap as fw_gap
    config = SolverConfig(epsilon=1e-12, max_iter=400)
    eps = np.finfo(float).eps
    for rec in trace.iterations[:100]:
        x, g = point.x, point.gradient()
        s = feasible.lmo(g)
        gp = fw_gap(g, inner(g, x), inner(g, s))
        line = point.toward_atom(*feasible.lmo_indexed(g)[1])
        f_x = point.value()
        alpha, l_prev, _ = step_l(line, gp, l_prev, config)
        cand, f_cand = x + alpha * line.v, line.value(alpha)
        assert alpha == pytest.approx(rec.alpha, rel=1e-12)
        beta2 = float(line.v @ line.v)
        model = f_x - alpha * gp + 0.5 * l_prev * alpha * alpha * beta2
        assert f_cand <= model + 1e-10 * (1.0 + abs(f_x))
        # the same model from f and the gradient evaluated from scratch
        f_0, g_0, z_0 = obj.value(x), obj.gradient(x), obj.b @ x
        gp_0 = inner(g_0, x) - inner(g_0, s)
        model_0 = f_0 - alpha * gp_0 + 0.5 * l_prev * alpha * alpha * beta2
        assert obj.value(cand) <= model_0 + 1e-10 * (1.0 + abs(f_0))
        # carried and from-scratch values differ by rounding only: f = -sum log z
        # within that of the sum and of the margins, the gap within that of <g, x - s>
        f_floor = eps * float(np.sum(np.abs(np.log(z_0)))
                              + np.sum((np.abs(obj.b) @ np.abs(x)) / z_0))
        assert abs(f_x - f_0) <= 16.0 * f_floor
        assert abs(gp - gp_0) <= 16.0 * eps * (abs(inner(g_0, x)) + abs(inner(g_0, s)))
        point = line.at(alpha)
        assert np.array_equal(point.x, cand)


def test_lbtfwgsc_estimate_bound_on_known_curvature():
    # quadratic with known L: L_k <= max(L_init, gamma_u * L) throughout
    curvature = 3.0
    obj = ShiftedQuadratic([0.6, 0.2, 0.2], curvature=curvature)
    feasible = UnitSimplex(3)
    config = SolverConfig(epsilon=1e-12, max_iter=200, l_init=0.05)
    trace = lbtfwgsc(obj, feasible, np.array([0.0, 1.0, 0.0]), config)
    for rec in trace.iterations:
        assert rec.estimate <= max(config.l_init, config.gamma_u * curvature) + 1e-12
    # Burg entropy on [0.1, 1]: curvature bounded by 1/0.1^2 = 100
    burg = NegLogObjective(1)
    seg = IntervalSet(0.1, 1.0)
    config2 = SolverConfig(epsilon=1e-12, max_iter=200, l_init=1.0)
    trace2 = lbtfwgsc(burg, seg, np.array([0.5]), config2)
    for rec in trace2.iterations:
        assert rec.estimate <= max(config2.l_init, config2.gamma_u * 100.0) + 1e-12
    assert abs(trace2.x[0] - 1.0) < 1e-6  # minimizer of -ln on [0.1, 1]


_L_INIT_CASES = {
    "logistic": {"name": "logistic", "p": 40, "n": 8, "seed": 3},
    "portfolio": {"name": "portfolio", "p": 30, "n": 12, "seed": 9},
    "dwd": {"name": "dwd", "p": 20, "d": 4, "seed": 7},
    "covariance": {"name": "covariance", "p": 4, "seed": 11},
}


def _l_init_case(case):
    if case == "neg-log":  # the generic Point and Line of the Objective base class
        x0 = np.random.default_rng(5).dirichlet(np.ones(4))
        return ProblemInstance(NegLogObjective(4), UnitSimplex(4), name="neg-log"), x0, None
    inst = build_problem(_L_INIT_CASES[case])
    return (inst, *make_start(inst, 17))


@pytest.mark.parametrize("case", [*_L_INIT_CASES, "neg-log"])
def test_lbtfwgsc_l_init_is_the_curvature_along_the_first_direction(case):
    inst, x0, active = _l_init_case(case)
    obj = inst.objective
    trace = run_method("lbtfwgsc", inst, x0, active, SolverConfig(epsilon=1e-12, max_iter=3))
    assert len(trace.iterations) == 3
    x0 = np.asarray(x0, dtype=float)
    v = np.asarray(inst.feasible_set.lmo(obj.gradient(x0)), dtype=float) - x0
    expected = max(1e-6, reference_inner(obj.hess_vec(x0, v), v) / reference_inner(v, v))
    assert trace.meta["l_init"] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_lbtfwgsc_uses_a_given_l_init_unchanged():
    inst, x0, active = _l_init_case("portfolio")
    config = SolverConfig(epsilon=1e-12, max_iter=3, l_init=0.37)
    trace = run_method("lbtfwgsc", inst, x0, active, config)
    assert trace.meta["l_init"] == 0.37
    first = trace.iterations[0]
    assert first.estimate == config.gamma_d * 0.37 * config.gamma_u ** first.backtrack_count


@pytest.mark.parametrize("case", ["portfolio", "neg-log"])
def test_lbtfwgsc_at_max_iter_zero_leaves_l_init_unset(case):
    inst, x0, active = _l_init_case(case)
    trace = run_method("lbtfwgsc", inst, x0, active, SolverConfig(max_iter=0))
    assert trace.status == "iteration-cap"
    assert trace.meta["l_init"] is None


def test_lbtfwgsc_rejects_a_first_direction_whose_squared_norm_underflows():
    # ||v||^2 of a 1e-300 radius is 0.0: the first estimate must not divide by it
    inst = build_problem({"name": "logistic", "p": 30, "n": 8, "radius": 1e-300, "seed": 1})
    x0, weights = make_start(inst, 3)
    with pytest.raises(ValueError, match="zero direction"):
        run_method("lbtfwgsc", inst, x0, weights, SolverConfig(epsilon=5e-324))


def test_lbtfwgsc_from_an_optimal_start_leaves_l_init_unset():
    trace = lbtfwgsc(ShiftedQuadratic([0.0, 1.0]), UnitSimplex(2), np.array([0.0, 1.0]),
                     SolverConfig())
    assert trace.status == "gap-converged" and not trace.iterations
    assert trace.meta["l_init"] is None


def test_step_l_exhaustion_raises():
    class Impossible(QuadraticObjective):
        def in_domain(self, x):
            return bool(np.all(np.asarray(x) == 0.0) or np.sum(np.abs(x)) > 2.5)

    obj = Impossible(2)
    with pytest.raises(BacktrackingError):
        step_l(obj.at(np.zeros(2)).restrict(np.array([1.0, 0.0])), 1.0, 1.0, SolverConfig())


# ---------------------------------------------------------------------------
# step_m / mbtfwgsc
# ---------------------------------------------------------------------------

def test_step_m_accepts_first_trial_with_true_constant(portfolio_toy):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    x = np.full(feasible.dimension, 1.0 / feasible.dimension)
    g = obj.gradient(x)
    line = obj.at(x).restrict(feasible.lmo(g) - x)
    # seeding above the true constant: gamma_d * mu_prev is still >= M_f
    config = SolverConfig(gamma_d=0.9)
    alpha, mu_new, backtracks = step_m(line, -line.slope(0.0), obj.spec.m / 0.9 + 0.5, config)
    assert backtracks == 0
    assert 0.0 < alpha <= 1.0


def test_step_m_estimate_bound(portfolio_toy):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    config = SolverConfig(epsilon=1e-12, max_iter=300, mu_init=1e-4)
    trace = mbtfwgsc(obj, feasible, feasible.vertex(0), config)
    for rec in trace.iterations:
        assert rec.estimate <= max(config.mu_init, config.gamma_u * obj.spec.m) + 1e-12
    fs = trace.f_values()
    assert all(fs[i + 1] <= fs[i] + 1e-10 for i in range(len(fs) - 1))


def test_step_m_smaller_constant_gives_larger_step(portfolio_toy):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    x = np.full(feasible.dimension, 1.0 / feasible.dimension)
    g = obj.gradient(x)
    from gscfw.sets import gap as fw_gap
    gp = fw_gap(g, inner(g, x), inner(g, feasible.lmo(g)))
    v = feasible.lmo(g) - x
    geom = LocalGeometry.from_direction(obj.at(x).restrict(v), gp)
    a_small = analytic_step(GscSpec(0.5, 3.0), geom, cap=1.0)[0]
    a_big = analytic_step(GscSpec(2.0, 3.0), geom, cap=1.0)[0]
    assert a_small >= a_big


def test_mbtfwgsc_burg_entropy_bound():
    burg = NegLogObjective(1)  # Burg entropy has constant 2, order 3
    seg = IntervalSet(0.1, 1.0)
    config = SolverConfig(epsilon=1e-12, max_iter=100, mu_init=1.0)
    trace = mbtfwgsc(burg, seg, np.array([0.3]), config)
    for rec in trace.iterations:
        assert rec.estimate <= max(config.mu_init, config.gamma_u * 2.0) + 1e-12


def test_mbtfwgsc_no_slower_than_fwgsc_with_global_constant(portfolio_toy):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    x0 = feasible.vertex(0)
    ref = fw_line_search(obj, feasible, x0, SolverConfig(epsilon=1e-13, max_iter=8000))
    f_star = ref.best_f()

    def iters_to(trace, tol):
        for k, f in enumerate(trace.f_values()):
            if (f - f_star) / max(abs(f_star), 1e-12) <= tol:
                return k
        return math.inf

    budget = SolverConfig(epsilon=1e-13, max_iter=3000)
    base = fwgsc(obj, feasible, x0, budget)
    adaptive = mbtfwgsc(obj, feasible, x0, budget)
    assert iters_to(adaptive, 1e-4) <= iters_to(base, 1e-4)


# ---------------------------------------------------------------------------
# fwlloo
# ---------------------------------------------------------------------------

def test_fwlloo_radius_decay_recurrence(portfolio_toy):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    lloo = SimplexLLOO(feasible.dimension)
    trace = fwlloo(obj, feasible, lloo, feasible.vertex(0),
                   SolverConfig(epsilon=1e-11, max_iter=200))
    cs = [rec.estimate for rec in trace.iterations]
    als = [rec.alpha for rec in trace.iterations]
    assert cs[0] == pytest.approx(1.0)
    for k in range(1, len(cs)):
        assert cs[k] == pytest.approx(cs[k - 1] * math.exp(-0.5 * als[k - 1]), rel=1e-12)
    if als and als[0] == 1.0:
        assert cs[1] == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_fwlloo_certificate_holds(portfolio_toy):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    x0 = feasible.vertex(0)
    ref = fw_line_search(obj, feasible, x0, SolverConfig(epsilon=1e-13, max_iter=8000))
    f_star = ref.best_f()
    trace = fwlloo(obj, feasible, SimplexLLOO(feasible.dimension), x0,
                   SolverConfig(epsilon=1e-11, max_iter=400))
    fs = trace.f_values()
    for k, rec in enumerate(trace.iterations):
        assert fs[k] - f_star <= rec.certificate + 1e-9 * (1.0 + abs(fs[k]))
    assert trace.final_gap <= 1e-9 or trace.status == "iteration-cap"


@pytest.mark.parametrize("nu", [2.5, 3.0])
def test_fwlloo_takes_the_full_step_along_a_zero_curvature_direction(nu):
    # psi(t) = t when e = 0, so the step is the cap, as in fwgsc and asfwgsc
    obj = LinearObjective([3.0, 1.0, 2.0, 0.5], nu=nu)
    feasible = UnitSimplex(4)
    trace = fwlloo(obj, feasible, SimplexLLOO(4), feasible.vertex(0),
                   SolverConfig(epsilon=1e-9, max_iter=50, sigma_f=1.0))
    assert trace.status == "gap-converged"
    assert trace.iterations and all(rec.alpha == 1.0 for rec in trace.iterations)
    assert trace.final_f == pytest.approx(0.5, abs=1e-9)


def test_fwlloo_steps_zero_when_the_lloo_radius_is_below_rounding():
    # sigma_f = 1e300 puts r_0 near 1e-150: the LLOO answers x itself, so v = 0
    inst = build_problem({"name": "portfolio", "p": 40, "n": 10, "seed": 3})
    trace = run_method("fwlloo", inst, np.full(10, 0.1), None,
                       SolverConfig(max_iter=5, sigma_f=1e300))
    assert [(rec.step_kind, rec.alpha, rec.estimate)
            for rec in trace.iterations] == [("zero", 0.0, 1.0)] * 5


@pytest.mark.parametrize("name, value", [
    ("l_init", 0.0), ("l_init", -2.0), ("l_init", "x"), ("l_init", math.inf),
    ("mu_init", 0.0), ("mu_init", None), ("mu_init", math.nan), ("mu_init", "x"),
    ("sigma_f", -1.0), ("sigma_f", True),
])
def test_solver_config_rejects_a_bad_initial_estimate(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite number > 0"):
        SolverConfig(**{name: value})


@pytest.mark.parametrize("value", [3.0, 2.5, math.nan, True, False, "3", -1])
def test_solver_config_rejects_a_max_iter_that_is_not_a_count(value):
    with pytest.raises(ValueError, match="max_iter must be an integer >= 0"):
        SolverConfig(max_iter=value)


def test_solver_config_accepts_integer_max_iter_types():
    for value in (0, 7, np.int64(7)):
        assert SolverConfig(max_iter=value).max_iter == value


@pytest.mark.parametrize("sigma_f", [None, 10.0])
def test_fwlloo_trace_is_that_of_the_sort_and_drain_oracle(portfolio_toy, sigma_f):
    # sigma_f = 10 keeps the budget min(1, sqrt(n) r_k / 2) below 1 from the
    # first iteration, so the budget can bind inside the drained mass
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    n = feasible.dimension
    config = SolverConfig(epsilon=1e-9, max_iter=200, sigma_f=sigma_f)
    reference = SimplexLLOO(n)
    reference.query = lambda x, r, c: reference_lloo_query(n, x, r, c)
    traces = [fwlloo(obj, feasible, lloo, feasible.vertex(0), config)
              for lloo in (SimplexLLOO(n), reference)]
    if sigma_f is not None:
        assert all(0.5 * math.sqrt(n) * rec.radius < 1.0 for rec in traces[0].iterations)
    # repr tells every float apart bit for bit, -0.0 from 0.0 too
    fast, slow = (repr(([{**vars(rec), "elapsed_seconds": None} for rec in t.iterations],
                        t.status, t.final_f, t.final_gap, t.meta, t.x.tobytes()))
                  for t in traces)
    assert len(traces[0].iterations) > 50 and fast == slow


def test_fwlloo_steps_toward_a_vertex_answer_by_its_atom(monkeypatch):
    # a one-entry answer u_a e_a is the atom (a, a, u_a / 2); any other is a point
    inst = build_problem({"name": "portfolio", "p": 60, "n": 20, "seed": 3})
    x0, _ = make_start(inst, 1)
    lloo, answers, lines = SimplexLLOO(20), [], []
    query = lloo.query
    lloo.query = lambda x, r, c: answers.append(query(x, r, c)) or answers[-1]
    atom, toward = MarginPoint.toward_atom, Point.toward
    monkeypatch.setattr(MarginPoint, "toward_atom",
                        lambda point, *s: lines.append(("toward_atom", s)) or atom(point, *s))
    monkeypatch.setattr(Point, "toward",
                        lambda point, s: lines.append(("toward", s)) or toward(point, s))
    trace = fwlloo(inst.objective, inst.feasible_set, lloo, x0, SolverConfig(max_iter=100))
    assert len(trace.iterations) == len(answers) == len(lines) == 100
    kinds = Counter()
    for u, (name, args) in zip(answers, lines):
        nonzero = np.flatnonzero(u)
        if len(nonzero) == 1:
            a = nonzero[0]
            assert name == "toward_atom" and args == (a, a, 0.5 * u[a])
        else:
            assert name == "toward" and args is u
        kinds[name] += 1
    assert kinds["toward_atom"] > 0 and kinds["toward"] > 0, kinds


def test_fwlloo_sigma_auto_recipe(portfolio_toy):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    from gscfw.solvers import smallest_hessian_eigenvalue
    x0 = np.full(feasible.dimension, 1.0 / feasible.dimension)
    lam = smallest_hessian_eigenvalue(obj, x0)
    trace = fwlloo(obj, feasible, SimplexLLOO(feasible.dimension), x0,
                   SolverConfig(epsilon=1e-9, max_iter=5))
    assert trace.meta["sigma_f"] == pytest.approx(max(lam, 1e-10))
    with pytest.raises(ValueError):
        fwlloo(obj, feasible, SimplexLLOO(feasible.dimension), x0,
               SolverConfig(epsilon=1e-9, max_iter=5, sigma_f=-1.0))


@pytest.mark.parametrize("n", [2, 6])
def test_fwlloo_rejects_a_non_finite_hessian_at_the_start(n, monkeypatch):
    # eigvalsh answers [0, -0] for this NaN at n = 2, so sigma_f would be the
    # 1e-10 floor, and fails to converge at n = 6
    inst = build_problem({"name": "portfolio", "p": 20, "n": n, "seed": 2})
    obj, hessian = inst.objective, inst.objective.hessian

    def with_a_nan(x):
        h = hessian(x)
        h[0, -1] = math.nan
        return h

    monkeypatch.setattr(obj, "hessian", with_a_nan)
    x0, active = make_start(inst, 1)
    with pytest.raises(ValueError, match="^non-finite Hessian at the start$"):
        run_method("fwlloo", inst, x0, active, SolverConfig(max_iter=5))


# ---------------------------------------------------------------------------
# asfwgsc
# ---------------------------------------------------------------------------

def test_away_cap_value():
    active = ActiveSet(UnitSimplex(2), {0: 0.25, 1: 0.75})
    mu = active.weights[active.rows[0]]
    assert mu / (1.0 - mu) == pytest.approx(1.0 / 3.0)


def test_away_vertex_selection():
    e2 = np.array([0.0, 1.0, 0.0])
    active = ActiveSet(UnitSimplex(3), {0: 0.5, 1: 0.5})
    grad = np.array([1.0, 5.0, 0.0])
    vid, row, score = away_vertex(grad, active)
    assert vid == 1 and row == 1 and score == inner(grad, e2) == 5.0
    single = ActiveSet(UnitSimplex(3), {2: 1.0})
    vid, row, score = away_vertex(grad, single)
    assert vid == 2 and row == 0 and score == inner(grad, UnitSimplex(3).vertex(2))
    # adding a constant to the gradient cannot change the argmax on the simplex
    vid2, row, score = away_vertex(grad + 7.3, active)
    assert vid2 == 1 and row == 1 and score == inner(grad + 7.3, e2)


def test_active_set_updates():
    e = np.eye(3)
    active = ActiveSet(UnitSimplex(3), {0: 1.0})
    active.forward_update(1, 0.5)
    assert np.allclose(active.reconstruct(), [0.5, 0.5, 0.0])
    active.away_update(0, 1.0)  # weight 0.5 -> 0.5*2 - 1 = 0: drop
    assert list(active.rows) == [1]
    assert np.allclose(active.reconstruct(), e[1])
    assert sum(active.weights) == pytest.approx(1.0)


def test_asfwgsc_bookkeeping_and_monotonicity(portfolio_toy):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    trace = asfwgsc(obj, feasible, {0: 1.0}, SolverConfig(epsilon=1e-10, max_iter=600))
    fs = trace.f_values()
    assert all(fs[i + 1] <= fs[i] + 1e-10 for i in range(len(fs) - 1))
    assert trace.meta["active_set_max_drift"] <= 1e-9
    # drop steps at most half of any iteration prefix
    drops = 0
    for k, rec in enumerate(trace.iterations, start=1):
        drops += rec.step_kind == "drop"
        assert drops <= math.ceil(k / 2) + 1
    assert trace.status == "gap-converged"


def test_asfwgsc_requires_vertex_set(portfolio_toy):
    from gscfw import EuclideanBall
    with pytest.raises(ValueError):
        asfwgsc(portfolio_toy.objective, EuclideanBall(10, 1.0), {0: 1.0}, SolverConfig())


def test_asfwgsc_geometric_decrease(portfolio_toy):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    long = asfwgsc(obj, feasible, {0: 1.0}, SolverConfig(epsilon=1e-13, max_iter=2000))
    f_star = long.best_f()
    trace = asfwgsc(obj, feasible, {0: 1.0}, SolverConfig(epsilon=1e-13, max_iter=400))
    hs = [f - f_star for f in trace.f_values()]
    # qualitative linear rate: the error at K is a fraction of the error at K/2
    k = min(len(hs) - 1, 60)
    if hs[k // 2] > 1e-12:
        assert hs[k] <= 0.9 * hs[k // 2]


def test_asfwgsc_accepts_active_set_start(portfolio_toy):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    n = feasible.dimension
    start = {i: 1.0 / n for i in range(n)}
    trace = asfwgsc(obj, feasible, start, SolverConfig(epsilon=1e-8, max_iter=500))
    assert trace.status == "gap-converged"
    assert trace.meta["active_set_max_drift"] <= 1e-9


def test_asfwgsc_steps_forward_when_away_would_leave_no_mass(monkeypatch):
    # an away step from the only vertex is undefined: the guard steps forward and counts it
    inst = build_problem({"name": "portfolio"})
    x0, weights = make_start(inst, 1)  # one vertex of weight 1
    alone = []

    def heaviest(grad, active):  # an away gap that every forward gap loses to
        row = int(active.weights.argmax())
        alone.append(bool(active.weights[row] >= 1.0 - 1e-12))
        return list(active.rows)[row], row, 1e6

    monkeypatch.setattr(gscfw.solvers, "away_vertex", heaviest)
    trace = run_method("asfwgsc", inst, x0, weights, SolverConfig(max_iter=3))
    kinds = [rec.step_kind for rec in trace.iterations]
    assert len(kinds) == 3 and alone[0]
    assert trace.meta["forced_forward_steps"] == sum(alone)
    assert [kind == "forward" for kind in kinds] == alone


def test_asfwgsc_steps_forward_when_the_gaps_tie():
    # x = (1/2, 1/2, 0), g = x - c = (1/4, 0, 0): the FW gap <g, x - e_1> and
    # the away gap <g, e_0 - x> are both exactly 1/8, and a tie goes forward
    obj, feasible = ShiftedQuadratic([0.25, 0.5, 0.0]), UnitSimplex(3)
    trace = asfwgsc(obj, feasible, {0: 0.5, 1: 0.5}, SolverConfig(epsilon=1e-12, max_iter=1))
    first = trace.iterations[0]
    assert first.gap == 0.125 and first.step_kind == "forward"


def test_lbtfwgsc_total_backtracks_bounded():
    # doubling totals stay within max_iter * log_u(L_hat / l_init) + max_iter
    curvature = 3.0
    obj = ShiftedQuadratic([0.6, 0.2, 0.2], curvature=curvature)
    feasible = UnitSimplex(3)
    config = SolverConfig(epsilon=1e-14, max_iter=300, l_init=0.01)
    trace = lbtfwgsc(obj, feasible, np.array([0.0, 1.0, 0.0]), config)
    total = sum(rec.backtrack_count for rec in trace.iterations)
    l_hat = max(config.l_init, config.gamma_u * curvature)
    bound = config.max_iter * max(math.log(l_hat / config.l_init, config.gamma_u), 0.0) \
        + config.max_iter
    assert total <= bound


def test_mbtfwgsc_beats_conservative_constant_on_logistic_toy():
    # order-3 classification of the logistic loss carries a large global
    # constant; the adaptive search must not be slower to 1e-4
    from gscfw import logistic_problem, synthetic_classification
    data = synthetic_classification(80, 12, density=0.4, seed=19)
    inst = logistic_problem(data, gamma=1.0 / 80, radius=10.0, nu_mode=3)
    obj, feasible = inst.objective, inst.feasible_set
    x0 = feasible.vertex((0, 1))
    ref = asfwgsc(obj, feasible, {(0, 1): 1.0}, SolverConfig(epsilon=1e-13, max_iter=50000))
    f_star = ref.best_f()

    def iters_to(trace, tol):
        for k, f in enumerate(trace.f_values()):
            if (f - f_star) / max(abs(f_star), 1e-12) <= tol:
                return k
        return math.inf

    budget = SolverConfig(epsilon=1e-13, max_iter=30000)
    base = fwgsc(obj, feasible, x0, budget)
    adaptive = mbtfwgsc(obj, feasible, x0, budget)
    hit_adaptive = iters_to(adaptive, 1e-4)
    assert hit_adaptive <= iters_to(base, 1e-4)
    assert hit_adaptive < math.inf  # the adaptive variant actually gets there


# ---------------------------------------------------------------------------
# The shared iteration loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_max_iter_zero_status_is_solver_independent(method):
    inst = ProblemInstance(ShiftedQuadratic([0.5, 0.5]), UnitSimplex(2), name="toy")
    config = SolverConfig(epsilon=1e-6, max_iter=0)
    trace = run_method(method, inst, np.array([0.5, 0.5]), {0: 0.5, 1: 0.5}, config)
    assert trace.status == "gap-converged"
    assert len(trace.iterations) == 0
    assert trace.final_gap <= config.epsilon
    trace = run_method(method, inst, np.array([1.0, 0.0]), {0: 1.0}, config)
    assert trace.status == "iteration-cap"
    assert len(trace.iterations) == 0
    assert trace.final_gap > config.epsilon


def test_elapsed_covers_active_set_bookkeeping(portfolio_toy, monkeypatch):
    # every iteration makes exactly one of the two updates
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    for name in ("forward_update", "away_update"):
        update = getattr(ActiveSet, name)

        def slow_update(self, vid, alpha, update=update):
            time.sleep(0.002)
            update(self, vid, alpha)

        monkeypatch.setattr(ActiveSet, name, slow_update)
    trace = asfwgsc(obj, feasible, {0: 1.0}, SolverConfig(epsilon=1e-10, max_iter=20))
    assert trace.iterations
    assert all(rec.elapsed_seconds >= 0.002 for rec in trace.iterations)


def _logistic_asfwgsc_run(config):
    # default logistic, start 1: 154 iterations with 2 drop steps on a 50-dimensional ball
    inst = build_problem({"name": "logistic"})
    return lambda: run_method("asfwgsc", inst, *make_start(inst, 1), config), inst.feasible_set


def test_sampled_drift_catches_a_broken_active_set(monkeypatch):
    run, _ = _logistic_asfwgsc_run(SolverConfig(epsilon=1e-12, max_iter=120))
    clean = run()
    assert clean.meta["active_set_max_drift"] <= 1e-12
    update, broken_at = ActiveSet.forward_update, []

    def broken_update(self, vid, alpha):
        update(self, vid, alpha)
        if not broken_at and len(self.rows) >= 8:  # mid-run: move one weight by 1e-6
            self.weights[self.weights.argmax()] += 1e-6
            broken_at.append(len(self.rows))

    monkeypatch.setattr(ActiveSet, "forward_update", broken_update)
    trace = run()
    assert broken_at and len(trace.iterations) == len(clean.iterations)
    assert trace.meta["active_set_max_drift"] > 1e-8


def test_drift_is_measured_at_every_drop_and_not_every_step(monkeypatch):
    run, feasible = _logistic_asfwgsc_run(SolverConfig(epsilon=1e-12, max_iter=300))
    reconstruct, samples = ActiveSet.reconstruct, []

    def counting_reconstruct(self):
        samples.append(1)
        return reconstruct(self)

    monkeypatch.setattr(ActiveSet, "reconstruct", counting_reconstruct)
    trace = run()
    drops, dim = trace.meta["drop_steps"], feasible.dimension
    assert drops >= 1 and len(trace.iterations) > 2 * dim
    measured = len(samples) - 1  # the start is built from the active set once
    # at each drop step, after every dim-th iteration, and at the final iterate
    due = sum(rec.step_kind == "drop" or (rec.k + 1) % dim == 0 for rec in trace.iterations)
    assert measured == due + 1 >= drops + 1


@pytest.mark.parametrize("method", ["fwgsc", "lbtfwgsc", "mbtfwgsc", "asfwgsc", "fwlloo"])
def test_run_constants_are_checked_once_per_run(monkeypatch, method):
    # nu is classified when a GscSpec is built; no step builds one or classifies nu
    inst, calls = build_problem({"name": "portfolio"}), Counter()
    nu_branch, post_init = gscfw.gsc.nu_branch, GscSpec.__post_init__

    def counting_nu_branch(nu):
        calls["nu_branch"] += 1
        return nu_branch(nu)

    def counting_post_init(self):
        calls["GscSpec"] += 1
        post_init(self)

    for module in (gscfw.gsc, gscfw.problems, gscfw.solvers):
        if hasattr(module, "nu_branch"):
            monkeypatch.setattr(module, "nu_branch", counting_nu_branch)
    monkeypatch.setattr(GscSpec, "__post_init__", counting_post_init)
    x0, weights = make_start(inst, 1)
    counts, lengths = [], []
    for max_iter in (5, 50):
        calls.clear()
        trace = run_method(method, inst, x0, weights,
                           SolverConfig(epsilon=1e-14, max_iter=max_iter))
        counts.append(dict(calls))
        lengths.append(len(trace.iterations))
    assert lengths[0] == 5 and lengths[1] > 10
    assert counts[0] == counts[1]

    geom = LocalGeometry(beta=1.0, e=1.0, delta=0.5, gap=1.0)
    for nu in (1.9, 3.1, math.nan):  # nu is checked where its GscSpec is built
        with pytest.raises(ValueError, match="nu must lie"):
            analytic_step(GscSpec(1.0, nu), geom, cap=1.0)


@pytest.mark.parametrize("solver", [lbtfwgsc, mbtfwgsc])
def test_backtracking_evaluates_each_accepted_point_once(portfolio_toy, monkeypatch, solver):
    obj, feasible = portfolio_toy.objective, portfolio_toy.feasible_set
    value = obj.value
    calls = []

    def counting_value(x):
        calls.append(1)
        return value(x)

    monkeypatch.setattr(obj, "value", counting_value)
    trace = solver(obj, feasible, feasible.vertex(0), SolverConfig(epsilon=1e-12, max_iter=200))
    trials = sum(rec.backtrack_count + 1 for rec in trace.iterations)
    # f(x_0) once, then at most one evaluation per backtracking trial
    assert len(calls) <= 1 + trials


# ---------------------------------------------------------------------------
# Per-iteration dispatch
# ---------------------------------------------------------------------------

_GSCFW_DIR = os.path.dirname(os.path.abspath(gscfw.__file__))
_SMALL = {"logistic": {"p": 60, "n": 10}, "portfolio": {"p": 100, "n": 30},
          "dwd": {"p": 20, "d": 4}, "covariance": {"p": 6}}


def _numpy_wrapper_calls(method, instance, x0, weights, max_iter):
    """Calls from gscfw's own frames into a function of numpy's fromnumeric.py
    (np.sum, np.argmax, np.ravel, ...) or into np.flatnonzero, each a Python
    wrapper around an ndarray method or a ufunc's reduce, during one run, as
    a Counter of "caller -> callee", and the run's iteration count.  Files
    match by basename (numpy/core before 2.0, numpy/_core after), and the
    ``<__array_function__ internals>`` frame numpy < 1.25 puts between
    caller and wrapper is skipped.  On a polytope, a dense vertex built by
    ``VertexSet.vertex``, from any caller, counts as "-> vertex" (DWD's
    product set answers densely, its one-dimensional l1 block included)."""
    calls = Counter()
    polytope = isinstance(instance.feasible_set, VertexSet)

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if polytope and code is VertexSet.vertex.__code__:
            calls["-> vertex"] += 1
            return
        name = os.path.basename(code.co_filename)
        if name != "fromnumeric.py" and (name, code.co_name) != ("numeric.py", "flatnonzero"):
            return
        caller = frame.f_back
        while caller is not None and caller.f_code.co_filename == "<__array_function__ internals>":
            caller = caller.f_back
        if caller is not None and os.path.dirname(caller.f_code.co_filename) == _GSCFW_DIR:
            calls[f"{caller.f_code.co_name} -> {code.co_name}"] += 1

    config = SolverConfig(epsilon=5e-324, max_iter=max_iter)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        trace = run_method(method, instance, x0, weights, config)
    finally:
        sys.setprofile(previous)
    return calls, len(trace.iterations)


@pytest.mark.parametrize("family, method", [
    (family, method) for family in _SMALL for method in sorted(SOLVERS)
    if (method != "asfwgsc" or family != "dwd") and (method != "fwlloo" or family == "portfolio")])
def test_iterations_call_no_numpy_module_wrapper(family, method):
    # the wrappers run the kernels of the ndarray methods, one Python call
    # later; a 60- minus a 20-iteration run leaves start-up out.  On a
    # polytope no iteration builds a dense vertex: the oracle's answer, and
    # asfwgsc's away vertex, stay atoms up to the line
    instance = build_problem({"name": family, **_SMALL[family], "seed": 1})
    x0, weights = make_start(instance, 1)
    short, short_iters = _numpy_wrapper_calls(method, instance, x0, weights, 20)
    long, long_iters = _numpy_wrapper_calls(method, instance, x0, weights, 60)
    assert long_iters > short_iters
    assert long - short == Counter()
