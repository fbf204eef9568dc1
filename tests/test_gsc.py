import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gscfw import (GscSpec, SolverConfig, delta_nu, fwgsc, gsc_affine_constant,
                   gsc_finite_sum_constant, gsc_sum_constant, inner, l2_norm, omega,
                   portfolio_generator, portfolio_problem)
from gscfw.bench import build_problem, make_start
from gscfw.gsc import nu_branch

from conftest import (QuadraticObjective, d_nu, descent_bounds, fd_gradient_check,
                      fd_hess_vec_check, omega_slope_at_zero, reference_inner,
                      reference_l2_norm)


# ---------------------------------------------------------------------------
# inner product and norm
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), size=st.integers(0, 300), square=st.booleans(),
       transpose=st.booleans(), scale_exp=st.floats(-150.0, 150.0))
def test_inner_and_norm_match_the_ravel_formulas_bit_for_bit(seed, size, square, transpose,
                                                             scale_exp):
    # vectors of any length, and p x p matrices, C-ordered or transposed views
    rng = np.random.default_rng(seed)
    shape = (size % 25,) * 2 if square else (size,)
    a = rng.standard_normal(shape) * 10.0 ** scale_exp
    b = rng.standard_normal(shape)
    if transpose:
        a, b = a.T, b.T
    assert np.float64(inner(a, b)).tobytes() == np.float64(reference_inner(a, b)).tobytes()
    assert np.float64(inner(a, b)).tobytes() == np.vdot(a, b).tobytes()  # inner's former body
    assert np.float64(l2_norm(a)).tobytes() == np.float64(reference_l2_norm(a)).tobytes()


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------

def test_omega_frozen_values():
    assert omega(2.0, 1.0) == pytest.approx(math.e - 2.0, rel=1e-12)
    # interior branch, computed by hand from the power form
    assert omega(2.5, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-12)
    # limiting value at 0 on every branch
    for nu in (2.0, 2.3, 2.5, 2.9, 3.0):
        assert omega(nu, 1e-12) == pytest.approx(0.5, abs=1e-10)


def test_omega_limit_half_along_shrinking_arguments():
    for nu in np.arange(2.0, 3.0001, 0.1):
        for t in (1e-8, -1e-8, 1e-9, 1e-10):
            assert abs(omega(float(nu), t) - 0.5) < 1e-6


def test_omega_domain_errors():
    with pytest.raises(ValueError):
        omega(3.0, 1.0)
    with pytest.raises(ValueError):
        omega(2.5, 1.5)
    with pytest.raises(ValueError):
        omega(1.5, 0.1)
    omega(2.0, 5.0)  # full domain on the exponential branch


def test_omega_nonnegative_and_midpoint_convex():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        nu = float(rng.uniform(2.0, 3.0))
        if rng.random() < 0.2:
            nu = float(rng.choice([2.0, 3.0]))
        hi = 0.999 if nu_branch(nu) != 2 else 3.0
        pts = np.sort(rng.uniform(-3.0, hi, size=3))
        t1, t2, t3 = map(float, pts)
        vals = [omega(nu, t) for t in (t1, t2, t3)]
        assert all(v >= 0.0 for v in vals)
        mid = omega(nu, (t1 + t3) / 2.0)
        assert mid <= (vals[0] + vals[2]) / 2.0 + 1e-12


def test_omega_branch_continuity_near_three():
    assert omega(2.999, 0.3) == pytest.approx(omega(3.0, 0.3), abs=1e-3)
    assert omega(3.0 - 1e-7, 0.3) == pytest.approx(omega(3.0, 0.3), rel=1e-5)


def test_omega_continuity_near_two_along_geometry_path():
    # The kernel alone diverges as nu -> 2+ at fixed argument; the quantity
    # that is continuous is the composition through the direction shape
    # factor, which carries the vanishing (nu-2)/2 weight.
    beta, e, t, m = 0.7, 1.3, 0.9, 1.8
    target = omega(2.0, t * m * delta_nu(GscSpec(m, 2.0), beta, e))
    for nu in (2.01, 2.001, 2.0001):
        spec = GscSpec(m, nu)
        val = omega(nu, t * m * delta_nu(spec, beta, e))
        assert val == pytest.approx(target, rel=50.0 * (nu - 2.0))
    spec = GscSpec(m, 2.001)
    assert omega(2.001, t * m * delta_nu(spec, beta, e)) == pytest.approx(target, rel=1e-2)


def test_omega_slope_oracle_matches_analytic():
    # Richardson-extrapolated numeric slope against the Taylor coefficients
    assert omega_slope_at_zero(2.0) == pytest.approx(1.0 / 6.0, rel=1e-6)
    assert omega_slope_at_zero(3.0) == pytest.approx(1.0 / 3.0, rel=1e-6)
    for nu in (2.3, 2.5, 2.7):
        assert omega_slope_at_zero(nu) == pytest.approx(1.0 / (3.0 * (nu - 2.0)), rel=1e-5)


# ---------------------------------------------------------------------------
# d_nu / delta_nu
# ---------------------------------------------------------------------------

def test_d_nu_examples():
    assert d_nu(GscSpec(2.0, 3.0), 123.0, 1.0) == pytest.approx(1.0)
    assert d_nu(GscSpec(1.0, 2.0), 0.3, 7.0) == pytest.approx(0.3)
    assert d_nu(GscSpec(1.0, 2.5), 4.0, 1.0) == pytest.approx(0.5)
    assert d_nu(GscSpec(1.0, 2.5), 0.0, 1.0) == 0.0
    assert d_nu(GscSpec(1.0, 3.0), 1.0, 0.0) == 0.0


def test_delta_nu_examples_and_consistency():
    assert delta_nu(GscSpec(1.0, 2.0), 3.0, 5.0) == pytest.approx(3.0)
    assert delta_nu(GscSpec(1.0, 3.0), 3.0, 5.0) == pytest.approx(2.5)
    assert delta_nu(GscSpec(1.0, 2.5), 4.0, 1.0) == pytest.approx(0.5)
    # d_nu(x, x + t v) = t * M * delta_nu for scaled displacements
    rng = np.random.default_rng(2)
    for _ in range(200):
        spec = GscSpec(float(rng.uniform(0.1, 3.0)), float(rng.uniform(2.0, 3.0)))
        beta, e, t = rng.uniform(0.01, 5.0, size=3)
        lhs = d_nu(spec, t * beta, t * e)
        rhs = t * spec.m * delta_nu(spec, float(beta), float(e))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        GscSpec(-1.0, 3.0)
    with pytest.raises(ValueError):
        GscSpec(1.0, 3.5)
    assert GscSpec(1.0, 2.0).branch == 2
    assert GscSpec(1.0, 3.0 - 1e-12).branch == 3
    assert GscSpec(1.0, 2.5).branch == 0


@pytest.mark.parametrize("spec", [{"name": "logistic"}, {"name": "logistic", "nu_mode": 3},
                                  {"name": "portfolio"}, {"name": "dwd"}],
                         ids=["logistic", "logistic-nu3", "portfolio", "dwd"])
def test_the_gsc_constant_is_a_python_float(spec):
    # the margin families derive M from numpy reductions; as a float it keeps
    # every analytic step, and the alphas it records, in Python floats
    inst = build_problem(spec)
    x0, _ = make_start(inst, 1)
    trace = fwgsc(inst.objective, inst.feasible_set, x0, SolverConfig(max_iter=1))
    assert type(inst.objective.spec.m) is float
    assert type(trace.iterations[0].alpha) is float


# ---------------------------------------------------------------------------
# descent bounds
# ---------------------------------------------------------------------------

def test_descent_bounds_collapse_at_same_point():
    obj = QuadraticObjective(4, curvature=2.0)
    x = np.array([0.1, -0.2, 0.3, 0.4])
    lower, upper = descent_bounds(obj, x, x)
    assert lower == pytest.approx(obj.value(x))
    assert upper == pytest.approx(obj.value(x))


def test_descent_bounds_exact_for_quadratic():
    # constant 0 forces d = 0 and omega(0) = 1/2: both bounds equal f(y)
    obj = QuadraticObjective(3, curvature=1.7)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        lower, upper = descent_bounds(obj, x, y)
        assert lower == pytest.approx(obj.value(y), rel=1e-12)
        assert upper == pytest.approx(obj.value(y), rel=1e-12)


def test_descent_bounds_sandwich_portfolio():
    instance = portfolio_problem(portfolio_generator(15, 8, seed=7))
    obj = instance.objective
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(1000):
        x = rng.dirichlet(np.ones(8))
        y = rng.dirichlet(np.ones(8))
        t = rng.uniform(0.0, 1.0)
        y = x + t * (y - x)
        lower, upper = descent_bounds(obj, x, y)
        fy = obj.value(y)
        scale = 1.0 + abs(fy)
        assert lower <= fy + 1e-8 * scale
        if upper is not None:
            assert fy <= upper + 1e-8 * scale
            checked += 1
    assert checked > 100  # the upper bound must actually engage


def test_dikin_safeguard_portfolio():
    # for nu > 2, d_nu(x, y) < 1 implies y stays in the domain
    instance = portfolio_problem(portfolio_generator(12, 6, seed=8))
    obj = instance.objective
    rng = np.random.default_rng(5)
    tried = 0
    for _ in range(2000):
        x = rng.dirichlet(np.ones(6))
        v = rng.standard_normal(6)
        v -= v.mean()  # stay on the simplex's affine hull
        hv = obj.hess_vec(x, v)
        local = math.sqrt(max(float(np.dot(hv, v)), 0.0))
        d = d_nu(obj.spec, float(np.linalg.norm(v)), local)
        if d >= 1.0 or d == 0.0:
            continue
        tried += 1
        assert obj.in_domain(x + v)
    assert tried > 200


def test_upper_bound_absent_when_model_invalid():
    instance = portfolio_problem(portfolio_generator(10, 5, seed=9))
    obj = instance.objective
    x = np.full(5, 0.2)
    y = np.array([0.96, 0.01, 0.01, 0.01, 0.01])
    hv = obj.hess_vec(x, y - x)
    local = math.sqrt(max(float(np.dot(hv, y - x)), 0.0))
    if d_nu(obj.spec, float(np.linalg.norm(y - x)), local) >= 1.0:
        _, upper = descent_bounds(obj, x, y)
        assert upper is None


# ---------------------------------------------------------------------------
# constant calculus
# ---------------------------------------------------------------------------

def test_sum_constant():
    assert gsc_sum_constant([(1.0, 5.0)], 2.7) == pytest.approx(5.0)
    assert gsc_sum_constant([(1.0, 2.0), (1.0, 3.0)], 3.0) == pytest.approx(3.0)
    assert gsc_sum_constant([(4.0, 1.0)], 3.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        gsc_sum_constant([], 3.0)
    with pytest.raises(ValueError):
        gsc_sum_constant([(0.0, 1.0)], 3.0)


def test_affine_constant():
    assert gsc_affine_constant(7.0, 3.0, 123.0) == pytest.approx(7.0)
    assert gsc_affine_constant(1.0, 2.0, 2.0) == pytest.approx(2.0)
    assert gsc_affine_constant(1.0, 2.5, 4.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        gsc_affine_constant(1.0, 3.5, 1.0)


def test_finite_sum_constant():
    assert gsc_finite_sum_constant([(1.0, 0.5), (2.0, 0.25)], 3.0, 0.0) == pytest.approx(2.0)
    gamma = 0.04
    assert gsc_finite_sum_constant([(1.0, 1.0)], 2.0, gamma) == pytest.approx(gamma ** -0.5)
    assert gsc_finite_sum_constant([(1.0, 2.0)], 2.0, 4.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gsc_finite_sum_constant([(1.0, 1.0)], 2.0, 0.0)
    with pytest.raises(ValueError):
        gsc_finite_sum_constant([], 3.0, 1.0)


# ---------------------------------------------------------------------------
# objective contract on a closed-form case
# ---------------------------------------------------------------------------

def test_quadratic_objective_fd():
    obj = QuadraticObjective(5, curvature=3.0)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(5)
    fd_gradient_check(obj, x)
    fd_hess_vec_check(obj, x, rng.standard_normal(5))
