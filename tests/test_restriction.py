"""The evaluation cache ``obj.at(x)`` and its line restriction against the
objective's own oracles evaluated from scratch, the number of products with
the design matrix a solver run makes, and the statelessness of objectives.
"""

import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gscfw import (SOLVERS, L1Ball, Line, Point, SolverConfig, SymmetricL1Ball, UnitSimplex,
                   covariance_generator, covariance_problem, dwd_problem, inner, l2_norm,
                   logistic_problem, max_feasible_step, portfolio_generator,
                   portfolio_problem, synthetic_classification)
from gscfw.bench import build_problem, make_start, run_method
from gscfw.problems import MarginPoint

from conftest import NegLogObjective, reference_away_line

TOL = 1e-10
BISECTION_RESOLUTION = 2.0 ** -29  # 30 halvings of [0, 1], then the 1e-7 shrink


def _symmetric(rng, p):
    raw = rng.standard_normal((p, p))
    return (raw + raw.T) / 2.0


def _logistic(rng, seed):
    data = synthetic_classification(40, 8, density=0.5, seed=seed)
    obj = logistic_problem(data, gamma=1e-2, radius=5.0).objective
    x = rng.standard_normal(8)
    return obj, 5.0 * rng.uniform() * x / np.sum(np.abs(x)), rng.standard_normal(8)


def _portfolio(rng, seed):
    obj = portfolio_problem(portfolio_generator(30, 6, seed=seed)).objective
    return obj, rng.dirichlet(np.ones(6)), rng.standard_normal(6)


def _dwd(rng, seed):
    obj = dwd_problem(synthetic_classification(12, 5, density=0.5, seed=seed)).objective
    # unit-norm rows: |<a_i, w>| + |mu| < 0.4 < xi_i keeps every margin positive
    w = rng.standard_normal(5)
    w *= 0.2 * rng.uniform() / np.linalg.norm(w)
    x = np.concatenate([w, [rng.uniform(-0.2, 0.2)], 0.5 + rng.uniform(size=12)])
    return obj, x, rng.standard_normal(18)


def _covariance(rng, seed):
    obj = covariance_problem(covariance_generator(5, seed=seed)).objective
    a = rng.standard_normal((5, 5))
    return obj, a @ a.T / 5.0 + 0.5 * np.eye(5), _symmetric(rng, 5)


def _neg_log(rng, seed):
    # no family cache: Objective.at falls back on the oracles
    return NegLogObjective(6), rng.uniform(0.5, 2.0, size=6), rng.standard_normal(6)


FAMILIES = {"logistic": _logistic, "portfolio": _portfolio, "dwd": _dwd,
            "covariance": _covariance, "neg-log": _neg_log}


def _boundary(obj, x, v):
    """The exact sup{t > 0 : x + t v in dom f}, computed independently."""
    if hasattr(obj, "sigma"):  # X + tV singular where V w = mu X w, t = -1/mu
        mu = scipy.linalg.eigh(v, x, eigvals_only=True)[0]
        return 1.0 / -mu if mu < 0.0 else math.inf
    if hasattr(obj, "kernel"):
        if not obj.kernel.positive:
            return math.inf
        z, dz = obj.b @ x, obj.b @ v
    else:
        z, dz = x, v
    shrinking = dz < 0.0
    return float(np.min(z[shrinking] / -dz[shrinking])) if np.any(shrinking) else math.inf


def _reference_gradient(obj, x, t, v):
    """The gradient at x + t v; on a margin family from the margins
    B(x + t v) in exact rational arithmetic, rounded once.  The float sum
    x + t v rounds away bits that the gradient near the domain boundary
    amplifies by about one over the relative distance to it, which at
    |t| >> 1 exceeds TOL."""
    xt = x + t * v
    if not hasattr(obj, "kernel"):
        return obj.gradient(xt)
    exact = [Fraction(a) + Fraction(t) * Fraction(c) for a, c in zip(x.tolist(), v.tolist())]
    rows = obj.b.toarray() if scipy.sparse.issparse(obj.b) else obj.b
    z = [float(sum(Fraction(b) * e for b, e in zip(row.tolist(), exact))) for row in rows]
    return MarginPoint(obj, xt, np.array(z)).gradient()


def _close(actual, expected, scale=1.0):
    return abs(actual - expected) <= TOL * max(1.0, abs(expected), scale)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), inside=st.floats(0.0, 1.0),
       edge_exp=st.floats(-3.0, -1.0))
@example(seed=765123, inside=0.0, edge_exp=-3.0)
def test_line_matches_oracles_from_scratch(family, seed, inside, edge_exp):
    rng = np.random.default_rng(seed)
    obj, x, v = FAMILIES[family](rng, seed % 1000)
    assert obj.in_domain(x)
    line = obj.at(x).restrict(v)
    t_bound = _boundary(obj, x, v)
    edge = 10.0 ** edge_exp

    # maximum step: against the boundary, and against the bisection on in_domain
    reach = min(1.0, t_bound * (1.0 - 1e-7))
    if type(line) is Line:  # no family line: the generic line bisects
        assert abs(line.max_step() - reach) <= BISECTION_RESOLUTION
    else:
        assert _close(line.max_step(), reach)
    # a generic line through the same point knows no boundary rule: it bisects
    bisected = max_feasible_step(Line(Point(obj, x), v))
    assert abs(line.max_step() - bisected) <= BISECTION_RESOLUTION
    assert max_feasible_step(line) == line.max_step()

    assert _close(line.curvature(), inner(obj.hess_vec(x, v), v))

    # inside the segment, and near the domain boundary from inside: the
    # gradient there amplifies the rounding of x + t v by about one over the
    # relative distance to the boundary, so points keep 1e-3 of it
    points = [inside * min(1.0, t_bound * (1.0 - 1e-3))]
    if math.isfinite(t_bound):
        points.append(t_bound * (1.0 - edge))
    for t in points:
        xt = x + t * v
        assert line.in_domain(t) and obj.in_domain(xt)
        g = _reference_gradient(obj, x, t, v)
        assert _close(line.value(t), obj.value(xt))
        assert _close(line.slope(t), inner(g, v), scale=l2_norm(g) * l2_norm(v))
        nxt = line.at(t)
        assert np.array_equal(nxt.x, xt)
        assert _close(nxt.value(), obj.value(xt))
        assert l2_norm(nxt.gradient() - g) <= TOL * max(1.0, l2_norm(g))

    # beyond the boundary: outside dom f
    if math.isfinite(t_bound):
        t = t_bound * (1.0 + edge)
        assert not obj.in_domain(x + t * v)
        assert not line.in_domain(t)
        assert line.value(t) == math.inf

    # in_domain along the line never claims a point the oracle rejects
    for t in np.linspace(0.0, min(2.0, 2.0 * t_bound), 41):
        if line.in_domain(t):
            assert obj.in_domain(x + t * v)


def _vertex(family, rng, obj, x):
    """A vertex of the family's set: one nonzero on the l1 ball and the
    simplex, the oracle's answer to a random gradient on DWD's product set
    and a symmetric l1-ball vertex on covariance."""
    if family == "logistic":
        return L1Ball(x.size, 5.0).vertex((int(rng.integers(x.size)), int(rng.choice([-1, 1]))))
    if family == "portfolio":
        return UnitSimplex(x.size).vertex(int(rng.integers(x.size)))
    if family == "dwd":
        return dwd_problem(synthetic_classification(12, 5, seed=0)).feasible_set.lmo(
            rng.standard_normal(x.size))
    p = x.shape[0]
    i, j = sorted(int(k) for k in rng.integers(p, size=2))
    return SymmetricL1Ball(p, 3.0).vertex((i, j, int(rng.choice([-1, 1]))))


def _rounding_close(actual, expected):
    return actual == expected or (
        abs(actual - expected) <= 64.0 * np.finfo(float).eps * max(1.0, abs(expected)))


def _check_away_steps(line, old, steps, interior, carried=False):
    """An away step is a negative step along ``line`` = toward(s): at -t it
    reaches the x, the margins and f(x) the old away line ``old`` reaches at
    t.  A ``carried`` line (log-det toward a vertex) takes f there from its
    closed form, so f agrees within rounding; elsewhere it is bit for bit.
    At the ``interior`` steps the value along the line agrees within
    rounding and the slope flips its sign."""
    for t in steps:
        nxt, ref = line.at(-t), old.at(t)
        assert np.array_equal(nxt.x, ref.x)
        if hasattr(ref, "z"):
            assert np.array_equal(nxt.z, ref.z)
        assert line.in_domain(-t) == old.in_domain(t)
        if carried:
            assert _rounding_close(nxt.value(), ref.value())
        else:
            assert nxt.value() == ref.value()
    for t in interior:
        assert _rounding_close(line.value(-t), old.value(t))
        assert _rounding_close(-line.slope(-t), old.slope(t))


@pytest.mark.parametrize("family", ["logistic", "portfolio"])
@pytest.mark.parametrize("away", [False, True])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), frac=st.floats(0.0, 1.0))
def test_vertex_line_from_one_column_matches_the_product(family, away, seed, frac):
    rng = np.random.default_rng(seed)
    obj, x, _ = FAMILIES[family](rng, seed % 1000)
    s = _vertex(family, rng, obj, x)
    point = obj.at(x)
    line = point.toward(s)
    # away from s: the product line through x - s, met at negative t
    sign = -1.0 if away else 1.0
    ref = point.restrict(x - s if away else s - x)
    assert np.array_equal(sign * line.v, ref.v)
    # dz = s_i B[:, i] - z against B v: a few units of rounding of |B| (|s| + |x|)
    eps = np.finfo(float).eps
    floor = np.abs(obj.b) @ (np.abs(s) + np.abs(x))
    assert np.all(np.abs(sign * line.dz - ref.dz) <= 4.0 * eps * floor)

    assert _rounding_close(line.curvature(), ref.curvature())
    if not away:
        assert _rounding_close(line.max_step(), ref.max_step())
    steps = (0.0, frac * ref.max_step(), ref.max_step())
    for t in steps:
        assert _rounding_close(line.value(sign * t), ref.value(t))
        assert _rounding_close(sign * line.slope(sign * t), ref.slope(t))
        assert np.array_equal(line.at(sign * t).x, ref.at(t).x)
    if away:
        _check_away_steps(line, reference_away_line(point, s), steps, steps)
    # in_domain agrees away from the boundary t_b, where either may round across
    t_bound = ref.max_step() / (1.0 - 1e-7)
    for t in np.linspace(0.0, 2.0, 41):
        if abs(t - t_bound) > 1e-6 * t_bound:
            assert line.in_domain(sign * t) == ref.in_domain(t)


def _assert_spectrum_close(line, ref, sign, steps):
    """The log-det line ``line`` against the dense line ``ref`` through the
    same point along sign * line.v, at ``line``'s sign * t for t in ``steps``.
    Each eigenvalue of W carries rounding of about n eps ||W||, from eigvalsh
    and from the product L^{-1} V L^{-T} that the closed form skips; value,
    slope, curvature and max_step scale it by their derivatives in lam, and
    add rounding of their own."""
    eps = np.finfo(float).eps
    lam = np.asarray(ref.lam)
    delta = 8.0 * lam.size * eps * max(1.0, float(np.max(np.abs(lam))))

    def close(actual, expected, bound):
        assert abs(actual - expected) <= bound + 64.0 * eps * max(1.0, abs(expected)), \
            (actual, expected)

    close(line.curvature(), ref.curvature(), 2.0 * float(np.sum(np.abs(lam))) * delta)
    if sign > 0.0:
        close(line.max_step(), ref.max_step(), ref.max_step() ** 2 * delta)
    for t in steps:
        edge = float(np.min(1.0 + t * lam))
        if edge <= 0.0:
            assert line.value(sign * t) == ref.value(t) == math.inf
            continue
        close(line.value(sign * t), ref.value(t), lam.size * abs(t) * delta / edge)
        close(sign * line.slope(sign * t), ref.slope(t), lam.size * delta / edge ** 2)


@pytest.mark.parametrize("spec, atoms", [
    ({"name": "dwd"}, [(0, 0, 0.5), (30, 30, -0.25), (31, 31, 2.0), (230, 230, 0.5)]),  # CSR
    ({"name": "logistic"}, [(0, 1, 0.5), (7, 3, -0.25), (2, 29, 1.5)]),  # CSC, a != b
], ids=["dwd-csr", "logistic-csc"])
def test_margin_atom_lines_without_a_column_fall_back_to_the_restriction(spec, atoms):
    # neither case reads one column of B: the line is point.restrict(s - x), bit for bit
    inst = build_problem(spec)
    point = inst.objective.at(make_start(inst, 1)[0])
    for a, b, h in atoms:
        s = np.zeros_like(point.x)
        s[a] += h
        s[b] += h
        line, ref = point.toward_atom(a, b, h), point.restrict(s - point.x)
        assert line.v.tobytes() == ref.v.tobytes()
        assert line.dz.tobytes() == ref.dz.tobytes()


@pytest.mark.parametrize("family", ["dwd", "covariance"])
@pytest.mark.parametrize("away", [False, True])
def test_vertex_line_without_column_storage_is_the_restriction(family, away):
    # a log-det line toward a vertex takes W's spectrum in closed form: its
    # scalars agree with the dense line's within rounding, its points exactly
    spectral = family == "covariance"
    rng = np.random.default_rng(7)
    for seed in range(5):
        obj, x, _ = FAMILIES[family](rng, seed)
        one_hot = np.zeros_like(x)
        one_hot.flat[int(rng.integers(x.size))] = 1.0
        for s in (_vertex(family, rng, obj, x), one_hot):
            point = obj.at(x)
            line = point.toward(s)
            if away:
                old = reference_away_line(point, s)
                t_max = old.max_step()
                assert np.array_equal(-line.v, old.v)
                steps = (0.0, 0.5 * t_max, t_max, 2.0)
                if spectral:
                    _assert_spectrum_close(line, old, -1.0, steps)
                    _check_away_steps(line, old, steps, (), carried=True)
                    continue
                assert line.curvature() == old.curvature()
                # at t_max, 1e-7 inside the boundary, the log-det value along
                # the line amplifies the rounding of W's eigenvalues
                _check_away_steps(line, old, steps, (0.0, 0.5 * t_max))
                continue
            ref = point.restrict(s - x)
            assert np.array_equal(line.v, ref.v)
            t_max = ref.max_step()
            steps = (0.0, 0.5 * t_max, t_max, 2.0)
            if spectral:
                _assert_spectrum_close(line, ref, 1.0, steps)
            else:
                assert line.max_step() == t_max and line.curvature() == ref.curvature()
            for t in steps:
                assert line.in_domain(t) == ref.in_domain(t)
                if not spectral:
                    assert line.value(t) == ref.value(t)
                    if ref.in_domain(t):
                        assert line.slope(t) == ref.slope(t)
                assert np.array_equal(line.at(t).x, ref.at(t).x)


def _covariance_vertex(data, p):
    """A covariance objective with a well-conditioned point x and a vertex of
    its l1 ball, diagonal or off-diagonal, of either sign, dense and as its atom."""
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    obj = covariance_problem(covariance_generator(p, seed=seed % 1000)).objective
    a = rng.standard_normal((p, p))
    x = a @ a.T / p + rng.uniform(0.05, 1.0) * np.eye(p)
    i = data.draw(st.integers(0, p - 1))
    j = i if p == 1 or data.draw(st.booleans()) else data.draw(
        st.integers(0, p - 1).filter(lambda k: k != i))
    vid = (min(i, j), max(i, j), data.draw(st.sampled_from([-1, 1])))
    ball = SymmetricL1Ball(p, data.draw(st.floats(0.1, 10.0)))
    return obj, x, ball.vertex(vid), ball.atom(vid)


@settings(max_examples=150, deadline=None)
@given(p=st.integers(1, 8), frac=st.floats(0.0, 1.0), data=st.data())
def test_vertex_line_spectrum_matches_the_dense_line(p, frac, data):
    obj, x, s, atom = _covariance_vertex(data, p)
    point = obj.at(x)
    line, ref = point.toward_atom(*atom), point.restrict(s - x)
    assert line.ones == p - len(line.lam) and len(line.lam) == np.count_nonzero(s)
    assert np.array_equal(line.v, ref.v)
    lam = np.asarray(ref.lam)
    # forward (sign +1) and away (sign -1), up to the boundary at 1 + t lam = 0
    for sign in (1.0, -1.0):
        shrinking = sign * lam < 0.0
        reach = float(np.min(1.0 / -(sign * lam[shrinking]))) if shrinking.any() else math.inf
        edge_step = min(1.0, reach) * (1.0 - 1e-7)
        steps = (0.0, frac * edge_step, edge_step, 2.0)
        _assert_spectrum_close(line, point.restrict(sign * (s - x)), sign, steps)
        for t in steps:
            assert np.array_equal(line.at(sign * t).x, ref.at(sign * t).x)
        # in_domain agrees away from the boundary, where either may round across
        for t in np.linspace(0.0, 2.0, 41):
            if abs(t - reach) > 1e-6 * reach:
                assert line.in_domain(sign * t) == ref.in_domain(sign * t)


def test_vertex_line_asks_no_eigensolver(monkeypatch):
    p = 6
    obj = covariance_problem(covariance_generator(p, seed=3)).objective
    ball = SymmetricL1Ball(p, 3.0)
    point = obj.at(covariance_generator(p, seed=4) + np.eye(p))
    point.gradient()

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for vid in ((0, 0, 1), (5, 5, -1), (1, 4, 1), (0, 5, -1)):
        line = point.toward_atom(*ball.atom(vid))
        assert line.ones == p - (1 if vid[0] == vid[1] else 2)
        t = 0.5 * line.max_step()
        line.value(t), line.slope(t), line.curvature(), line.in_domain(t), line.at(t).value()
        line.value(-t), line.slope(-t), line.in_domain(-2.0)
    # toward(s) does not look for a vertex in s: any dense s, a vertex
    # included, is a general direction, whose line comes from eigvalsh(W);
    # so is an atom h (e_a + e_b) whose two entries are not mirror images
    zero, lone = np.zeros((p, p)), np.zeros((p, p))
    lone[1, 3] = 1.0
    unequal, two_diagonal, three = lone.copy(), np.zeros((p, p)), ball.vertex((1, 3, 1))
    unequal[3, 1] = 0.5
    two_diagonal[0, 0] = two_diagonal[2, 2] = 1.0
    three[2, 2] = 1.0
    dense = (zero, lone, unequal, two_diagonal, three,
             ball.vertex((1, 3, 1)), ball.vertex((2, 2, -1)))
    for s in dense:
        with pytest.raises(AssertionError, match="eigvalsh"):
            point.toward(s)
    with pytest.raises(AssertionError, match="eigvalsh"):
        point.toward_atom(p + 3, p + 3, 0.5)  # 2h at (1, 3) alone: lone
    monkeypatch.undo()
    for s in dense:
        line, ref = point.toward(s), point.restrict(s - point.x)
        assert line.vertex is None and line.ones == 0
        assert np.array_equal(line.v, ref.v) and line.lam == ref.lam
    line, ref = point.toward_atom(p + 3, p + 3, 0.5), point.restrict(lone - point.x)
    assert line.vertex is None and np.array_equal(line.v, ref.v) and line.lam == ref.lam


def test_covariance_rejects_non_finite_and_asymmetric_points():
    obj = covariance_problem(covariance_generator(3, seed=1)).objective
    for bad in (np.nan, np.inf, -np.inf):
        x = np.eye(3)
        x[1, 1] = bad
        assert not obj.in_domain(x)
        assert obj.value(x) == math.inf
        with pytest.raises(ValueError):
            obj.gradient(x)
    x = np.eye(3)
    x[0, 1] = 0.5
    assert not obj.in_domain(x) and obj.value(x) == math.inf


@pytest.mark.parametrize("method", ["fw-standard", "fw-line-search", "fwgsc", "lbtfwgsc",
                                    "mbtfwgsc", "asfwgsc"])
def test_products_with_the_design_per_iteration(method):
    for spec in ({"name": "logistic", "p": 60, "n": 12, "seed": 3},
                 {"name": "dwd", "p": 30, "d": 5, "seed": 3}):
        if method == "asfwgsc" and spec["name"] == "dwd":
            continue  # no vertex representation of the DWD start
        inst = build_problem(spec)
        obj = inst.objective
        x0, active = make_start(inst, 17)
        counts = {"B x": 0, "B^T u": 0}

        def counting(product, name):
            def counted(x):
                counts[name] += 1
                return product(x)
            return counted

        # every product with the design goes through these two
        obj.b_times, obj.bt_times = counting(obj.b_times, "B x"), counting(obj.bt_times, "B^T u")
        trace = run_method(method, inst, x0, active, SolverConfig(epsilon=1e-14, max_iter=40))
        k = len(trace.iterations)
        assert k == 40
        assert min(counts.values()) >= 1, counts  # B x0 and the first gradient at least
        # one B^T u per gradient: k steps and the final gap
        assert counts["B^T u"] <= k + 1, counts
        if spec["name"] == "logistic":
            # B x0 once: every line runs toward an l1-ball vertex and reads its
            # direction from one column of the CSC design
            assert counts["B x"] == 1, counts
        else:
            # B x0 and one B v per line: the lifted DWD design is stored by rows
            assert counts["B x"] <= 1 + k, counts


def _scipy_sparse_calls(spec, max_iter):
    """Python calls into scipy.sparse during a fwgsc run of ``max_iter`` iterations."""
    inst = build_problem(spec)
    x0, active = make_start(inst, 5)
    where, calls = os.path.join("scipy", "sparse", ""), [0]

    def profile(frame, event, arg):
        if event == "call" and where in frame.f_code.co_filename:
            calls[0] += 1

    config = SolverConfig(epsilon=1e-14, max_iter=max_iter)
    sys.setprofile(profile)
    try:
        trace = run_method("fwgsc", inst, x0, active, config)
    finally:
        sys.setprofile(None)
    assert len(trace.iterations) == max_iter
    return calls[0]


@pytest.mark.parametrize("family", ["logistic", "dwd", "portfolio"])
def test_no_scipy_sparse_dispatch_per_iteration(family):
    # the design products call scipy's compiled kernels, not its Python @ wrapper;
    # building the problem and the start may go through scipy.sparse, which the
    # difference of two run lengths leaves out
    spec = {"name": family}
    assert _scipy_sparse_calls(spec, 150) - _scipy_sparse_calls(spec, 50) == 0


def _contents(value):
    """Copies of the arrays an instance attribute holds, and its other
    values, nested as the attribute nests them."""
    if scipy.sparse.issparse(value):
        return (value.shape, value.indptr.copy(), value.indices.copy(), value.data.copy())
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, (list, tuple)):
        return tuple(_contents(v) for v in value)
    if hasattr(value, "__dict__"):
        return {name: _contents(v) for name, v in vars(value).items()}
    return value


def _assert_same_contents(before, after):
    if isinstance(before, np.ndarray):
        assert before.dtype == after.dtype and np.array_equal(before, after)
    elif isinstance(before, dict):
        assert before.keys() == after.keys()
        for name in before:
            _assert_same_contents(before[name], after[name])
    elif isinstance(before, tuple):
        assert len(before) == len(after)
        for a, b in zip(before, after):
            _assert_same_contents(a, b)
    else:
        assert before == after


_FAMILIES = [{"name": "portfolio", "p": 30, "n": 8, "seed": 2},
             {"name": "covariance", "p": 4, "seed": 2},
             {"name": "logistic", "p": 40, "n": 8, "density": 0.5, "seed": 2},
             {"name": "dwd", "p": 30, "d": 5, "seed": 2}]


# grid cells share one built instance, which is safe only while runs leave
# the objective and the feasible set as they found them
@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_runs_leave_the_objective_untouched(method):
    for spec in _FAMILIES:
        if method == "fwlloo" and spec["name"] != "portfolio":
            continue  # the ball-restricted oracle needs the simplex
        if method == "asfwgsc" and spec["name"] == "dwd":
            continue  # no vertex representation of the DWD start
        inst = build_problem(spec)
        parts = (inst.objective, inst.feasible_set)
        ids = [{name: id(value) for name, value in vars(part).items()} for part in parts]
        contents = _contents(parts)
        x0, active = make_start(inst, 5)
        run_method(method, inst, x0, active, SolverConfig(epsilon=1e-12, max_iter=30))
        assert [{name: id(value) for name, value in vars(part).items()}
                for part in parts] == ids
        _assert_same_contents(contents, _contents(parts))
