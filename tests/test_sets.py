import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from gscfw import (EuclideanBall, L1Ball, Line, NonnegativeBall, OracleViolation, Point,
                   ProductSet, SimplexLLOO, SymmetricL1Ball, UnitSimplex, gap, inner,
                   max_feasible_step)
from gscfw import (covariance_generator, covariance_problem, dwd_problem, portfolio_generator,
                   portfolio_problem, synthetic_classification)
from gscfw.bench import make_start
from gscfw.gsc import l2_norm
from gscfw.solvers import SolverConfig, fwgsc

from conftest import NegLogObjective, reference_lloo_query


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------

def test_gap_examples():
    g = np.array([3.0, 1.0, 2.0])
    x = np.array([1.0, 0.0, 0.0])
    s = UnitSimplex(3).lmo(g)
    assert np.array_equal(s, [0.0, 1.0, 0.0])
    assert gap(g, x, inner(g, s)) == pytest.approx(2.0)
    assert gap(g, s, inner(g, s)) == 0.0


def test_gap_clamps_rounding_but_flags_violations():
    g = np.array([1.0, 0.0])
    x = np.array([1.0, 0.0])
    assert gap(g, x, 1.0 + 1e-13) == 0.0
    with pytest.raises(OracleViolation):
        gap(g, x, 2.0)
    # a billionth of the inner products is far beyond rounding: a violation too
    with pytest.raises(OracleViolation):
        gap(g, x, 1.0 + 1e-9)


def test_gap_rejects_non_finite_gradient():
    x = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="non-finite gradient"):
        gap(np.array([np.nan, 1.0]), x, 1.0)
    # q = 1e6 overflows the DWD kernel at the start's slack margins: the
    # solver rejects the start, where f is +inf, before any gradient
    inst = dwd_problem(synthetic_classification(20, 5, seed=1), q=1e6)
    x0, _ = make_start(inst, 3)
    with pytest.raises(ValueError, match="initial point has f = inf"):
        fwgsc(inst.objective, inst.feasible_set, x0, SolverConfig(max_iter=5))


@pytest.mark.parametrize("g", [[np.inf, 1.0, 0.0], [np.nan, 1.0, 0.0], [0.0, 1.0, np.nan]],
                         ids=["inf", "nan-first", "nan-last"])
def test_gap_rejects_non_finite_gradient_scored_by_its_atom(g):
    # the loop scores a polytope's answer as h g_a + h g_b; at g = (inf, 1, 0)
    # that is a finite 0.0 while <g, x> is +inf, where the dense vertex's
    # <g, s> was NaN (inf * 0): both must be the non-finite-gradient error
    simplex, g, x = UnitSimplex(3), np.array(g), np.array([0.5, 0.5, 0.0])
    vid, (a, b, h) = simplex.lmo_indexed(g)
    with pytest.raises(ValueError, match="non-finite gradient"):
        gap(g, x, h * float(g[a]) + h * float(g[b]))
    with np.errstate(invalid="ignore"):  # inf * 0 in the dense product
        dense = float(np.vdot(g, simplex.vertex(vid)))
    with pytest.raises(ValueError, match="non-finite gradient"):
        gap(g, x, dense)


# ---------------------------------------------------------------------------
# elementary oracles
# ---------------------------------------------------------------------------

def test_simplex_lmo_tiebreak():
    simplex = UnitSimplex(3)
    assert np.array_equal(simplex.lmo([3.0, 1.0, 2.0]), [0, 1, 0])
    assert np.array_equal(simplex.lmo([1.0, 1.0, 1.0]), [1, 0, 0])
    assert np.array_equal(simplex.lmo([-5.0, 0.0, 0.0]), [1, 0, 0])


def test_l1ball_lmo():
    ball = L1Ball(3, 10.0)
    vid, atom = ball.lmo_indexed([1.0, -4.0, 2.0])
    assert vid == (1, 1) and atom == (1, 1, 5.0)
    assert np.array_equal(ball.vertex(vid), [0.0, 10.0, 0.0])
    assert np.array_equal(ball.lmo([0.0, 0.0, 0.0]), [-10.0, 0.0, 0.0])
    rng = np.random.default_rng(0)
    ball = L1Ball(7, 3.0)
    for _ in range(100):
        c = rng.standard_normal(7)
        s = ball.lmo(c)
        assert float(c @ s) == pytest.approx(-3.0 * np.max(np.abs(c)), rel=1e-12)


def test_sym_l1_lmo():
    g = np.diag([1.0, -3.0])
    s = SymmetricL1Ball(2, 2.0).lmo(g)
    assert np.array_equal(s, np.diag([0.0, 2.0]))
    g2 = np.array([[0.0, 5.0, 0.0], [5.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    s2 = SymmetricL1Ball(3, 2.0).lmo(g2)
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = -1.0
    assert np.array_equal(s2, expected)
    assert np.sum(np.abs(s2)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        SymmetricL1Ball(2, 1.0).lmo(np.array([[0.0, 1.0], [0.5, 0.0]]))


@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 6), seed=st.integers(0, 2**31 - 1),
       skew=st.sampled_from([0.0, 1e-13, 1e-11, 1e-9]),
       bad=st.sampled_from([None, np.nan, np.inf]), symmetric_bad=st.booleans())
def test_sym_l1_lmo_decides_as_the_tolerance_test(p, seed, skew, bad, symmetric_bad):
    # the exact-symmetry shortcut and the scale read from the chosen entry
    # change no decision: reject beyond 1e-10 max(1, max |c|), else the vertex
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((p, p))
    c = (raw + raw.T) / 2.0 + skew * rng.standard_normal((p, p))
    if bad is not None:
        i, j = (int(k) for k in rng.integers(p, size=2))
        c[i, j] = bad
        if symmetric_bad:
            c[j, i] = bad
    ball = SymmetricL1Ball(p, 2.0)
    with np.errstate(invalid="ignore"):  # inf - inf where c is not symmetric
        rejects = float(np.max(np.abs(c - c.T))) > 1e-10 * max(1.0, float(np.max(np.abs(c))))
    if rejects:
        with pytest.raises(ValueError, match="not symmetric"):
            ball.lmo_indexed(c)
        return
    vid, atom = ball.lmo_indexed(c)
    i, j = divmod(int(np.argmax(np.abs(c))), p)
    assert vid == (min(i, j), max(i, j), -1 if c[i, j] >= 0 else 1)
    assert atom == ball.atom(vid)


def test_sym_l1_lmo_against_vertex_enumeration():
    # brute force over all signed entry vertices at p = 4
    rng = np.random.default_rng(1)
    p, radius = 4, 1.5
    ball = SymmetricL1Ball(p, radius)
    vertices = []
    for i in range(p):
        for j in range(i, p):
            for sign in (1, -1):
                vertices.append(ball.vertex((i, j, sign)))
    for _ in range(200):
        raw = rng.standard_normal((p, p))
        g = (raw + raw.T) / 2.0
        s = ball.lmo(g)
        best = min(float(np.sum(g * v)) for v in vertices)
        assert float(np.sum(g * s)) == pytest.approx(best, rel=1e-12, abs=1e-12)
        assert float(np.sum(g * s)) == pytest.approx(-radius * np.max(np.abs(g)), rel=1e-12)


def test_product_lmo_blocks():
    interval = L1Ball(1, 5.0)  # the interval [-5, 5]
    assert interval.lmo(np.array([2.0]))[0] == -5.0
    assert interval.lmo(np.array([-0.1]))[0] == 5.0
    assert interval.lmo(np.array([0.0]))[0] == -5.0

    nonneg = NonnegativeBall(3, 2.0)
    out = nonneg.lmo(np.array([1.0, -3.0, -4.0]))
    assert np.allclose(out, [0.0, 1.2, 1.6])
    assert np.array_equal(nonneg.lmo(np.array([1.0, 0.5, 2.0])), np.zeros(3))

    ball = EuclideanBall(2, 3.0)
    assert np.allclose(ball.lmo(np.array([0.0, 4.0])), [0.0, -3.0])
    assert np.allclose(ball.lmo(np.zeros(2)), [3.0, 0.0])

    with pytest.raises(ValueError):
        ProductSet([interval, ball]).lmo(np.zeros(4))


@pytest.mark.parametrize("cls", [EuclideanBall, NonnegativeBall, L1Ball, SymmetricL1Ball])
@pytest.mark.parametrize("n, radius", [(3, -1.0), (3, 0.0), (3, math.nan), (3, math.inf),
                                       (0, 1.0)])
def test_set_constructors_reject_a_bad_dimension_or_radius(cls, n, radius):
    # a negative radius made the balls' oracles return a maximizer, and an
    # infinite one an infinite vertex
    with pytest.raises(ValueError, match="need a positive dimension and a finite positive radius"):
        cls(n, radius)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_ball_lmos_reject_a_non_finite_entry_without_a_warning(bad):
    # the scale r / ||c|| is 0 at an infinite norm, and 0 * inf warns
    c = np.array([1.0, bad, -2.0])
    with pytest.raises(ValueError, match="non-finite gradient"):
        EuclideanBall(3, 1.0).lmo(c)
    with pytest.raises(ValueError, match="non-finite gradient"):
        NonnegativeBall(3, 1.0).lmo(np.array([1.0, -abs(bad), -2.0]))
    # +inf in c is a zero of max(-c, 0): the nonnegative ball's answer is finite
    assert np.allclose(NonnegativeBall(3, 1.0).lmo(np.array([math.inf, -3.0, -4.0])),
                       [0.0, 0.6, 0.8])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e-3 * np.finfo(float).max])
def test_ball_lmos_keep_the_direction_of_a_gradient_whose_squared_norm_overflows(scale):
    # r / ||c|| is 0 at an infinite norm and would send every answer to 0
    unit = np.array([10.0, -10.0, 3.0])
    c = scale * unit
    assert math.isinf(l2_norm(c)) and np.all(np.isfinite(c))
    s = EuclideanBall(3, 2.0).lmo(c)
    np.testing.assert_allclose(s, -2.0 * unit / np.linalg.norm(unit), rtol=1e-15)
    s = NonnegativeBall(3, 2.0).lmo(-c)
    np.testing.assert_allclose(s, 2.0 * np.array([10.0, 0.0, 3.0]) / math.sqrt(109.0),
                               rtol=1e-15)


def test_nonneg_ball_lmo_against_sampling():
    # support-function check against dense feasible sampling
    rng = np.random.default_rng(2)
    nonneg = NonnegativeBall(3, 2.0)
    for _ in range(50):
        c = rng.standard_normal(3)
        s = nonneg.lmo(c)
        assert nonneg.contains(s, tol=1e-9)
        best = float(c @ s)
        for _ in range(500):
            y = np.abs(rng.standard_normal(3))
            y *= 2.0 * rng.uniform() ** (1 / 3) / np.linalg.norm(y)
            assert best <= float(c @ y) + 1e-9


# ---------------------------------------------------------------------------
# set-level contracts
# ---------------------------------------------------------------------------

def _feasible_sampler(feasible, rng):
    if isinstance(feasible, UnitSimplex):
        return lambda: rng.dirichlet(np.ones(feasible.dimension))
    if isinstance(feasible, L1Ball):
        def draw():
            w = rng.dirichlet(np.ones(feasible.dimension))
            signs = rng.choice([-1.0, 1.0], size=feasible.dimension)
            return feasible.radius * rng.uniform() * w * signs
        return draw
    if isinstance(feasible, SymmetricL1Ball):
        ids = [(i, j, s) for i in range(feasible.p) for j in range(i, feasible.p)
               for s in (1, -1)]
        def draw():
            weights = rng.dirichlet(np.ones(len(ids))) * rng.uniform()
            out = np.zeros((feasible.p, feasible.p))
            for w, vid in zip(weights, ids):
                out += w * feasible.vertex(vid)
            return out
        return draw
    if isinstance(feasible, ProductSet):
        samplers = [_feasible_sampler(b, rng) for b in feasible.blocks]
        return lambda: np.concatenate([np.ravel(s()) for s in samplers])
    if isinstance(feasible, EuclideanBall):
        def draw():
            d = rng.standard_normal(feasible.dimension)
            d /= np.linalg.norm(d)
            return feasible.radius * rng.uniform() ** (1.0 / feasible.dimension) * d
        return draw
    if isinstance(feasible, NonnegativeBall):
        def draw():
            d = np.abs(rng.standard_normal(feasible.dimension))
            d /= np.linalg.norm(d)
            return feasible.radius * rng.uniform() ** (1.0 / feasible.dimension) * d
        return draw
    raise NotImplementedError


@pytest.mark.parametrize("feasible, diameter", [
    (UnitSimplex(6), math.sqrt(2.0)),
    (L1Ball(5, 2.5), 5.0),
    (SymmetricL1Ball(3, 2.0), 4.0),
    (ProductSet([EuclideanBall(3, 1.0), L1Ball(1, 5.0), NonnegativeBall(4, 2.0)]),
     math.sqrt(112.0)),  # sqrt(2^2 + 10^2 + (2 sqrt 2)^2)
], ids=[f"feasible{i}" for i in range(4)])
def test_oracle_optimality(feasible, diameter):
    rng = np.random.default_rng(3)
    draw = _feasible_sampler(feasible, rng)
    shape = (feasible.p, feasible.p) if isinstance(feasible, SymmetricL1Ball) else feasible.dimension
    samples = np.stack([np.ravel(draw()) for _ in range(1000)])
    for _ in range(1000):
        c = rng.standard_normal(shape)
        if isinstance(feasible, SymmetricL1Ball):
            c = (c + c.T) / 2.0
        s = feasible.lmo(c)
        assert feasible.contains(s, tol=1e-12)
        base = float(np.ravel(c) @ np.ravel(s))
        tol = 1e-10 * max(1.0, np.linalg.norm(np.ravel(c)) * diameter)
        assert base <= float(np.min(samples @ np.ravel(c))) + tol


def test_vertex_id_stability():
    simplex = UnitSimplex(5)
    l1 = L1Ball(5, 2.0)
    sym = SymmetricL1Ball(3, 1.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        c = rng.standard_normal(5)
        assert simplex.lmo_indexed(c)[0] == simplex.lmo_indexed(c.copy())[0]
        assert l1.lmo_indexed(c)[0] == l1.lmo_indexed(c.copy())[0]
        raw = rng.standard_normal((3, 3))
        g = (raw + raw.T) / 2.0
        assert sym.lmo_indexed(g)[0] == sym.lmo_indexed(g.copy())[0]
    # the returned atom is the id's, and the id rebuilds the vertex exactly
    for feasible, c in ((simplex, rng.standard_normal(5)), (l1, rng.standard_normal(5)),
                        (sym, np.array([[0.3, -2.0, 0.1], [-2.0, 0.0, 1.0], [0.1, 1.0, 0.5]]))):
        vid, atom = feasible.lmo_indexed(c)
        assert atom == feasible.atom(vid)
        assert np.array_equal(feasible.vertex(vid), feasible.lmo(c))


def _unit(shape, *entries):
    out = np.zeros(shape)
    for index, value in entries:
        out[index] = value
    return out


def _written_vertices():
    """Every vertex of three polytopes by id, written out densely by hand:
    e_i, +-R e_i, +-R E_ii and +-(R/2)(E_ij + E_ji)."""
    yield UnitSimplex(4), {i: _unit(4, (i, 1.0)) for i in range(4)}
    yield L1Ball(3, 2.5), {(i, s): _unit(3, (i, s * 2.5)) for i in range(3) for s in (1, -1)}
    yield SymmetricL1Ball(3, 3.0), {
        (i, j, s): (_unit((3, 3), ((i, i), s * 3.0)) if i == j
                    else _unit((3, 3), ((i, j), s * 1.5), ((j, i), s * 1.5)))
        for i in range(3) for j in range(i, 3) for s in (1, -1)}


@pytest.mark.parametrize("polytope, written", list(_written_vertices()),
                         ids=["simplex", "l1", "symmetric-l1"])
def test_every_vertex_matches_its_written_dense_form(polytope, written):
    for vid, expected in written.items():
        v = polytope.vertex(vid)
        assert v.shape == expected.shape and v.dtype == np.float64
        assert np.array_equal(v, expected)


@pytest.mark.parametrize("polytope, vid", [
    (UnitSimplex(4), -1), (UnitSimplex(4), 4),
    (L1Ball(3, 2.5), (-1, 1)), (L1Ball(3, 2.5), (3, -1)), (L1Ball(3, 2.5), (0, 0.5)),
    (L1Ball(3, 2.5), (1, 0)),
    (SymmetricL1Ball(3, 1.0), (-1, 0, 1)), (SymmetricL1Ball(3, 1.0), (0, 3, 1)),
    (SymmetricL1Ball(3, 1.0), (0, 1, 2)), (SymmetricL1Ball(3, 1.0), (1, 1, -0.5)),
    (SymmetricL1Ball(3, 1.0), (2, 1, 1)),
], ids=["simplex-below", "simplex-above", "l1-below", "l1-above", "l1-half-sign",
        "l1-zero-sign", "sym-below", "sym-above", "sym-sign-2", "sym-half-sign", "sym-lower"])
def test_an_id_that_names_no_vertex_is_rejected(polytope, vid):
    # each case names no vertex: an index outside [0, n), a sign other than
    # +-1, or i > j on the symmetric ball (whose vertex has id (j, i, s))
    for ask in (polytope.atom, polytope.vertex):
        with pytest.raises(ValueError, match="no vertex has id"):
            ask(vid)


# ---------------------------------------------------------------------------
# simplex LLOO
# ---------------------------------------------------------------------------

def _lloo_reference(x, r, c):
    # independent minimizer of <c, .> over B(x, r) intersected with the simplex
    n = x.size
    cons = [
        {"type": "eq", "fun": lambda y: np.sum(y) - 1.0},
        {"type": "ineq", "fun": lambda y: r ** 2 - np.sum((y - x) ** 2)},
    ]
    best = None
    rng = np.random.default_rng(5)
    for _ in range(8):
        y0 = rng.dirichlet(np.ones(n))
        y0 = x + (y0 - x) * min(1.0, 0.9 * r / max(np.linalg.norm(y0 - x), 1e-12))
        res = minimize(lambda y: float(c @ y), y0, bounds=[(0.0, 1.0)] * n,
                       constraints=cons, method="SLSQP",
                       options={"maxiter": 200, "ftol": 1e-12})
        if res.success and (best is None or res.fun < best):
            best = float(res.fun)
    return best


def test_lloo_returns_global_vertex_for_big_radius():
    lloo = SimplexLLOO(5)
    rng = np.random.default_rng(6)
    x = rng.dirichlet(np.ones(5))
    c = rng.standard_normal(5)
    u = lloo.query(x, 10.0, c)
    assert np.allclose(u, UnitSimplex(5).lmo(c))


def test_lloo_zero_direction_returns_query_point():
    lloo = SimplexLLOO(4)
    x = np.array([0.4, 0.3, 0.2, 0.1])
    assert np.allclose(lloo.query(x, 0.5, np.zeros(4)), x)


def test_lloo_contract():
    n = 6
    lloo = SimplexLLOO(n)
    assert lloo.rho == pytest.approx(math.sqrt(n))
    rng = np.random.default_rng(7)
    simplex = UnitSimplex(n)
    for trial in range(20):
        x = rng.dirichlet(np.ones(n))
        r = float(10.0 ** rng.uniform(-2, 0))
        c = rng.standard_normal(n)
        u = lloo.query(x, r, c)
        assert simplex.contains(u, tol=1e-9)
        # locality: ||x - u|| <= rho r
        assert np.linalg.norm(x - u) <= lloo.rho * r + 1e-10
        # optimality over the ball: nothing in B(x, r) on the simplex is better
        ref = _lloo_reference(x, r, c)
        assert ref is not None
        assert float(c @ u) <= ref + 1e-6
        # and random feasible ball points never beat it
        for _ in range(200):
            y = rng.dirichlet(np.ones(n))
            y = x + (y - x) * min(1.0, rng.uniform() * r / max(np.linalg.norm(y - x), 1e-12))
            assert float(c @ u) <= float(c @ y) + 1e-8


@st.composite
def lloo_queries(draw):
    """(x, r, c) with n up to 120: few distinct costs, so ties are common, and
    -0.0 next to 0.0; x dense or sparse, with or without mass on argmin c,
    and with entries down to -1e-8, inside the query's 1e-7 tolerance; r from
    1e-4 to 10, or sized so that the budget binds inside the support."""
    n = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    levels = draw(st.integers(1, 4))
    c = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 2.0])[:levels + 1], size=n)
    target = int(np.argmin(c))
    x = rng.dirichlet(np.ones(n))
    empty = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.9]))
    empty[target] = draw(st.booleans())
    x[empty] = 0.0
    if x.sum() == 0.0:
        x[int(rng.integers(n))] = 1.0
    x /= x.sum()
    if draw(st.booleans()):
        below = (x == 0.0) & (rng.random(n) < 0.5)
        x[below] = -1e-8 * rng.random(int(below.sum()))
        x[int(np.argmax(x))] -= float(np.sum(x[below]))
    outside = float(np.sum(x[x > 0.0])) - max(float(x[target]), 0.0)
    if draw(st.booleans()) or outside == 0.0:
        r = 10.0 ** draw(st.floats(-4.0, 1.0))
    else:  # the budget min(1, sqrt(n) r / 2) is a fraction of the mass to drain
        r = 2.0 * draw(st.floats(0.01, 0.99)) * outside / math.sqrt(n)
    return x, r, c


# After the first coordinate 0.1 has moved, the second binds and takes
# 0.459 - 0.1, but 0.1 + (0.459 - 0.1) rounds below the budget 0.459 (n = 4,
# so the budget is r): the drain goes on into the third coordinate.
_ROUNDING_QUERY = (np.array([0.1, 0.4, 0.2, 0.3]), 0.459, np.array([3.0, 2.0, 1.0, 0.0]))


@settings(max_examples=300, deadline=None)
@given(query=lloo_queries())
@example(query=_ROUNDING_QUERY)
@example(query=(np.full(4, 0.25), 0.25, np.array([3.0, 2.0, 1.0, 0.0])))  # fills it exactly
def test_lloo_query_matches_the_sort_and_drain_reference_bit_for_bit(query):
    x, r, c = query
    n = x.size
    assert UnitSimplex(n).contains(x, tol=1e-7)
    lloo = SimplexLLOO(n)
    for _ in range(2):  # the simplex built once serves every query
        assert lloo.query(x, r, c).tobytes() == reference_lloo_query(n, x, r, c).tobytes()


def test_the_pinned_lloo_query_drains_past_the_binding_coordinate():
    x, r, c = _ROUNDING_QUERY
    assert 0.1 + (r - 0.1) < r
    u = reference_lloo_query(x.size, x, r, c)
    assert u[0] == 0.0 and 0.0 < u[2] < x[2]


# ---------------------------------------------------------------------------
# domain-boundary search
# ---------------------------------------------------------------------------

def test_max_feasible_step_full_domain():
    from conftest import QuadraticObjective
    obj = QuadraticObjective(3)
    assert max_feasible_step(obj.at(np.zeros(3)).restrict(np.ones(3))) == 1.0


def test_max_feasible_step_neg_log_bisection():
    # -log objective: boundary at x + t v hitting 0
    obj = NegLogObjective(1)
    t = max_feasible_step(obj.at(np.array([0.5])).restrict(np.array([-1.0])))
    assert t == pytest.approx(0.5, rel=1e-6)
    assert t < 0.5
    with pytest.raises(ValueError):
        max_feasible_step(obj.at(np.array([-0.5])).restrict(np.array([1.0])))


def test_max_feasible_step_portfolio_linear_rule():
    instance = portfolio_problem(np.array([[1.0]]))
    obj = instance.objective
    t = max_feasible_step(obj.at(np.array([0.5])).restrict(np.array([-1.0])))
    assert t == pytest.approx(0.5, rel=1e-6)
    assert t < 0.5
    # unconstrained direction hits the cap
    assert max_feasible_step(obj.at(np.array([0.5])).restrict(np.array([0.2]))) == 1.0


def test_max_feasible_step_covariance_eigen_rule_matches_bisection():
    rng = np.random.default_rng(8)
    sigma = covariance_generator(4, seed=3)
    obj = covariance_problem(sigma).objective
    x = np.eye(4)
    s = np.diag([3.0, -1.0, 0.5, 0.5])  # lambda_max(I - S) = 2 -> t just below 0.5
    t = obj.at(x).restrict(s - x).max_step()
    assert t == pytest.approx(0.5, rel=1e-6)
    assert t < 0.5

    def symmetric(shape):
        raw = rng.standard_normal(shape)
        return (raw + raw.T) / 2.0

    # the margin rule (portfolio, DWD) against bisection as well
    portfolio = portfolio_problem(portfolio_generator(30, 8, seed=3)).objective
    dwd = dwd_problem(synthetic_classification(12, 5, density=0.5, seed=3)).objective
    x_dwd = np.concatenate([np.zeros(6), 0.5 + rng.uniform(size=12)])
    cases = [(obj, x, symmetric), (portfolio, np.full(8, 1.0 / 8), rng.standard_normal),
             (dwd, x_dwd, rng.standard_normal)]
    for exact_obj, x0, direction in cases:
        capped = 0
        for _ in range(20):
            v = direction(x0.shape)
            exact = exact_obj.at(x0).restrict(v).max_step()
            # the generic line knows no boundary rule of the family: it bisects
            generic = max_feasible_step(Line(Point(exact_obj, x0), v))
            assert generic == pytest.approx(exact, abs=1e-6, rel=1e-5)
            capped += exact < 1.0
        assert capped > 0
