"""The away-step active set against a dense reference built in the test from
``polytope.vertex``, on each polytope the library ships."""

import math

import numpy as np
import pytest

from gscfw import (ActiveSet, L1Ball, SolverConfig, SymmetricL1Ball, UnitSimplex, asfwgsc,
                   away_vertex, covariance_generator, covariance_problem, fwgsc, inner, solvers)
from gscfw.bench import build_problem, make_start


class CountingVertices:
    """A polytope that counts the atoms it is asked for."""

    def __init__(self, polytope):
        self.polytope, self.calls = polytope, []

    def __getattr__(self, name):
        return getattr(self.polytope, name)

    def atom(self, vid):
        self.calls.append(vid)
        return self.polytope.atom(vid)


# polytope, start weights, then (kind, id, alpha) updates: forward steps to
# new and to active ids, away steps, and a drop (alpha = w/(1-w) for the
# weight w the dense reference holds at that point)
CASES = {
    "simplex": (UnitSimplex(5), {3: 0.25, 0: 0.75},
                [("forward", 4, 0.3), ("forward", 0, 0.2), ("away", 3, 0.1),
                 ("forward", 1, 0.05), ("drop", 4, None), ("away", 0, 0.2)]),
    "l1": (L1Ball(4, 2.5), {(2, -1): 1.0},
           [("forward", (0, 1), 0.4), ("forward", (2, 1), 0.25), ("away", (0, 1), 0.1),
            ("drop", (2, -1), None), ("forward", (2, -1), 0.5)]),
    "symmetric-l1": (SymmetricL1Ball(3, 3.0), {(1, 1, 1): 0.5, (0, 2, -1): 0.5},
                     [("forward", (0, 1, 1), 0.3), ("away", (1, 1, 1), 0.2),
                      ("forward", (2, 2, -1), 0.1), ("drop", (0, 2, -1), None),
                      ("forward", (1, 1, 1), 0.6)]),
}


def _reference_step(weights, kind, vid, alpha):
    """The update on a {vertex_id: weight} dict, one vertex at a time."""
    if kind == "forward":
        weights = {v: w * (1.0 - alpha) for v, w in weights.items()}
        weights[vid] = weights.get(vid, 0.0) + alpha
    else:
        weights = {v: w * (1.0 + alpha) for v, w in weights.items()}
        weights[vid] -= alpha
    return {v: w for v, w in weights.items() if w >= 1e-12}


def _brute_force_away(polytope, weights, grad):
    scores = {vid: inner(grad, polytope.vertex(vid)) for vid in weights}
    best = max(scores.values())
    return min(vid for vid, score in scores.items() if score == best)


@pytest.mark.parametrize("name", sorted(CASES))
def test_active_set_matches_the_dense_reference(name):
    polytope, start, updates = CASES[name]
    counting = CountingVertices(polytope)
    active = ActiveSet(counting, start)
    reference = dict(start)
    rng = np.random.default_rng(3)
    for kind, vid, alpha in updates:
        if kind == "drop":
            mu = reference[vid]
            alpha = mu / (1.0 - mu)
        entered = vid not in active.rows
        counting.calls.clear()
        if kind == "forward":
            active.forward_update(vid, alpha)
        else:
            active.away_update(vid, alpha)
        reference = _reference_step(reference, kind, vid, alpha)
        # the polytope is asked for an atom only when its id enters
        assert counting.calls == ([vid] if entered else [])
        assert sorted(active.rows) == sorted(reference)
        assert (vid in active.rows) == (kind != "drop")
        for v in reference:
            assert active.weights[active.rows[v]] == pytest.approx(reference[v], rel=1e-14,
                                                                   abs=1e-15)
        assert math.fsum(active.weights) == pytest.approx(1.0, abs=1e-15)
        dense = sum(w * polytope.vertex(v) for v, w in reference.items())
        assert active.reconstruct().shape == dense.shape
        assert np.allclose(active.reconstruct(), dense, rtol=0.0, atol=1e-14)
        for _ in range(5):
            grad = rng.standard_normal(np.shape(dense))
            if grad.ndim == 2:
                grad = grad + grad.T
            uid, row, score = away_vertex(grad, active)
            assert uid == _brute_force_away(polytope, reference, grad)
            assert list(active.rows)[row] == uid
            # h g_a + h g_b is 2 h g_a, rounded once as the dense inner product
            # is, on the simplex and the l1 ball; off the diagonal two products add
            dense_score = inner(grad, polytope.vertex(uid))
            if name == "symmetric-l1":
                assert score == pytest.approx(dense_score, rel=1e-15, abs=0.0)
            else:
                assert score == dense_score


@pytest.mark.parametrize("polytope, first, later, grad", [
    (UnitSimplex(4), 3, 1, np.array([0.0, 2.0, -1.0, 2.0])),
    (L1Ball(3, 2.0), (2, 1), (0, -1), np.array([-1.0, 0.0, 1.0])),
    (SymmetricL1Ball(2, 2.0), (1, 1, 1), (0, 1, 1), np.array([[0.0, 1.0], [1.0, 1.0]])),
], ids=["simplex", "l1", "symmetric-l1"])
def test_away_vertex_breaks_an_exact_tie_by_the_lowest_id(polytope, first, later, grad):
    # the lower id enters after the higher one, so entry order would pick wrong
    assert later < first
    active = ActiveSet(polytope, {first: 1.0})
    active.forward_update(later, 0.5)
    assert list(active.rows) == [first, later]
    assert inner(grad, polytope.vertex(first)) == inner(grad, polytope.vertex(later))
    assert away_vertex(grad, active)[0] == later


def test_a_weight_below_the_purge_tolerance_removes_its_id():
    simplex = UnitSimplex(3)
    assert list(ActiveSet(simplex, {0: 1.0, 1: 5e-13}).rows) == [0]
    active = ActiveSet(simplex, {0: 0.5, 2: 0.5})
    active.away_update(2, 1.0 - 1e-13)  # 0.5 (2 - 1e-13) - (1 - 1e-13) = 5e-14
    assert list(active.rows) == [0]
    assert 2 not in active.rows
    assert np.array_equal(active.reconstruct(), simplex.vertex(0))
    assert active.pairs.tolist() == [[0, 0]] and active.heights.tolist() == [0.5]


@pytest.mark.parametrize("weights", [{}, {0: 0.0}, {0: 1e-13, 1: -1.0}, {0: math.nan}],
                         ids=["empty", "zero", "below-tolerance", "nan"])
def test_a_start_without_mass_raises(weights):
    with pytest.raises(ValueError, match="lost all mass"):
        ActiveSet(UnitSimplex(2), weights)


def test_an_update_that_loses_all_mass_raises():
    active = ActiveSet(UnitSimplex(2), {0: 0.5, 1: 0.5})
    with pytest.raises(ValueError, match="lost all mass"):
        active.forward_update(0, math.nan)


@pytest.mark.parametrize("spec", [{"name": "covariance", "p": 5, "seed": 2},
                                  {"name": "portfolio", "p": 20, "n": 6, "seed": 2},
                                  {"name": "logistic", "p": 40, "n": 8, "seed": 2}],
                         ids=lambda spec: spec["name"])
def test_asfwgsc_leaves_the_callers_start_unchanged(spec):
    inst = build_problem(spec)
    _, start = make_start(inst, start_seed=4)
    before = dict(start)
    trace = asfwgsc(inst.objective, inst.feasible_set, start,
                    SolverConfig(epsilon=1e-12, max_iter=60))
    assert any(rec.step_kind != "forward" for rec in trace.iterations)
    assert list(start.items()) == list(before.items())


@pytest.mark.parametrize("start", [{(-1, 1): 1.0}, {(0, 0.5): 1.0}, {(12, 1): 1.0},
                                   {(0, 1): 0.5, (12, -1): 0.5}],
                         ids=["negative-index", "half-sign", "index-n", "one-of-two"])
def test_asfwgsc_rejects_a_start_id_that_names_no_vertex(start):
    # (-1, 1) would alias (11, 1), and (0, 0.5) is a point at half the radius
    inst = build_problem({"name": "logistic", "p": 60, "n": 12, "seed": 3})
    with pytest.raises(ValueError, match="no vertex has id"):
        asfwgsc(inst.objective, inst.feasible_set, start, SolverConfig(epsilon=1e-12, max_iter=200))


class RecordingBall(SymmetricL1Ball):
    """A symmetric l1 ball that records the vertex ids its oracle answers."""

    def __init__(self, p, radius):
        super().__init__(p, radius)
        self.picks = []

    def lmo_indexed(self, c, symmetric=False):
        vid, s = super().lmo_indexed(c, symmetric)
        self.picks.append(vid)
        return vid, s


def test_covariance_runs_off_the_diagonal_at_a_large_radius(monkeypatch):
    # At the default radius ceil(sqrt(p)) every oracle answer is diagonal;
    # at R = 9 with p = 6 both solvers pick off-diagonal vertices, which
    # exercises the two-eigenvalue line, the rank-two inverse update and the
    # off-diagonal atoms.
    inst = covariance_problem(covariance_generator(6, 11), radius=9.0)
    x0, start = make_start(inst, 1)
    config = SolverConfig(epsilon=1e-12, max_iter=200)

    ball = RecordingBall(6, 9.0)
    trace = fwgsc(inst.objective, ball, x0, config)
    assert sum(i < j for i, j, _ in ball.picks) >= 5
    fs = trace.f_values()
    for k, rec in enumerate(trace.iterations):
        assert fs[k] - fs[k + 1] >= rec.predicted_decrease - 1e-9 * (1.0 + abs(fs[k]))

    made = []

    class KeptActiveSet(ActiveSet):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(solvers, "ActiveSet", KeptActiveSet)
    ball = RecordingBall(6, 9.0)
    trace = asfwgsc(inst.objective, ball, start, config)
    assert sum(i < j for i, j, _ in ball.picks) >= 20
    assert any(rec.step_kind != "forward" for rec in trace.iterations)
    [active] = made
    assert any(i < j for i, j, _ in active.rows)
    assert trace.meta["active_set_max_drift"] <= 1e-12
    assert np.allclose(active.reconstruct(), trace.x, rtol=0.0, atol=1e-12)
