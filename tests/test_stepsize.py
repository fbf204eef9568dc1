import math

import numpy as np
import pytest

from gscfw import GscSpec, LocalGeometry, delta_nu
from gscfw.gsc import nu_branch
from gscfw.stepsize import analytic_step, psi, t_star

from conftest import gamma_tilde, numeric_psi_max, psi_at_tstar, psi_lower_bound

LN2 = math.log(2.0)


def test_psi_frozen_values():
    assert psi(1.0, 1.0, 3.0, 0.0) == 0.0
    assert psi(2.0, 0.0, 2.5, 0.7) == pytest.approx(0.7)
    # nu = 3: psi(t) = t + xi (t d + log(1 - t d)) / d^2
    assert psi(1.0, 1.0, 3.0, 0.5) == pytest.approx(0.5 + 0.5 + math.log(0.5), rel=1e-12)
    with pytest.raises(ValueError):
        psi(1.0, 1.0, 3.0, 1.5)


def test_t_star_frozen_values():
    assert t_star(1.0, 1.0, 3.0) == pytest.approx(0.5)
    assert t_star(1.0, 1.0, 2.0) == pytest.approx(LN2, rel=1e-12)
    assert t_star(1.0, 1.0, 2.5) == pytest.approx(1.0 - 4.0 ** (-1.0 / 3.0), rel=1e-12)


def test_t_star_degenerate_parameters():
    with pytest.raises(ValueError):
        t_star(0.0, 0.0, 2.5)
    for nu in (2.0, 2.5, 3.0):
        assert t_star(0.0, 4.0, nu) == pytest.approx(0.25)
    # delta -> 0 limit is approached smoothly
    for nu in (2.0, 2.5):
        assert t_star(1e-12, 4.0, nu) == pytest.approx(0.25, rel=1e-9)
    assert t_star(1.0, 0.0, 2.0) == math.inf
    assert t_star(2.0, 0.0, 2.5) == pytest.approx(0.5)


def test_t_star_and_psi_reject_bad_parameters():
    for delta, xi, nu in ((-1.0, 1.0, 2.5), (1.0, -1.0, 2.5), (1.0, 1.0, 1.9), (1.0, 1.0, 3.1)):
        with pytest.raises(ValueError):
            t_star(delta, xi, nu)
        with pytest.raises(ValueError):
            psi(delta, xi, nu, 0.5)


def test_t_star_matches_numeric_maximizer_sample():
    rng = np.random.default_rng(10)
    for _ in range(300):
        dl = 10.0 ** rng.uniform(-3, 3)
        xi = 10.0 ** rng.uniform(-3, 3)
        nu = float(rng.uniform(2.0, 3.0))
        if rng.random() < 0.25:
            nu = float(rng.choice([2.0, 3.0]))
        ts = t_star(dl, xi, nu)
        approx = numeric_psi_max(dl, xi, nu)
        assert abs(approx - ts) <= 1e-8 * (1.0 + ts)
        # local maximality (upper probe only while it stays inside the domain)
        if nu_branch(nu) == 2 or ts * (1 + 1e-4) * dl < 1.0:
            assert psi(dl, xi, nu, ts) >= psi(dl, xi, nu, ts * (1 + 1e-4)) - 1e-15
        assert psi(dl, xi, nu, ts) >= psi(dl, xi, nu, ts * (1 - 1e-4)) - 1e-15


def test_psi_at_tstar_frozen_values():
    assert psi_at_tstar(1.0, 1.0, 3.0) == pytest.approx(1.0 - LN2, rel=1e-12)
    assert psi_at_tstar(1.0, 1.0, 2.0) == pytest.approx(2.0 * LN2 - 1.0, rel=1e-12)
    with pytest.raises(ValueError):
        psi_at_tstar(1.0, 0.0, 3.0)


def test_psi_closed_form_matches_evaluation():
    rng = np.random.default_rng(11)
    for _ in range(400):
        dl = 10.0 ** rng.uniform(-3, 3)
        xi = 10.0 ** rng.uniform(-3, 3)
        nu = float(rng.uniform(2.0, 3.0))
        if rng.random() < 0.25:
            nu = float(rng.choice([2.0, 3.0]))
        direct = psi(dl, xi, nu, t_star(dl, xi, nu))
        closed = psi_at_tstar(dl, xi, nu)
        assert abs(direct - closed) <= 1e-10 * abs(closed)


def test_lower_bound_holds_and_is_tight_at_unit_ratio():
    assert psi_lower_bound(1.0, 1.0, 2.0) == pytest.approx(2.0 * LN2 - 1.0, rel=1e-12)
    assert psi_lower_bound(1.0, 1.0, 3.0) == pytest.approx(1.0 - LN2, rel=1e-12)
    rng = np.random.default_rng(12)
    for _ in range(500):
        dl = 10.0 ** rng.uniform(-3, 3)
        xi = 10.0 ** rng.uniform(-3, 3)
        nu = float(rng.uniform(2.0, 3.0))
        if rng.random() < 0.25:
            nu = float(rng.choice([2.0, 3.0]))
        assert psi_lower_bound(dl, xi, nu) <= psi_at_tstar(dl, xi, nu) * (1.0 + 1e-9)
    with pytest.raises(ValueError):
        psi_lower_bound(0.0, 1.0, 2.5)


def test_gamma_tilde_limit():
    assert gamma_tilde(3.0 - 1e-9) == pytest.approx(1.0 - LN2, abs=1e-6)
    for nu in (2.2, 2.5, 2.8, 2.999):
        assert 0.0 < gamma_tilde(nu) < 1.0
    assert gamma_tilde(2.0) == 0.0


def test_half_gap_rule():
    # whenever the unconstrained maximizer exceeds 1, psi(1) >= 1/2
    rng = np.random.default_rng(13)
    hit = 0
    for _ in range(3000):
        dl = 10.0 ** rng.uniform(-3, 1)
        xi = 10.0 ** rng.uniform(-3, 1)
        nu = float(rng.uniform(2.0, 3.0))
        if t_star(dl, xi, nu) > 1.0:
            hit += 1
            assert psi(dl, xi, nu, 1.0) >= 0.5 - 1e-12
    assert hit > 100


def test_feasibility_margin():
    rng = np.random.default_rng(14)
    for _ in range(2000):
        dl = 10.0 ** rng.uniform(-3, 3)
        xi = 10.0 ** rng.uniform(-3, 3)
        nu = float(rng.uniform(2.0, 3.0))
        if rng.random() < 0.3:
            nu = 3.0
        assert t_star(dl, xi, nu) * dl < 1.0


def test_m_monotonicity_of_analytic_step():
    # a larger constant can never produce a larger step at fixed geometry
    rng = np.random.default_rng(15)
    for _ in range(300):
        nu = float(rng.uniform(2.0, 3.0))
        beta, e = rng.uniform(0.05, 4.0, size=2)
        gap = float(10.0 ** rng.uniform(-4, 2))
        geom = lambda m: LocalGeometry(beta=float(beta), e=float(e),
                                       delta=delta_nu(GscSpec(m, nu), float(beta), float(e)),
                                       gap=gap)
        m1, m2 = sorted(rng.uniform(0.01, 10.0, size=2))
        a1 = analytic_step(GscSpec(float(m1), nu), geom(float(m1)), cap=1.0)[0]
        a2 = analytic_step(GscSpec(float(m2), nu), geom(float(m2)), cap=1.0)[0]
        assert a1 >= a2 - 1e-12


def test_nu_continuity_along_geometry_path():
    # fixed (beta, e, gap, M); the step must be continuous in nu at both ends
    beta, e, gap, m = 0.8, 1.1, 0.6, 1.4

    def step(nu):
        spec = GscSpec(m, nu)
        geom = LocalGeometry(beta=beta, e=e, delta=delta_nu(spec, beta, e), gap=gap)
        return analytic_step(spec, geom, cap=math.inf)[0]  # uncapped comparison

    assert step(2.0 + 1e-7) == pytest.approx(step(2.0), rel=1e-4)
    assert step(3.0 - 1e-7) == pytest.approx(step(3.0), rel=1e-4)


def test_analytic_step_examples():
    # M = 2, nu = 3, e = 1, gap = 1: delta = M * e/2 = 1, xi = 1 -> alpha = 1/2
    spec = GscSpec(2.0, 3.0)
    geom = LocalGeometry(beta=1.0, e=1.0, delta=delta_nu(spec, 1.0, 1.0), gap=1.0)
    alpha, predicted = analytic_step(spec, geom, cap=1.0)
    assert alpha == pytest.approx(0.5)
    assert predicted == pytest.approx(psi(1.0, 1.0, 3.0, 0.5), rel=1e-12)

    # huge gap relative to e^2 drives the maximizer past the cap
    spec2 = GscSpec(1.0, 2.0)
    geom2 = LocalGeometry(beta=1e-3, e=1e-3, delta=1e-3, gap=1e6)
    assert analytic_step(spec2, geom2, cap=1.0)[0] == 1.0

    # nu = 2 with delta = xi = 1
    spec3 = GscSpec(1.0, 2.0)
    geom3 = LocalGeometry(beta=1.0, e=1.0, delta=1.0, gap=1.0)
    assert analytic_step(spec3, geom3, cap=1.0)[0] == pytest.approx(LN2)


def test_analytic_step_signals():
    spec = GscSpec(1.0, 3.0)
    with pytest.raises(ValueError):
        analytic_step(spec, LocalGeometry(1.0, 1.0, 0.5, 0.0), cap=1.0)
    alpha, predicted = analytic_step(spec, LocalGeometry(1.0, 0.0, 0.0, 2.0), cap=1.0)
    assert alpha == 1.0
    assert predicted == pytest.approx(2.0)
    # feasibility of the capped step for nu > 2
    alpha2, _ = analytic_step(GscSpec(4.0, 2.5), LocalGeometry(0.5, 2.0, delta_nu(GscSpec(4.0, 2.5), 0.5, 2.0), 1.0), cap=1.0)
    assert alpha2 * 4.0 * delta_nu(GscSpec(4.0, 2.5), 0.5, 2.0) < 1.0
