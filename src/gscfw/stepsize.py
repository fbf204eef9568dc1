"""Scalar step-size kernel shared by all solvers.

Every adaptive step in the package maximizes the concave merit
``psi(t) = t - xi * omega_nu(t * delta) * t^2`` for per-iterate parameters
(delta, xi).  The maximizer has a closed form on every branch, implemented
here with stable log1p/expm1 compositions (the raw expressions overflow or
cancel for extreme delta/xi ratios).
"""

from __future__ import annotations

import math

from .gsc import GscSpec, LocalGeometry, nu_branch, omega


def _check(delta: float, xi: float, nu: float) -> int:
    """Validate the step-size parameters and return the nu branch."""
    if delta < 0 or xi < 0:
        raise ValueError("delta and xi must be nonnegative")
    return nu_branch(nu)


def psi(delta: float, xi: float, nu: float, t: float) -> float:
    """psi(t) = t - xi * omega_nu(t*delta) * t^2 (concave in t)."""
    _check(delta, xi, nu)
    if xi == 0.0:
        return float(t)
    return t - xi * omega(nu, t * delta) * t * t


def t_star(delta: float, xi: float, nu: float) -> float:
    """Unconstrained maximizer of psi.

    Branches: log(1 + delta/xi)/delta for nu = 2; 1/(delta + xi) for nu = 3;
    a power form in between.  Satisfies t_star * delta < 1 for nu in (2, 3]
    whenever xi > 0.  delta = 0 degenerates to 1/xi on every branch.
    """
    branch = _check(delta, xi, nu)
    if delta == 0.0 and xi == 0.0:
        raise ValueError("t_star undefined when both delta and xi vanish")
    if branch == 3:
        return 1.0 / (delta + xi)
    if delta == 0.0:
        return 1.0 / xi
    if branch == 2:
        if xi == 0.0:
            return math.inf
        return math.log1p(delta / xi) / delta
    # interior: (1/delta) * (1 - (1 + B*u)^(-q)), B = (4-nu)/(nu-2), q = 1/B
    if xi == 0.0:
        return 1.0 / delta
    big_b = (4.0 - nu) / (nu - 2.0)
    q = 1.0 / big_b
    u = delta / xi
    return -math.expm1(-q * math.log1p(big_b * u)) / delta


def analytic_step(spec: GscSpec, geom: LocalGeometry, cap: float) -> tuple[float, float]:
    """Analytic step rule: (alpha, predicted_decrease), with alpha the psi
    maximizer for delta = M * delta_nu(x) and xi = e(x)^2 / gap(x) clipped to
    the feasible cap.  The predicted decrease is gap * psi(alpha), which the
    two-sided descent bounds guarantee as actual decrease.  A zero-curvature
    direction (e = 0 with positive gap) takes the full cap: the quadratic
    penalty vanishes and psi reduces to t.
    """
    if not cap > 0.0:
        raise ValueError("cap must be positive")
    if geom.gap <= 0.0:
        raise ValueError("converged: analytic step requires a positive gap")
    if geom.e == 0.0:
        return cap, geom.gap * cap
    delta, xi = spec.m * geom.delta, geom.e ** 2 / geom.gap
    alpha = min(cap, t_star(delta, xi, spec.nu))
    return alpha, max(geom.gap * psi(delta, xi, spec.nu, alpha), 0.0)
