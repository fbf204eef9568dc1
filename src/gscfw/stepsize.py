"""Scalar step-size kernel shared by all solvers.

Every adaptive step in the package maximizes the concave merit
``psi(t) = t - xi * omega_nu(t * delta) * t^2`` for per-iterate parameters
(delta, xi).  The maximizer has a closed form on every branch, implemented
here with stable log1p/expm1 compositions (the raw expressions overflow or
cancel for extreme delta/xi ratios).
"""

from __future__ import annotations

import math

from .gsc import GscSpec, LocalGeometry, nu_branch, omega_kernel


def _check(delta: float, xi: float, nu: float) -> int:
    """Validate the step-size parameters and return the nu branch."""
    if delta < 0 or xi < 0:
        raise ValueError("delta and xi must be nonnegative")
    return nu_branch(nu)


def psi(delta: float, xi: float, nu: float, t: float) -> float:
    """psi(t) = t - xi * omega_nu(t*delta) * t^2 (concave in t)."""
    return _psi(delta, xi, nu, _check(delta, xi, nu), t)


def _psi(delta: float, xi: float, nu: float, branch: int, t: float) -> float:
    if xi == 0.0:
        return float(t)
    return t - xi * omega_kernel(nu, branch, t * delta) * t * t


def t_star(delta: float, xi: float, nu: float) -> float:
    """Unconstrained maximizer of psi.

    Branches: log(1 + delta/xi)/delta for nu = 2; 1/(delta + xi) for nu = 3;
    a power form in between.  Satisfies t_star * delta < 1 for nu in (2, 3]
    whenever xi > 0.  delta = 0 degenerates to 1/xi on every branch.
    """
    return _t_star(delta, xi, nu, _check(delta, xi, nu))


def _t_star(delta: float, xi: float, nu: float, branch: int) -> float:
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


def analytic_step(spec: GscSpec, geom: LocalGeometry, cap: float,
                  m: float | None = None) -> tuple[float, float]:
    """Analytic step rule: (alpha, predicted_decrease), with alpha the psi
    maximizer for delta = M * delta_nu(x) and xi = e(x)^2 / gap(x) clipped to
    the feasible cap; M is ``m`` if given (a backtracking trial), else spec.m,
    and nu's branch is the one ``spec`` classified when it was built.  The
    predicted decrease is gap * psi(alpha), which the two-sided descent bounds
    guarantee as actual decrease.  A zero-curvature direction (e = 0 with
    positive gap) takes the full cap: the quadratic penalty vanishes.
    """
    if not cap > 0.0:
        raise ValueError("cap must be positive")
    _, e, shape, gap = geom
    if gap <= 0.0:
        raise ValueError("converged: analytic step requires a positive gap")
    if e == 0.0:
        return cap, gap * cap
    delta, xi = (spec.m if m is None else m) * shape, e ** 2 / gap
    if delta < 0.0:  # xi >= 0 here, as gap > 0
        raise ValueError("delta and xi must be nonnegative")
    alpha = min(cap, _t_star(delta, xi, spec.nu, spec.branch))
    return alpha, max(gap * _psi(delta, xi, spec.nu, spec.branch, alpha), 0.0)
