"""Scalar step-size kernel shared by all solvers.

Every adaptive step in the package maximizes the concave merit
``psi(t) = t - xi * omega_nu(t * delta) * t^2`` for per-iterate parameters
(delta, xi).  The maximizer has a closed form on every branch, implemented
here with stable log1p/expm1 compositions (the raw expressions overflow or
cancel for extreme delta/xi ratios).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gsc import GscSpec, LocalGeometry, nu_branch, omega


@dataclass(frozen=True)
class PsiParams:
    """Abstract step-size problem: maximize t - xi * omega_nu(t*delta) * t^2."""

    delta: float
    xi: float
    nu: float

    def __post_init__(self):
        if self.delta < 0 or self.xi < 0:
            raise ValueError("delta and xi must be nonnegative")
        nu_branch(self.nu)

    @property
    def branch(self) -> int:
        return nu_branch(self.nu)


@dataclass(frozen=True)
class StepDecision:
    """Outcome of the analytic step rule: alpha = min(cap, t_star)."""

    alpha: float
    predicted_decrease: float


def psi(params: PsiParams, t: float) -> float:
    """psi(t) = t - xi * omega_nu(t*delta) * t^2 (concave in t)."""
    if params.xi == 0.0:
        return float(t)
    return t - params.xi * omega(params.nu, t * params.delta) * t * t


def t_star(params: PsiParams) -> float:
    """Unconstrained maximizer of psi.

    Branches: log(1 + delta/xi)/delta for nu = 2; 1/(delta + xi) for nu = 3;
    a power form in between.  Satisfies t_star * delta < 1 for nu in (2, 3]
    whenever xi > 0.  delta = 0 degenerates to 1/xi on every branch.
    """
    dl, xi = params.delta, params.xi
    if dl == 0.0 and xi == 0.0:
        raise ValueError("t_star undefined when both delta and xi vanish")
    branch = params.branch
    if branch == 3:
        return 1.0 / (dl + xi)
    if dl == 0.0:
        return 1.0 / xi
    if branch == 2:
        if xi == 0.0:
            return math.inf
        return math.log1p(dl / xi) / dl
    # interior: (1/delta) * (1 - (1 + B*u)^(-q)), B = (4-nu)/(nu-2), q = 1/B
    if xi == 0.0:
        return 1.0 / dl
    nu = params.nu
    big_b = (4.0 - nu) / (nu - 2.0)
    q = 1.0 / big_b
    u = dl / xi
    return -math.expm1(-q * math.log1p(big_b * u)) / dl


def analytic_step(spec: GscSpec, geom: LocalGeometry, cap: float) -> StepDecision:
    """Analytic step rule: clip the psi maximizer to the feasible cap.

    Parameters are delta = M * delta_nu(x) and xi = e(x)^2 / gap(x).  The
    predicted decrease is gap * psi(alpha), which the two-sided descent
    bounds guarantee as actual decrease.  A zero-curvature direction (e = 0
    with positive gap) takes the full cap: the quadratic penalty vanishes
    and psi reduces to t.
    """
    if not cap > 0.0:
        raise ValueError("cap must be positive")
    if geom.gap <= 0.0:
        raise ValueError("converged: analytic step requires a positive gap")
    if geom.e == 0.0:
        return StepDecision(alpha=cap, predicted_decrease=geom.gap * cap)
    params = PsiParams(delta=spec.m * geom.delta, xi=geom.e ** 2 / geom.gap, nu=spec.nu)
    ts = t_star(params)
    alpha = min(cap, ts)
    predicted = geom.gap * psi(params, alpha)
    return StepDecision(alpha=alpha, predicted_decrease=max(predicted, 0.0))
