"""Scalar step-size kernel shared by all solvers.

Every adaptive step in the package maximizes the concave merit
``psi(t) = t - xi * omega_nu(t * delta) * t^2`` for per-iterate parameters
(delta, xi).  The maximizer, its value, and a branch-wise lower bound all
have closed forms, implemented here with stable log1p/expm1 compositions
(the raw expressions overflow or cancel for extreme delta/xi ratios).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gsc import GscSpec, LocalGeometry, nu_branch, omega

_LN2 = math.log(2.0)


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


def _alternating_series(u: float, ratio) -> float:
    # sum_{k>=1} term_k with term_1 = ratio-seeded and term_{k+1} = term_k * ratio(k)
    term = ratio(0) * u
    total = 0.0
    k = 1
    while abs(term) > 1e-18 * (abs(total) + 1e-300) and k < 200:
        total += term
        term *= ratio(k) * u
        k += 1
    return total


def psi_at_tstar(params: PsiParams) -> float:
    """Closed-form optimal value psi(t_star).

    Small delta/xi ratios cancel catastrophically in the raw closed forms;
    below a branch-scaled threshold the value is summed as a power series
    in the ratio instead.
    """
    dl, xi = params.delta, params.xi
    if xi == 0.0:
        raise ValueError("psi is unbounded when xi = 0")
    if dl == 0.0:
        return 1.0 / (2.0 * xi)
    branch = params.branch
    u = dl / xi
    if branch == 2:
        # (1/delta) * ((1 + xi/delta) log(1 + delta/xi) - 1)
        if u < 0.5:
            # sum (-1)^(k+1) u^k / (k (k+1))
            g = _alternating_series(u, lambda k: 0.5 if k == 0 else -k / (k + 2.0))
        else:
            g = (1.0 + 1.0 / u) * math.log1p(u) - 1.0
        return g / dl
    if branch == 3:
        # (1/delta) * (1 - (xi/delta) log(1 + delta/xi))
        if u < 0.5:
            # sum (-1)^(k+1) u^k / (k+1)
            g = _alternating_series(u, lambda k: 0.5 if k == 0 else -(k + 1.0) / (k + 2.0))
        else:
            g = 1.0 - math.log1p(u) / u
        return g / dl
    nu = params.nu
    big_b = (4.0 - nu) / (nu - 2.0)
    theta = 2.0 * (3.0 - nu) / (4.0 - nu)  # in (0, 1)
    x = big_b * u
    if x < 0.5:
        # psi* delta = -sum_{j>=1} [prod_{i=1..j} (theta-i) / (j+1)!] x^j
        g = -_alternating_series(
            x, lambda j: (theta - 1.0) / 2.0 if j == 0 else (theta - j - 1.0) / (j + 2.0))
    else:
        # 1 - ((1+x)^theta - 1) / (theta x)
        g = 1.0 - math.expm1(theta * math.log1p(x)) / (theta * x)
    return g / dl


def gamma_tilde(nu: float) -> float:
    """Interior-branch progress constant; tends to 1 - ln 2 as nu -> 3."""
    branch = nu_branch(nu)
    if branch == 3:
        return 1.0 - _LN2
    if branch == 2:
        return 0.0
    s = 3.0 - nu
    return 1.0 - (4.0 - nu) / (2.0 * s) * math.expm1(2.0 * s * _LN2 / (4.0 - nu))


def psi_lower_bound(params: PsiParams) -> float:
    """Branch-wise lower bound on psi(t_star); tight at delta = xi."""
    dl, xi = params.delta, params.xi
    if not (dl > 0.0 and xi > 0.0):
        raise ValueError("lower bound requires delta > 0 and xi > 0")
    branch = params.branch
    if branch == 2:
        return (2.0 * _LN2 - 1.0) / dl * min(1.0, dl / xi)
    if branch == 3:
        return (1.0 - _LN2) / dl * min(1.0, dl / xi)
    nu = params.nu
    ratio = (dl / xi) * (4.0 - nu) / (nu - 2.0)
    return gamma_tilde(nu) / dl * min(1.0, ratio)


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


def progress_constants(m: float, nu: float, diam: float, l_grad: float):
    """Diagnostic constants (c1, c2) for the per-iteration decrease bound
    Delta_k >= min{c1 * gap, c2 * gap^2}; used by sublinear-rate checks."""
    branch = nu_branch(nu)
    if branch == 2:
        c1_raw = math.inf if m * diam == 0 else (2.0 * _LN2 - 1.0) / (m * diam)
        c2 = (2.0 * _LN2 - 1.0) / (l_grad * diam * diam)
    elif branch == 3:
        denom = m * math.sqrt(l_grad) * diam
        c1_raw = math.inf if denom == 0 else 2.0 * (1.0 - _LN2) / denom
        c2 = 2.0 * (1.0 - _LN2) / (l_grad * diam * diam)
    else:
        denom = diam * (nu / 2.0 - 1.0) * m * l_grad ** ((nu - 2.0) / 2.0)
        c1_raw = math.inf if denom == 0 else gamma_tilde(nu) / denom
        c2 = (4.0 - nu) / (nu - 2.0) * gamma_tilde(nu) / (diam * diam * l_grad)
    return min(0.5, c1_raw), c2
