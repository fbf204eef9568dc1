"""Generalized self-concordance kernels, local geometry, step sizes, and constant calculus.

A convex C^3 function f is (M, nu)-generalized self-concordant (GSC) when its
third derivative along any direction is controlled by the power nu/2 of the
second.  Steps are sized here, from the scalar kernel ``omega`` and the
direction shape factor ``delta_nu``: the analytic step maximizes
``psi(t) = t - xi * omega_nu(t * delta) * t^2`` in closed form,
``max_feasible_step`` bounds a step by dom f, and one ``bisect`` serves the
exact line search and the generic ``Line``'s domain boundary.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Branch snapping: interior-branch exponents blow up at the endpoints.
NU_BRANCH_TOL = 1e-9


def inner(a, b) -> float:
    """Inner product of two arrays of the same size, vectors or (symmetric) matrices.

    For matrices this is the Frobenius inner product, which matches tr(AB)
    on symmetric pairs.  It rounds as ``np.vdot`` does, one Python call sooner.
    """
    return float(a.ravel().dot(b.ravel()))


def l2_norm(a) -> float:
    return math.sqrt(float(np.vdot(a, a)))  # +inf on overflow, without ndarray.dot's warning


def nu_branch(nu: float) -> int:
    """Classify nu as 2 (exactly-2 branch), 3 (exactly-3), or 0 (interior)."""
    if abs(nu - 2.0) < NU_BRANCH_TOL:
        return 2
    if abs(nu - 3.0) < NU_BRANCH_TOL:
        return 3
    if 2.0 < nu < 3.0:
        return 0
    raise ValueError(f"nu must lie in [2, 3], got {nu}")


@dataclass(frozen=True)
class GscSpec:
    """The pair (M, nu) classifying a generalized self-concordant objective,
    with nu's ``branch`` (see ``nu_branch``) classified once, here."""

    m: float
    nu: float
    branch: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.m >= 0.0:
            raise ValueError(f"GSC constant must be nonnegative, got {self.m}")
        object.__setattr__(self, "m", float(self.m))  # a numpy scalar would slow every step
        object.__setattr__(self, "branch", nu_branch(self.nu))  # validates the range


# ---------------------------------------------------------------------------
# The kernel omega_nu
# ---------------------------------------------------------------------------

def _omega_taylor_coeffs(nu: float, branch: int):
    # omega(t) = 1/2 + c1 t + c2 t^2 + c3 t^3 + O(t^4) around 0.
    if branch == 2:
        return 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0
    if branch == 3:
        return 1.0 / 3.0, 1.0 / 4.0, 1.0 / 5.0
    m = 2.0 / (2.0 - nu)  # negative
    return -m / 6.0, m * (m - 1.0) / 24.0, -m * (m - 1.0) * (m - 2.0) / 120.0


def omega(nu: float, t: float) -> float:
    """The GSC curvature weight omega_nu(t); continuous at 0 with value 1/2.

    Branches: (e^t - t - 1)/t^2 for nu = 2, (-t - ln(1-t))/t^2 for nu = 3,
    and a power form for interior nu.  For nu > 2 the argument must satisfy
    t < 1.  Near t = 0 the raw expressions lose all precision, so a cubic
    Taylor expansion takes over inside a branch-scaled radius.
    """
    return omega_kernel(nu, nu_branch(nu), t)


def omega_kernel(nu: float, branch: int, t: float) -> float:
    """``omega`` for a nu already classified as ``branch``, unchecked."""
    t = float(t)
    if branch != 2 and t >= 1.0:
        raise ValueError(f"omega with nu={nu} requires t < 1, got {t}")

    if branch == 0:
        m = 2.0 / (2.0 - nu)
        near_zero = abs(t * m) < 1e-4
    else:
        near_zero = abs(t) < 1e-4
    if near_zero:
        c1, c2, c3 = _omega_taylor_coeffs(nu, branch)
        return 0.5 + t * (c1 + t * (c2 + t * c3))

    if branch == 2:
        try:
            return (math.expm1(t) - t) / (t * t)
        except OverflowError:
            return math.inf
    if branch == 3:
        return (-t - math.log1p(-t)) / (t * t)
    c_out = (nu - 2.0) / (4.0 - nu)
    d_in = (nu - 2.0) / (2.0 * (3.0 - nu))
    p_exp = 2.0 * (3.0 - nu) / (2.0 - nu)  # negative
    try:
        grown = math.expm1(p_exp * math.log1p(-t))  # (1-t)^p - 1, stable
    except OverflowError:
        # the power term exceeds float range (nu near 2 with t not small)
        return math.inf
    return (c_out / t) * ((d_in / t) * grown - 1.0)


# ---------------------------------------------------------------------------
# Distance-like quantities
# ---------------------------------------------------------------------------

def delta_nu(spec: GscSpec, beta: float, e: float) -> float:
    """Direction shape factor: beta for nu = 2, ((nu-2)/2) beta^(3-nu) e^(nu-2)
    for nu > 2.  The paper's distance-like d_nu(x, x + t*v) is t * M * delta_nu(x)."""
    if beta < 0 or e < 0:
        raise ValueError("norms must be nonnegative")
    branch = spec.branch
    if branch == 2:
        return beta
    if beta == 0.0 or e == 0.0:
        return 0.0
    if branch == 3:
        return 0.5 * e
    nu = spec.nu
    return 0.5 * (nu - 2.0) * beta ** (3.0 - nu) * e ** (nu - 2.0)


# ---------------------------------------------------------------------------
# Objective contract and per-iterate geometry
# ---------------------------------------------------------------------------

class Objective(ABC):
    """Evaluation contract for a GSC objective.

    The solvers ask for Hessian-vector products only, except that fwlloo
    without a sigma_f takes the smallest eigenvalue of ``hessian(x0)``; no
    factorization of the Hessian is ever required.  Implementations must be
    immutable after construction so that concurrent read-only evaluation
    from several solver instances is safe.

    ``at(x)`` is the evaluation cache the solvers work through: a ``Point``
    that serves f(x) and the gradient, and restricts f to lines through x.
    The default is built from the four oracles below; a family overrides it
    to compute once what all of them need at x (margins, a factorization).
    """

    spec: GscSpec
    dimension: int
    name: str = "objective"

    @abstractmethod
    def value(self, x) -> float:
        """f(x); +inf outside the effective domain."""

    @abstractmethod
    def gradient(self, x):
        ...

    @abstractmethod
    def hess_vec(self, x, v):
        """The product (grad^2 f(x)) v."""

    @abstractmethod
    def in_domain(self, x) -> bool:
        ...

    def hessian(self, x):
        """The n x n Hessian at x, by default column by column from hess_vec."""
        n, shape = np.size(x), np.shape(x)
        return np.column_stack([np.ravel(self.hess_vec(x, np.eye(1, n, i).reshape(shape)))
                                for i in range(n)])

    def max_step(self, x, v):
        """Exact sup{t in (0,1] : x + t v in dom f} when cheaply available.

        The generic ``Line`` asks this hook, so it serves objectives without
        a line of their own.  Return None to fall back on bisection.
        """
        return None

    def at(self, x) -> "Point":
        """The evaluation cache at x, owned by the caller."""
        return Point(self, x)


class Point:
    """An iterate x with f(x) and the gradient, each computed at most once.

    A point is a value the solver run owns, never state of the objective.
    This generic point calls the objective's own oracles; families subclass
    it to keep what their oracles share.  Points are built on every step, so
    a subclass sets all its slots in its own ``__init__``, with no chained
    ``super().__init__``, and its methods call ndarray methods (``a.sum()``,
    ``a.argmax()``) or a ufunc's ``reduce``, not numpy's module wrappers,
    which reach the same kernels through one more Python call.
    """

    __slots__ = ("obj", "x", "_f", "_g")

    def __init__(self, obj: Objective, x):
        self.obj, self.x, self._f, self._g = obj, x, None, None

    def value(self) -> float:
        if self._f is None:
            self._f = self.obj.value(self.x)
        return self._f

    def gradient(self):
        if self._g is None:
            self._g = self.obj.gradient(self.x)
        return self._g

    def restrict(self, v) -> "Line":
        """phi(t) = f(x + t v)."""
        return Line(self, v)

    def toward(self, s) -> "Line":
        """The line toward s, v = s - x; a step away from s is a negative t."""
        return self.restrict(s - self.x)

    def toward_atom(self, a, b, h) -> "Line":
        """The line toward s = h (e_a + e_b) over x's flat indices; families skip forming s."""
        return self.toward(np.bincount((a, b), (h, h), self.x.size).reshape(self.x.shape))


def pull_back(t_raw: float) -> float:
    """A step just inside a domain boundary met at t_raw: shrunk by 1e-7
    relative, capped at 1."""
    t = t_raw * (1.0 - 1e-7)
    return 1.0 if t >= 1.0 else t


def bisect(below, hi: float, width: float) -> tuple[float, float]:
    """The bracket (lo, hi) in which ``below`` turns False, halved from (0, hi)
    until no wider than ``width``; ``below`` holds at 0 and fails at hi."""
    lo = 0.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


class Line:
    """The restriction phi(t) = f(x + t v) of f to one line through a point.

    ``value(t)`` is +inf outside dom f, ``slope(t)`` = phi'(t) is asked inside
    it only, ``curvature()`` = phi''(0) = <hess f(x) v, v>, ``max_step()`` is
    the largest step in (0, 1] that stays inside dom f, pulled back from the
    boundary (1.0 if the whole segment is inside), and ``at(t)`` is the point
    x + t v with what the last question at t computed there, or at t = 0 the
    line's own point, never built anew.  This generic line asks ``obj.at`` for
    the points along it, the objective's oracles for the curvature and the
    domain, and bisects on ``in_domain`` when ``max_step`` gives no exact
    answer.  As for ``Point``, a subclass sets its own slots (no chained
    ``super().__init__``) and uses ndarray methods on the iteration path.
    """

    __slots__ = ("point", "v", "_t", "_probe_point")

    def __init__(self, point: Point, v):
        self.point, self.v = point, v
        self._t = self._probe_point = None

    def _point_at(self, t) -> Point:
        return self.point.obj.at(self.point.x + t * self.v)

    def at(self, t) -> Point:
        """The point x + t v, kept until a question about another t; at t = 0, ``point``."""
        if t == 0.0:
            return self.point
        if t != self._t:
            self._t, self._probe_point = t, self._point_at(t)
        return self._probe_point

    def value(self, t) -> float:
        return self.at(t).value()

    def slope(self, t) -> float:
        return inner(self.at(t).gradient(), self.v)

    def curvature(self) -> float:
        return inner(self.point.obj.hess_vec(self.point.x, self.v), self.v)

    def in_domain(self, t) -> bool:
        return bool(self.point.obj.in_domain(self.at(t).x))

    def max_step(self) -> float:
        obj, x, v = self.point.obj, self.point.x, self.v
        exact = obj.max_step(x, v)
        if exact is not None:
            return exact
        if obj.in_domain(x + v):
            return 1.0
        return pull_back(bisect(lambda t: obj.in_domain(x + t * v), 1.0, 2.0 ** -30)[0])


def max_feasible_step(line: Line) -> float:
    """``line.max_step()``, the largest step in (0, 1] that keeps x + t v inside
    dom f, pulled back from the boundary; an x outside dom f is a ValueError."""
    if not line.in_domain(0.0):
        raise ValueError("x must lie in the domain")
    return line.max_step()


class LocalGeometry(NamedTuple):
    """Per-iterate quantities feeding the step-size formulas.

    beta = ||v||_2, e = ||v||_x = sqrt(<hess_vec(x, v), v>), delta is the
    direction shape factor, and gap the merit value for the direction.
    """

    beta: float
    e: float
    delta: float
    gap: float

    @classmethod
    def from_direction(cls, line: Line, gap: float) -> "LocalGeometry":
        """The geometry of ``line``'s direction v at its point x."""
        beta = l2_norm(line.v)
        if not beta < math.inf:  # before the curvature overflows; a float test, not np.errstate
            raise ValueError(f"direction with ||v||^2 = {beta * beta}")
        e = math.sqrt(max(line.curvature(), 0.0))
        return cls(beta, e, delta_nu(line.point.obj.spec, beta, e), gap)


# ---------------------------------------------------------------------------
# The analytic step: psi's maximizer, in log1p/expm1 forms that neither overflow nor cancel
# ---------------------------------------------------------------------------

def _check(delta: float, xi: float, nu: float) -> int:
    """Validate the step-size parameters and return the nu branch."""
    if delta < 0 or xi < 0:
        raise ValueError("delta and xi must be nonnegative")
    return nu_branch(nu)


def psi(delta: float, xi: float, nu: float, t: float) -> float:
    """psi(t) = t - xi * omega_nu(t*delta) * t^2 (concave in t)."""
    return _psi(delta, xi, nu, _check(delta, xi, nu), t)


def _psi(delta: float, xi: float, nu: float, branch: int, t: float) -> float:
    if xi == 0.0 or t == 0.0:  # t = 0 with xi = +inf: no step, not inf * 0
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
    positive gap) takes the full cap: the quadratic penalty vanishes.  A delta
    that is negative, NaN or infinite, or a NaN xi, is a ValueError; an
    infinite xi is the zero step.
    """
    if not cap > 0.0:
        raise ValueError("cap must be positive")
    _, e, shape, gap = geom
    if gap <= 0.0:
        raise ValueError("converged: analytic step requires a positive gap")
    if e == 0.0:
        return cap, gap * cap
    delta, xi = (spec.m if m is None else m) * shape, e ** 2 / gap
    if not (0.0 <= delta < math.inf and xi >= 0.0):  # xi >= 0 unless NaN, as gap > 0
        raise ValueError(f"delta and xi must be nonnegative, delta finite; got {delta}, {xi}")
    alpha = min(cap, _t_star(delta, xi, spec.nu, spec.branch))
    return alpha, max(gap * _psi(delta, xi, spec.nu, spec.branch, alpha), 0.0)


# ---------------------------------------------------------------------------
# GSC-constant calculus
# ---------------------------------------------------------------------------

def gsc_sum_constant(terms, nu: float) -> float:
    """Constant of a weighted sum sum_i w_i f_i: max_i w_i^(1 - nu/2) M_i."""
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one term")
    exponent = 1.0 - nu / 2.0
    best = -math.inf
    for w, m in terms:
        if not w > 0:
            raise ValueError(f"weights must be positive, got {w}")
        best = max(best, w ** exponent * m)
    return best


def gsc_affine_constant(m: float, nu: float, operator_norm: float) -> float:
    """Constant of f(Ax + b): M * ||A||^(3 - nu) for nu in [2, 3]."""
    nu_branch(nu)  # rejects nu outside [2, 3]
    return m * operator_norm ** (3.0 - nu)


def gsc_finite_sum_constant(phis, nu: float, lambda_min_q: float) -> float:
    """Constant (of order 3) for sum_i phi_i(<a_i, x> + b_i) + quadratic term:
    lambda_min(Q)^((nu-3)/2) * max_i M_i ||a_i||^(3-nu), where nu is the
    common order of the phi_i.
    """
    phis = list(phis)
    if not phis:
        raise ValueError("need at least one term")
    if not 0.0 < nu <= 3.0 + NU_BRANCH_TOL:
        raise ValueError(f"nu must be in (0, 3], got {nu}")
    at_three = abs(nu - 3.0) < NU_BRANCH_TOL
    if not at_three and not lambda_min_q > 0.0:
        raise ValueError("lambda_min(Q) must be positive for nu < 3")
    best = max(m * a ** (3.0 - nu) for m, a in phis)
    if at_three:
        return best
    return lambda_min_q ** ((nu - 3.0) / 2.0) * best
