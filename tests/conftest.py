"""Shared test oracles: finite differences, bracketed scalar maximization,
the paper's reference formulas (the distance d_nu, the two-sided descent
sandwich, the closed-form value psi(t_star) and its lower bound), the LIBSVM
writer, record files without their wall times, the per-epsilon scalar
profile statistics, the ravel-based inner product and norm, the
sort-and-drain simplex LLOO, the line away from a vertex, and small
closed-form objectives.  These stay independent of the code paths they are
used to check."""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from gscfw import GscSpec, Objective, SparseDataset, inner, l2_norm, omega
from gscfw.bench import ProfilePoint
from gscfw.gsc import nu_branch
from gscfw.problems import MarginLine
from gscfw.sets import UnitSimplex, VertexSet
from gscfw.stepsize import psi

_LN2 = math.log(2.0)


def golden_section_max(fn, lo, hi, iters=200):
    """Derivative-free maximizer of a unimodal function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        # ties (e.g. both probes at -inf past the domain) keep the left segment
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _psi_slope(delta, xi, nu, t):
    """Branch-wise derivative of psi, derived independently of the closed-form
    maximizer (which inverts this expression analytically)."""
    if delta == 0.0:
        return 1.0 - xi * t  # psi = t - xi t^2 / 2
    branch = nu_branch(nu)
    if branch == 2:
        try:
            return 1.0 - (xi / delta) * math.expm1(t * delta)
        except OverflowError:
            return -math.inf
    if branch == 3:
        return 1.0 + (xi / delta) * (1.0 - 1.0 / (1.0 - t * delta))
    coef = (nu - 2.0) / (4.0 - nu)
    power = -(4.0 - nu) / (nu - 2.0)
    try:
        grown = math.exp(power * math.log1p(-t * delta))
    except OverflowError:
        return -math.inf
    return 1.0 + (xi / delta) * coef * (1.0 - grown)


def numeric_psi_max(delta, xi, nu):
    """Independent bracketed maximizer of psi (never uses the closed forms).

    Golden section localizes the peak; value comparisons bottom out at the
    sqrt(eps) noise floor, so a sign bisection on the independently coded
    derivative refines the answer to full float accuracy.
    """
    if nu_branch(nu) == 2 or delta == 0.0:
        hi = 50.0 / xi if xi > 0 else 1e6
    else:
        hi = 0.999999 / delta
    rough = golden_section_max(lambda t: psi(delta, xi, nu, t), 0.0, hi)
    lo, up = 0.0, hi
    if _psi_slope(delta, xi, nu, up) > 0.0:
        return up
    for _ in range(200):
        mid = 0.5 * (lo + up)
        if _psi_slope(delta, xi, nu, mid) > 0.0:
            lo = mid
        else:
            up = mid
    refined = 0.5 * (lo + up)
    # the two stages must agree to within golden section's noise radius
    assert abs(refined - rough) <= 1e-5 * (1.0 + refined)
    return refined


@functools.lru_cache(maxsize=None)
def omega_slope_at_zero(nu: float) -> float:
    """Richardson-extrapolated numeric derivative of omega_nu at 0 (cached).

    Kept as an independent check on the Taylor coefficients used by
    ``omega`` near the origin.
    """
    h = 1e-2

    def central(step):
        return (omega(nu, step) - omega(nu, -step)) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def d_nu(spec: GscSpec, step_euclid: float, step_local: float) -> float:
    """Distance-like function of the displacement: M*||y-x||_2 for nu = 2,
    ((nu-2)/2) * M * ||y-x||_2^(3-nu) * ||y-x||_x^(nu-2) otherwise.

    A zero displacement in either norm yields 0 (avoids 0^negative).
    """
    if step_euclid < 0 or step_local < 0:
        raise ValueError("norms must be nonnegative")
    branch = spec.branch
    if branch == 2:
        return spec.m * step_euclid
    if step_euclid == 0.0 or step_local == 0.0:
        return 0.0
    if branch == 3:
        return 0.5 * spec.m * step_local
    nu = spec.nu
    return 0.5 * (nu - 2.0) * spec.m * step_euclid ** (3.0 - nu) * step_local ** (nu - 2.0)



def descent_bounds(f: Objective, x, y):
    """Local sandwich on f(y) from the expansion at x.

    Returns (lower, upper); the upper bound is None when nu > 2 and
    d_nu(x, y) >= 1, where the model is no longer valid.
    """
    v = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    local2 = max(inner(f.hess_vec(x, v), v), 0.0)
    local = math.sqrt(local2)
    d = d_nu(f.spec, l2_norm(v), local)
    base = f.value(x) + inner(f.gradient(x), v)
    lower = base + omega(f.spec.nu, -d) * local2
    if f.spec.branch != 2 and d >= 1.0:
        return lower, None
    return lower, base + omega(f.spec.nu, d) * local2



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



def psi_at_tstar(delta, xi, nu) -> float:
    """Closed-form optimal value psi(t_star).

    Small delta/xi ratios cancel catastrophically in the raw closed forms;
    below a branch-scaled threshold the value is summed as a power series
    in the ratio instead.
    """
    if xi == 0.0:
        raise ValueError("psi is unbounded when xi = 0")
    if delta == 0.0:
        return 1.0 / (2.0 * xi)
    branch = nu_branch(nu)
    u = delta / xi
    if branch == 2:
        # (1/delta) * ((1 + xi/delta) log(1 + delta/xi) - 1)
        if u < 0.5:
            # sum (-1)^(k+1) u^k / (k (k+1))
            g = _alternating_series(u, lambda k: 0.5 if k == 0 else -k / (k + 2.0))
        else:
            g = (1.0 + 1.0 / u) * math.log1p(u) - 1.0
        return g / delta
    if branch == 3:
        # (1/delta) * (1 - (xi/delta) log(1 + delta/xi))
        if u < 0.5:
            # sum (-1)^(k+1) u^k / (k+1)
            g = _alternating_series(u, lambda k: 0.5 if k == 0 else -(k + 1.0) / (k + 2.0))
        else:
            g = 1.0 - math.log1p(u) / u
        return g / delta
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
    return g / delta



def gamma_tilde(nu: float) -> float:
    """Interior-branch progress constant; tends to 1 - ln 2 as nu -> 3."""
    branch = nu_branch(nu)
    if branch == 3:
        return 1.0 - _LN2
    if branch == 2:
        return 0.0
    s = 3.0 - nu
    return 1.0 - (4.0 - nu) / (2.0 * s) * math.expm1(2.0 * s * _LN2 / (4.0 - nu))



def psi_lower_bound(delta, xi, nu) -> float:
    """Branch-wise lower bound on psi(t_star); tight at delta = xi."""
    if not (delta > 0.0 and xi > 0.0):
        raise ValueError("lower bound requires delta > 0 and xi > 0")
    branch = nu_branch(nu)
    if branch == 2:
        return (2.0 * _LN2 - 1.0) / delta * min(1.0, delta / xi)
    if branch == 3:
        return (1.0 - _LN2) / delta * min(1.0, delta / xi)
    ratio = (delta / xi) * (4.0 - nu) / (nu - 2.0)
    return gamma_tilde(nu) / delta * min(1.0, ratio)



# ---------------------------------------------------------------------------
# Inner product, norm and ball-restricted simplex oracle through ravel + dot,
# linalg.norm and lexsort: gscfw.inner, gscfw.l2_norm and SimplexLLOO.query
# must give the same bits.
# ---------------------------------------------------------------------------

def reference_inner(a, b) -> float:
    return float(np.dot(np.ravel(a), np.ravel(b)))


def reference_l2_norm(a) -> float:
    return float(np.linalg.norm(np.ravel(a)))


def reference_lloo_query(n: int, x, r: float, c):
    """Drains up to min(1, sqrt(n) r / 2) mass from the coordinates with the
    largest c (ties: lowest index) into argmin c, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    assert UnitSimplex(n).contains(x, tol=1e-7)
    if float(np.ptp(c)) == 0.0:
        return x.copy()
    budget = min(1.0, 0.5 * math.sqrt(n) * r)
    target = int(np.argmin(c))
    u = x.copy()
    moved = 0.0
    for idx in np.lexsort((np.arange(n), -c)):
        if idx == target:
            continue
        take = min(u[idx], budget - moved)
        if take <= 0.0:
            continue
        u[idx] -= take
        moved += take
        if moved >= budget:
            break
    u[target] += moved
    return u


# ---------------------------------------------------------------------------
# The line away from a vertex s, v = x - s, as a second mode of Point.toward
# built it: margin families that store B by columns negate the one-column
# dz = s_i B[:, i] - z, every other point restricts f to x - s.  An away step
# is a negative step along toward(s) and must reach the same x and margins.
# ---------------------------------------------------------------------------

def reference_away_line(point, s):
    cols = getattr(point.obj, "columns", None)
    nonzero = np.flatnonzero(s) if cols is not None else ()
    if len(nonzero) != 1:
        return point.restrict(point.x - s)
    i = nonzero[0]
    if scipy.sparse.issparse(cols):
        lo, hi = cols.indptr[i], cols.indptr[i + 1]
        rows, column = cols.indices[lo:hi], cols.data[lo:hi]
    else:
        rows, column = slice(None), cols[:, i]
    dz = -point.z
    dz[rows] += s[i] * column
    return MarginLine(point, -(s - point.x), -dz)


def records_without_times(directory):
    """Each record file under ``directory``, by name: its header and every
    column but ``elapsed``, the one field that differs between reruns."""
    out = {}
    for path in sorted(Path(directory).glob("*.jsonl")):
        header, columns = (json.loads(line) for line in path.read_text().splitlines())
        del columns["elapsed"]
        out[path.name] = (header, columns)
    return out


# ---------------------------------------------------------------------------
# Scalar profile statistics: each record is rescored for every statistic and
# every epsilon.  bench.profile_points must give the same rows.
# ---------------------------------------------------------------------------

def reference_relative_error(f_value: float, f_star: float) -> float:
    err = (f_value - f_star) / max(abs(f_star), 1e-12)
    if -1e-12 <= err < 0.0:
        return 0.0
    return err


def reference_first_hit(record, epsilon: float):
    """Smallest iteration index k with relative error <= epsilon, or None."""
    errors = [reference_relative_error(f, record.f_star_estimate)
              for f in record.trace.f_values()]
    for k, err in enumerate(errors):
        if err <= epsilon:
            return k
    return None


def reference_time_to_hit(record, epsilon: float):
    k = reference_first_hit(record, epsilon)
    if k is None:
        return None
    return record.trace.cumulative_seconds()[k]


def reference_success_ratio(records, epsilon: float) -> float:
    """Fraction of (problem, start) runs of one method reaching epsilon."""
    records = list(records)
    if not records:
        raise ValueError("no records")
    hits = sum(1 for r in records if reference_first_hit(r, epsilon) is not None)
    return hits / len(records)


def _reference_ratio_average(records, epsilon: float, score):
    """Double average of score ratios against the per-instance best method."""
    records = list(records)
    if not records:
        raise ValueError("no records")
    methods = sorted({r.method for r in records})
    problems = sorted({r.problem for r in records})
    by_instance = {}
    for r in records:
        by_instance.setdefault((r.problem, r.start), {})[r.method] = score(r, epsilon)
    if not any(v is not None for inst in by_instance.values() for v in inst.values()):
        raise ValueError("no successful instance anywhere")

    out = {}
    for method in methods:
        per_problem = []
        for problem in problems:
            ratios = []
            for (prob, _start), scores in by_instance.items():
                if prob != problem or scores.get(method) is None:
                    continue
                best = min(v for v in scores.values() if v is not None)
                own = scores[method]
                if best <= 0.0:
                    ratios.append(1.0 if own <= 0.0 else max(own, 1.0))
                else:
                    ratios.append(own / best)
            if ratios:
                per_problem.append(sum(ratios) / len(ratios))
        if per_problem:
            out[method] = sum(per_problem) / len(per_problem)
    return out


def reference_iteration_ratio(records, epsilon: float):
    """Average iteration ratio per method (1 is best-possible)."""
    return _reference_ratio_average(records, epsilon, reference_first_hit)


def reference_time_ratio(records, epsilon: float):
    """Average wall-time ratio per method (excluded from determinism checks)."""
    return _reference_ratio_average(records, epsilon, reference_time_to_hit)


def reference_profile_points(records, epsilons):
    """Per-method profile rows over an epsilon grid."""
    records = list(records)
    methods = sorted({r.method for r in records})
    rows = []
    for eps in sorted(epsilons):
        try:
            iters = reference_iteration_ratio(records, eps)
            times = reference_time_ratio(records, eps)
        except ValueError:
            iters, times = {}, {}
        for method in methods:
            mine = [r for r in records if r.method == method]
            rows.append(ProfilePoint(epsilon=eps, method=method,
                                     rho=reference_success_ratio(mine, eps),
                                     rho_iter=iters.get(method),
                                     rho_time=times.get(method)))
    return rows


def libsvm_serialize(data: SparseDataset) -> str:
    """Inverse of libsvm_parse (indices re-based to 1)."""
    lines = []
    m = data.matrix
    for i in range(data.count):
        row = m.getrow(i)
        pairs = " ".join(f"{j + 1}:{float(v)!r}" for j, v in zip(row.indices, row.data))
        label = int(data.labels[i])
        lines.append(f"{label:+d} {pairs}".rstrip())
    return "\n".join(lines)


def fd_gradient_check(obj, x, rel_tol=1e-5):
    """Central finite differences of value against gradient, coordinatewise
    for vectors and along random symmetric directions for matrices."""
    x = np.asarray(x, dtype=float)
    grad = np.asarray(obj.gradient(x), dtype=float)
    if x.ndim == 1:
        approx = np.empty_like(x)
        for i in range(x.size):
            h = 1e-6 * (1.0 + abs(x[i]))
            e = np.zeros_like(x)
            e[i] = h
            approx[i] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
        scale = np.maximum(np.abs(grad), np.max(np.abs(grad)) * 1e-3 + 1e-12)
        assert np.max(np.abs(approx - grad) / scale) < rel_tol
    else:
        rng = np.random.default_rng(42)
        for _ in range(6):
            v = rng.standard_normal(x.shape)
            v = (v + v.T) / 2.0
            h = 1e-6 * (1.0 + float(np.max(np.abs(x))))
            d_num = (obj.value(x + h * v) - obj.value(x - h * v)) / (2.0 * h)
            d_ana = float(np.sum(grad * v))
            assert abs(d_num - d_ana) <= rel_tol * (1.0 + abs(d_ana))


def fd_hess_vec_check(obj, x, v, rel_tol=1e-5):
    """Finite differences of gradient against hess_vec along v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    h = 1e-6 / (1.0 + float(np.max(np.abs(v))))
    num = (np.asarray(obj.gradient(x + h * v)) - np.asarray(obj.gradient(x - h * v))) / (2.0 * h)
    ana = np.asarray(obj.hess_vec(x, v))
    denom = 1.0 + float(np.max(np.abs(ana)))
    assert float(np.max(np.abs(num - ana))) / denom < rel_tol


class QuadraticObjective(Objective):
    """f(x) = (L/2)||x||^2: exactly quadratic, GSC with constant 0."""

    name = "quadratic"

    def __init__(self, n, curvature=1.0, nu=3.0):
        self.dimension = n
        self.curvature = curvature
        self.spec = GscSpec(0.0, nu)

    def value(self, x):
        return 0.5 * self.curvature * float(np.dot(x, x))

    def gradient(self, x):
        return self.curvature * np.asarray(x, dtype=float)

    def hess_vec(self, x, v):
        return self.curvature * np.asarray(v, dtype=float)

    def in_domain(self, x):
        return True


class LinearObjective(Objective):
    """f(x) = <c, x>: zero curvature along every direction."""

    name = "linear"

    def __init__(self, c, m=1.0, nu=3.0):
        self.c = np.asarray(c, dtype=float)
        self.dimension = self.c.size
        self.spec = GscSpec(m, nu)

    def value(self, x):
        return float(self.c @ x)

    def gradient(self, x):
        return self.c.copy()

    def hess_vec(self, x, v):
        return np.zeros_like(self.c)

    def in_domain(self, x):
        return True


class ShiftedQuadratic(Objective):
    """f(x) = (L/2)||x - center||^2."""

    name = "shifted-quadratic"

    def __init__(self, center, curvature=1.0, nu=3.0):
        self.center = np.asarray(center, dtype=float)
        self.dimension = self.center.size
        self.curvature = curvature
        self.spec = GscSpec(0.0, nu)

    def value(self, x):
        d = np.asarray(x) - self.center
        return 0.5 * self.curvature * float(np.dot(d, d))

    def gradient(self, x):
        return self.curvature * (np.asarray(x, dtype=float) - self.center)

    def hess_vec(self, x, v):
        return self.curvature * np.asarray(v, dtype=float)

    def in_domain(self, x):
        return True


class NegLogObjective(Objective):
    """f(x) = -sum log(x_i): the canonical (2, 3) barrier."""

    name = "neg-log"

    def __init__(self, n):
        self.dimension = n
        self.spec = GscSpec(2.0, 3.0)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            return math.inf
        return -float(np.sum(np.log(x)))

    def gradient(self, x):
        return -1.0 / np.asarray(x, dtype=float)

    def hess_vec(self, x, v):
        x = np.asarray(x, dtype=float)
        return np.asarray(v, dtype=float) / (x * x)

    def in_domain(self, x):
        return bool(np.all(np.asarray(x) > 0))


class IntervalSet(VertexSet):
    """One-dimensional segment [lo, hi]; vertices carry ids 0 and 1."""

    def __init__(self, lo, hi):
        self.lo, self.hi = float(lo), float(hi)
        self.dimension, self.shape = 1, (1,)
        self.diameter = self.hi - self.lo

    def lmo_indexed(self, c):
        vid = 0 if np.asarray(c, dtype=float)[0] >= 0 else 1
        return vid, self.atom(vid)

    def atom(self, vid):
        return 0, 0, (self.hi if vid else self.lo) / 2

    def contains(self, x, tol=1e-9):
        val = float(np.asarray(x).ravel()[0])
        return self.lo - tol <= val <= self.hi + tol


@pytest.fixture(scope="session")
def portfolio_toy():
    from gscfw import portfolio_generator, portfolio_problem
    returns = portfolio_generator(20, 10, seed=5)
    return portfolio_problem(returns)
