"""Benchmark objectives: elastic-net logistic regression, log-utility
portfolio selection, distance-weighted discrimination, and sparse inverse
covariance estimation, plus the data plumbing they need.

Each constructor returns a ProblemInstance bundling the objective (with its
GSC classification), the feasible set, and a name.  Instances are immutable
after construction; every evaluation is stateless, so instances can be
shared across concurrently running solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.special import expit

from .gsc import (GscSpec, Objective, gsc_affine_constant, gsc_finite_sum_constant,
                  gsc_sum_constant, inner)
from .sets import (EuclideanBall, FeasibleSet, IntervalBlock, L1Ball, NonnegativeBall,
                   ProductSet, SymmetricL1Ball, UnitSimplex)


# ---------------------------------------------------------------------------
# Sparse datasets (LIBSVM-style)
# ---------------------------------------------------------------------------

class SparseDataset:
    """Rows of sparse predictors with +-1 labels."""

    def __init__(self, matrix: sp.csr_matrix, labels):
        labels = np.asarray(labels, dtype=float)
        if matrix.shape[0] != labels.shape[0]:
            raise ValueError("row/label count mismatch")
        if labels.size and not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be +-1")
        self.matrix = matrix.tocsr()
        self.matrix.sort_indices()
        self.labels = labels

    @property
    def count(self) -> int:  # number of samples p
        return self.matrix.shape[0]

    @property
    def dimension(self) -> int:  # feature dimension n
        return self.matrix.shape[1]

    def row_norms(self):
        sq = np.asarray(self.matrix.multiply(self.matrix).sum(axis=1)).ravel()
        return np.sqrt(sq)

    def normalized(self) -> "SparseDataset":
        """Each row divided by its euclidean norm (zero rows left alone)."""
        norms = self.row_norms()
        scale = np.where(norms > 0, 1.0 / np.maximum(norms, 1e-300), 1.0)
        d = sp.diags(scale)
        return SparseDataset((d @ self.matrix).tocsr(), self.labels.copy())


def libsvm_parse(source, normalize: bool = False, dimension: int | None = None) -> SparseDataset:
    """Parse LIBSVM text: 'label idx:val ...' with 1-based ascending indices.

    Labels must be strictly +-1; indices become 0-based internally.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = list(source)
    labels, indptr, indices, values = [], [0], [], []
    max_index = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad label {tokens[0]!r}") from exc
        if label not in (-1.0, 1.0):
            raise ValueError(f"line {lineno}: label must be +-1, got {tokens[0]!r}")
        labels.append(label)
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_text, val_text = tok.split(":", 1)
                idx = int(idx_text)
                val = float(val_text)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed pair {tok!r}") from exc
            if idx <= prev:
                raise ValueError(f"line {lineno}: indices must be 1-based ascending")
            prev = idx
            indices.append(idx - 1)
            values.append(val)
            max_index = max(max_index, idx - 1)
        indptr.append(len(indices))
    n = dimension if dimension is not None else max_index + 1
    matrix = sp.csr_matrix((values, indices, indptr), shape=(len(labels), max(n, 0)))
    data = SparseDataset(matrix, np.array(labels))
    return data.normalized() if normalize else data


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


def synthetic_classification(p: int, n: int, density: float = 0.15,
                             seed: int = 0, normalize: bool = True) -> SparseDataset:
    """Seeded sparse classification data with a planted linear separator."""
    rng = np.random.default_rng(seed)
    nnz_per_row = max(1, int(round(density * n)))
    indptr = [0]
    indices = []
    values = []
    for _ in range(p):
        cols = np.sort(rng.choice(n, size=nnz_per_row, replace=False))
        indices.extend(cols.tolist())
        values.extend(rng.standard_normal(nnz_per_row).tolist())
        indptr.append(len(indices))
    matrix = sp.csr_matrix((values, indices, indptr), shape=(p, n))
    planted = rng.standard_normal(n)
    margins = matrix @ planted + 0.5 * rng.standard_normal(p)
    labels = np.where(margins >= 0, 1.0, -1.0)
    data = SparseDataset(matrix, labels)
    return data.normalized() if normalize else data


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemInstance:
    objective: Objective
    feasible_set: FeasibleSet
    name: str
    reference_optimum: float | None = None

    def __post_init__(self):
        if self.objective.dimension != self.feasible_set.dimension:
            raise ValueError("objective and feasible set dimensions differ")


# ---------------------------------------------------------------------------
# Losses of an affine margin: logistic regression, portfolio, DWD
# ---------------------------------------------------------------------------

def _pull_back(t_raw: float) -> float:
    """A step just inside a domain boundary met at t_raw, capped at 1."""
    t = t_raw * (1.0 - 1e-7)
    return 1.0 if t >= 1.0 else t


class MarginKernel:
    """A scalar (m, nu)-GSC loss: ``phi(z)``, ``d1(z)`` = phi'(z) and
    ``d2(z, u)`` = phi''(z) u, elementwise.  ``positive`` restricts the
    domain to z > 0; otherwise it is the real line."""

    m: float
    nu: float
    positive: bool


class LogisticLoss(MarginKernel):
    """log(1 + e^-z): (1, 2)-GSC on the real line."""

    m, nu, positive = 1.0, 2.0, False

    def phi(self, z):
        return np.logaddexp(0.0, -z)

    def d1(self, z):
        return -expit(-z)

    def d2(self, z, u):
        s = expit(z)
        return s * (1.0 - s) * u


class LogLoss(MarginKernel):
    """-log z: (2, 3)-GSC on z > 0."""

    m, nu, positive = 2.0, 3.0, True

    def phi(self, z):
        return -np.log(z)

    def d1(self, z):
        return -1.0 / z

    def d2(self, z, u):
        return u / (z * z)


class PowerLoss(MarginKernel):
    """z^-q on z > 0: (M, 2(q+3)/(q+2))-GSC."""

    positive = True

    def __init__(self, q: float):
        self.q = q
        self.nu = 2.0 * (q + 3.0) / (q + 2.0)
        self.m = (q + 2.0) / (q * (q + 1.0)) ** (1.0 / (q + 2.0))

    def phi(self, z):
        return z ** -self.q

    def d1(self, z):
        return -self.q * z ** (-self.q - 1.0)

    def d2(self, z, u):
        q = self.q
        return q * (q + 1.0) * z ** (-q - 2.0) * u


class MarginObjective(Objective):
    """(1/count) sum_i phi(<b_i, x>) + <c, x> + (gamma/2) ||x||^2.

    The GSC pair follows from the kernel's by the affine rule on each row
    b_i and the sum rule with weights 1/count.
    """

    def __init__(self, name: str, kernel: MarginKernel, b, count: int, c=None,
                 gamma: float = 0.0):
        if b.shape[0] == 0:
            raise ValueError("empty dataset")
        self.name = name
        self.kernel = kernel
        self.b = b
        self.count = count
        self.c = c
        self.gamma = float(gamma)
        self.dimension = b.shape[1]
        sq = b.multiply(b).sum(axis=1) if sp.issparse(b) else np.sum(b * b, axis=1)
        terms = [(1.0 / count, gsc_affine_constant(kernel.m, kernel.nu, r))
                 for r in np.sqrt(np.asarray(sq).ravel())]
        self.spec = GscSpec(gsc_sum_constant(terms, kernel.nu), kernel.nu)

    def value(self, x) -> float:
        z = self.b @ x
        if self.kernel.positive and np.any(z <= 0.0):
            return math.inf
        out = float(np.sum(self.kernel.phi(z))) / self.count
        if self.c is not None:
            out += float(self.c @ x)
        return out + 0.5 * self.gamma * float(x @ x)

    def gradient(self, x):
        out = (self.b.T @ self.kernel.d1(self.b @ x)) / self.count + self.gamma * x
        return out if self.c is None else out + self.c

    def hess_vec(self, x, v):
        u = self.kernel.d2(self.b @ x, self.b @ v)
        return (self.b.T @ u) / self.count + self.gamma * v

    def in_domain(self, x) -> bool:
        return not self.kernel.positive or bool(np.all(self.b @ x > 0.0))

    def max_step(self, x, v):
        # the domain boundary is linear: <b_i, x + t v> = 0
        if not self.kernel.positive:
            return 1.0
        dz = self.b @ v
        shrinking = dz < 0.0
        if not np.any(shrinking):
            return 1.0
        z = self.b @ x
        return _pull_back(float(np.min(z[shrinking] / -dz[shrinking])))


def logistic_problem(data: SparseDataset, gamma: float, radius: float,
                     nu_mode: int = 2) -> ProblemInstance:
    """Elastic-net logistic regression (1/p) sum log(1 + exp(-y_i <a_i, x>))
    + (gamma/2) ||x||^2 over an l1 ball, classified as order 2 or order 3."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if nu_mode not in (2, 3):
        raise ValueError("nu_mode must be 2 or 3")
    a = data.matrix
    # rows y_i a_i, exact because y_i = +-1
    b = sp.csr_matrix((a.data * np.repeat(data.labels, np.diff(a.indptr)), a.indices,
                       a.indptr), shape=a.shape)
    obj = MarginObjective("logistic", LogisticLoss(), b, data.count, gamma=gamma)
    if nu_mode == 3:
        # the order-3 classification borrows strong convexity from gamma
        m = gsc_finite_sum_constant([(1.0, r) for r in data.row_norms()], 2.0, gamma)
        obj.spec = GscSpec(m, 3.0)
    return ProblemInstance(obj, L1Ball(data.dimension, radius),
                           name=f"logistic-nu{nu_mode}")


def portfolio_problem(returns) -> ProblemInstance:
    """Log-utility portfolio -sum_t log(r_t . x) over the simplex; order 3."""
    r = np.asarray(returns, dtype=float)
    if r.ndim != 2:
        raise ValueError("returns must be a p x n matrix")
    obj = MarginObjective("portfolio", LogLoss(), r, 1)
    return ProblemInstance(obj, UnitSimplex(obj.dimension), name="portfolio")


def portfolio_generator(p: int, n: int, seed: int = 0):
    """Per-period price ratios 1 + N(0, 0.1), deterministic per seed."""
    if p < 1 or n < 1:
        raise ValueError("need p, n >= 1")
    rng = np.random.default_rng(seed)
    return 1.0 + 0.1 * rng.standard_normal((p, n))


def dwd_problem(data: SparseDataset, q: float = 2.0, c=None, u: float = 5.0,
                big_r: float = 10.0) -> ProblemInstance:
    """Distance-weighted discrimination (1/p) sum (a_i.w + mu y_i + xi_i)^(-q)
    + c.xi over x = (w, mu, xi) in a unit ball x [-u, u] x a nonnegative ball
    of radius sqrt(big_r)."""
    if not q >= 1:
        raise ValueError("q must be at least 1")
    p, d = data.count, data.dimension
    c = np.ones(p) if c is None else np.asarray(c, dtype=float)
    if c.shape != (p,):
        raise ValueError("c must have one entry per sample")
    # rows of the lifted design [A | y | I]
    b = sp.hstack([data.matrix, sp.csr_matrix(data.labels[:, None]),
                   sp.identity(p, format="csr")], format="csr")
    obj = MarginObjective("dwd", PowerLoss(float(q)), b, p,
                          c=np.concatenate([np.zeros(d + 1), c]))
    feasible = ProductSet([
        EuclideanBall(d, 1.0),
        IntervalBlock(u),
        NonnegativeBall(p, math.sqrt(big_r)),
    ])
    return ProblemInstance(obj, feasible, name="dwd")


# ---------------------------------------------------------------------------
# Sparse inverse covariance estimation
# ---------------------------------------------------------------------------

class CovarianceObjective(Objective):
    """-log det(X) + tr(S X) over symmetric positive definite X."""

    name = "covariance"

    def __init__(self, sigma_hat):
        s = np.asarray(sigma_hat, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("expected a square matrix")
        if float(np.max(np.abs(s - s.T))) > 1e-10 * max(1.0, float(np.max(np.abs(s)))):
            raise ValueError("sigma_hat must be symmetric")
        self.sigma = (s + s.T) / 2.0
        self.p = s.shape[0]
        self.dimension = self.p * self.p
        self.spec = GscSpec(2.0, 3.0)

    def _factor(self, x):
        x = np.asarray(x, dtype=float)
        scale = max(1.0, float(np.max(np.abs(x))))
        if float(np.max(np.abs(x - x.T))) > 1e-8 * scale:
            return None
        try:
            return cho_factor((x + x.T) / 2.0, lower=True)
        except np.linalg.LinAlgError:
            return None
        except ValueError:
            return None

    def value(self, x) -> float:
        factor = self._factor(x)
        if factor is None:
            return math.inf
        logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
        return -logdet + inner(self.sigma, x)

    def gradient(self, x):
        factor = self._factor(x)
        if factor is None:
            raise ValueError("gradient undefined outside the domain")
        x_inv = cho_solve(factor, np.eye(self.p))
        x_inv = (x_inv + x_inv.T) / 2.0
        return self.sigma - x_inv

    def hess_vec(self, x, v):
        # X^{-1} V X^{-1} through two triangular solves per side
        factor = self._factor(x)
        if factor is None:
            raise ValueError("hess_vec undefined outside the domain")
        v = np.asarray(v, dtype=float)
        w = cho_solve(factor, v)
        z = cho_solve(factor, w.T).T
        return (z + z.T) / 2.0

    def in_domain(self, x) -> bool:
        return self._factor(x) is not None

    def max_step(self, x, v):
        # X + tV > 0 iff t * lambda_max(-L^{-1} V L^{-T}) < 1 with X = L L^T
        factor = self._factor(x)
        if factor is None:
            raise ValueError("x must lie in the domain")
        low = np.tril(factor[0])
        y = solve_triangular(low, np.asarray(v, dtype=float), lower=True)
        w = solve_triangular(low, y.T, lower=True)
        lam_min = float(np.linalg.eigvalsh((w + w.T) / 2.0)[0])
        if lam_min >= 0.0:
            return 1.0
        return _pull_back(1.0 / -lam_min)


def covariance_problem(sigma_hat, radius: float | None = None) -> ProblemInstance:
    obj = CovarianceObjective(sigma_hat)
    if radius is None:
        radius = float(math.ceil(math.sqrt(obj.p)))
    return ProblemInstance(obj, SymmetricL1Ball(obj.p, radius), name="covariance")


def covariance_generator(p: int, seed: int = 0):
    """SPD target sum_i sigma_i v_i v_i^T with a seeded random orthonormal
    basis and sigma_i ~ U(0.5, 1)."""
    if p < 1:
        raise ValueError("need p >= 1")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    sigmas = rng.uniform(0.5, 1.0, size=p)
    s = (q * sigmas) @ q.T
    return (s + s.T) / 2.0
