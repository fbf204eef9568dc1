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
from scipy.linalg.lapack import dpotrf, dtrtri

from .gsc import (GscSpec, Line, Objective, Point, gsc_affine_constant,
                  gsc_finite_sum_constant, gsc_sum_constant, inner, pull_back)
from .sets import (EuclideanBall, FeasibleSet, L1Ball, NonnegativeBall, ProductSet,
                   SymmetricL1Ball, UnitSimplex, exactly_symmetric)


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


_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _floyd_rows(rng, n: int, indices, values) -> bool:
    """``_sparse_rows``'s rows for k < n <= 10000, from raw PCG64 words, each
    row's indices in Floyd's order rather than shuffled: there numpy's choice is
    Floyd's sampler, then a Fisher-Yates shuffle, 2k - 1 draws over ranges
    R = n - k + 1 .. n, then k .. 2.  A draw is (x R) >> 32, x the next 32-bit
    half of the stream: the low half of a new word, or the high half kept from
    the last one (Lemire's method).  Where x R mod 2^32 < (2^32 - R) mod R numpy
    draws again; then this returns False, the generator back where it began."""
    bitgen, normal = rng.bit_generator, rng.standard_normal
    start, (rows, k) = bitgen.state, indices.shape
    carry, chunks = start["has_uint32"], []
    for r in range(rows):  # a row that starts on a kept half takes k - 1 words
        chunks.append(bitgen.random_raw(k - (carry + r) % 2))
        values[r] = normal(k)
    words = np.concatenate(chunks)
    halves = np.empty(2 * words.size + carry, np.uint64)
    halves[:carry] = start["uinteger"]
    halves[carry::2] = words & _LOW32
    halves[carry + 1::2] = words >> _SHIFT32
    ranges = np.r_[n - k + 1:n + 1, k:1:-1].astype(np.uint64)
    scaled = halves[:rows * ranges.size].reshape(rows, ranges.size) * ranges
    if ((scaled & _LOW32) < (np.uint64(2**32) - ranges) % ranges).any():
        bitgen.state = start
        return False
    indices[...] = scaled[:, :k] >> _SHIFT32
    taken, every = np.zeros((rows, n), bool), np.arange(rows)
    for i in range(k):  # Floyd: a pick already taken becomes n - k + i
        pick = indices[:, i]
        pick[taken[every, pick]] = n - k + i
        taken[every, pick] = True
    # numpy keeps the last word's high half, whether or not it is used
    bitgen.state = dict(bitgen.state, has_uint32=halves.size - scaled.size,
                        uinteger=int(halves[-1]))
    return True


def _sparse_rows(rng, p: int, n: int, k: int, block: int):
    """The (p, k) sorted column indices and values of the synthetic rows: row
    by row, ``rng.choice(n, k, replace=False)`` then ``rng.standard_normal(k)``,
    drawn ``block`` rows at a time, by ``_floyd_rows`` where it can."""
    indices, values = np.empty((p, k), dtype=np.int64), np.empty((p, k))
    for start in range(0, p, block):
        part = slice(start, start + block)
        if not (k < n <= 10000 and _floyd_rows(rng, n, indices[part], values[part])):
            for r in range(*part.indices(p)):
                indices[r] = rng.choice(n, size=k, replace=False)
                values[r] = rng.standard_normal(k)
    indices.sort(axis=1)  # values pair with the sorted columns, in draw order
    return indices, values


def synthetic_classification(p: int, n: int, density: float = 0.15,
                             seed: int = 0, normalize: bool = True) -> SparseDataset:
    """Seeded sparse classification data with a planted linear separator."""
    rng = np.random.default_rng(seed)
    k = max(1, int(round(density * n)))
    # blocks whose largest temporaries, the taken mask and the halves, are about 1 MB
    indices, values = _sparse_rows(rng, p, n, k, max(1, 2**20 // max(n, 16 * k)))
    matrix = sp.csr_matrix((values.ravel(), indices.ravel(), np.arange(0, p * k + 1, k)),
                           shape=(p, n))
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

    def __post_init__(self):
        if self.objective.dimension != self.feasible_set.dimension:
            raise ValueError("objective and feasible set dimensions differ")


# ---------------------------------------------------------------------------
# Losses of an affine margin: logistic regression, portfolio, DWD
# ---------------------------------------------------------------------------

class MarginKernel:
    """A scalar (m, nu)-GSC loss: ``phi(w)``, ``d1(w)`` = phi'(z) and
    ``d2(w, u)`` = phi''(z) u, elementwise, at ``w = prepare(z)``: z, or a
    pass over z the three share.  ``positive`` restricts the domain to z > 0;
    otherwise it is the real line."""

    m: float
    nu: float
    positive: bool

    def prepare(self, z):
        return z


class LogisticLoss(MarginKernel):
    """log(1 + e^-z): (1, 2)-GSC on the real line, from e = exp(-|z|)."""

    m, nu, positive = 1.0, 2.0, False

    def prepare(self, z):
        return z, np.exp(-np.abs(z))

    def phi(self, w):
        z, e = w
        return np.maximum(-z, 0.0) + np.log1p(e)

    def d1(self, w):
        z, e = w  # -1/(1 + e^z): -e/(1 + e) where z >= 0, as 0 <= e <= 1
        return -np.maximum(e, z < 0.0) / (1.0 + e)

    def d2(self, w, u):
        _, e = w  # e^z / (1 + e^z)^2, symmetric in z
        return e / ((1.0 + e) * (1.0 + e)) * u


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
        with np.errstate(over="ignore"):  # +inf at small margins is f's value there
            return z ** -self.q

    def d1(self, z):
        with np.errstate(over="ignore"):  # a non-finite gradient, not a warning
            return -self.q * z ** (-self.q - 1.0)

    def d2(self, z, u):
        q = self.q
        return q * (q + 1.0) * z ** (-q - 2.0) * u


class MarginObjective(Objective):
    """(1/count) sum_i phi(<b_i, x>) + <c, x> + (gamma/2) ||x||^2.

    The GSC pair follows from the kernel's by the affine rule on each row
    b_i and the sum rule with weights 1/count; the weights are equal and the
    affine rule grows with ||b_i||, so the largest row norm decides it.
    ``at(x)`` keeps the margins z = Bx; a line through x adds dz = Bv, after
    which f, its slope and the domain test along the line cost O(p) per
    probe.  B is kept as a float64 ndarray, CSR or CSC matrix (other sparse
    formats become CSR).  The products ``b_times(x)`` = Bx and ``bt_times(u)``
    = B^T u are ndarray @, or the compiled kernel of B's format that scipy's
    B @ x ends in, without the Python calls of scipy's dispatch.  ``columns``
    is B when it is stored column-wise (dense or CSC), else None; then the
    line toward an atom 2h e_a reads dz = 2h B[:, a] - z, not a product, from
    ``csc`` = (indptr, indices, data) if B is sparse, with the row indices as
    intp, which numpy would otherwise convert them to at every indexing.
    """

    def __init__(self, name: str, kernel: MarginKernel, b, count: int, c=None,
                 gamma: float = 0.0):
        if b.shape[0] == 0:
            raise ValueError("empty dataset")
        self.name = name
        self.kernel = kernel
        if sp.issparse(b):  # B^T u runs B's arrays through the other format's kernel
            b = (b if b.format in ("csr", "csc") else b.tocsr()).astype(np.float64, copy=False)
            k, (rows, cols), arrays = sp._sparsetools, b.shape, (b.indptr, b.indices, b.data)
            self.b_times = _matvec(getattr(k, b.format + "_matvec"), rows, cols, arrays)
            self.bt_times = _matvec(k.csr_matvec if b.format == "csc" else k.csc_matvec, cols,
                                    rows, arrays)
            self.csc = (b.indptr, b.indices.astype(np.intp), b.data) if b.format == "csc" else None
        else:
            b = np.asarray(b, dtype=np.float64)
            self.b_times, self.bt_times, self.csc = b.__matmul__, b.T.__matmul__, None
        self.b = b
        self.columns = b if isinstance(b, np.ndarray) or b.format == "csc" else None
        self.count = count
        self.c = c
        self.gamma = float(gamma)
        self.dimension = b.shape[1]
        sq = b.multiply(b).sum(axis=1) if sp.issparse(b) else np.sum(b * b, axis=1)
        m = gsc_affine_constant(kernel.m, kernel.nu, np.max(np.sqrt(sq)))
        self.spec = GscSpec(gsc_sum_constant([(1.0 / count, m)], kernel.nu), kernel.nu)

    def at(self, x) -> "MarginPoint":
        return MarginPoint(self, x, self.b_times(x))

    def value(self, x) -> float:
        return self.at(x).value()

    def gradient(self, x):
        return self.at(x).gradient()

    def hess_vec(self, x, v):
        u = self.kernel.d2(self.kernel.prepare(self.b_times(x)), self.b_times(v))
        return self.bt_times(u) / self.count + self.gamma * v

    def hessian(self, x):
        # B^T diag(phi''(Bx)) B / count + gamma I; a sparse B stays sparse up to the result
        b, d2 = self.b, self.kernel.d2(self.kernel.prepare(self.b_times(x)), 1.0 / self.count)
        h = b.T @ (sp.diags(d2) @ b if sp.issparse(b) else d2[:, None] * b)
        return (h.toarray() if sp.issparse(h) else h) + self.gamma * np.eye(self.dimension)

    def in_domain(self, x) -> bool:
        return not self.kernel.positive or bool((self.b_times(x) > 0.0).all())


def _matvec(kernel, rows, cols, arrays):
    def product(x):  # y = Mx as scipy's M @ x makes it, by the same kernel on M's arrays
        if len(x) != cols:  # the kernel would read past the end of a short x
            raise ValueError(f"dimension mismatch: {len(x)} entries for {cols} columns")
        y = np.zeros(rows)
        kernel(rows, cols, *arrays, x, y)
        return y
    return product


class MarginPoint(Point):
    """x with its margins z = Bx and the kernel's argument w = prepare(z)."""

    __slots__ = ("z", "w")

    def __init__(self, obj: MarginObjective, x, z):
        self.obj, self.x, self._f, self._g = obj, x, None, None
        self.z, self.w = z, obj.kernel.prepare(z)

    def value(self) -> float:
        if self._f is None:
            obj, x, z = self.obj, self.x, self.z
            if obj.kernel.positive and (z <= 0.0).any():
                self._f = math.inf
            else:
                out = float(obj.kernel.phi(self.w).sum()) / obj.count
                if obj.c is not None:
                    out += float(obj.c @ x)
                self._f = out + 0.5 * obj.gamma * float(x @ x)
        return self._f

    def gradient(self):
        if self._g is None:
            obj = self.obj
            g = obj.bt_times(obj.kernel.d1(self.w)) / obj.count + obj.gamma * self.x
            self._g = g if obj.c is None else g + obj.c
        return self._g

    def restrict(self, v) -> "MarginLine":
        return MarginLine(self, v, self.obj.b_times(v))

    def toward_atom(self, a, b, h) -> "MarginLine":
        obj = self.obj
        if a != b or obj.columns is None:
            return super().toward_atom(a, b, h)
        if obj.csc is not None:
            indptr, indices, data = obj.csc
            lo, hi = indptr[a], indptr[a + 1]
            rows, column = indices[lo:hi], data[lo:hi]
        else:
            rows, column = slice(None), obj.columns[:, a]
        v, dz = 0.0 - self.x, -self.z  # v = s - x bit for bit (+0.0 where x is 0.0)
        v[a] += h + h
        dz[rows] += (h + h) * column  # B(s - x) = 2h B[:, a] - z
        return MarginLine(self, v, dz)


# Margins z + t dz this close to 0, relative to max |z| + |t| max |dz|, may be
# within rounding of the boundary; there in_domain asks B(x + t v) itself.
_MARGIN_EDGE = 1e-8


class MarginLine(Line):
    """f along x + t v from the margins z + t dz, dz = Bv."""

    __slots__ = ("dz",)

    def __init__(self, point: MarginPoint, v, dz):
        self.point, self.v, self._t, self._probe_point, self.dz = point, v, None, None, dz

    def _point_at(self, t) -> MarginPoint:
        p = self.point
        return MarginPoint(p.obj, p.x + t * self.v, p.z + t * self.dz)

    def slope(self, t) -> float:
        obj, v, q = self.point.obj, self.v, self.at(t)
        if obj.kernel.positive and not (q.z > 0.0).all():
            raise ValueError("slope undefined outside the domain")
        with np.errstate(over="ignore", invalid="ignore"):  # the search reads inf/NaN as not < 0
            out = float(obj.kernel.d1(q.w) @ self.dz) / obj.count
        if obj.c is not None:
            out += float(obj.c @ v)
        return out + obj.gamma * float(q.x @ v)

    def curvature(self) -> float:
        obj, dz = self.point.obj, self.dz
        return (float(obj.kernel.d2(self.point.w, dz) @ dz) / obj.count
                + obj.gamma * float(self.v @ self.v))

    def in_domain(self, t) -> bool:
        obj = self.point.obj
        if not obj.kernel.positive:
            return True
        q = self.at(t)
        low = float(q.z.min())
        if low <= 0.0:
            return False
        scale = float(np.abs(self.point.z).max()) + abs(t) * float(np.abs(self.dz).max())
        return low > _MARGIN_EDGE * scale or obj.in_domain(q.x)

    def max_step(self) -> float:
        # the domain boundary is linear: z_i + t dz_i = 0
        if not self.point.obj.kernel.positive:
            return 1.0
        dz = self.dz
        shrinking = dz < 0.0
        if not shrinking.any():
            return 1.0
        return pull_back(float((self.point.z[shrinking] / -dz[shrinking]).min()))


def logistic_problem(data: SparseDataset, gamma: float, radius: float,
                     nu_mode: int = 2) -> ProblemInstance:
    """Elastic-net logistic regression (1/p) sum log(1 + exp(-y_i <a_i, x>))
    + (gamma/2) ||x||^2 over an l1 ball, classified as order 2 or order 3."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if nu_mode not in (2, 3):
        raise ValueError("nu_mode must be 2 or 3")
    a = data.matrix
    # rows y_i a_i, exact because y_i = +-1, by columns without duplicates
    b = sp.csr_matrix((a.data * np.repeat(data.labels, np.diff(a.indptr)), a.indices,
                       a.indptr), shape=a.shape).tocsc()
    b.sum_duplicates()
    obj = MarginObjective("logistic", LogisticLoss(), b, data.count, gamma=gamma)
    if nu_mode == 3:
        # the order-3 classification borrows strong convexity from gamma
        m = gsc_finite_sum_constant([(1.0, np.max(data.row_norms()))], 2.0, gamma)
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
        L1Ball(1, u),
        NonnegativeBall(p, math.sqrt(big_r)),
    ])
    return ProblemInstance(obj, feasible, name="dwd")


# ---------------------------------------------------------------------------
# Sparse inverse covariance estimation
# ---------------------------------------------------------------------------

class CovarianceObjective(Objective):
    """-log det(X) + tr(S X) over symmetric positive definite X.

    ``at(X)`` keeps Y = X^{-1}; the gradient is S - Y.  Along a line X + tV
    the eigenvalues lam of W = L^{-1} V L^{-T}, X = L L^T, give f(X + tV) =
    f(X) - sum log(1 + t lam) + t tr(SV), the curvature sum lam^2 and the
    domain boundary.  Toward a vertex s of the symmetric l1 ball, W =
    L^{-1} s L^{-T} - I is rank two minus I, so its spectrum comes in closed
    form from entries of Y, and a step carries Y by one or two
    Sherman-Morrison terms (``LogdetLine``).
    """

    name = "covariance"

    def __init__(self, sigma_hat):
        s = np.asarray(sigma_hat, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.all(np.isfinite(s)):
            raise ValueError("sigma_hat must be finite")
        if float(np.max(np.abs(s - s.T))) > 1e-10 * max(1.0, float(np.max(np.abs(s)))):
            raise ValueError("sigma_hat must be symmetric")
        self.sigma = 0.5 * s + 0.5 * s.T  # (s + s^T)/2 would overflow near the largest float
        self.p = s.shape[0]
        self.dimension = self.p * self.p
        self.spec = GscSpec(2.0, 3.0)

    def _factor(self, x):
        """Lower Cholesky factor of sym(x), or None outside the domain."""
        x = np.asarray(x, dtype=float)
        if not exactly_symmetric(x):  # else x is sym(x), and NaN fails the factorization
            scale = float(np.max(np.abs(x)))
            if not math.isfinite(scale) or float(np.max(np.abs(x - x.T))) > 1e-8 * max(1.0, scale):
                return None
            x = 0.5 * x + 0.5 * x.T  # (x + x^T)/2 overflows near the largest float
        low, info = dpotrf(x, lower=1, clean=1)
        # raw potrf reports success on a NaN or infinite diagonal, and a
        # non-finite entry of x reaches the diagonal of its factor
        return low if info == 0 and math.isfinite(float(low.trace())) else None

    def at(self, x) -> "LogdetPoint":
        return LogdetPoint(self, x)

    def value(self, x) -> float:
        return self.at(x).value()

    def gradient(self, x):
        return self.at(x).gradient()

    def hess_vec(self, x, v):
        y = self.at(x).x_inverse()
        z = y @ np.asarray(v, dtype=float) @ y
        return (z + z.T) / 2.0

    def in_domain(self, x) -> bool:
        return self._factor(x) is not None


class LogdetPoint(Point):
    """X with f and Y = X^{-1}, exactly symmetric (f = +inf and Y = None
    outside the domain).  A fresh point factors X once and forms both; a
    point a vertex line carries (``LogdetLine``) comes with Y, f and its
    ``age``, the carried steps since the last fresh point."""

    __slots__ = ("_y", "age")
    symmetric_gradient = True  # Sigma - Y, each exactly symmetric

    def __init__(self, obj: CovarianceObjective, x, carried=None):
        self.obj, self.x, self._g = obj, x, None
        self._y, self._f, self.age = carried or (None, math.inf, 0)
        low = None if carried else obj._factor(x)
        if low is not None:
            inv = dtrtri(low, lower=1)[0]
            y = inv.T @ inv
            self._y = (y + y.T) / 2.0
            self._f = inner(obj.sigma, x) - 2.0 * float(np.log(low.diagonal()).sum())

    def value(self) -> float:
        return self._f

    def x_inverse(self):
        """Y = X^{-1}, exactly symmetric."""
        if self._y is None:
            raise ValueError("undefined outside the domain: X is not positive definite")
        return self._y

    def gradient(self):
        if self._g is None:
            self._g = self.obj.sigma - self.x_inverse()
        return self._g

    def restrict(self, v) -> "LogdetLine":
        self.x_inverse()  # raises outside the domain
        inv = dtrtri(self.obj._factor(self.x), lower=1)[0]
        w = inv @ v @ inv.T
        return LogdetLine(self, v, np.linalg.eigvalsh((w + w.T) / 2.0).tolist(), 0)

    def toward_atom(self, a, b, h) -> "LogdetLine":
        # a symmetric l1-ball vertex s: b = 2h at (i, i), or b = h at (i, j) and (j, i)
        p = self.obj.p
        i, j = divmod(a, p)
        if b != j * p + i:  # not a mirrored pair: a general direction
            return super().toward_atom(a, b, h)
        b = h + h if i == j else h  # from here on, b is the entry s_ij
        v = 0.0 - self.x  # s - x bit for bit (+0.0 where x is 0.0)
        v[i, j] += b
        if i != j:
            v[j, i] += b
        # with c_i = L^{-1} e_i, L^{-1} s L^{-T} is b c_i c_i^T or
        # b (c_i c_j^T + c_j c_i^T), L^{-1} X L^{-T} = I, and c_i . c_j = Y_ij
        y = self.x_inverse()
        if i == j:
            lam = [b * float(y[i, i]) - 1.0]
        else:
            cross, norms = float(y[i, j]), math.sqrt(float(y[i, i]) * float(y[j, j]))
            lam = [b * (cross - norms) - 1.0, b * (cross + norms) - 1.0]
        return LogdetLine(self, v, lam, p - len(lam), (i, j, b))


# Below this distance of 1 + t lam_min from 0, rounding can decide whether X + tV
# factors, so in_domain asks the fresh point at(t), which factored it, for f.
_LOGDET_EDGE = 1e-6


class LogdetLine(Line):
    """f along X + tV from the spectrum of W = L^{-1} V L^{-T}: the
    eigenvalues ``lam`` other than -1 and the multiplicity ``ones`` of -1.
    A line toward a vertex has one or two of them in ``lam`` and the rest
    -1; any other direction lists all of W's eigenvalues with ``ones`` = 0.
    Each question is then a sum over ``lam`` plus ``ones`` equal terms.

    Toward s = b (e_i e_j^T + e_j e_i^T), or b e_i e_i^T (``vertex`` = (i, j,
    b)), ``at(t)`` carries Y: X + tV = (1 - t)(X + beta s), beta = t/(1 - t),
    has the inverse (Y - update)/(1 - t), the update one Sherman-Morrison
    term +-w w^T for i = j and two for i != j, each exactly symmetric as Y
    is; f = ``value(t)``.  At t >= 1, within ``_LOGDET_EDGE`` of the edge,
    and after p carried steps, X + tV is a fresh point, factored.
    """

    __slots__ = ("lam", "ones", "trace_sv", "vertex", "_low", "_high")

    def __init__(self, point: LogdetPoint, v, lam, ones, vertex=None):
        self.point, self.v, self._t, self._probe_point = point, v, None, None
        self.lam, self.ones, self.vertex = lam, ones, vertex
        self.trace_sv = inner(point.obj.sigma, v)
        spectrum = lam + [-1.0] if ones else lam
        self._low, self._high = min(spectrum), max(spectrum)

    def _edge(self, t) -> float:
        """min_i 1 + t lam_i; X + tV is positive definite iff it is > 0."""
        return 1.0 + t * (self._low if t >= 0.0 else self._high)

    def _point_at(self, t) -> LogdetPoint:
        point, x = self.point, t * self.v
        x += point.x  # X + tV in the new point's own buffer
        if (self.vertex is None or t >= 1.0 or point.age >= point.obj.p
                or self._edge(t) <= _LOGDET_EDGE):
            return LogdetPoint(point.obj, x)
        i, j, b = self.vertex
        y, q = point.x_inverse(), t * b / (1.0 - t)  # beta b
        # beta s is q u u^T for u = e_i, or q (u+ u+^T - u- u-^T)/2 for u+- =
        # e_i +- e_j; taking the term that adds to X first keeps each
        # Sherman-Morrison denominator 1 + c u^T Y u > 0 while X + tV > 0
        h, first = 0.5 * abs(q), math.copysign(1.0, q)
        terms = [(q, 0.0)] if i == j else [(h, first), (-h, -first)]
        for c, sign in terms:  # u = e_i + sign e_j; sign 0 keeps e_i's own operations
            yu = y[i] + sign * y[j] if sign else y[i]
            k = c / (1.0 + c * (yu.item(i) + sign * yu.item(j) if sign else yu.item(i)))
            w = math.sqrt(abs(k)) * yu  # k Y u u^T Y = +-w w^T, exactly symmetric
            z = np.multiply.outer(w, w)  # Y -+ w w^T then goes into z, never into the parent's Y
            y = np.subtract(y, z, out=z) if k > 0.0 else np.add(y, z, out=z)
        y /= 1.0 - t
        return LogdetPoint(point.obj, x, (y, self.value(t), point.age + 1))

    def value(self, t) -> float:
        if self._edge(t) <= 0.0:
            return math.inf
        lam = self.lam  # a vertex line's one or two terms, added as sum() adds them from 0
        logs = (0.0 + math.log1p(t * lam[0]) if len(lam) == 1 else
                0.0 + math.log1p(t * lam[0]) + math.log1p(t * lam[1]) if len(lam) == 2 else
                sum(math.log1p(t * x) for x in lam))
        logs = logs + self.ones * math.log1p(-t) if self.ones else logs
        return self.point.value() - logs + t * self.trace_sv

    def slope(self, t) -> float:
        if self._edge(t) <= 0.0:
            raise ValueError("slope undefined outside the domain")
        lam = self.lam
        out = self.trace_sv - (
            0.0 + lam[0] / (1.0 + t * lam[0]) if len(lam) == 1 else
            0.0 + lam[0] / (1.0 + t * lam[0]) + lam[1] / (1.0 + t * lam[1]) if len(lam) == 2 else
            sum(x / (1.0 + t * x) for x in lam))
        return out + self.ones / (1.0 - t) if self.ones else out

    def curvature(self) -> float:
        lam = self.lam
        return (0.0 + lam[0] * lam[0] if len(lam) == 1 else
                0.0 + lam[0] * lam[0] + lam[1] * lam[1] if len(lam) == 2 else
                sum(x * x for x in lam)) + self.ones

    def in_domain(self, t) -> bool:
        edge = self._edge(t)
        return edge > _LOGDET_EDGE or (edge > 0.0 and self.at(t).value() < math.inf)

    def max_step(self) -> float:
        # X + tV > 0 iff t * lam_max(-W) < 1
        if self._low >= 0.0:
            return 1.0
        return pull_back(1.0 / -self._low)


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
