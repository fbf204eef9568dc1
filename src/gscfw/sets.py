"""Feasible sets and their linear minimization oracles.

Every set exposes ``lmo`` (vertex output, lowest-index tie-breaking) and a
membership test.  Polytope sets also answer ``lmo_indexed``
with a stable hashable vertex id and the vertex as an atom, not a dense array,
and the away-step solver keeps those atoms in its active set.  All sets are
immutable and their oracles are pure, so concurrent queries are safe.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .gsc import inner, l2_norm


class OracleViolation(RuntimeError):
    """A linear oracle returned a certifiably non-optimal answer."""


def gap(grad, x, score: float) -> float:
    """Dual merit <grad, x> - score, score = <grad, s>, s = lmo(grad); nonnegative at feasible x.

    Rounding-level negativity (relative to the inner products involved) is clamped to
    0; anything larger indicates a broken oracle.  A gradient with a NaN or infinite
    entry is a ValueError, not an oracle fault, even where the score is finite.
    """
    at_x = inner(grad, x)
    value = at_x - score
    if value >= 0.0 and (value < math.inf or np.isfinite(grad).all()):
        return value
    if not np.isfinite(grad).all():
        raise ValueError(f"non-finite gradient (gap {value})")
    scale = max(1.0, abs(at_x), abs(score))
    if value >= -1e-12 * scale:
        return 0.0
    raise OracleViolation(f"negative gap {value} exceeds rounding tolerance")


def exactly_symmetric(c) -> bool:
    """c equals its transpose bit for bit: NaN matches NaN, 0.0 does not match -0.0."""
    return c.tobytes() == c.T.tobytes()  # two contiguous copies: (c == c.T) reads c.T strided


class FeasibleSet(ABC):
    """Convex compact set accessed through a linear minimization oracle."""

    dimension: int

    @abstractmethod
    def lmo(self, c):
        """A minimizer of <c, .> over the set (an extreme point)."""

    @abstractmethod
    def contains(self, x, tol: float = 1e-9) -> bool:
        ...


class VertexSet(FeasibleSet):
    """Polytope whose oracle also reports a stable vertex id and whose every vertex is
    h (e_a + e_b) over the flat indices of a point of ``shape``; a box, say, is not one."""

    @abstractmethod
    def lmo_indexed(self, c):
        """Return (vertex_id, atom) of a minimizer, the atom as ``atom`` gives it;
        ids are hashable and orderable."""

    @abstractmethod
    def atom(self, vid):
        """(a, b, h) with vertex ``vid`` = h (e_a + e_b); a ValueError if no vertex has that id."""

    def vertex(self, vid):
        """The vertex with id ``vid``, as a new array."""
        a, b, h = self.atom(vid)
        return np.bincount((a, b), (h, h), self.dimension).reshape(self.shape)  # 2h when a == b

    def lmo(self, c):
        return self.vertex(self.lmo_indexed(c)[0])


# ---------------------------------------------------------------------------
# Set classes
# ---------------------------------------------------------------------------

def _radius(n: int, radius: float) -> float:
    """``radius`` as a float; a dimension ``n`` under 1, or a radius that is
    not finite and positive, is a ValueError."""
    if n < 1 or not 0.0 < radius < math.inf:
        raise ValueError(f"need a positive dimension and a finite positive radius, "
                         f"got {n} and {radius}")
    return float(radius)


class UnitSimplex(VertexSet):
    """{x >= 0, sum x = 1}; vertices are the coordinate basis, ids are ints."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be positive")
        self.dimension, self.shape = n, (n,)

    def lmo_indexed(self, c):
        c = np.asarray(c, dtype=float)
        i = int(c.argmin())
        return i, (i, i, 0.5)

    def atom(self, i: int):
        if not 0 <= i < self.dimension:
            raise ValueError(f"no vertex has id {i!r}")
        return i, i, 0.5

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool((x >= -tol).all() and abs(float(x.sum()) - 1.0) <= tol * max(1.0, self.dimension ** 0.5))


class L1Ball(VertexSet):
    """{||x||_1 <= R}; vertices +-R e_i, ids are (index, sign) pairs."""

    def __init__(self, n: int, radius: float):
        self.dimension, self.shape = n, (n,)
        self.radius = _radius(n, radius)

    def lmo_indexed(self, c):
        # vertex -R sign(c_i) e_i with i = argmax |c_j|; sign(0) taken as +1
        c = np.asarray(c, dtype=float)
        i = int(np.abs(c).argmax())
        sign = -1 if c[i] >= 0 else 1
        return (i, sign), (i, i, sign * self.radius / 2)

    def atom(self, vid):
        i, sign = vid
        if not (0 <= i < self.dimension and sign in (1, -1)):
            raise ValueError(f"no vertex has id {vid!r}")
        return i, i, sign * self.radius / 2

    def contains(self, x, tol: float = 1e-9) -> bool:
        return float(np.sum(np.abs(x))) <= self.radius * (1.0 + tol) + tol


class SymmetricL1Ball(VertexSet):
    """Symmetric p x p matrices with entrywise l1 norm at most R.

    Vertices are +-R E_ii and +-(R/2)(E_ij + E_ji); ids are (i, j, sign)
    with i <= j.
    """

    def __init__(self, p: int, radius: float):
        self.p = p
        self.dimension, self.shape = p * p, (p, p)
        self.radius = _radius(p, radius)

    def lmo_indexed(self, c):
        # the vertex -sign(c_ij) at the first largest-magnitude entry in
        # row-major order; sign(0) taken as +1
        c = np.asarray(c, dtype=float)
        if c.shape != (self.p, self.p):
            raise ValueError(f"expected a square {self.p} x {self.p} matrix")
        mag = np.abs(c)
        i, j = divmod(int(mag.argmax()), self.p)  # mag[i, j] is max |c|, NaN included
        if not exactly_symmetric(c):
            with np.errstate(invalid="ignore"):  # inf - inf in c - c.T: NaN, never a rejection
                if float(np.abs(c - c.T).max()) > 1e-10 * max(1.0, float(mag[i, j])):
                    raise ValueError("gradient matrix is not symmetric")
        i, j, sign = min(i, j), max(i, j), -1 if c[i, j] >= 0 else 1
        return (i, j, sign), (i * self.p + j, j * self.p + i, sign * self.radius / 2)

    def atom(self, vid):
        i, j, sign = vid
        if not (0 <= i <= j < self.p and sign in (1, -1)):
            raise ValueError(f"no vertex has id {vid!r}")
        return i * self.p + j, j * self.p + i, sign * self.radius / 2

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.p, self.p):
            return False
        scale = max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
        if float(np.max(np.abs(x - x.T))) > 1e-8 * scale:
            return False
        return float(np.sum(np.abs(x))) <= self.radius * (1.0 + tol) + tol


def _scaled(d):
    """d and ||d||_2, both divided by max |d| if d is finite but its squared norm overflows."""
    norm = l2_norm(d)
    if not math.isfinite(norm):
        if not np.isfinite(d).all():  # else 0 * inf in r / norm * d
            raise ValueError(f"non-finite gradient (norm {norm})")
        d = d / np.abs(d).max()
        norm = l2_norm(d)
    return d, norm


class EuclideanBall(FeasibleSet):
    """{||x||_2 <= r}; the oracle returns the boundary point -r c/||c||."""

    def __init__(self, n: int, radius: float):
        self.dimension = n
        self.radius = _radius(n, radius)

    def lmo(self, c):
        c, norm = _scaled(np.asarray(c, dtype=float))
        if norm == 0.0:
            out = np.zeros(self.dimension)
            out[0] = self.radius
            return out
        return -self.radius / norm * c

    def contains(self, x, tol: float = 1e-9) -> bool:
        return l2_norm(x) <= self.radius * (1.0 + tol) + tol


class NonnegativeBall(FeasibleSet):
    """{x >= 0, ||x||_2 <= r}: the nonnegative orthant slice of a ball."""

    def __init__(self, n: int, radius: float):
        self.dimension = n
        self.radius = _radius(n, radius)

    def lmo(self, c):
        c = np.asarray(c, dtype=float)
        d, norm = _scaled(np.maximum(-c, 0.0))
        if norm == 0.0:
            return np.zeros(self.dimension)
        return self.radius / norm * d

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= -tol)) and l2_norm(x) <= self.radius * (1.0 + tol) + tol


class ProductSet(FeasibleSet):
    """Cartesian product of blocks; the oracle decomposes blockwise."""

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        self.dimension = sum(b.dimension for b in self.blocks)
        self._slices = []
        offset = 0
        for b in self.blocks:
            self._slices.append(slice(offset, offset + b.dimension))
            offset += b.dimension

    def lmo(self, c):
        c = np.asarray(c, dtype=float)
        if c.shape[0] != self.dimension:
            raise ValueError(f"dimension mismatch: blocks sum to {self.dimension}, "
                             f"c has {c.shape[0]}")
        return np.concatenate([b.lmo(c[s]) for b, s in zip(self.blocks, self._slices)])

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.dimension:
            return False
        return all(b.contains(x[s], tol) for b, s in zip(self.blocks, self._slices))


# ---------------------------------------------------------------------------
# Local linear minimization oracle (simplex)
# ---------------------------------------------------------------------------

class SimplexLLOO:
    """Ball-restricted linear oracle on the unit simplex with rho = sqrt(n).

    query(x, r, c) returns u minimizing <c, .> over all simplex points whose
    one-sided transported mass does not exceed min(1, sqrt(n) r / 2); every
    point of B(x, r) on the simplex moves at most that much mass, so
    <c, y> >= <c, u> on the whole intersection, while ||x - u||_2 <= sqrt(n) r.
    Only the coordinates holding mass are drained, in one accumulate.
    """

    def __init__(self, n: int):
        self.n = n
        self.rho = math.sqrt(n)
        self._simplex = UnitSimplex(n)

    def query(self, x, r: float, c):
        if not r > 0:
            raise ValueError("radius must be positive")
        x = np.asarray(x, dtype=float)
        c = np.asarray(c, dtype=float)
        if not self._simplex.contains(x, tol=1e-7):
            raise ValueError("query point is not on the simplex")
        if float(c.max() - c.min()) == 0.0:  # np.ptp(c), NaN included
            return x.copy()
        budget = min(1.0, 0.5 * self.rho * r)
        target = int(c.argmin())
        u = x.copy()
        # drained[j] is the mass moved before the j-th coordinate holding mass,
        # worst c first (ties: lowest index).  From the first with more mass
        # than the budget left on (the next one, if one fills it exactly), drain
        # one at a time, as moved + (budget - moved) may round below the budget.
        held = x > 0.0
        held[target] = False
        order = held.nonzero()[0]
        order = order[(-c[order]).argsort(kind="stable")]
        mass = x[order]
        drained = np.add.accumulate(np.concatenate(([0.0], mass)))
        binding = (mass > budget - drained[:-1]).nonzero()[0]
        k = binding[0] if binding.size else mass.size
        u[order[:k]] = 0.0
        moved = float(drained[k])
        for idx in order[k:]:
            if moved >= budget:
                break
            take = min(u[idx], budget - moved)
            u[idx] -= take
            moved += take
        u[target] += moved
        return u

