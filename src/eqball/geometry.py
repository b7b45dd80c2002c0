"""Dense vector and subspace primitives shared by the whole library.

All points are 1-D float64 numpy arrays; a Frame is an orthonormal list of
such vectors stored as the rows of a 2-D array.  Everything here is a pure
function on immutable values.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, FullSpan

# Residual norm below which a candidate direction counts as dependent.
RANK_RESIDUAL = 1e-10
# Residual norm a canonical axis must keep to win the deterministic tie-break.
TIE_BREAK_RESIDUAL = 1e-6


@dataclass(frozen=True)
class Tolerance:
    """Numeric tolerances used across the library.

    eps_eq bounds distance/norm equality checks, eps_rank the row-space
    residual of the certificate checker, grid_step the brute-force grid
    resolution.
    """

    eps_eq: float = 1e-9
    eps_rank: float = 1e-8
    grid_step: float = 1e-4

    def __post_init__(self):
        if not (self.eps_eq > 0 and self.eps_rank > 0 and self.grid_step > 0):
            raise ValueError("tolerances must be strictly positive")
        if not self.eps_eq < self.grid_step:
            raise ValueError("eps_eq must be smaller than grid_step")

    def widened(self) -> Tolerance:
        """This tolerance with eps_eq ten times looser.

        Re-checks a set constructed from inputs that were themselves only
        within eps_eq of their constraints.
        """
        return replace(self, eps_eq=10 * self.eps_eq)


DEFAULT_TOL = Tolerance()


def as_point(x, n: int | None = None) -> np.ndarray:
    """Coerce x to a finite 1-D float64 vector, optionally of dimension n."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise DimensionMismatch(f"point must be a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DimensionMismatch("point has non-finite components")
    if n is not None and p.size != n:
        raise DimensionMismatch(f"point has dimension {p.size}, expected {n}")
    return p


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows (last axis).  Each row takes the BLAS
    dot that a[i] @ b[i] would, so its result is bit-equal to the one-row
    product, wherever the row sits in the batch."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class Frame:
    """An orthonormal list of vectors (rows of `basis`) spanning a subspace."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] < 1:
            raise DimensionMismatch("frame basis must be a non-empty 2-D array")
        object.__setattr__(self, "basis", b)
        gram = b @ b.T
        if np.max(np.abs(gram - np.eye(b.shape[0]))) > 1e-7:
            raise DimensionMismatch("frame basis is not orthonormal")

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    @property
    def n(self) -> int:
        return self.basis.shape[1]


def _residual(v: np.ndarray, rows) -> np.ndarray:
    """A copy of v minus its projection onto the orthonormal `rows`, by
    modified Gram-Schmidt with a re-orthogonalization pass."""
    u = v.copy()
    for _ in range(2):  # second pass restores orthogonality lost to cancellation
        for w in rows:
            u -= (u @ w) * w
    return u


def orthonormalize(vectors, n: int, rank_tol: float = RANK_RESIDUAL) -> np.ndarray:
    """Modified Gram-Schmidt with a re-orthogonalization pass.

    Returns the orthonormal rows spanning the same space as `vectors`;
    directions whose residual drops below rank_tol are dropped as dependent.
    """
    rows = []
    for v in vectors:
        u = _residual(as_point(v, n), rows)
        norm = float(np.linalg.norm(u))
        if norm > rank_tol:
            rows.append(u / norm)
    if not rows:
        return np.zeros((0, n))
    return np.array(rows)


def first_orthogonal_axis(existing: np.ndarray, n: int,
                          residual_floor: float = TIE_BREAK_RESIDUAL) -> np.ndarray:
    """Deterministic tie-break for 'any unit vector orthogonal to a span'.

    Scans the canonical axes in index order and returns the first whose
    residual after projection onto `existing` (orthonormal rows) stays above
    residual_floor, re-orthonormalized.  A second scan with the rank floor
    guards against the degenerate case where every axis is nearly dependent.
    """
    axes = np.eye(n)
    for floor in (residual_floor, RANK_RESIDUAL):
        for e in axes:
            r = _residual(e, existing)
            norm = float(np.linalg.norm(r))
            if norm >= floor:
                return r / norm
    raise FullSpan("no canonical axis is independent of the span")


def orthonormal_complement(vectors, n: int, tol: Tolerance = DEFAULT_TOL) -> Frame:
    """Orthonormal basis of the orthogonal complement of span(vectors) in R^n.

    Raises FullSpan when the input already spans R^n.
    """
    span = orthonormalize(vectors, n)
    d = span.shape[0]
    if d >= n:
        raise FullSpan(f"span has dimension {d} in R^{n}; complement is trivial")
    rows = []
    stacked = span
    for e in np.eye(n):
        if len(rows) == n - d:
            break
        r = _residual(e, stacked)
        norm = float(np.linalg.norm(r))
        if norm > RANK_RESIDUAL:
            r /= norm
            rows.append(r)
            stacked = np.vstack([stacked, r])
    if len(rows) != n - d:
        raise FullSpan("failed to complete the complement basis")
    return Frame(np.array(rows))


def section2d(a, b, tol: Tolerance = DEFAULT_TOL) -> Frame:
    """Orthonormal frame of a two-dimensional subspace containing a and b.

    When a and b are collinear through the origin the second direction is
    chosen by the canonical-axis tie-break, so output is reproducible.
    """
    a = as_point(a)
    b = as_point(b, a.size)
    n = a.size
    if n < 2:
        raise DimensionMismatch("a 2-D section needs ambient dimension >= 2")
    if np.linalg.norm(b - a) <= tol.eps_eq:
        raise DegenerateInput("section2d requires two distinct points")
    rows = orthonormalize([a, b], n)
    while rows.shape[0] < 2:
        extra = first_orthogonal_axis(rows, n)
        rows = np.vstack([rows, extra]) if rows.size else extra[None, :]
    return Frame(rows[:2])
