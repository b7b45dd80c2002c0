"""Dense vector and subspace primitives shared by the whole library.

All points are 1-D float64 numpy arrays; a Frame is an orthonormal list of
such vectors stored as the rows of a 2-D array.  Everything here is a pure
function on immutable values.
"""
from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, InputError

# Residual norm below which a candidate direction counts as dependent.
RANK_RESIDUAL = 1e-10
# Residual norm a canonical axis must keep to win the deterministic tie-break.
TIE_BREAK_RESIDUAL = 1e-6
# Resolution of the brute-force clearance grid; eps_eq must stay below it.
GRID_STEP = 1e-4


@dataclass(frozen=True)
class Tolerance:
    """Numeric tolerance used across the library: eps_eq bounds
    distance/norm equality checks."""

    eps_eq: float = 1e-9

    def __post_init__(self):
        if not self.eps_eq > 0:
            raise ValueError("tolerances must be strictly positive")
        if not self.eps_eq < GRID_STEP:
            raise ValueError("eps_eq must be smaller than grid_step")

    def widened(self) -> Tolerance:
        """This tolerance with eps_eq ten times looser.

        Re-checks a set constructed from inputs that were themselves only
        within eps_eq of their constraints.  A widened tolerance only feeds
        equality checks, never the brute-force grid, so the constructor's
        eps_eq < GRID_STEP bound is not applied: every valid tolerance widens.
        """
        wide = copy(self)
        object.__setattr__(wide, "eps_eq", 10 * self.eps_eq)
        return wide


DEFAULT_TOL = Tolerance()


def as_point(x, n: int | None = None) -> np.ndarray:
    """Coerce x to a finite 1-D float64 vector, optionally of dimension n."""
    p = np.asarray(x, dtype=float, order="C")
    if p.ndim != 1 or p.size < 1:
        raise InputError(f"point must be a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InputError("point has non-finite components")
    if n is not None and p.size != n:
        raise InputError(f"point has dimension {p.size}, expected {n}")
    return p


def clamp_to_range(name: str, value: float, lo: float, hi: float,
                   tol: Tolerance = DEFAULT_TOL) -> float:
    """`value` clamped to [lo, hi]; InputError unless it lies within eps_eq of it."""
    if value < lo - tol.eps_eq or value > hi + tol.eps_eq:
        raise InputError(f"{name}={value} outside [{lo}, {hi}]")
    return min(max(value, lo), hi)


def json_number_array(value) -> np.ndarray:
    """A parsed JSON array (of arrays) of numbers as a float64 array; InputError
    unless every entry is a JSON number, where np.asarray would also take the
    string "0.5" and the booleans true and false."""
    cells = np.asarray(value, dtype=object)
    if not set(map(type, cells.ravel().tolist())) <= {int, float}:
        raise InputError("coordinates must be JSON numbers")
    try:
        return cells.astype(float)
    except OverflowError as exc:
        raise InputError(f"a coordinate is out of range: {exc}") from exc


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
            raise InputError("frame basis must be a non-empty 2-D array")
        object.__setattr__(self, "basis", b)
        gram = b @ b.T
        if np.max(np.abs(gram - np.eye(b.shape[0]))) > 1e-7:
            raise InputError("frame basis is not orthonormal")

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


def orthonormalize(vectors, n: int) -> np.ndarray:
    """Modified Gram-Schmidt with a re-orthogonalization pass.

    Returns the orthonormal rows spanning the same space as `vectors`;
    directions whose residual is at most RANK_RESIDUAL are dropped as dependent.
    """
    rows = []
    for v in vectors:
        u = _residual(as_point(v, n), rows)
        norm = math.sqrt(u @ u)
        if norm > RANK_RESIDUAL:
            rows.append(u / norm)
    if not rows:
        return np.zeros((0, n))
    return np.array(rows)


def first_orthogonal_axis(existing: np.ndarray, n: int) -> np.ndarray:
    """Deterministic tie-break for 'any unit vector orthogonal to a span'.

    Scans the canonical axes in index order and returns the first whose
    residual after projection onto `existing` (orthonormal rows) is at least
    TIE_BREAK_RESIDUAL, re-orthonormalized.  With m < n rows the squared
    residuals of the n axes sum to n - m >= 1, so some axis keeps a residual
    of at least 1/sqrt(n).
    """
    for e in np.eye(n):
        r = _residual(e, existing)
        norm = math.sqrt(r @ r)
        if norm >= TIE_BREAK_RESIDUAL:
            return r / norm
    raise ConstructionError("no canonical axis is independent of the span")


def orthonormal_complement(vectors, n: int) -> Frame:
    """Orthonormal basis of the orthogonal complement of span(vectors) in R^n.

    The span is completed by Gram-Schmidt over the canonical axes in index
    order (orthonormalize).  Raises InputError when the input already spans
    R^n.
    """
    span = orthonormalize(vectors, n)
    d = span.shape[0]
    if d >= n:
        raise InputError(f"span has dimension {d} in R^{n}; complement is trivial")
    return Frame(orthonormalize([*span, *np.eye(n)], n)[d:])


def section2d(a, b, tol: Tolerance = DEFAULT_TOL) -> Frame:
    """Orthonormal frame of a two-dimensional subspace containing a and b.

    When a and b are collinear through the origin the second direction is
    chosen by the canonical-axis tie-break, so output is reproducible.
    """
    a = as_point(a)
    b = as_point(b, a.size)
    n = a.size
    if n < 2:
        raise InputError("a 2-D section needs ambient dimension >= 2")
    if np.linalg.norm(b - a) <= tol.eps_eq:
        raise InputError("section2d requires two distinct points")
    rows = orthonormalize([a, b], n)
    while rows.shape[0] < 2:
        extra = first_orthogonal_axis(rows, n)
        rows = np.vstack([rows, extra]) if rows.size else extra[None, :]
    return Frame(rows[:2])
