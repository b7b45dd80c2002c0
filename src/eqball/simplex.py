"""Standard equilateral sets: constants, constructions, validation.

A standard equilateral set has all pairwise distances equal to 1.  In R^n
its size is at most n+1; the circumradius of a size-k set is beta(k) and
the perpendicular height of the (k+1)-th vertex over a size-k base is
alpha(k+1), with alpha(k+1)**2 + beta(k)**2 == 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    FullSpan,
    InvalidK,
    InvalidSet,
    NormMismatch,
    RadiusOutOfRange,
    SamplingFailure,
    TooLarge,
)
from .geometry import (
    DEFAULT_TOL,
    RANK_RESIDUAL,
    Frame,
    Tolerance,
    as_point,
    first_orthogonal_axis,
    row_dot,
)

MAX_SAMPLE_ATTEMPTS = 10**6


def beta(k: int) -> float:
    """Circumradius sqrt((k-1)/(2k)) of a standard equilateral set of size k.

    Strictly increasing in k with limit 1/sqrt(2); beta(1) == 0 by the
    degenerate single-point convention.
    """
    if k < 1:
        raise InvalidK(f"beta requires k >= 1, got {k}")
    return math.sqrt((k - 1) / (2.0 * k))


def alpha(m: int) -> float:
    """Perpendicular height sqrt(m/(2(m-1))) of the m-th vertex over a size m-1 base."""
    if m < 2:
        raise InvalidK(f"alpha requires subscript >= 2, got {m}")
    return math.sqrt(m / (2.0 * (m - 1)))


@lru_cache(maxsize=None)
def _pair_indices(k: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(k, 1)


def distance_errors(points) -> np.ndarray:
    """|‖p_i - p_j‖ - 1| for every pair i < j of each stacked point set.

    `points` has shape (..., k, n) and the result (..., k(k-1)/2), pairs in
    np.triu_indices(k, 1) order, so one call re-checks a single set or a
    whole (S, n+1, n) stack of them.
    """
    pts = np.asarray(points, dtype=float)
    i, j = _pair_indices(pts.shape[-2])
    return np.abs(np.linalg.norm(pts[..., i, :] - pts[..., j, :], axis=-1) - 1.0)


@dataclass
class EquilateralSet:
    """A list of k points in R^n with pairwise distances 1 (within tolerance)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InvalidSet("an equilateral set needs a 2-D (k, n) point array")
        if not np.all(np.isfinite(pts)):
            raise InvalidSet("points contain non-finite components")
        self.points = pts

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def pairwise_distance_error(self) -> float:
        """Largest deviation of a pairwise distance from 1 (0.0 for singletons)."""
        return float(distance_errors(self.points).max(initial=0.0))

    def max_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.points, axis=1)))

    def validate(self, in_ball: bool = False, tol: Tolerance = DEFAULT_TOL) -> None:
        if self.k > self.n + 1:
            raise InvalidSet(f"size {self.k} exceeds n+1 = {self.n + 1}")
        err = self.pairwise_distance_error()
        if err > tol.eps_eq:
            raise InvalidSet(f"pairwise distance deviates from 1 by {err:.3e}")
        if in_ball and self.max_norm() > 1.0 + tol.eps_eq:
            raise InvalidSet(f"a point has norm {self.max_norm():.12f} > 1")


@dataclass(frozen=True)
class SetStats:
    """Center, circumradius, and maximality flag of an equilateral set."""

    center: np.ndarray
    radius: float
    is_maximal: bool


def center(s: EquilateralSet, tol: Tolerance = DEFAULT_TOL) -> SetStats:
    """Arithmetic center and common point-to-center radius of a valid set."""
    s.validate(tol=tol)
    c = s.points.mean(axis=0)
    radii = np.linalg.norm(s.points - c, axis=1)
    if s.k > 1 and float(radii.max() - radii.min()) > tol.eps_eq:
        raise InvalidSet("points are not equidistant from the center")
    return SetStats(center=c, radius=float(radii.mean()), is_maximal=(s.k == s.n + 1))


def canonical_simplex(n: int, k: int) -> EquilateralSet:
    """Deterministic standard equilateral set of size k in R^n, centered at 0.

    Built by the perpendicular-height recursion: lift the centered size j-1
    set with an apex at height alpha(j) along a fresh axis, then recenter.
    """
    if k < 1:
        raise InvalidK(f"canonical_simplex requires k >= 1, got {k}")
    if n < 1:
        raise InvalidK(f"canonical_simplex requires n >= 1, got {n}")
    if k > n + 1:
        raise TooLarge(f"size {k} does not fit in R^{n} (max {n + 1})")
    pts = np.zeros((k, n))
    for j in range(2, k + 1):
        pts[j - 1, j - 2] = alpha(j)
        pts[:j] -= pts[:j].mean(axis=0)
    return EquilateralSet(pts)


def is_standard_equilateral(points, in_ball: bool = False,
                            tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff all pairwise distances are 1 within eps_eq (and norms <= 1+eps_eq)."""
    pts = [as_point(p) for p in points]
    if not pts:
        raise DimensionMismatch("empty point list")
    n = pts[0].size
    for p in pts:
        if p.size != n:
            raise DimensionMismatch("points have mixed dimensions")
    arr = np.array(pts)
    if float(distance_errors(arr).max(initial=0.0)) > tol.eps_eq:
        return False
    if in_ball and float(np.max(np.linalg.norm(arr, axis=1))) > 1.0 + tol.eps_eq:
        return False
    return True


def affine_independence_check(s: EquilateralSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the difference vectors of the set are linearly independent.

    Uses the Gram matrix of v_i = p_{i+1} - p_1; for a genuine equilateral
    set the entries are (1 + delta_ij)/2, which is positive definite.
    """
    if s.k < 2:
        raise InvalidSet("affine independence needs at least two points")
    diffs = s.points[1:] - s.points[0]
    gram = diffs @ diffs.T
    smallest = float(np.linalg.eigvalsh(gram)[0])
    return smallest > 1e-10


def height_above_base(n: int, rho: float) -> float:
    """Norm of the apex completing a maximal set whose base sits at norm rho.

    Equals alpha(n+1) - sqrt(rho**2 - beta(n)**2) on rho in [beta(n), 1].
    """
    bn = beta(n)
    return alpha(n + 1) - math.sqrt(max(rho * rho - bn * bn, 0.0))


@lru_cache(maxsize=None)
def _sphere_simplex(n: int) -> np.ndarray:
    """Read-only vertices of canonical_simplex(n-1, n): local coordinates of
    a regular n-point simplex in an (n-1)-dimensional complement."""
    pts = canonical_simplex(n - 1, n).points
    pts.flags.writeable = False
    return pts


def simplex_on_spheres(centers, normals, radius: float) -> np.ndarray:
    """Regular n-point simplices of circumradius `radius`, one per row of
    `centers` (k, n), each in the hyperplane through its center orthogonal
    to the matching row of `normals`; returns a (k, n, n) array.

    Every normal is completed to an orthonormal basis by Gram-Schmidt over
    the canonical axes in index order, two passes, dropping an axis whose
    residual is at most RANK_RESIDUAL: the basis orthonormal_complement
    builds, here for all k normals in one array pass.  The vertices of
    canonical_simplex(n-1, n) are carried into each complement and rescaled
    to `radius`.
    """
    centers = np.asarray(centers, dtype=float)
    normals = np.asarray(normals, dtype=float)
    k, n = normals.shape
    lengths = np.sqrt(row_dot(normals, normals))
    if not np.all(lengths > RANK_RESIDUAL):
        raise DegenerateInput("a normal vector is zero")
    rows = np.zeros((k, n, n))  # row 0 the unit normal, then the complement
    rows[:, 0] = normals / lengths[:, None]
    count = np.ones(k, dtype=np.intp)
    for i in range(n):
        if count.min() == n:
            break
        r = np.zeros((k, n))
        r[:, i] = 1.0
        for _ in range(2):  # second pass restores orthogonality lost to cancellation
            for j in range(min(i + 1, n)):  # rows past count[.] are zero
                w = rows[:, j]
                r -= row_dot(r, w)[:, None] * w
        norm = np.sqrt(row_dot(r, r))
        keep = np.flatnonzero((norm > RANK_RESIDUAL) & (count < n))
        rows[keep, count[keep]] = r[keep] / norm[keep, None]
        count[keep] += 1
    if count.min() < n:
        raise FullSpan("failed to complete the complement basis")
    offsets = _sphere_simplex(n) @ rows[:, 1:]
    offsets *= (radius / np.linalg.norm(offsets, axis=-1))[..., None]
    return centers[:, None, :] + offsets


def cap_extension(x, rho: float, tol: Tolerance = DEFAULT_TOL) -> EquilateralSet:
    """Size-n standard equilateral set at norm rho, all at distance 1 from x.

    Requires norm(x) to equal the apex height for rho.  The construction
    places a regular simplex of the orthogonal complement of x on the
    sphere of radius beta(n) and shifts it by -sqrt(rho**2 - beta(n)**2)
    along x; appending x itself then yields a maximal set in the ball.
    """
    x = as_point(x)
    n = x.size
    if n < 2:
        raise DimensionMismatch("cap_extension requires n >= 2")
    bn = beta(n)
    if rho < bn - tol.eps_eq or rho > 1.0 + tol.eps_eq:
        raise RadiusOutOfRange(f"rho={rho} outside [beta_n={bn}, 1]")
    rho = min(max(rho, bn), 1.0)
    expected = height_above_base(n, rho)
    nx = float(np.linalg.norm(x))
    if abs(nx - expected) > 10 * tol.eps_eq:
        raise NormMismatch(f"norm(x)={nx:.12e} but the height for rho={rho} is {expected:.12e}")
    if nx <= 10 * tol.eps_eq:
        # rho == 1 limit: the shift direction is free; take the tie-break axis.
        direction = first_orthogonal_axis(np.zeros((0, n)), n)
    else:
        direction = x / nx
    shift = -(math.sqrt(max(rho * rho - bn * bn, 0.0)) * direction)
    pts = simplex_on_spheres(shift[None, :], direction[None, :], bn)[0]
    out = EquilateralSet(pts)
    out.validate(tol=tol)
    if float(np.max(np.abs(np.linalg.norm(pts, axis=1) - rho))) > tol.eps_eq:
        raise NormMismatch("constructed points do not sit at norm rho")
    if float(np.max(np.abs(np.linalg.norm(pts - x, axis=1) - 1.0))) > tol.eps_eq:
        raise NormMismatch("constructed points are not at distance 1 from x")
    return out


def random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform rotation matrix from the QR of a Gaussian matrix."""
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def sample_maximal_set(n: int, seed: int, translation_radius: float | None = None,
                       tol: Tolerance = DEFAULT_TOL) -> EquilateralSet:
    """Seeded random maximal standard equilateral set inside the unit ball.

    A random rotation of the canonical simplex is translated by a point
    drawn uniformly from the ball of radius beta(n+1), rejection-resampled
    until every vertex lies in the ball.
    """
    if n < 1:
        raise InvalidK(f"sample_maximal_set requires n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    rot = random_rotation(n, rng)
    base = canonical_simplex(n, n + 1).points @ rot.T
    radius = beta(n + 1) if translation_radius is None else float(translation_radius)
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        if radius == 0.0:
            shift = np.zeros(n)
        else:
            direction = rng.standard_normal(n)
            direction /= np.linalg.norm(direction)
            shift = direction * radius * rng.uniform() ** (1.0 / n)
        pts = base + shift
        if float(np.max(np.linalg.norm(pts, axis=1))) <= 1.0:
            return EquilateralSet(pts)
    raise SamplingFailure(f"no in-ball sample after {MAX_SAMPLE_ATTEMPTS} attempts")


def embed_in_frame(local_points: np.ndarray, frame: Frame) -> np.ndarray:
    """Map local subspace coordinates (rows) to ambient vectors via the frame."""
    return np.asarray(local_points, dtype=float) @ frame.basis
