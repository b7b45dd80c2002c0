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


@lru_cache(maxsize=None)
def _simplex_vertices(n: int) -> np.ndarray:
    """Read-only vertices of canonical_simplex(n, n+1), built once per n."""
    pts = canonical_simplex(n, n + 1).points
    pts.flags.writeable = False
    return pts


def height_above_base(n: int, rho: float) -> float:
    """Norm of the apex completing a maximal set whose base sits at norm rho.

    Equals alpha(n+1) - sqrt(rho**2 - beta(n)**2) on rho in [beta(n), 1].
    """
    bn = beta(n)
    return alpha(n + 1) - math.sqrt(max(rho * rho - bn * bn, 0.0))


def simplex_on_spheres(centers, normals, radius: float) -> np.ndarray:
    """Regular n-point simplices of circumradius `radius`, one per row of
    `centers` (k, n), each in the hyperplane through its center orthogonal
    to the matching row of `normals`; returns a (k, n, n) array.

    Every normal is completed to an orthonormal basis by Gram-Schmidt over
    the canonical axes in index order, two passes, dropping an axis whose
    residual is at most RANK_RESIDUAL: the basis orthonormal_complement
    builds, here for all k normals in one array pass.  The vertices of
    canonical_simplex(n-1, n), a regular n-point simplex of an
    (n-1)-dimensional complement, are carried into each complement and
    rescaled to `radius`.
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
    offsets = _simplex_vertices(n - 1) @ rows[:, 1:]
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


def random_rotations(n: int, rngs) -> np.ndarray:
    """Haar-uniform rotation matrices, one per generator, as a (k, n, n) stack.

    Each generator draws its own Gaussian (n, n) matrix; one stacked QR
    orthogonalizes them all, the column signs follow diag(r) and a negative
    determinant flips the first column.
    """
    g = np.array([rng.standard_normal((n, n)) for rng in rngs]).reshape(-1, n, n)
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    q = q * d[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform rotation matrix from the QR of a Gaussian matrix."""
    return random_rotations(n, [rng])[0]


def sample_maximal_sets(n: int, seeds, translation_radius: float | None = None) -> np.ndarray:
    """Seeded random maximal standard equilateral sets inside the unit ball.

    Returns a (k, n+1, n) stack, one set per seed.  Each set is a random
    rotation of the canonical simplex translated by a point drawn uniformly
    from the ball of radius beta(n+1) (or `translation_radius`),
    rejection-resampled until every vertex lies in the ball.  Rejection runs
    in rounds: each round draws the next translation of every still-rejected
    set from that set's own generator and tests the whole round in one array
    pass, so each set is the one its seed alone would give.
    """
    if n < 1:
        raise InvalidK(f"sample_maximal_sets requires n >= 1, got {n}")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    base = _simplex_vertices(n) @ random_rotations(n, rngs).transpose(0, 2, 1)
    radius = beta(n + 1) if translation_radius is None else float(translation_radius)
    power = 1.0 / n
    out = np.empty_like(base)
    todo = np.arange(len(rngs))
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        if radius == 0.0:
            shift = np.zeros((todo.size, n))
        else:
            live = [rngs[i] for i in todo.tolist()]
            # Per generator: the direction, then the radial draw.  random() is
            # uniform() on [0, 1), bit for bit, at a third of the call cost.
            # Each step rounds as the one-set loop did: the norm is the sqrt
            # of one row's dot (np.linalg.norm of a vector), the power is the
            # scalar pow of a Python float (array kernels may round it
            # differently), and the product is grouped (d * radius) * s.
            shift = np.array([rng.standard_normal(n) for rng in live]).reshape(-1, n)
            scale = np.array([rng.random() ** power for rng in live])
            shift /= np.sqrt(row_dot(shift, shift))[:, None]
            shift = (shift * radius) * scale[:, None]
        pts = base[todo] + shift[:, None, :]
        inside = np.linalg.norm(pts, axis=-1).max(axis=-1) <= 1.0
        out[todo[inside]] = pts[inside]
        todo = todo[~inside]
        if todo.size == 0:
            return out
    raise SamplingFailure(f"no in-ball sample after {MAX_SAMPLE_ATTEMPTS} attempts")


def sample_maximal_set(n: int, seed: int,
                       translation_radius: float | None = None) -> EquilateralSet:
    """Seeded random maximal standard equilateral set inside the unit ball;
    the one-seed case of sample_maximal_sets."""
    return EquilateralSet(sample_maximal_sets(n, [seed], translation_radius)[0])


def embed_in_frame(local_points: np.ndarray, frame: Frame) -> np.ndarray:
    """Map local subspace coordinates (rows) to ambient vectors via the frame."""
    return np.asarray(local_points, dtype=float) @ frame.basis
