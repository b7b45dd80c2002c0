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

from .errors import ConstructionError, InputError
from .geometry import (
    DEFAULT_TOL,
    RANK_RESIDUAL,
    Tolerance,
    as_point,
    clamp_to_range,
    first_orthogonal_axis,
    row_dot,
)

MAX_SAMPLE_ATTEMPTS = 10**6
# The most pairwise-difference coordinates, sets * k(k-1)/2 pairs * n, that
# one pass of check_sets holds: 2**19 float64 (4 MB) per array.  The sets of
# a certificate at n <= 5 fit in one pass.
CHECK_CHUNK_CELLS = 2**19


def beta(k: int) -> float:
    """Circumradius sqrt((k-1)/(2k)) of a standard equilateral set of size k.

    Strictly increasing in k with limit 1/sqrt(2); beta(1) == 0 by the
    degenerate single-point convention.
    """
    if k < 1:
        raise InputError(f"beta requires k >= 1, got {k}")
    return math.sqrt((k - 1) / (2.0 * k))


def alpha(m: int) -> float:
    """Perpendicular height sqrt(m/(2(m-1))) of the m-th vertex over a size m-1 base."""
    if m < 2:
        raise InputError(f"alpha requires subscript >= 2, got {m}")
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


def check_sets(points, in_ball: bool, tol: Tolerance = DEFAULT_TOL, error=InputError,
               ids=None):
    """The re-check of a stack of point sets: the (S, k, n) array `points`,
    or with `ids` the sets of row indices ids[s] into the (N, n) table
    `points`.  Returns each set's worst |‖p_i - p_j‖ - 1|, its largest point
    norm, and its checks for first_failure, (failing mask, `error` for set
    i) on the distances and, with `in_ball`, on the norms.  The sets are
    taken CHECK_CHUNK_CELLS difference coordinates at a time, which bounds
    the memory whatever S and n."""
    pts = np.asarray(points, dtype=float)
    count, k = ids.shape if ids is not None else pts.shape[:2]
    step = max(CHECK_CHUNK_CELLS // max(k * (k - 1) // 2 * pts.shape[-1], 1), 1)
    err, top = np.empty(count), np.empty(count)
    with np.errstate(over="ignore"):  # a finite but huge coordinate gives inf
        for start in range(0, count, step):
            chunk = pts[ids[start:start + step]] if ids is not None else pts[start:start + step]
            err[start:start + step] = distance_errors(chunk).max(axis=-1, initial=0.0)
            top[start:start + step] = np.linalg.norm(chunk, axis=-1).max(axis=-1)
    checks = [(err > tol.eps_eq,
               lambda i: error(f"pairwise distance deviates from 1 by {err[i]:.3e}"))]
    if in_ball:
        checks.append((top > 1.0 + tol.eps_eq,
                       lambda i: error(f"a point has norm {top[i]:.12f} > 1")))
    return err, top, checks


def first_failure(checks) -> tuple[int, Exception] | None:
    """The first item failing any of `checks`, a list of (failing mask, error
    for item i) in the order one item is checked, and that item's first error."""
    fails = np.array([mask for mask, _ in checks])
    if not fails.any():
        return None
    i = int(np.argmax(fails.any(axis=0)))
    return i, checks[int(np.argmax(fails[:, i]))][1](i)


@dataclass
class EquilateralSet:
    """A list of k points in R^n with pairwise distances 1 (within tolerance)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InputError("an equilateral set needs a 2-D (k, n) point array, k, n >= 1")
        if not np.all(np.isfinite(pts)):
            raise InputError("points contain non-finite components")
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
            raise InputError(f"size {self.k} exceeds n+1 = {self.n + 1}")
        failed = first_failure(check_sets(self.points[None], in_ball, tol)[2])
        if failed is not None:
            raise failed[1]

    def recheck(self, in_ball: bool = False, tol: Tolerance = DEFAULT_TOL) -> None:
        """validate() for a set the library just built: a failure is a ConstructionError."""
        try:
            self.validate(in_ball=in_ball, tol=tol)
        except InputError as exc:
            raise ConstructionError(str(exc)) from exc


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
        raise InputError("points are not equidistant from the center")
    return SetStats(center=c, radius=float(radii.mean()), is_maximal=(s.k == s.n + 1))


def canonical_simplex(n: int, k: int) -> EquilateralSet:
    """Deterministic standard equilateral set of size k in R^n, centered at 0.

    Built by the perpendicular-height recursion: lift the centered size j-1
    set with an apex at height alpha(j) along a fresh axis, then recenter.
    """
    if k < 1:
        raise InputError(f"canonical_simplex requires k >= 1, got {k}")
    if n < 1:
        raise InputError(f"canonical_simplex requires n >= 1, got {n}")
    if k > n + 1:
        raise InputError(f"size {k} does not fit in R^{n} (max {n + 1})")
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


@lru_cache(maxsize=None)
def _leading_axes(n: int) -> np.ndarray:
    """Read-only rows 0..n-2 of the n x n identity, built once per n."""
    axes = np.eye(n)[:-1]
    axes.flags.writeable = False
    return axes


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

    The complement of each unit normal v is rows 0..n-2 of the Householder
    reflection I - 2*h*h^T/(h^T h), h = v + copysign(1, v[-1])*e[-1], which
    maps v to -+e[-1]: ||h||**2 = 2 + 2*|v[-1]| >= 2, so nothing cancels
    (Householder, J. ACM 5, 1958).  The vertices of canonical_simplex(n-1, n),
    a regular n-point simplex of an (n-1)-dimensional complement, are
    carried into each complement and rescaled to `radius`.  Where the
    center's coordinates in the complement basis have length
    t > RANK_RESIDUAL and direction u, an orthogonal map of the complement
    first puts vertex 0 at center - radius*u: with v0 the direction of
    vertex 0 and s = +-1 the sign of <v0, u>, s times the reflection along
    w = v0 + s*u (||w|| >= sqrt(2)).  Each other vertex v then has
    <center, v - center> = radius*t/(n-1).  Working in complement
    coordinates keeps u off the normal; a projection of the center off the
    normal would tilt u by about 2**-52 * ||center|| / t per pass.  A
    center on the normal's line keeps the canonical orientation.
    """
    centers = np.asarray(centers, dtype=float)
    normals = np.asarray(normals, dtype=float)
    n = normals.shape[1]
    lengths = np.sqrt(row_dot(normals, normals))
    if not (lengths > RANK_RESIDUAL).all():
        raise InputError("a normal vector is zero")
    h = normals / lengths[:, None]
    h[:, -1] += np.copysign(1.0, h[:, -1])
    scale = 2.0 / row_dot(h, h)
    complements = _leading_axes(n) - (h[:, :-1] * scale[:, None])[:, :, None] * h[:, None, :]
    base = _simplex_vertices(n - 1)
    local = (complements @ centers[:, :, None])[..., 0]
    t = np.sqrt(row_dot(local, local))
    # Every row is turned; rows with t <= RANK_RESIDUAL (u of 0/0 among
    # them, whose arithmetic may warn) then keep the canonical vertices.
    with np.errstate(all="ignore"):
        u = local / t[:, None]
        sign = np.copysign(1.0, u @ base[0])[:, None]
        w = base[0] / beta(n) + sign * u
        along = (base @ w[..., None]) * (2.0 / row_dot(w, w))[:, None, None]
        turned = sign[..., None] * (base - along * w[:, None, :])
    vertices = np.where((t > RANK_RESIDUAL)[:, None, None], turned, base)
    offsets = vertices @ complements
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
        raise InputError("cap_extension requires n >= 2")
    bn = beta(n)
    rho = clamp_to_range("rho", rho, bn, 1.0, tol)
    expected = height_above_base(n, rho)
    nx = math.sqrt(x @ x)
    # An apex off by eps_eq moves its distances by about alpha(n+1)*eps_eq < eps_eq.
    if abs(nx - expected) > tol.eps_eq:
        raise InputError(f"norm(x)={nx:.12e} but the height for rho={rho} is {expected:.12e}")
    if nx <= tol.eps_eq:
        # rho == 1 limit: the shift direction is free; take the tie-break axis.
        direction = first_orthogonal_axis(np.zeros((0, n)), n)
    else:
        direction = x / nx
    shift = -(math.sqrt(max(rho * rho - bn * bn, 0.0)) * direction)
    pts = simplex_on_spheres(shift[None, :], direction[None, :], bn)[0]
    EquilateralSet(np.vstack([x, pts])).recheck(tol=tol)
    if float(np.max(np.abs(np.linalg.norm(pts, axis=1) - rho))) > tol.eps_eq:
        raise ConstructionError("constructed points do not sit at norm rho")
    return EquilateralSet(pts)


def random_rotations(n: int, count: int, rng) -> np.ndarray:
    """Haar-uniform rotation matrices as a (count, n, n) stack.

    One Gaussian draw of shape (count, n, n) fills the stack; one stacked QR
    orthogonalizes it, the column signs follow diag(r) and a negative
    determinant flips the first column.
    """
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    q = q * d[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def gram_slack(n: int, radius: float) -> float:
    """Half-width delta of the band around 1 where _in_ball takes exact norms.

    With u = 2**-53, the bound fl(|v|^2 + 2<v, t> + |t|^2) and the sum s of
    squares that np.linalg.norm(fl(v + t)) takes the sqrt of differ by at
    most (3n + 4) u (|v| + |t|)^2 to first order in nu, and |v| <= beta(n+1)
    < 0.71, |t| <= |radius| up to rounding.  sqrt(s) <= 1 iff s <= 1 + 2**-52,
    and delta exceeds the rounding bound plus 2**-52: so a bound <= 1 - delta
    is in, and one >= 1 + delta is out.
    """
    return (n + 2) * 2.0**-51 * (1.0 + abs(radius)) ** 2


def _gram_rows(vertices: np.ndarray) -> np.ndarray:
    """[2v, |v|^2, 1] for each vertex v of a (P, n+1, n) stack, as the
    (P, n+2, n+1) factor that a proposal's row [t, 1, |t|^2] multiplies."""
    rows = [2.0 * vertices, row_dot(vertices, vertices)[..., None], np.ones_like(vertices[..., :1])]
    return np.concatenate(rows, axis=-1).transpose(0, 2, 1).copy()


def _in_ball(vertices: np.ndarray, rows: np.ndarray, shifts: np.ndarray,
             slack: float) -> np.ndarray:
    """The (P, k) mask np.linalg.norm(vertices[p] + shifts[p, j], axis=-1).max()
    <= 1.0, bit for bit: one batched product of the rows [t, 1, |t|^2] with
    _gram_rows(vertices) bounds each |v + t|^2, and only a proposal whose
    bound lies within `slack` (gram_slack) of 1 takes the exact test."""
    aug = [shifts, np.ones_like(shifts[..., :1]), row_dot(shifts, shifts)[..., None]]
    bound = (np.concatenate(aug, axis=-1) @ rows).max(axis=-1)
    inside = bound <= 1.0 - slack
    near = np.nonzero(~(inside | (bound >= 1.0 + slack)))
    if near[0].size:
        pts = vertices[near[0]] + shifts[near][:, None, :]
        inside[near] = np.linalg.norm(pts, axis=-1).max(axis=-1) <= 1.0
    return inside


def sample_maximal_sets(n: int, count: int, rng) -> np.ndarray:
    """Random maximal standard equilateral sets inside the unit ball, drawn
    from the generator `rng`, as a (count, n+1, n) stack.

    Each set is a random rotation of the canonical simplex translated by a
    point drawn uniformly from the ball of radius beta(n+1),
    rejection-resampled until every vertex lies in the ball (as _in_ball
    tests it).  Rejection runs in rounds of about `count` proposals, split
    evenly over the sets still pending; each takes its first in-ball
    proposal, so it keeps the law of one-at-a-time resampling.  With
    count == 1 every round is one proposal, drawn as the one-set loop drew
    it: the direction, then the radial draw.
    """
    if n < 1:
        raise InputError(f"sample_maximal_sets requires n >= 1, got {n}")
    base = _simplex_vertices(n) @ random_rotations(n, count, rng).transpose(0, 2, 1)
    radius = beta(n + 1)
    power = 1.0 / n
    out = np.empty_like(base)
    todo, rows = np.arange(count), _gram_rows(base)
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        if todo.size == 0:
            break
        shift = rng.standard_normal((todo.size, count // todo.size, n))
        # random() is uniform() on [0, 1), bit for bit.  Each step rounds as
        # the one-set loop did: the norm is the sqrt of one row's dot
        # (np.linalg.norm of a vector), the power is the scalar pow of a
        # Python float (array kernels may round it differently), and the
        # product is grouped (d * radius) * s.
        draws = rng.random(shift.shape[:2])
        scale = np.array([u ** power for u in draws.ravel().tolist()]).reshape(draws.shape)
        shift /= np.sqrt(row_dot(shift, shift))[..., None]
        shift = (shift * radius) * scale[..., None]
        inside = _in_ball(base, rows, shift, gram_slack(n, radius))
        hit = inside.any(axis=1)
        if hit.any():
            out[todo[hit]] = base[hit] + shift[hit, inside[hit].argmax(axis=1)][:, None, :]
            todo, base, rows = todo[~hit], base[~hit], rows[~hit]
    if todo.size:
        raise ConstructionError(f"no in-ball sample after {MAX_SAMPLE_ATTEMPTS} attempts")
    return out


def sample_maximal_set(n: int, seed: int) -> EquilateralSet:
    """Seeded random maximal standard equilateral set inside the unit ball;
    sample_maximal_sets of one set from default_rng(seed)."""
    return EquilateralSet(sample_maximal_sets(n, 1, np.random.default_rng(seed))[0])
