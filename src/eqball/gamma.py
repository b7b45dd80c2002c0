"""Clearance around the midpoint of a pair, and the two-set linking move.

gamma(a, b) is the largest r such that the ball of radius r in the
hyperplane orthogonal to b - a, centered at the midpoint of a and b, stays
inside the unit ball.  It reduces to a two-dimensional computation in any
plane containing a and b, with closed form
    r = -<x0, u> + sqrt(<x0, u>**2 + 1 - ||x0||**2)
for the in-plane unit vector u orthogonal to b - a with <u, a + b> >= 0.

When ||b - a|| equals twice alpha(n+1) and the clearance is at least
beta(n), the sphere of radius beta(n) around the midpoint carries a size-n
equilateral set whose union with either endpoint is maximal in the ball:
two maximal sets sharing n points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, InputError
from .geometry import DEFAULT_TOL, Frame, Tolerance, as_point, orthonormalize, row_dot, section2d
from .simplex import EquilateralSet, alpha, beta, check_sets, first_failure, simplex_on_spheres

# Seed of the deterministic direction net used by the brute-force evaluator.
NET_SEED = 0
NET_DIRECTIONS_PER_DIM = 2048
# Distance tolerance of the linking move; callers construct b from a numerically.
LINK_DISTANCE_TOL = 1e-7


@dataclass(frozen=True)
class GammaResult:
    """Clearance value, the in-plane direction achieving it, and the midpoint."""

    value: float
    direction: np.ndarray
    midpoint: np.ndarray


def _validate_pair(a, b, tol: Tolerance):
    a = as_point(a)
    b = as_point(b, a.size)
    if a.size < 2:
        raise InputError("clearance needs ambient dimension >= 2")
    if np.linalg.norm(b - a) <= tol.eps_eq:
        raise InputError("a and b coincide")
    for p in (a, b):
        if float(np.linalg.norm(p)) > 1.0 + tol.eps_eq:
            raise InputError(f"point with norm {float(np.linalg.norm(p)):.12f} is outside the ball")
    return a, b


def gamma(a, b, tol: Tolerance = DEFAULT_TOL) -> GammaResult:
    """Closed-form clearance of the pair (a, b) inside the unit ball."""
    a, b = _validate_pair(a, b, tol)
    x0 = (a + b) / 2.0
    frame = section2d(a, b, tol)
    d_local = frame.basis @ (b - a)
    d_local /= np.linalg.norm(d_local)
    u_local = np.array([-d_local[1], d_local[0]])
    u = u_local @ frame.basis
    s = float(u @ (a + b))
    if s < -tol.eps_eq:
        u = -u
    elif abs(s) <= tol.eps_eq:
        # Midpoint orthogonal to u (or zero): both signs give the same value;
        # fix the sign lexicographically for reproducibility.
        for comp in u:
            if abs(comp) > 1e-9:
                if comp < 0:
                    u = -u
                break
    value = float(_clearance(x0, (b - a) / np.linalg.norm(b - a)))
    return GammaResult(value=value, direction=u, midpoint=x0)


def _clearance(x0: np.ndarray, d_hat: np.ndarray) -> np.ndarray:
    """Closed-form clearance of midpoints x0 for unit hop directions d_hat
    (rows of equal shape).

    t = ||x0 - <x0, d_hat> d_hat|| is <x0, u> for the in-plane unit vector u
    of the module docstring, so the value is -t + sqrt(t**2 + 1 - ||x0||**2).
    """
    perp = x0 - row_dot(x0, d_hat)[..., None] * d_hat
    t = np.sqrt(row_dot(perp, perp))
    return -t + np.sqrt(np.maximum(t * t + 1.0 - row_dot(x0, x0), 0.0))


def gamma_bruteforce(a, b, M: Frame, grid_step: float | None = None,
                     tol: Tolerance = DEFAULT_TOL) -> float:
    """Grid evaluation of the clearance restricted to a subspace M.

    Directions are drawn from a seeded net on the unit sphere of the
    intersection of M with the hyperplane orthogonal to b - a, plus the
    analytically worst direction when it lies in that subspace; the result
    is the largest grid multiple r such that every sampled direction keeps
    the midpoint shifted by r inside the ball.  Biased low by at most one
    grid step.
    """
    a, b = _validate_pair(a, b, tol)
    if grid_step is None:
        grid_step = tol.grid_step
    n = a.size
    if M.n != n:
        raise InputError("frame dimension does not match the points")
    d_hat = (b - a) / np.linalg.norm(b - a)
    w = M.basis.T @ (M.basis @ d_hat)
    if float(np.linalg.norm(w)) < 1e-10:
        inter = M.basis
    else:
        stacked = orthonormalize(np.vstack([w[None, :], M.basis]), n)
        inter = stacked[1:]
    if inter.shape[0] == 0:
        raise InputError("M intersects the orthogonal hyperplane only at 0")
    dim = inter.shape[0]
    rng = np.random.default_rng(NET_SEED)
    coords = rng.standard_normal((NET_DIRECTIONS_PER_DIM * dim, dim))
    coords /= np.linalg.norm(coords, axis=1)[:, None]
    dirs = coords @ inter
    worst = gamma(a, b, tol).direction
    if float(np.linalg.norm(inter.T @ (inter @ worst) - worst)) <= 1e-9:
        dirs = np.vstack([dirs, worst, -worst])
    x0 = (a + b) / 2.0
    x0_sq = float(x0 @ x0)
    max_dot = float(np.max(dirs @ x0))
    rs = grid_step * np.arange(1, int(np.ceil(1.0 / grid_step)) + 2)
    vals = x0_sq + rs * rs + 2.0 * rs * max_dot
    ok = np.logical_and.accumulate(vals <= (1.0 + tol.eps_eq) ** 2)
    if not ok[0]:
        return 0.0
    return float(rs[np.count_nonzero(ok) - 1])


def gamma1_links(A, B, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Shared points of k linking moves a_i -> b_i, as a (k, n, n) array.

    Row i holds the n points that complete both {a_i} and {b_i} to maximal
    in-ball sets, the sets gamma1_link(a_i, b_i) returns.  Every check of
    gamma1_link runs as an array mask over the hops; if any hop fails, the
    error gamma1_link raises for the first failing hop is raised.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape != B.shape or A.shape[0] < 1:
        raise InputError(f"endpoint arrays must share a (k, n) shape, got {A.shape} and {B.shape}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise InputError("point has non-finite components")
    n = A.shape[1]
    if n < 2:
        raise InputError("clearance needs ambient dimension >= 2")
    eps = tol.eps_eq
    target = 2.0 * alpha(n + 1)
    bn = beta(n)
    diff = B - A
    dist = np.sqrt(row_dot(diff, diff))
    norm_a = np.sqrt(row_dot(A, A))
    norm_b = np.sqrt(row_dot(B, B))
    x0 = (A + B) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        value = _clearance(x0, diff / dist[:, None])
    failed = first_failure([
        (dist <= eps, lambda i: InputError("a and b coincide")),
        (norm_a > 1.0 + eps, lambda i: InputError(
            f"point with norm {norm_a[i]:.12f} is outside the ball")),
        (norm_b > 1.0 + eps, lambda i: InputError(
            f"point with norm {norm_b[i]:.12f} is outside the ball")),
        (np.abs(dist - target) > LINK_DISTANCE_TOL, lambda i: InputError(
            f"||b-a||={dist[i]:.12f}, need {target:.12f}")),
        (value < bn - eps, lambda i: InputError(
            f"clearance {value[i]:.12f} below beta_n={bn:.12f}")),
    ])
    # Hops before the first failing one go on to the checks of their sets.
    m = A.shape[0] if failed is None else failed[0]
    if m:
        shared = simplex_on_spheres(x0[:m], diff[:m], bn)
        wide = tol.widened()
        shared_norm = np.sqrt(row_dot(shared, shared)).max(axis=1)
        checks = [(shared_norm > 1.0 + eps, lambda i: ConstructionError(
            "a shared point left the ball; clearance check was too tight"))]
        for ends in (A[:m], B[:m]):
            pts = np.concatenate([ends[:, None, :], shared], axis=1)
            checks += check_sets(pts, True, wide, ConstructionError)[2]
        failed = first_failure(checks) or failed
    if failed is not None:
        raise failed[1]
    return shared


def gamma1_link(a, b, tol: Tolerance = DEFAULT_TOL) -> tuple[EquilateralSet, EquilateralSet]:
    """Two maximal in-ball sets sharing n points, differing only in a vs b.

    Requires ||b - a|| = 2*alpha(n+1) and clearance >= beta(n).  The shared
    points sit on the sphere of radius beta(n) around the midpoint, inside
    the hyperplane orthogonal to b - a; each is at distance exactly 1 from
    both a and b since alpha(n+1)**2 + beta(n)**2 = 1.  The one-hop case of
    gamma1_links.
    """
    a = as_point(a)
    b = as_point(b, a.size)
    shared = gamma1_links(a[None, :], b[None, :], tol)[0]
    return EquilateralSet(np.vstack([a, shared])), EquilateralSet(np.vstack([b, shared]))
