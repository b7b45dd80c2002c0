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

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptyIntersection,
    NotInBall,
    OutsideBall,
    PreconditionClearance,
    PreconditionDistance,
)
from .geometry import DEFAULT_TOL, Frame, Tolerance, as_point, orthonormal_complement, orthonormalize, section2d
from .simplex import EquilateralSet, alpha, beta, canonical_simplex

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
        raise DimensionMismatch("clearance needs ambient dimension >= 2")
    if np.linalg.norm(b - a) <= tol.eps_eq:
        raise DegenerateInput("a and b coincide")
    for p in (a, b):
        if float(np.linalg.norm(p)) > 1.0 + tol.eps_eq:
            raise OutsideBall(f"point with norm {float(np.linalg.norm(p)):.12f} is outside the ball")
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
    t = max(float(x0 @ u), 0.0)
    radicand = t * t + 1.0 - float(x0 @ x0)
    value = -t + float(np.sqrt(max(radicand, 0.0)))
    return GammaResult(value=value, direction=u, midpoint=x0)


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
        raise DimensionMismatch("frame dimension does not match the points")
    d_hat = (b - a) / np.linalg.norm(b - a)
    w = M.basis.T @ (M.basis @ d_hat)
    if float(np.linalg.norm(w)) < 1e-10:
        inter = M.basis
    else:
        stacked = orthonormalize(np.vstack([w[None, :], M.basis]), n)
        inter = stacked[1:]
    if inter.shape[0] == 0:
        raise EmptyIntersection("M intersects the orthogonal hyperplane only at 0")
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


def gamma1_link(a, b, tol: Tolerance = DEFAULT_TOL) -> tuple[EquilateralSet, EquilateralSet]:
    """Two maximal in-ball sets sharing n points, differing only in a vs b.

    Requires ||b - a|| = 2*alpha(n+1) and clearance >= beta(n).  The shared
    points sit on the sphere of radius beta(n) around the midpoint, inside
    the hyperplane orthogonal to b - a; each is at distance exactly 1 from
    both a and b since alpha(n+1)**2 + beta(n)**2 = 1.
    """
    a, b = _validate_pair(a, b, tol)
    n = a.size
    target = 2.0 * alpha(n + 1)
    dist = float(np.linalg.norm(b - a))
    if abs(dist - target) > LINK_DISTANCE_TOL:
        raise PreconditionDistance(f"||b-a||={dist:.12f}, need {target:.12f}")
    g = gamma(a, b, tol)
    bn = beta(n)
    if g.value < bn - tol.eps_eq:
        raise PreconditionClearance(f"clearance {g.value:.12f} below beta_n={bn:.12f}")
    comp = orthonormal_complement([b - a], n, tol)
    local = canonical_simplex(n - 1, n)
    offsets = local.points @ comp.basis
    norms = np.linalg.norm(offsets, axis=1)
    offsets = offsets * (bn / norms)[:, None]
    shared = g.midpoint + offsets
    if float(np.max(np.linalg.norm(shared, axis=1))) > 1.0 + tol.eps_eq:
        raise NotInBall("a shared point left the ball; clearance check was too tight")
    set_a = EquilateralSet(np.vstack([a, shared]))
    set_b = EquilateralSet(np.vstack([b, shared]))
    wide = tol.widened()
    set_a.validate(in_ball=True, tol=wide)
    set_b.validate(in_ball=True, tol=wide)
    return set_a, set_b
