"""Clearance around the midpoint of a pair, and the two-set linking move.

gamma(a, b) is the largest r such that the ball of radius r in the
hyperplane orthogonal to b - a, centered at the midpoint x0 of a and b,
stays inside the unit ball.  Its closed form is
    r = -<x0, u> + sqrt(<x0, u>**2 + 1 - ||x0||**2),    u = perp/||perp||,
where perp = x0 - <x0, d> d is the part of x0 orthogonal to d = (b - a)/||b - a||.
When a, b and 0 are collinear (perp = 0) every unit u orthogonal to d gives
that value; u is then first_orthogonal_axis(d), the same for (a, b) and (b, a).

A hop is a pair of the ball with ||b - a|| = 2*alpha(n+1).  The sphere of
radius beta(n) around x0 in the hyperplane orthogonal to b - a lies at
distance 1 from a and b (alpha(n+1)**2 + beta(n)**2 = 1), and a regular
n-point simplex on it completes either end to a maximal set.  With one
vertex at x0 - beta(n)*u (simplex_on_spheres), every shared point has
squared norm at most the hop bound ||x0||**2 + beta(n)**2 + 2*beta(n)*t/(n-1),
t = ||perp||, which is at most (||a||**2 + ||b||**2)/2, as
||x0||**2 = (||a||**2 + ||b||**2)/2 - alpha(n+1)**2, t <= ||x0|| <= beta(n)
and alpha(n+1)**2 - beta(n)**2 = 2*beta(n)**2/(n-1) = 1/n: every pair of the
ball at hop length is a hop.  The paper's condition gamma(a, b) >= beta(n)
implies the bound, and is the bound at n = 2.  A simplex with
t <= RANK_RESIDUAL keeps its canonical orientation, which adds at most
2*beta(n)*t < 1.5e-10 to a bound below 1 - 1/n + 1.5e-10.

The shared points are a function of the values of a and b alone
(_shared_points): a -0.0 in x0 or b - a counts as 0.0, where
simplex_on_spheres would take the other Householder reflection for a
normal ending in -0.0.  So a certificate parser rebuilds them bit for bit
from ends it reads back from JSON, which writes -0.0 as "-0", read as 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, InputError
from .geometry import (DEFAULT_TOL, GRID_STEP, Frame, Tolerance, as_point, first_orthogonal_axis,
                       orthonormalize, row_dot)
from .simplex import alpha, beta, check_sets, first_failure, simplex_on_spheres

# Seed of the deterministic direction net used by the brute-force evaluator.
NET_SEED = 0
NET_DIRECTIONS_PER_DIM = 2048


@dataclass(frozen=True)
class GammaResult:
    """Clearance value, the direction u achieving it, and the midpoint."""

    value: float
    direction: np.ndarray
    midpoint: np.ndarray


def _pair_checks(A, B, tol: Tolerance):
    """Argument checks of every clearance entry point on the pairs (rows of
    A, B): A and B as floats, the hops B - A, their lengths, and the
    first_failure checks that a != b, then a and b lie in the ball."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape != B.shape or A.shape[0] < 1:
        raise InputError(f"endpoint arrays must share a (k, n) shape, got {A.shape} and {B.shape}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise InputError("point has non-finite components")
    if A.shape[1] < 2:
        raise InputError("clearance needs ambient dimension >= 2")
    eps = tol.eps_eq
    diff = B - A
    dist = np.sqrt(row_dot(diff, diff))
    norm_a = np.sqrt(row_dot(A, A))
    norm_b = np.sqrt(row_dot(B, B))
    checks = [
        (dist <= eps, lambda i: InputError("a and b coincide")),
        (norm_a > 1.0 + eps, lambda i: InputError(
            f"point with norm {norm_a[i]:.12f} is outside the ball")),
        (norm_b > 1.0 + eps, lambda i: InputError(
            f"point with norm {norm_b[i]:.12f} is outside the ball")),
    ]
    return A, B, diff, dist, checks


def _validate_pair(a, b, tol: Tolerance):
    """a and b as points, after the one-pair case of _pair_checks."""
    a = as_point(a)
    b = as_point(b, a.size)
    failed = first_failure(_pair_checks(a[None, :], b[None, :], tol)[-1])
    if failed is not None:
        raise failed[1]
    return a, b


def gamma(a, b, tol: Tolerance = DEFAULT_TOL) -> GammaResult:
    """Closed-form clearance of the pair (a, b) inside the unit ball."""
    a, b = _validate_pair(a, b, tol)
    x0 = (a + b) / 2.0
    diff = b - a
    d_hat = diff / math.sqrt(diff @ diff)
    value, perp = _clearance(x0, d_hat)
    t = math.sqrt(perp @ perp)
    u = perp / t if 2.0 * t > tol.eps_eq else first_orthogonal_axis(d_hat[None, :], a.size)
    return GammaResult(value=float(value), direction=u, midpoint=x0)


def _perp(x0: np.ndarray, d_hat: np.ndarray) -> np.ndarray:
    """perp, the component of midpoints x0 orthogonal to unit hop directions
    d_hat (rows of equal shape); t = ||perp|| is <x0, u> for the u of the
    module docstring."""
    return x0 - row_dot(x0, d_hat)[..., None] * d_hat


def _clearance(x0: np.ndarray, d_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form clearance of midpoints x0 for unit hop directions d_hat
    (rows of equal shape), and their _perp."""
    perp = _perp(x0, d_hat)
    t = np.sqrt(row_dot(perp, perp))
    return -t + np.sqrt(np.maximum(t * t + 1.0 - row_dot(x0, x0), 0.0)), perp


def gamma_bruteforce(a, b, M: Frame, grid_step: float = GRID_STEP,
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


def gamma1_link(a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Shared points of the hop a -> b, an (n, n) array, or of the k hops
    a_i -> b_i, rows of two (k, n) stacks, a (k, n, n) array.

    The n shared points of a hop complete both {a} and {b} to maximal
    in-ball sets, which differ only in a vs b.  Requires ||b - a|| =
    2*alpha(n+1) and the hop bound (module docstring) at most 1 + eps_eq,
    which every such pair of the ball meets.  The shared points sit on the
    sphere of radius beta(n) around the midpoint x0, orthogonal to b - a,
    one at x0 - beta(n)*u; each is at distance 1 from a and b.  Every check
    runs as an array mask over the hops, and the sets {a} + shared and
    {b} + shared are re-checked in one check_sets call; if any hop fails,
    the error of the first failing hop, and of its first failing check, is
    raised.
    """
    if np.ndim(a) != 2:
        a = as_point(a)
        return gamma1_link(a[None, :], as_point(b, a.size)[None, :], tol)[0]
    A, B, diff, dist, checks = _pair_checks(a, b, tol)
    n = A.shape[1]
    eps = tol.eps_eq
    target = 2.0 * alpha(n + 1)
    bn = beta(n)
    x0 = (A + B) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        perp = _perp(x0, diff / dist[:, None])
    bound = row_dot(x0, x0) + bn * bn + 2.0 * bn * np.sqrt(row_dot(perp, perp)) / (n - 1)
    failed = first_failure(checks + [
        (np.abs(dist - target) > eps, lambda i: InputError(
            f"||b-a||={dist[i]:.12f}, need {target:.12f}")),
        (bound > 1.0 + eps, lambda i: InputError(
            f"hop bound {bound[i]:.12f} exceeds 1: a shared point would leave the ball")),
    ])
    # Hops before the first failing one go on to the checks of their sets.
    m = A.shape[0] if failed is None else failed[0]
    if m:
        shared = _shared_points(x0[:m], diff[:m])
        shared_norm = np.sqrt(row_dot(shared, shared)).max(axis=1)
        checks = [(shared_norm > 1.0 + eps, lambda i: ConstructionError(
            "a shared point left the ball; the hop bound was too tight"))]
        # Each hop's rows a, shared..., b: its set {a} + shared is rows 0..n,
        # {b} + shared rows 1..n+1.  The a-sets of every hop, then the
        # b-sets, in one check_sets call; each hop's checks keep the order
        # a's set, then b's.
        rows = np.concatenate([A[:m, None], shared, B[:m, None]], axis=1).reshape(-1, n)
        ids = (n + 2) * np.arange(m)[:, None] + np.arange(n + 1)
        set_checks = check_sets(rows, True, tol, ConstructionError,
                                ids=np.concatenate([ids, ids + 1]))[2]
        for half in (0, m):
            checks += [(mask[half:half + m], lambda i, error=error, half=half: error(half + i))
                       for mask, error in set_checks]
        failed = first_failure(checks) or failed
    if failed is not None:
        raise failed[1]
    return shared


def _shared_points(x0: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """The n shared points of the hops with midpoints x0 and vectors
    diff = b - a (rows), as a (k, n, n) array, in simplex_on_spheres order;
    both inputs plus 0.0, so that no -0.0 chooses the reflection."""
    return simplex_on_spheres(x0 + 0.0, diff + 0.0, beta(x0.shape[1]))
