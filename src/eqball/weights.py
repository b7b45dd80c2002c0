"""Scalar radius maps, the boundary-annulus circuit, and weight falsification.

The radius maps live on [beta(n), 1]:

    height(rho) = alpha(n+1) - sqrt(rho**2 - beta(n)**2)   (apex norm, `eta`)
    mu(rho)     = 1 - eta(rho)
    nu(rho)     = rho - mu(rho)

eta decreases from alpha(n+1) to 0 with fixed point beta(n+1); mu increases
over [1 - alpha(n+1), 1]; nu decreases to nu(1) = 0.  eta and mu invert in
closed form, with beta(n)**2 + alpha(n+1)**2 = 1 giving mu_inverse(1) = 1:

    mu_inverse(t) = sqrt(beta(n)**2 + (t - (1 - alpha(n+1)))**2)
    eta(rho) = h  <=>  rho = mu_inverse(1 - h)

The circuit machinery links any two points of the annulus
{lambda_shell(n) <= ||p|| <= 1} of a 2-D section by hops of length exactly
2*alpha(n+1), each hop carrying clearance at least beta(n), the paper's
construction.  It is planar: n enters only through alpha(n+1) and beta(n).
Its layout is one table, CIRCUIT_ANGLES, read through circuit_geometry by
shell_circuit and emit-circuit.  The certificate generator does not route
through it: any pair of the ball at hop length is a hop (gamma's module
docstring), so its chains take two or four hops through
circle_circle_intersections, and gamma.gamma1_link builds the shared points
of every hop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import ConstructionError, InputError
from .gamma import _clearance, _pair_checks
from .geometry import DEFAULT_TOL, Tolerance, clamp_to_range
from .simplex import (
    EquilateralSet,
    alpha,
    beta,
    first_failure,
    height_above_base,
    random_rotations,
    sample_maximal_sets,
)

DISPROOF_SPREAD = 1e-6
# Angular slack of Arc.contains_angle, in radians.
ARC_SLACK = 1e-7
# Most coordinates one falsify call samples, samples * (n+1) * n: 64 MiB of
# floats per stack, and the sampler holds a few such stacks at once.
MAX_FALSIFY_CELLS = 2**23
# Largest n of a ball-mode falsify call.  Ball-mode proposals are accepted
# less often as n grows: a 200-set batch took 0.11 s at n = 16, 0.42 s at
# n = 20 and 1.3 s at n = 24, and the largest call admitted, n = 16 with
# the 30840 samples MAX_FALSIFY_CELLS allows, 11 s and 400 MB (2 vCPUs, one
# BLAS thread).  Sphere mode has no such limit.
MAX_BALL_FALSIFY_N = 16


def eta(n: int, rho: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Apex norm completing a maximal set whose other n points sit at norm rho."""
    if n < 2:
        raise InputError(f"eta requires n >= 2, got {n}")
    return height_above_base(n, clamp_to_range("rho", rho, beta(n), 1.0, tol))


def mu(n: int, rho: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """1 - eta(rho); the radius down to which one annulus step extends constancy."""
    return 1.0 - eta(n, rho, tol)


def nu(n: int, rho: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Per-step shrink rho - mu(rho); strictly decreasing, zero at rho = 1."""
    return rho - mu(n, rho, tol)


def mu_inverse(n: int, t: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """The radius rho in [beta(n), 1] with mu(rho) = t, in closed form."""
    if n < 2:
        raise InputError(f"mu_inverse requires n >= 2, got {n}")
    bn = beta(n)
    lo_val = 1.0 - alpha(n + 1)
    rise = clamp_to_range("t", t, lo_val, 1.0, tol) - lo_val
    return min(max(math.sqrt(bn * bn + rise * rise), bn), 1.0)


def lambda_shell(n: int) -> float:
    """Radius beyond which the circuit machinery links every pair of the annulus."""
    if n < 2:
        raise InputError(f"lambda_shell requires n >= 2, got {n}")
    return (1.0 + math.sqrt(4.0 + 4.0 / n) - math.sqrt(3.0 + 4.0 / n)) / math.sqrt(2.0)


def sin_corner_angle(n: int) -> float:
    """Closed form of the sine of the angle at the bottom cardinal toward the corner."""
    return (math.sqrt(3.0 + 1.0 / (n + 1)) - math.sqrt(1.0 - 1.0 / (n + 1))) / (2.0 * math.sqrt(2.0))


def sin_reference_angle(n: int) -> float:
    """Closed form of the comparison sine that bounds sin_corner_angle above."""
    return (math.sqrt(3.0 + 3.0 / n) - math.sqrt(1.0 - 1.0 / n)) / (2.0 * math.sqrt(2.0))


def _sin_at(w: np.ndarray, p: np.ndarray) -> float:
    """Sine of the angle at w between the directions to the origin and to p."""
    v1, v2 = -w, p - w
    return abs(v1[0] * v2[1] - v1[1] * v2[0]) / (np.linalg.norm(v1) * np.linalg.norm(v2))


def circle_circle_intersections(c1: np.ndarray, r1: float,
                                c2: np.ndarray, r2: float) -> list[np.ndarray]:
    """Intersection points of two circles in the plane (0, 1, or 2 points)."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    gap = c2 - c1
    d = math.sqrt(gap @ gap)
    if d < 1e-15 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    along = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    perp_sq = r1 * r1 - along * along
    if perp_sq < 0:
        if perp_sq < -1e-12:
            return []
        perp_sq = 0.0
    axis = gap / d
    normal = np.array([-axis[1], axis[0]])
    foot = c1 + along * axis
    h = math.sqrt(perp_sq)
    if h == 0.0:
        return [foot]
    return [foot + h * normal, foot - h * normal]


@dataclass(frozen=True)
class Arc:
    """Circular arc in local section coordinates."""

    label: str
    center: np.ndarray
    radius: float
    theta_start: float
    theta_end: float

    def contains_angle(self, theta: float) -> bool:
        width = self.theta_end - self.theta_start
        rel = (theta - self.theta_start) % (2.0 * math.pi)
        return rel <= width + ARC_SLACK or rel >= 2.0 * math.pi - ARC_SLACK

    def point_at(self, theta: float) -> np.ndarray:
        return self.center + self.radius * np.array([math.cos(theta), math.sin(theta)])


@dataclass
class CircuitPlan:
    """Corners, arcs, and verified link moves, as plane pairs, of one boundary circuit."""

    corners_local: dict
    arcs: list
    link_moves: list
    sin_owa: float
    sin_owh: float


def _in_disc_arc(label: str, center: np.ndarray, radius: float) -> Arc:
    # The portion of circle(center, radius) inside the unit disc, for a center
    # with 0 < |center| < radius < |center| + 1.
    oc = math.sqrt(center @ center)
    cos_half = (oc * oc + radius * radius - 1.0) / (2.0 * oc * radius)
    half = math.acos(min(max(cos_half, -1.0), 1.0))
    mid = math.atan2(-center[1], -center[0])
    return Arc(label=label, center=center, radius=radius,
               theta_start=mid - half, theta_end=mid + half)


# Base angle of each circuit point, in CSV order: the cardinals on the unit
# circle, then the corners, where arcs about adjacent cardinals meet.  z's
# -0.0 keeps -0.0 + rot equal to rot, signed zeros included.
CIRCUIT_ANGLES = {
    "w": -math.pi / 2, "x": math.pi, "y": math.pi / 2, "z": -0.0,
    "a": math.pi / 4, "b": -math.pi / 4, "c": -3 * math.pi / 4, "d": 3 * math.pi / 4,
}
CORNERS = "abcd"
# Adjacency cycle of hop-length-2*alpha pairs: cardinal, corner, cardinal, ...
SKELETON_CYCLE = ["w", "a", "x", "b", "y", "c", "z", "d"]
# Points sampled inside each corner arc, each linked to the arc's corner.
ARC_SAMPLES = 8


def circuit_geometry(n: int, rotation_angle: float) -> tuple[dict, dict]:
    """Local points of the circuit rotated by rotation_angle, by name in
    CSV order, and the in-disc arc of radius 2*alpha(n+1) about each."""
    radius = 2.0 * alpha(n + 1)
    corner_norm = (-1.0 + math.sqrt(8.0 * alpha(n + 1) ** 2 - 1.0)) / 2.0 * math.sqrt(2.0)
    points = {}
    for name, angle in CIRCUIT_ANGLES.items():
        turn = angle + rotation_angle
        norm = corner_norm if name in CORNERS else 1.0
        points[name] = norm * np.array([math.cos(turn), math.sin(turn)])
    arcs = {name: _in_disc_arc("C_" + name, p, radius) for name, p in points.items()}
    return points, arcs


def shell_circuit(n: int, rotation_angle: float, tol: Tolerance = DEFAULT_TOL) -> CircuitPlan:
    """Build the rotated boundary circuit in the plane and its link moves.

    Link moves follow SKELETON_CYCLE, then join ARC_SAMPLES points of each
    corner arc to its corner; every emitted pair is at distance exactly
    2*alpha(n+1) and is re-checked on its plane points, in one array pass,
    to carry clearance at least beta(n) (ConstructionError marks a bug, not
    an input condition).  The plan records the sines of the two comparison
    angles at the bottom cardinal.
    """
    if n < 2:
        raise InputError(f"shell_circuit requires n >= 2, got {n}")
    if not math.isfinite(rotation_angle):
        raise InputError(f"rotation angle {rotation_angle} is not finite")
    # Offsets like pi/2 added to a huge angle would lose the hop length to
    # rounding; the remainder is exact, and is the angle itself for |angle| <= pi.
    rot = math.remainder(rotation_angle, 2.0 * math.pi)
    points, arcs = circuit_geometry(n, rot)
    radius = 2.0 * alpha(n + 1)
    bn = beta(n)

    cycle = SKELETON_CYCLE
    moves = [(points[name], points[nxt]) for name, nxt in zip(cycle, cycle[1:] + cycle[:1])]
    for name in CORNERS:
        arc = arcs[name]
        for j in range(1, ARC_SAMPLES + 1):
            theta = arc.theta_start + (arc.theta_end - arc.theta_start) * j / (ARC_SAMPLES + 1)
            moves.append((arc.point_at(theta), points[name]))
    P, Q, diff, dist, checks = _pair_checks(*zip(*moves), tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        clearance = _clearance((P + Q) / 2.0, diff / dist[:, None])[0]
    failed = first_failure([
        (np.abs(dist - radius) > tol.eps_eq, lambda i: ConstructionError(
            f"move length {dist[i]:.15f} differs from {radius:.15f}")),
        *checks,
        (clearance < bn - 1e-12, lambda i: ConstructionError(
            f"move clearance {clearance[i]:.12f} below beta_n={bn:.12f}")),
    ])
    if failed is not None:
        raise failed[1]

    # Comparison angles at the bottom cardinal, both measured numerically.
    w_l, a_l = points["w"], points["a"]
    g_l = np.array([math.cos(-math.pi / 6 + rot), math.sin(-math.pi / 6 + rot)])
    h_candidates = [
        h for h in circle_circle_intersections(g_l, 1.0, w_l, radius)
        if float(np.linalg.norm(h)) <= 1.0 + 1e-9
        and arcs["w"].contains_angle(math.atan2(h[1] - w_l[1], h[0] - w_l[0]))
    ]
    if not h_candidates:
        raise ConstructionError("reference intersection point not found on the bottom arc")
    h_l = h_candidates[0]

    sin_owa = float(_sin_at(w_l, a_l))
    sin_owh = float(_sin_at(w_l, h_l))
    if sin_owa > sin_owh + 1e-12:
        raise ConstructionError("corner angle exceeds its reference bound")

    return CircuitPlan(
        corners_local={k: points[k] for k in CORNERS},
        arcs=list(arcs.values()),
        link_moves=list(zip(P, Q)),
        sin_owa=sin_owa,
        sin_owh=sin_owh,
    )


@dataclass
class WeightFn:
    """Candidate weight: an evaluator on the ball (or the radius-1/sqrt2 sphere)."""

    evaluator: Callable[[np.ndarray], float]
    domain_mode: Literal["ball", "sphere"] = "ball"


@dataclass
class FalsifyReport:
    spread: float
    witness_high: np.ndarray
    witness_low: np.ndarray
    witness_indices: tuple
    empirical_weight: float
    sums: list
    verdict: str
    threshold: float


def sphere_basis_sets(n: int, count: int, rng) -> np.ndarray:
    """Random orthonormal bases rescaled onto the sphere of radius 1/sqrt(2),
    drawn from the generator `rng`, as a (count, n, n) stack of rows."""
    rows = random_rotations(n, count, rng)
    norms = np.linalg.norm(rows, axis=-1)
    return rows / (norms[..., None] * math.sqrt(2.0))


def sphere_basis_set(n: int, seed: int) -> np.ndarray:
    """Random orthonormal basis rescaled onto the sphere of radius 1/sqrt(2);
    sphere_basis_sets of one basis from default_rng(seed)."""
    return sphere_basis_sets(n, 1, np.random.default_rng(seed))[0]


def frame_weight_sum(T, seed: int, tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Sum of <T u, u> over a rescaled random orthonormal basis vs trace(T)/2."""
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise InputError("T must be a square matrix")
    if float(np.max(np.abs(T - T.T))) > tol.eps_eq:
        raise InputError("T is not symmetric within tolerance")
    n = T.shape[0]
    basis = sphere_basis_set(n, seed)
    EquilateralSet(basis).recheck(tol=tol)
    total = float(sum(u @ T @ u for u in basis))
    return total, float(np.trace(T)) / 2.0


def falsify(f: WeightFn, n: int, samples: int, seed: int,
            threshold: float = DISPROOF_SPREAD) -> FalsifyReport:
    """Probe a candidate weight on sampled maximal sets and report the spread.

    Spread up to `threshold` is consistent with f being an equilateral
    weight; spread above it is a disproof with an explicit witness pair.
    All the sets are sampled in one batched pass from default_rng(seed), so
    the report is fixed by (n, samples, seed, mode); a run with fewer
    samples is not a prefix of one with more.  An evaluator with a `rows`
    stack kernel (as compile_weight_expression returns) then evaluates
    every point in one call; any other callable is called once per point,
    in sample order.  samples * (n+1) * n above MAX_FALSIFY_CELLS, and n
    above MAX_BALL_FALSIFY_N in ball mode, are InputErrors, raised before
    anything is allocated.
    """
    if samples < 2:
        raise InputError("falsify needs at least 2 samples")
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise InputError(f"threshold {threshold} must be finite and non-negative")
    if seed < 0:
        raise InputError(f"seed {seed} must be non-negative")
    if int(samples) * (int(n) + 1) * int(n) > MAX_FALSIFY_CELLS:
        raise InputError(f"{samples} samples at n={n} exceed the limit of "
                         f"{MAX_FALSIFY_CELLS} coordinates (samples * (n+1) * n)")
    if f.domain_mode != "sphere" and n > MAX_BALL_FALSIFY_N:
        raise InputError(f"ball-mode falsify at n={n} exceeds the limit of "
                         f"n <= {MAX_BALL_FALSIFY_N}")
    rng = np.random.default_rng(seed)
    if f.domain_mode == "sphere":
        sets = sphere_basis_sets(n, samples, rng)
    else:
        sets = sample_maximal_sets(n, samples, rng)
    points = sets.reshape(-1, n)
    rows = getattr(f.evaluator, "rows", None)
    if rows is None:
        def rows(stack):
            return [float(f.evaluator(p)) for p in stack]
    vals = np.asarray(rows(points), dtype=float).reshape(sets.shape[:2])
    if not np.all(np.isfinite(vals)):
        raise InputError("weight function returned a non-finite value")
    # Left to right from +0.0 as the builtin sum adds, so bit-equal to it,
    # signed zeros included; .sum(axis=1) adds 8 or more terms pairwise.
    sums = np.cumsum(vals + 0.0, axis=1)[:, -1].tolist()
    arr = np.array(sums)
    hi = int(np.argmax(arr))
    lo = int(np.argmin(arr))
    spread = float(arr[hi] - arr[lo])
    return FalsifyReport(
        spread=spread,
        witness_high=sets[hi],
        witness_low=sets[lo],
        witness_indices=(hi, lo),
        empirical_weight=float(arr.mean()),
        sums=sums,
        verdict="disproved" if spread > threshold else "consistent",
        threshold=threshold,
    )
