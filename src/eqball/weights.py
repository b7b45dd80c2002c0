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
2*alpha(n+1), each hop carrying clearance at least beta(n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import ConstructionError, InputError
from .gamma import gamma
from .geometry import DEFAULT_TOL, Frame, Tolerance, clamp_to_range
from .simplex import (
    EquilateralSet,
    alpha,
    beta,
    height_above_base,
    random_rotations,
    sample_maximal_sets,
)

DISPROOF_SPREAD = 1e-6


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


def corner_coordinate(n: int) -> float:
    """Common coordinate of the first-quadrant corner where adjacent arcs meet."""
    a2 = alpha(n + 1) ** 2
    return (-1.0 + math.sqrt(8.0 * a2 - 1.0)) / 2.0


def sin_corner_angle(n: int) -> float:
    """Closed form of the sine of the angle at the bottom cardinal toward the corner."""
    return (math.sqrt(3.0 + 1.0 / (n + 1)) - math.sqrt(1.0 - 1.0 / (n + 1))) / (2.0 * math.sqrt(2.0))


def sin_reference_angle(n: int) -> float:
    """Closed form of the comparison sine that bounds sin_corner_angle above."""
    return (math.sqrt(3.0 + 3.0 / n) - math.sqrt(1.0 - 1.0 / n)) / (2.0 * math.sqrt(2.0))


def circle_circle_intersections(c1: np.ndarray, r1: float,
                                c2: np.ndarray, r2: float) -> list[np.ndarray]:
    """Intersection points of two circles in the plane (0, 1, or 2 points)."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    d = float(np.linalg.norm(c2 - c1))
    if d < 1e-15 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    along = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    perp_sq = r1 * r1 - along * along
    if perp_sq < 0:
        if perp_sq < -1e-12:
            return []
        perp_sq = 0.0
    axis = (c2 - c1) / d
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

    def contains_angle(self, theta: float, slack: float = 1e-9) -> bool:
        width = self.theta_end - self.theta_start
        rel = (theta - self.theta_start) % (2.0 * math.pi)
        return rel <= width + slack or rel >= 2.0 * math.pi - slack

    def point_at(self, theta: float) -> np.ndarray:
        return self.center + self.radius * np.array([math.cos(theta), math.sin(theta)])


@dataclass
class CircuitPlan:
    """Quadruple, corners, arcs, and verified link moves of one boundary circuit."""

    quadruple: dict
    corners_local: dict
    arcs: list
    link_moves: list
    sin_owa: float
    sin_owh: float


def _in_disc_arc(label: str, center: np.ndarray, radius: float) -> Arc:
    # The portion of circle(center, radius) inside the unit disc, for a center
    # with 0 < |center| < radius < |center| + 1.
    oc = float(np.linalg.norm(center))
    cos_half = (oc * oc + radius * radius - 1.0) / (2.0 * oc * radius)
    half = math.acos(min(max(cos_half, -1.0), 1.0))
    mid = math.atan2(-center[1], -center[0])
    return Arc(label=label, center=center, radius=radius,
               theta_start=mid - half, theta_end=mid + half)


def circuit_geometry(n: int, rotation_angle: float) -> tuple[dict, dict, list]:
    """Local cardinals, corners, and in-disc arcs of the rotated circuit."""
    a_np1 = alpha(n + 1)
    radius = 2.0 * a_np1
    rot = rotation_angle
    cardinals = {
        "w": np.array([math.cos(-math.pi / 2 + rot), math.sin(-math.pi / 2 + rot)]),
        "x": np.array([math.cos(math.pi + rot), math.sin(math.pi + rot)]),
        "y": np.array([math.cos(math.pi / 2 + rot), math.sin(math.pi / 2 + rot)]),
        "z": np.array([math.cos(rot), math.sin(rot)]),
    }
    t = corner_coordinate(n)
    oa = t * math.sqrt(2.0)
    corners = {
        "a": oa * np.array([math.cos(math.pi / 4 + rot), math.sin(math.pi / 4 + rot)]),
        "b": oa * np.array([math.cos(-math.pi / 4 + rot), math.sin(-math.pi / 4 + rot)]),
        "c": oa * np.array([math.cos(-3 * math.pi / 4 + rot), math.sin(-3 * math.pi / 4 + rot)]),
        "d": oa * np.array([math.cos(3 * math.pi / 4 + rot), math.sin(3 * math.pi / 4 + rot)]),
    }
    arcs = [_in_disc_arc("C_" + k, v, radius) for k, v in cardinals.items()]
    arcs += [_in_disc_arc("C_" + k, v, radius) for k, v in corners.items()]
    return cardinals, corners, arcs


# Adjacency cycle of hop-length-2*alpha pairs: cardinal, corner, cardinal, ...
SKELETON_CYCLE = ["w", "a", "x", "b", "y", "c", "z", "d"]


def shell_circuit(n: int, section: Frame, rotation_angle: float,
                  arc_samples: int = 8, tol: Tolerance = DEFAULT_TOL) -> CircuitPlan:
    """Build the rotated boundary circuit in a 2-D section and its link moves.

    Link moves alternate between circuit points and the arc centers they sit
    on; every emitted pair is at distance exactly 2*alpha(n+1) and is
    re-checked to carry clearance at least beta(n) (ConstructionError marks a
    bug, not an input condition).  The plan records the sines of the two
    comparison angles at the bottom cardinal.
    """
    if n < 2:
        raise InputError(f"shell_circuit requires n >= 2, got {n}")
    if section.k != 2:
        raise InputError("section must be a 2-D frame")
    if not math.isfinite(rotation_angle):
        raise InputError(f"rotation angle {rotation_angle} is not finite")
    # Offsets like pi/2 added to a huge angle would lose the hop length to
    # rounding; the remainder is exact, and is the angle itself for |angle| <= pi.
    rot = math.remainder(rotation_angle, 2.0 * math.pi)
    cardinals, corners, arcs = circuit_geometry(n, rot)
    a_np1 = alpha(n + 1)
    radius = 2.0 * a_np1
    bn = beta(n)

    def embed(p_local):
        return (p_local[None, :] @ section.basis)[0]

    named_local = dict(cardinals)
    named_local.update(corners)

    moves_local = []
    for i, name in enumerate(SKELETON_CYCLE):
        nxt = SKELETON_CYCLE[(i + 1) % len(SKELETON_CYCLE)]
        moves_local.append((named_local[name], named_local[nxt]))
    corner_arcs = {arc.label[-1]: arc for arc in arcs if arc.label[-1] in corners}
    for cname, arc in sorted(corner_arcs.items()):
        for j in range(1, arc_samples + 1):
            theta = arc.theta_start + (arc.theta_end - arc.theta_start) * j / (arc_samples + 1)
            moves_local.append((arc.point_at(theta), named_local[cname]))

    link_moves = []
    for p_local, q_local in moves_local:
        p, q = embed(p_local), embed(q_local)
        dist = float(np.linalg.norm(p - q))
        if abs(dist - radius) > tol.eps_eq:
            raise ConstructionError(f"move length {dist:.15f} differs from {radius:.15f}")
        clearance = gamma(p, q, tol).value
        if clearance < bn - 1e-12:
            raise ConstructionError(f"move clearance {clearance:.12f} below beta_n={bn:.12f}")
        link_moves.append((p, q))

    # Comparison angles at the bottom cardinal, both measured numerically.
    w_l, a_l = named_local["w"], named_local["a"]
    g_l = np.array([math.cos(-math.pi / 6 + rot), math.sin(-math.pi / 6 + rot)])
    cw_arc = next(arc for arc in arcs if arc.label == "C_w")
    h_candidates = [
        h for h in circle_circle_intersections(g_l, 1.0, w_l, radius)
        if float(np.linalg.norm(h)) <= 1.0 + 1e-9
        and cw_arc.contains_angle(math.atan2(h[1] - w_l[1], h[0] - w_l[0]), slack=1e-7)
    ]
    if not h_candidates:
        raise ConstructionError("reference intersection point not found on the bottom arc")
    h_l = h_candidates[0]

    def sin_at_w(p_local):
        v1 = -w_l
        v2 = p_local - w_l
        cross = abs(v1[0] * v2[1] - v1[1] * v2[0])
        return cross / (np.linalg.norm(v1) * np.linalg.norm(v2))

    sin_owa = float(sin_at_w(a_l))
    sin_owh = float(sin_at_w(h_l))
    if sin_owa > sin_owh + 1e-12:
        raise ConstructionError("corner angle exceeds its reference bound")

    return CircuitPlan(
        quadruple={k: embed(v) for k, v in cardinals.items()},
        corners_local=corners,
        arcs=arcs,
        link_moves=link_moves,
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


def sphere_basis_sets(n: int, seeds) -> np.ndarray:
    """Random orthonormal bases rescaled onto the sphere of radius 1/sqrt(2),
    one per seed, as a (k, n, n) stack of rows."""
    rows = random_rotations(n, [np.random.default_rng(seed) for seed in seeds])
    norms = np.linalg.norm(rows, axis=-1)
    return rows / (norms[..., None] * math.sqrt(2.0))


def sphere_basis_set(n: int, seed: int) -> np.ndarray:
    """Random orthonormal basis rescaled onto the sphere of radius 1/sqrt(2);
    the one-seed case of sphere_basis_sets."""
    return sphere_basis_sets(n, [seed])[0]


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
    One sub-seed per sample is drawn from `seed`; all the sets are sampled
    in one batched pass.  An evaluator with a `rows` stack kernel (as
    compile_weight_expression returns) then evaluates every point in one
    call; any other callable is called once per point, in sample order.
    """
    if samples < 2:
        raise InputError("falsify needs at least 2 samples")
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise InputError(f"threshold {threshold} must be finite and non-negative")
    if seed < 0:
        raise InputError(f"seed {seed} must be non-negative")
    rng = np.random.default_rng(seed)
    # A 64-bit range takes one unbuffered draw per value, so this equals
    # `samples` scalar draws.
    sub_seeds = rng.integers(0, 2**63 - 1, size=samples).tolist()
    if f.domain_mode == "sphere":
        sets = sphere_basis_sets(n, sub_seeds)
    else:
        sets = sample_maximal_sets(n, sub_seeds)
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
