"""Enlarging equilateral sets inside the unit ball without leaving it.

Any standard equilateral set of size k <= n in the closed unit ball extends
to size k+1 in the ball: place the new point at the set's center plus
alpha(k+1) times a unit vector chosen against the center's component
orthogonal to the set's affine hull.  Iterating reaches size n+1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import DEFAULT_TOL, Tolerance, _residual, first_orthogonal_axis, orthonormalize
from .simplex import EquilateralSet, alpha, beta

# Below this, the out-of-hull component of the center counts as zero and the
# tie-break direction is used instead of a/||a||.
ZERO_DIRECTION_NORM = 1e-10
# Between ZERO_DIRECTION_NORM and this share of ||c||, a is projected off the
# hull again: one pass leaves ~1e-16 ||c|| along the hull, a large share of a.
REPROJECT_SHARE = 1e-4


@dataclass(frozen=True)
class EnlargeStep:
    """Record of one enlargement step."""

    k: int
    subspace_dim: int
    a: np.ndarray
    u: np.ndarray
    new_point: np.ndarray


@dataclass
class EnlargeTrace:
    steps: list = field(default_factory=list)


def enlarge_step(s: EquilateralSet, tol: Tolerance = DEFAULT_TOL) -> tuple[EquilateralSet, EnlargeStep]:
    """Add one point to an in-ball standard equilateral set, staying in the ball."""
    s.validate(in_ball=True, tol=tol)
    k, n = s.k, s.n
    if k >= n + 1:
        raise InputError(f"set of size {k} is already maximal in R^{n}")
    c = s.points.mean(axis=0)
    hull_dirs = orthonormalize(s.points - c, n)
    a = c - hull_dirs.T @ (hull_dirs @ c) if hull_dirs.size else c.copy()
    norm_a = math.sqrt(a @ a)
    if ZERO_DIRECTION_NORM < norm_a < REPROJECT_SHARE * math.sqrt(c @ c):
        a = _residual(a, hull_dirs)
        norm_a = math.sqrt(a @ a)
    if norm_a <= ZERO_DIRECTION_NORM:
        v = first_orthogonal_axis(hull_dirs, n)
    else:
        v = a / norm_a
    u = -alpha(k + 1) * v
    new_point = c + u
    out = EquilateralSet(np.vstack([s.points, new_point]))
    # Inputs that are in-ball only within eps get the widened output tolerance.
    out.recheck(in_ball=True, tol=tol.widened())
    return out, EnlargeStep(k=k, subspace_dim=hull_dirs.shape[0], a=a, u=u, new_point=new_point)


def enlarge_to_maximal(s: EquilateralSet, tol: Tolerance = DEFAULT_TOL) -> tuple[EquilateralSet, EnlargeTrace]:
    """Iterate enlarge_step until the set has size n+1."""
    s.validate(in_ball=True, tol=tol)
    trace = EnlargeTrace()
    current = s
    while current.k < current.n + 1:
        current, step = enlarge_step(current, tol)
        trace.steps.append(step)
    return current, trace


def center_norm_bound(s: EquilateralSet, tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Center norm together with its guaranteed bound.

    For size k <= n the bound is alpha(k+1); for a maximal set it tightens
    to beta(n+1).
    """
    s.validate(in_ball=True, tol=tol)
    c = float(np.linalg.norm(s.points.mean(axis=0)))
    bound = beta(s.n + 1) if s.k == s.n + 1 else alpha(s.k + 1)
    return c, bound
