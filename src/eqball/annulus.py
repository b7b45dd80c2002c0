"""The two annulus relations that the certificate generator combines: the
theorem's inward step and the cap lemma."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .enlarge import enlarge_to_maximal
from .errors import ConstructionError, InputError
from .geometry import DEFAULT_TOL, Tolerance, as_point, clamp_to_range
from .simplex import EquilateralSet, beta, cap_extension
from .weights import eta, lambda_shell, mu, mu_inverse


@dataclass(frozen=True)
class StepRelation:
    """Maximal set {u, v, x_1..x_{n-1}} with v antipodal to u at norm 1-||u||."""

    set: EquilateralSet
    u: np.ndarray
    v: np.ndarray
    companions: np.ndarray
    rho0: float


def theorem_step_relation(u, rho0: float, n: int,
                          tol: Tolerance = DEFAULT_TOL) -> StepRelation:
    """One inward annulus step at radius rho0 through the point u.

    Requires mu(rho0) <= ||u|| <= rho0.  The antipodal partner
    v = -((1-||u||)/||u||) u satisfies ||u - v|| = ||u|| + ||v|| = 1 and
    1 - rho0 <= ||v|| <= eta(rho0); enlarging {u, v} to a maximal set adds
    n-1 vertices whose common norm sqrt(3/4 + (||u|| - 1/2)**2) is at least
    rho0, so they live in the annulus already covered at this stage.
    """
    u = as_point(u, n)
    s = math.sqrt(u @ u)
    rho_max = mu_inverse(n, min(lambda_shell(n), 1.0), tol)
    rho0 = clamp_to_range("rho0", rho0, beta(n), rho_max, tol)
    lo = mu(n, rho0, tol)
    if s < lo - 2 * tol.eps_eq or s > rho0 + 2 * tol.eps_eq:
        raise InputError(
            f"||u||={s:.12f} outside the step window [{lo:.12f}, {rho0:.12f}]")
    v = -((1.0 - s) / s) * u
    pair = EquilateralSet(np.vstack([u, v]))
    maximal, _ = enlarge_to_maximal(pair, tol)
    companions = maximal.points[2:]
    w = (u + v) / 2.0
    mid_sq = np.linalg.norm(companions - w, axis=1) ** 2
    if float(np.max(np.abs(mid_sq - 0.75))) > 1e-9:
        raise ConstructionError("companion distance to the pair midpoint is not sqrt(3)/2")
    norm_sq = np.linalg.norm(companions, axis=1) ** 2
    predicted = 0.75 + (s - 0.5) ** 2
    if float(np.max(np.abs(norm_sq - predicted))) > 1e-9:
        raise ConstructionError("companion norm identity 3/4 + (||u||-1/2)^2 failed")
    if float(np.min(np.linalg.norm(companions, axis=1))) < rho0 - 1e-7:
        raise ConstructionError("a companion fell below the step radius")
    return StepRelation(set=maximal, u=u, v=v, companions=companions, rho0=rho0)


def constant_lemma_relation(z, rho0: float, n: int,
                            tol: Tolerance = DEFAULT_TOL) -> tuple[EquilateralSet, np.ndarray]:
    """Maximal set {z, c_1..c_n} with all companions at one norm >= rho0.

    Takes rho = max(rho0, mu_inverse(1 - ||z||)), the radius in [rho0, 1]
    whose apex height eta(rho) is ||z||, and extends z by the cap at that
    radius; the companions land in the annulus where the weight value is
    already pinned, so the set's equation reads f(z) + n*delta = W.
    """
    z = as_point(z, n)
    s = math.sqrt(z @ z)
    rho0 = clamp_to_range("rho0", rho0, beta(n), 1.0, tol)
    top = eta(n, rho0, tol)
    if s > top + tol.eps_eq:
        raise InputError(f"||z||={s:.12f} exceeds eta(rho0)={top:.12f}")
    rho = max(rho0, mu_inverse(n, 1.0 - s, tol))
    companions = cap_extension(z, rho, tol)
    return EquilateralSet(np.vstack([z, companions.points])), companions.points
