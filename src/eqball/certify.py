"""Equality certificates: finite set systems forcing f(x) = f(y).

A certificate lists maximal standard equilateral sets in the closed unit
ball over a shared point table.  Every candidate weight f satisfies one
linear equation per set (the point values sum to the weight W), so a claim
f(x) = f(y) is implied exactly when e_x - e_y lies in the row space of the
system.  The generator builds such systems constructively:

  * points of the outer annulus are chained to a fixed anchor by hops of
    length 2*alpha(n+1) with clearance at least beta(n), two sets per hop
    (the sets share n points, so each hop's rows cancel to e_p - e_q);
  * inner points z get one set {z, c_1..c_n} with companions at the radius
    whose apex height equals ||z||, tying f(z) + n*(annulus value) = W;
  * mid-radius points u pair with the antipodal v at norm 1 - ||u||,
    enlarged to a maximal set whose extra vertices all land at norm at
    least the step radius;
  * one closing pair at the fixed-point radius beta(n+1) identifies the
    inner value with the annulus value, making W = (n+1) * anchor.

Every step above combines set equations with integer coefficients, so the
generator also emits one integer multiplier per set: with R the rows of the
system (a 1 per point of the set, -1 in the W column), R^T lambda equals
e_x - e_y.  Each resolved point p keeps the combination proving
f(p) = f(anchor) (outer points) or f(p) + n*f(anchor) = W (inner points):
a hop adds +1 and -1 on its two sets, a lemma or step set takes +1 on
itself minus its companions' combinations, and the closing pair supplies
W = (n+1)*f(anchor).

The checker is generation-agnostic: it re-validates every set numerically
in one vectorized pass, then accepts the claim when the integer
accumulation of the multipliers equals e_x - e_y exactly.  Certificates
without multipliers (version 1) are tested by a least-squares row-space
residual instead.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    GenerationFailure,
    MalformedCertificate,
    NormWindowViolation,
    OutsideBall,
    PreconditionViolation,
    RadiusSolveFailure,
)
from .gamma import gamma, gamma1_link, gamma1_links
from .geometry import DEFAULT_TOL, Tolerance, as_point, section2d
from .simplex import EquilateralSet, alpha, beta, cap_extension, distance_errors, embed_in_frame
from .enlarge import enlarge_to_maximal
from .weights import (
    BISECTION_TOL,
    circuit_geometry,
    circle_circle_intersections,
    eta,
    lambda_shell,
    mu,
    mu_inverse,
    nu,
    SKELETON_CYCLE,
)

CERT_VERSION = 2
MAX_CERT_SETS = 5000
INT64_MAX = int(np.iinfo(np.int64).max)
# Band-edge slack used when matching a norm against the step schedule.
BAND_EDGE_SLACK = 5e-10
INNER_EDGE = 1e-9


# ---------------------------------------------------------------------------
# The two annulus relations.


@dataclass(frozen=True)
class StepRelation:
    """Maximal set {u, v, x_1..x_{n-1}} with v antipodal to u at norm 1-||u||."""

    set: EquilateralSet
    u: np.ndarray
    v: np.ndarray
    companions: np.ndarray
    rho0: float


@lru_cache(maxsize=None)
def _step_radius_bound(n: int, tol: Tolerance) -> float:
    """Largest admissible step radius: mu_inverse of min(lambda_shell(n), 1)."""
    return mu_inverse(n, min(lambda_shell(n), 1.0), tol)


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
    s = float(np.linalg.norm(u))
    bn = beta(n)
    if rho0 < bn - tol.eps_eq or rho0 > _step_radius_bound(n, tol) + tol.eps_eq:
        raise PreconditionViolation(f"step radius rho0={rho0} out of range for n={n}")
    lo = mu(n, rho0, tol)
    if s < lo - 2 * tol.eps_eq or s > rho0 + 2 * tol.eps_eq:
        raise PreconditionViolation(
            f"||u||={s:.12f} outside the step window [{lo:.12f}, {rho0:.12f}]")
    v = -((1.0 - s) / s) * u
    nv = float(np.linalg.norm(v))
    if nv < 1.0 - rho0 - 10 * tol.eps_eq or nv > eta(n, rho0, tol) + 10 * tol.eps_eq:
        raise PreconditionViolation(f"||v||={nv:.12f} escapes [1-rho0, eta(rho0)]")
    pair = EquilateralSet(np.vstack([u, v]))
    maximal, _ = enlarge_to_maximal(pair, tol)
    companions = maximal.points[2:]
    w = (u + v) / 2.0
    mid_sq = np.linalg.norm(companions - w, axis=1) ** 2
    if float(np.max(np.abs(mid_sq - 0.75))) > 1e-9:
        raise NormWindowViolation("companion distance to the pair midpoint is not sqrt(3)/2")
    norm_sq = np.linalg.norm(companions, axis=1) ** 2
    predicted = 0.75 + (s - 0.5) ** 2
    if float(np.max(np.abs(norm_sq - predicted))) > 1e-9:
        raise NormWindowViolation("companion norm identity 3/4 + (||u||-1/2)^2 failed")
    if float(np.min(np.linalg.norm(companions, axis=1))) < rho0 - 1e-7:
        raise NormWindowViolation("a companion fell below the step radius")
    return StepRelation(set=maximal, u=u, v=v, companions=companions, rho0=rho0)


def constant_lemma_relation(z, rho0: float, n: int,
                            tol: Tolerance = DEFAULT_TOL) -> tuple[EquilateralSet, np.ndarray]:
    """Maximal set {z, c_1..c_n} with all companions at one norm >= rho0.

    Solves eta(rho) = ||z|| on [rho0, 1] by bisection and extends z by the
    cap at that radius; the companions land in the annulus where the weight
    value is already pinned, so the set's equation reads f(z) + n*delta = W.
    """
    z = as_point(z, n)
    s = float(np.linalg.norm(z))
    bn = beta(n)
    if rho0 < bn - tol.eps_eq or rho0 > 1.0 + tol.eps_eq:
        raise PreconditionViolation(f"rho0={rho0} outside [beta_n, 1]")
    rho0 = min(max(rho0, bn), 1.0)
    top = eta(n, rho0, tol)
    if s > top + tol.eps_eq:
        raise RadiusSolveFailure(f"||z||={s:.12f} exceeds eta(rho0)={top:.12f}")
    lo, hi = rho0, 1.0
    if s >= top:
        rho = rho0
    elif s <= 0.0:
        rho = 1.0
    else:
        while hi - lo > BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            if eta(n, mid, tol) > s:
                lo = mid
            else:
                hi = mid
        rho = 0.5 * (lo + hi)
    companions = cap_extension(z, rho, tol)
    full = EquilateralSet(np.vstack([z, companions.points]))
    full.validate(in_ball=True, tol=tol.widened())
    return full, companions.points


# ---------------------------------------------------------------------------
# Certificate container and serialization.


@dataclass
class Certificate:
    """Point table, maximal-set index tuples, claim pair, generator metadata.

    `multipliers`, when present, holds one integer per set whose combination
    of the set equations is the claim; None sends the checker to its
    least-squares path.
    """

    n: int
    points: np.ndarray
    sets: list
    claim: tuple
    generator_params: dict = field(default_factory=dict)
    version: int = CERT_VERSION
    multipliers: list[int] | None = None


def _checked_multipliers(multipliers, set_count: int, n: int) -> list[int]:
    """The multipliers as Python ints, or MalformedCertificate.

    Rejects a length other than one per set, entries that are not integers
    (booleans included), and magnitudes for which the checker's int64
    accumulation of set_count * (n+1) terms could overflow.
    """
    if not isinstance(multipliers, (list, tuple)) or len(multipliers) != set_count:
        raise MalformedCertificate(f"multipliers must be a list of {set_count} integers")
    if not all(isinstance(m, (int, np.integer)) and not isinstance(m, (bool, np.bool_))
               for m in multipliers):
        raise MalformedCertificate("multipliers must be integers")
    values = [int(m) for m in multipliers]
    if values and set_count * (n + 1) * max(map(abs, values)) >= INT64_MAX:
        raise MalformedCertificate("multipliers are too large for exact int64 checking")
    return values


class _Json(str):
    """JSON text already rendered, which _dumps emits as it stands."""


def _dumps(obj) -> str:
    """JSON text with floats printed to 17 significant digits."""
    if isinstance(obj, _Json):
        return obj
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dumps(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return json.dumps(bool(obj) if obj is not None else None)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    return json.dumps(obj)


def _rows_json(rows, fmt) -> _Json:
    """A list of rows, as _dumps prints it, with every entry formatted by fmt."""
    return _Json("[" + ", ".join(["[" + ", ".join([fmt(v) for v in row]) + "]"
                                  for row in rows]) + "]")


def certificate_to_json(cert: Certificate, tol: Tolerance = DEFAULT_TOL) -> str:
    """The certificate as JSON text; the point table, sets and multipliers are
    formatted row by row, byte-identical to _dumps of the plain document."""
    doc = {
        "version": cert.version,
        "n": cert.n,
        "tolerance": {"eps_eq": tol.eps_eq, "eps_rank": tol.eps_rank,
                      "grid_step": tol.grid_step},
        "points": _rows_json(np.asarray(cert.points, dtype=float).tolist(),
                             lambda v: format(v, ".17g")),
        "sets": _rows_json(cert.sets, lambda i: str(int(i))),
        "claim": [int(cert.claim[0]), int(cert.claim[1])],
        "generator_params": cert.generator_params,
    }
    if cert.multipliers is not None:
        doc["multipliers"] = _Json("[" + ", ".join([str(int(m)) for m in cert.multipliers]) + "]")
    return _dumps(doc)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def certificate_from_json(text: str) -> Certificate:
    """Parse a certificate document.

    Raises MalformedCertificate unless the document is a JSON object with
    integer `n` (and `version`, if present), a numeric `points` table of n
    columns, a list of integer-id lists as `sets` and two integer ids as
    `claim`.
    Whether the ids are in range and the sets have size n+1 is left to the
    checker, which reports the first bad set.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedCertificate(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedCertificate("a certificate must be a JSON object")
    for key in ("n", "points", "sets", "claim"):
        if key not in doc:
            raise MalformedCertificate(f"missing field {key!r}")
    n, version, claim = doc["n"], doc.get("version", 1), doc["claim"]
    if not (_is_int(n) and _is_int(version)):
        raise MalformedCertificate("n and version must be integers")
    if not (isinstance(claim, list) and len(claim) == 2 and all(map(_is_int, claim))):
        raise MalformedCertificate("claim must be a list of two point ids")
    if not isinstance(doc["sets"], list):
        raise MalformedCertificate("sets must be a list of point-id lists")
    try:
        points = np.asarray(doc["points"], dtype=float)
        sets = [tuple(int(i) for i in s) for s in doc["sets"]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedCertificate(f"points and sets must be numeric arrays: {exc}") from exc
    if points.ndim != 2:
        raise MalformedCertificate("points must be a list of coordinate arrays")
    if points.shape[1] != n:
        raise MalformedCertificate(f"points must have n = {n} coordinates each, "
                                   f"got {points.shape[1]}")
    multipliers = doc.get("multipliers")
    if multipliers is not None:
        multipliers = _checked_multipliers(multipliers, len(sets), n)
    return Certificate(
        n=n,
        points=points,
        sets=sets,
        claim=(claim[0], claim[1]),
        generator_params=doc.get("generator_params", {}),
        version=version,
        multipliers=multipliers,
    )


# ---------------------------------------------------------------------------
# Checker.


@dataclass
class CheckReport:
    accepted: bool
    failure: str | None = None
    residual: float | None = None
    detail: dict = field(default_factory=dict)
    set_count: int = 0
    point_count: int = 0


def _set_table(sets, width: int, count: int) -> np.ndarray | int:
    """The sets as an (S, width) int64 array of ids in [0, count), or the
    index of the first set that is not such a tuple."""
    try:
        ids = np.asarray(sets, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        ids = None
    if ids is not None and ids.shape == (len(sets), width):
        bad = np.flatnonzero(((ids < 0) | (ids >= count)).any(axis=1))
        return int(bad[0]) if bad.size else ids
    if len(sets) == 0:
        return np.empty((0, width), dtype=np.int64)

    def is_id_tuple(s) -> bool:
        try:
            return len(s) == width and all(0 <= int(i) < count for i in s)
        except (TypeError, ValueError, OverflowError):
            return False

    return next((idx for idx, s in enumerate(sets) if not is_id_tuple(s)), 0)


def check_certificate(cert: Certificate, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Independently verify a certificate; never consults how it was generated.

    Re-checks every set (pairwise distances 1, norms <= 1, size n+1) in one
    vectorized pass and reports the first failing set as SetInvalid.  With
    multipliers, accepts iff their int64 accumulation over the sum equations
    equals e_x - e_y exactly (residual 0.0; otherwise the residual is the
    norm of the integer difference).  Without them, accepts iff e_x - e_y
    lies in the row space of the sum equations, via the least-squares
    residual of the transposed system.  Past the shape checks, `detail`
    carries the worst distance error and norm excess: of the failing set on
    SetInvalid, over all sets otherwise.
    """
    n = cert.n
    pts = np.asarray(cert.points, dtype=float)
    if n < 1 or pts.ndim != 2 or pts.shape[1] != n or not np.all(np.isfinite(pts)):
        return CheckReport(accepted=False, failure="MalformedCertificate",
                           detail={"reason": "bad point table"})
    count = pts.shape[0]
    claim = cert.claim
    if len(claim) != 2 or not all(0 <= int(i) < max(count, 1) for i in claim):
        return CheckReport(accepted=False, failure="MalformedCertificate",
                           detail={"reason": "claim indices out of range"})
    set_count = len(cert.sets)
    ids = _set_table(cert.sets, n + 1, count)
    if isinstance(ids, int):
        return CheckReport(accepted=False, failure="MalformedCertificate",
                           detail={"reason": f"set {ids} is not an (n+1)-tuple of valid ids"},
                           set_count=set_count, point_count=count)
    multipliers = cert.multipliers
    if multipliers is not None:
        try:
            multipliers = _checked_multipliers(multipliers, set_count, n)
        except MalformedCertificate as exc:
            return CheckReport(accepted=False, failure="MalformedCertificate",
                               detail={"reason": str(exc)},
                               set_count=set_count, point_count=count)
    coords = pts[ids]
    dist_err = distance_errors(coords).max(axis=-1)
    norm_excess = np.linalg.norm(coords, axis=-1).max(axis=-1) - 1.0
    bad = np.flatnonzero((dist_err > tol.eps_eq) | (norm_excess > tol.eps_eq))
    if bad.size:
        idx = int(bad[0])
        return CheckReport(
            accepted=False, failure="SetInvalid",
            detail={"set_index": idx,
                    "worst_distance_error": float(dist_err[idx]),
                    "worst_norm_excess": max(float(norm_excess[idx]), 0.0)},
            set_count=set_count, point_count=count)
    margins = {"worst_distance_error": float(dist_err.max(initial=0.0)),
               "worst_norm_excess": float(norm_excess.max(initial=0.0))}
    if int(claim[0]) == int(claim[1]):
        return CheckReport(accepted=True, residual=0.0, detail=margins,
                           set_count=set_count, point_count=count)
    if not cert.sets:
        return CheckReport(accepted=False, failure="ClaimNotImplied",
                           residual=math.sqrt(2.0), detail=margins,
                           set_count=0, point_count=count)
    target = np.zeros(count + 1, dtype=np.int64)
    target[int(claim[0])] = 1
    target[int(claim[1])] = -1
    if multipliers is not None:
        lam = np.array(multipliers, dtype=np.int64)
        combined = np.zeros(count + 1, dtype=np.int64)
        np.add.at(combined, ids.ravel(), np.repeat(lam, n + 1))
        combined[count] = -lam.sum()
        miss = combined - target
        if not miss.any():
            return CheckReport(accepted=True, residual=0.0, detail=margins,
                               set_count=set_count, point_count=count)
        return CheckReport(accepted=False, failure="ClaimNotImplied",
                           residual=float(np.linalg.norm(miss)), detail=margins,
                           set_count=set_count, point_count=count)
    rows = np.zeros((len(cert.sets), count + 1))
    for r, s in enumerate(cert.sets):
        for i in s:
            rows[r, int(i)] += 1.0
        rows[r, count] = -1.0
    solution, *_ = np.linalg.lstsq(rows.T, target, rcond=None)
    residual = float(np.linalg.norm(rows.T @ solution - target))
    if residual < tol.eps_rank:
        return CheckReport(accepted=True, residual=residual, detail=margins,
                           set_count=len(cert.sets), point_count=count)
    return CheckReport(accepted=False, failure="ClaimNotImplied", residual=residual,
                       detail=margins, set_count=len(cert.sets), point_count=count)


# ---------------------------------------------------------------------------
# Generator.

OUTER = "outer"  # value equals the anchor value
INNER = "inner"  # value equals W - n * anchor value


def _key_coordinates(points) -> np.ndarray:
    """Coordinates rounded to 12 decimals, -0.0 folded into 0.0: the bytes
    of one point's row are its dedup key."""
    return np.round(np.asarray(points, dtype=float), 12) + 0.0


def _point_key(p) -> bytes:
    """Dedup key of a point; signed zeros share one key."""
    return _key_coordinates(p).tobytes()


class _Builder:
    def __init__(self, n: int, tol: Tolerance):
        self.n = n
        self.tol = tol
        self.points: list[np.ndarray] = []
        self.index: dict[bytes, int] = {}
        self.sets: list[tuple] = []
        self.set_index: dict[tuple, int] = {}

    def _id(self, key: bytes, p: np.ndarray) -> int:
        pid = self.index.get(key)
        if pid is None:
            pid = self.index[key] = len(self.points)
            self.points.append(p)
        return pid

    def point_id(self, p: np.ndarray) -> int:
        p = np.asarray(p, dtype=float)
        return self._id(_point_key(p), p)

    def _register(self, ids, stage: str) -> int:
        ids = tuple(sorted(ids))
        if len(set(ids)) != self.n + 1:
            raise GenerationFailure(stage, "set collapsed under point deduplication")
        if ids in self.set_index:
            return self.set_index[ids]
        if len(self.sets) >= MAX_CERT_SETS:
            raise GenerationFailure(stage, f"certificate exceeded {MAX_CERT_SETS} sets")
        self.set_index[ids] = len(self.sets)
        self.sets.append(ids)
        return self.set_index[ids]

    def add_set(self, s: EquilateralSet, stage: str) -> int:
        """Index of the set in the certificate, adding it unless already present."""
        return self._register([self.point_id(p) for p in s.points], stage)

    def add_hops(self, ends: np.ndarray, shared: np.ndarray, stage: str) -> list[tuple[int, int]]:
        """Register the sets {ends[h]} + shared[h] and {ends[h+1]} + shared[h]
        of every hop in hop order; returns them as terms summing to
        e_ends[0] - e_ends[-1]."""
        # Key every point of the hops in one rounding pass.
        end_keys = _key_coordinates(ends)
        shared_keys = _key_coordinates(shared)
        terms = []
        for h, (keys, points) in enumerate(zip(shared_keys, shared)):
            a = self._id(end_keys[h].tobytes(), ends[h])
            mid = [self._id(key.tobytes(), p) for key, p in zip(keys, points)]
            b = self._id(end_keys[h + 1].tobytes(), ends[h + 1])
            terms += [(self._register([a] + mid, stage), 1),
                      (self._register([b] + mid, stage), -1)]
        return terms

    def add_chain(self, waypoints: np.ndarray, stage: str) -> list[tuple[int, int]]:
        """The two sets of every hop between consecutive waypoints, registered
        in hop order, as terms summing to e_first - e_last."""
        if len(waypoints) < 2:
            return []
        return self.add_hops(waypoints, gamma1_links(waypoints[:-1], waypoints[1:], self.tol), stage)


def _fold(delta: float, period: float) -> float:
    r = delta % period
    return min(r, period - r)


class _CircuitRouter:
    """Plans hop chains from any annulus point of a 2-D section to the anchor."""

    def __init__(self, n: int):
        self.n = n
        self.alpha = alpha(n + 1)
        self.hop = 2.0 * self.alpha
        self.lam = lambda_shell(n)
        self.oa = self.hop - self.lam  # norm of a circuit corner
        # circuit_geometry by rotation: every chain of one generator plans
        # through the anchor's circuit and its pi/8 neighbour.
        self._circuits: dict[float, tuple] = {}

    def circuit_angle_for(self, p_local: np.ndarray, branch: int = 1) -> float:
        """Rotation phi such that p lies on the corner arc C_a of circuit(phi)."""
        s = float(np.linalg.norm(p_local))
        theta = math.atan2(p_local[1], p_local[0])
        kappa = (s * s + self.oa * self.oa - self.hop * self.hop) / (2.0 * s * self.oa)
        kappa = min(max(kappa, -1.0), 1.0)
        return theta - math.pi / 4.0 - branch * math.acos(kappa)

    def _geometry(self, phi: float):
        if phi not in self._circuits:
            self._circuits[phi] = circuit_geometry(self.n, phi)
        return self._circuits[phi]

    @staticmethod
    def _walk(start: str, end: str) -> list[str]:
        cycle = SKELETON_CYCLE
        i, j = cycle.index(start), cycle.index(end)
        fwd = (j - i) % len(cycle)
        back = (i - j) % len(cycle)
        if fwd <= back:
            return [cycle[(i + t) % len(cycle)] for t in range(fwd + 1)]
        return [cycle[(i - t) % len(cycle)] for t in range(back + 1)]

    def _cross(self, phi1: float, phi2: float):
        """A point on a corner arc of both circuits, with its two arc labels."""
        _, corners1, arcs1 = self._geometry(phi1)
        _, corners2, arcs2 = self._geometry(phi2)
        arcs1 = {a.label[-1]: a for a in arcs1 if a.label[-1] in "abcd"}
        arcs2 = {a.label[-1]: a for a in arcs2 if a.label[-1] in "abcd"}
        for i in "abcd":
            for j in "abcd":
                for pt in circle_circle_intersections(corners1[i], self.hop,
                                                      corners2[j], self.hop):
                    if float(np.linalg.norm(pt)) > 1.0 + 1e-9:
                        continue
                    t1 = math.atan2(pt[1] - corners1[i][1], pt[0] - corners1[i][0])
                    t2 = math.atan2(pt[1] - corners2[j][1], pt[0] - corners2[j][0])
                    if arcs1[i].contains_angle(t1, 1e-7) and arcs2[j].contains_angle(t2, 1e-7):
                        return i, j, pt
        return None

    def plan(self, p_local: np.ndarray, anchor_local: np.ndarray) -> list[np.ndarray]:
        """Local waypoints [p, ..., anchor]; consecutive gaps are exactly one hop."""
        phi0 = self.circuit_angle_for(anchor_local)
        _, corners0, _ = self._geometry(phi0)
        phi_p = self.circuit_angle_for(p_local)
        quarter = math.pi / 2.0
        k = round((phi_p - phi0) / quarter)
        if abs(phi_p - phi0 - k * quarter) < 1e-9:
            # Same circuit: p's arc corner is a relabeled corner of circuit(phi0).
            label = ["a", "d", "c", "b"][k % 4]
            names = self._walk(label, "a")
            return [p_local] + [corners0[nm] if nm in "abcd" else self._geometry(phi0)[0][nm]
                                for nm in names] + [anchor_local]
        alt = self.circuit_angle_for(p_local, branch=-1)
        if _fold(phi_p - phi0, quarter) < 0.05 and _fold(alt - phi0, quarter) >= 0.05:
            phi_p = alt
        if _fold(phi_p - phi0, quarter) >= 0.05:
            hit = self._cross(phi_p, phi0)
            if hit is not None:
                i, j, q = hit
                return self._assemble(p_local, phi_p, i, q, j, phi0, anchor_local)
        # Nearly aligned circuits (or no crossing found): route via a middle circuit.
        phi_m = phi0 + math.pi / 8.0
        hit1 = self._cross(phi_p, phi_m)
        hit2 = self._cross(phi_m, phi0)
        if hit1 is None or hit2 is None:
            raise GenerationFailure("shell-link", "no circuit crossing found")
        i1, j1, q1 = hit1
        i2, j2, q2 = hit2
        cards_m, corners_m, _ = self._geometry(phi_m)
        part1 = self._segment(p_local, phi_p, i1)
        middle = [corners_m[nm] if nm in "abcd" else cards_m[nm]
                  for nm in self._walk(j1, i2)]
        part3 = self._segment_rev(phi0, j2, anchor_local)
        return part1 + [q1] + middle + [q2] + part3

    def _segment(self, p_local, phi_p, end_label):
        cards, corners, _ = self._geometry(phi_p)
        names = self._walk("a", end_label)
        return [p_local] + [corners[nm] if nm in "abcd" else cards[nm] for nm in names]

    def _segment_rev(self, phi0, start_label, anchor_local):
        cards, corners, _ = self._geometry(phi0)
        names = self._walk(start_label, "a")
        return [corners[nm] if nm in "abcd" else cards[nm] for nm in names] + [anchor_local]

    def _assemble(self, p_local, phi_p, i, q, j, phi0, anchor_local):
        return self._segment(p_local, phi_p, i) + [q] + self._segment_rev(phi0, j, anchor_local)


class _Generator:
    def __init__(self, n: int, tol: Tolerance):
        if n < 2:
            raise PreconditionViolation("certificates need n >= 2")
        self.n = n
        self.tol = tol
        self.builder = _Builder(n, tol)
        self.router = _CircuitRouter(n)
        self.lam = lambda_shell(n)
        self.hop = 2.0 * alpha(n + 1)
        self.bridge_floor = self.hop - 1.0
        self.beta_next = beta(n + 1)
        self.epsilon = 0.5 * min(nu(n, self.lam, tol), self.beta_next - beta(n))
        self.schedule = self._build_schedule()
        self.anchor = np.zeros(n)
        self.anchor[0] = (self.lam + 1.0) / 2.0
        # Value class and combination node of every point met so far.
        self.memo: dict[bytes, tuple[str, int | None]] = {}
        # Integer combinations, one node per resolved point: (set terms,
        # node terms), each a list of (index, coefficient).  A node is made
        # after every node it refers to, so the list is in topological order.
        self.nodes: list[tuple[list, list]] = []
        self.exact = True

    def _build_schedule(self) -> list[float]:
        rho = mu_inverse(self.n, self.lam - self.epsilon, self.tol)
        schedule = [rho]
        for _ in range(10000):
            if schedule[-1] <= self.beta_next:
                break
            schedule.append(mu(self.n, schedule[-1], self.tol))
        else:
            raise GenerationFailure("schedule", "inward iteration did not terminate")
        return schedule

    _key = staticmethod(_point_key)

    # -- linking mechanics ---------------------------------------------------

    def _chain_to_anchor(self, p: np.ndarray) -> list[tuple[int, int]]:
        """Emit gamma1 pairs along a circuit chain from p to the anchor;
        returns their terms, which sum to e_p - e_anchor."""
        if self._key(p) == self._key(self.anchor):
            return []
        frame = section2d(self.anchor, p, self.tol)
        anchor_local = frame.basis @ self.anchor
        p_local = frame.basis @ p
        waypoints_local = self.router.plan(p_local, anchor_local)
        waypoints = [embed_in_frame(w[None, :], frame)[0] for w in waypoints_local]
        waypoints[0] = p          # use the exact ambient inputs at the ends
        waypoints[-1] = self.anchor
        cleaned = [waypoints[0]]
        for w in waypoints[1:]:
            if float(np.linalg.norm(w - cleaned[-1])) > 1e-12:
                cleaned.append(w)
        return self.builder.add_chain(np.array(cleaned), "shell-link")

    def _bridge_partner(self, p: np.ndarray) -> np.ndarray | None:
        """A shell point at hop distance from p with verified clearance."""
        s = float(np.linalg.norm(p))
        direction = p / s
        collinear = -(self.hop - s) * direction
        if float(np.linalg.norm(collinear)) >= self.lam:
            return collinear
        frame = section2d(self.anchor, p, self.tol)
        p_local = frame.basis @ p
        theta = math.atan2(p_local[1], p_local[0])
        lo = max(self.lam, self.hop - s)
        if lo > 1.0:
            return None
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            rho_r = lo + frac * (1.0 - lo)
            c = (s * s + rho_r * rho_r - self.hop * self.hop) / (2.0 * s * rho_r)
            if abs(c) > 1.0:
                continue
            omega = math.acos(c)
            r_local = rho_r * np.array([math.cos(theta + omega), math.sin(theta + omega)])
            r = embed_in_frame(r_local[None, :], frame)[0]
            if gamma(p, r, self.tol).value >= beta(self.n) + 0.005:
                return r
        return None

    def _band_index(self, s: float) -> int:
        for m in range(len(self.schedule) - 1):
            if s >= self.schedule[m + 1] - BAND_EDGE_SLACK:
                return m
        return len(self.schedule) - 2

    # -- resolution ----------------------------------------------------------
    #
    # The node of an OUTER point p combines sets to e_p - e_anchor, that of
    # an INNER point to e_p + n*e_anchor - e_W, and the closing node to
    # (n+1)*e_anchor - e_W.

    def _node(self, sets: list, nodes: list) -> int:
        if any(node is None for node, _ in nodes):
            self.exact = False  # refers to a point still being resolved
        self.nodes.append((sets, nodes))
        return len(self.nodes) - 1

    def resolve(self, p: np.ndarray) -> tuple[str, int | None]:
        """Emit relations tying f(p) to the anchor; returns the value class and
        the node of its combination (None while p is still being resolved)."""
        key = self._key(p)
        if key in self.memo:
            return self.memo[key]
        self.memo[key] = OUTER, None  # breaks accidental cycles; overwritten below
        s = float(np.linalg.norm(p))
        if key == self._key(self.anchor):
            cls, node = OUTER, self._node([], [])
        elif s >= self.lam - 1e-12:
            cls, node = OUTER, self._node(self._chain_to_anchor(p), [])
        elif s < self.beta_next - INNER_EDGE:
            cls, node = self._resolve_inner(p)
        elif s >= self.bridge_floor:
            partner = self._bridge_partner(p)
            if partner is not None:
                # The one-hop wrapper: perfbench traces bridge hops as
                # gamma.gamma1_link calls.
                set_a, _ = gamma1_link(p, partner, self.tol)
                link = self.builder.add_hops(np.array([p, partner]), set_a.points[None, 1:], "bridge")
                _, sub = self.resolve(partner)
                cls, node = OUTER, self._node(link, [(sub, 1)])
            else:
                cls, node = self._resolve_band(p, s)
        else:
            cls, node = self._resolve_band(p, s)
        self.memo[key] = cls, node
        return cls, node

    def _subtract(self, p: np.ndarray, cls: str, stage: str, failure: str) -> tuple[int | None, int]:
        """Resolve p, which the construction puts in class cls; its node, negated."""
        got, node = self.resolve(p)
        if got != cls:
            raise GenerationFailure(stage, failure)
        return node, -1

    def _resolve_inner(self, p: np.ndarray) -> tuple[str, int]:
        full, companions = constant_lemma_relation(p, self.beta_next, self.n, self.tol)
        own = self.builder.add_set(full, "inner-lemma")
        subs = [self._subtract(c, OUTER, "inner-lemma", "companion did not resolve to the annulus")
                for c in companions]
        return INNER, self._node([(own, 1)], subs)

    def _step_node(self, rel: StepRelation, stage: str) -> int:
        own = self.builder.add_set(rel.set, stage)
        subs = [self._subtract(rel.v, INNER, stage, "antipodal point did not resolve inner")]
        subs += [self._subtract(c, OUTER, stage, "companion did not resolve to the annulus")
                 for c in rel.companions]
        return self._node([(own, 1)], subs)

    def _resolve_band(self, p: np.ndarray, s: float) -> tuple[str, int]:
        m = self._band_index(s)
        rel = theorem_step_relation(p, self.schedule[m], self.n, self.tol)
        return OUTER, self._step_node(rel, "annulus-step")

    def _emit_closing(self) -> int:
        """Identify the inner value with the annulus value at the fixed point;
        returns the closing node, lemma minus step."""
        z = np.zeros(self.n)
        z[0] = self.beta_next
        m = self._band_index(self.beta_next)
        rel = theorem_step_relation(z, self.schedule[m], self.n, self.tol)
        step = self._step_node(rel, "closing")
        self.memo[self._key(z)] = OUTER, step
        full, companions = constant_lemma_relation(z, self.beta_next, self.n, self.tol)
        lemma = self.builder.add_set(full, "closing")
        subs = [self._subtract(c, OUTER, "closing", "fixed-point companion did not resolve")
                for c in companions]
        return self._node([(lemma, 1)], subs + [(step, -1)])

    def _multipliers(self, root: int) -> list[int]:
        """Per-set coefficients of a node, expanded through the node graph
        from the newest node down."""
        weight = [0] * len(self.nodes)
        weight[root] = 1
        lam = [0] * len(self.builder.sets)
        for j in range(len(self.nodes) - 1, -1, -1):
            w = weight[j]
            if w:
                sets, nodes = self.nodes[j]
                for i, coef in sets:
                    lam[i] += w * coef
                for k, coef in nodes:
                    weight[k] += w * coef
        return lam

    def run(self, x: np.ndarray, y: np.ndarray) -> Certificate:
        id_x = self.builder.point_id(x)
        id_y = self.builder.point_id(y)
        params = {"epsilon": self.epsilon, "shell_rho_schedule": list(self.schedule)}
        if id_x == id_y:
            return Certificate(n=self.n, points=np.array([self.builder.points[id_x]]),
                               sets=[], claim=(id_x, id_x), generator_params=params,
                               multipliers=[])
        cls_x, node_x = self.resolve(x)
        cls_y, node_y = self.resolve(y)
        terms = [(node_x, 1), (node_y, -1)]
        if cls_x != cls_y:
            terms.append((self._emit_closing(), -1 if cls_x == INNER else 1))
        claim = self._node([], terms)
        return Certificate(
            n=self.n,
            points=np.array(self.builder.points),
            sets=list(self.builder.sets),
            claim=(id_x, id_y),
            generator_params=params,
            multipliers=self._multipliers(claim) if self.exact else None,
        )


def generate_equality_certificate(x, y, n: int,
                                  tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Build a certificate whose sum equations force f(x) = f(y).

    Deterministic for fixed (x, y, n).  Raises GenerationFailure (with a
    stage tag) if any construction fails its re-check, and self-checks the
    result before returning it.
    """
    x = as_point(x, n)
    y = as_point(y, n)
    for p in (x, y):
        if float(np.linalg.norm(p)) > 1.0 + DEFAULT_TOL.eps_eq:
            raise OutsideBall("certificate endpoints must lie in the closed unit ball")
    gen = _Generator(n, tol)
    try:
        cert = gen.run(x, y)
    except GenerationFailure:
        raise
    except Exception as exc:  # construction bug surfaced mid-stage
        raise GenerationFailure("construction", str(exc)) from exc
    report = check_certificate(cert, tol)
    if not report.accepted:
        raise GenerationFailure("self-check", f"checker rejected: {report.failure} "
                                              f"residual={report.residual}")
    return cert
