"""Equality certificates: finite set systems forcing f(x) = f(y).

A certificate lists maximal standard equilateral sets in the closed unit
ball over a shared point table.  Every candidate weight f satisfies one
linear equation per set (the point values sum to the weight W), so a claim
f(x) = f(y) is implied exactly when e_x - e_y lies in the row space of the
system.  The generator builds such systems constructively:

  * points of the outer annulus are chained to a fixed anchor by two or
    four hops of length 2*alpha(n+1) in the section through the point and
    the anchor, through circle intersections and at most one fixed hub
    (_Generator._plan), two sets per hop (the sets share n points, so each
    hop's rows cancel to e_p - e_q);
  * every other point p with ||p|| >= 2*alpha(n+1) - 1 that is not inner
    bridges: one hop to the partner at norm max(lambda_shell(n),
    2*alpha(n+1) - ||p||) in the section through p and the anchor, which
    chains.  Any pair of the ball at exact hop length is a hop
    (gamma.gamma1_link), so the partner needs no further check;
  * inner points z get one set {z, c_1..c_n} with companions at the radius
    whose apex height equals ||z||, tying f(z) + n*(annulus value) = W;
  * the remaining mid-radius points u (n = 2, 3) pair with the antipodal v
    at norm 1 - ||u||, enlarged to a maximal set whose extra vertices all
    land at norm sqrt(1 - ||u|| + ||u||**2) >= ||u||;
  * one closing pair at the fixed-point radius beta(n+1) identifies the
    inner value with the annulus value, making W = (n+1) * anchor.  It is
    a constant of (n, tol), built once per process and merged into every
    certificate whose endpoints fall in different value classes.

Every step above combines set equations with integer coefficients, so the
generator also emits one integer multiplier per set: with R the rows of the
system (a 1 per point of the set, -1 in the W column), R^T lambda equals
e_x - e_y.  Each resolved point p keeps the combination proving
f(p) = f(anchor) (outer points) or f(p) + n*f(anchor) = W (inner points).
A chain hop adds +1 and -1 on its two sets.  Every other relation takes
one path, _Generator._set_node: one set whose other members are resolved,
each in the value class the construction puts it in, taking +1 on the set
minus the members' combinations.  The lemma and the step are one such set
each, a bridge p -> q is {p} + S minus the node of {q} + S with member q,
and the closing node, lemma minus step, supplies W = (n+1)*f(anchor).

Two points are one point exactly when their float64 coordinates compare
equal, -0.0 equal to 0.0 (_point_key).  No tolerance merges distinct points,
so the claim names both endpoints, however close they are.

Sets are not registered as the recursion meets them.  The builder queues
each requested set, chain and merged closing relation and registers the
queue in request order when it flushes: at the end of a run, before the
closing relation is read, once the queued sets could pass MAX_CERT_SETS,
and before an error propagates.  The certificate is the one registering
each request at once would give, and one gamma1_link call per flush
builds the shared points of every queued hop, chain and bridge alike.

Certificates are written as format version 4, whose `hops` field lists
hops as [end id, end id] pairs (a, b).  Neither the n shared points of a
listed hop nor its two sets are written: with E written points, its
points take the ids E + n*h .. E + n*h + n - 1, in order the rows of
simplex_on_spheres((a + b)/2, b - a, beta(n)) with -0.0 read as 0.0
(gamma._shared_points), which the parser rebuilds for every hop in that
one call, and its sets {a} + S and {b} + S follow the written sets, hop
by hop.  `multipliers` writes one entry per written set, then one per
hop: lambda for {a} + S, whose negation {b} + S carries.  In memory the
sets are one (S, n+1) int64 table holding every set, and the multipliers
one list in its order.  The generator keeps every hop it builds, chain
hops (the closing relation's too) and bridges, and lists a hop when its
two sets carry opposite multipliers and none of its shared points lies in
another set, is a claim point or is a hop's end; the other points and
sets keep their first-appearance order.

The checker is generation-agnostic: it re-validates every set numerically
in vectorized passes of bounded size, rebuilt hop sets included, then
accepts the claim when the integer accumulation of the multipliers equals
e_x - e_y exactly.  That is its only claim test: a document without
multipliers, or of a version other than CERT_VERSION, is malformed.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    ConstructionError,
    GenerationFailure,
    InputError,
    MalformedCertificate,
)
from .gamma import _shared_points, gamma1_link
from .geometry import (DEFAULT_TOL, GRID_STEP, RANK_RESIDUAL, Tolerance, _residual, as_point,
                       clamp_to_range, first_orthogonal_axis, json_number_array)
from .simplex import EquilateralSet, alpha, beta, cap_extension, check_sets, first_failure
from .enlarge import enlarge_to_maximal
from .weights import circle_circle_intersections, eta, lambda_shell, mu, mu_inverse

CERT_VERSION = 4
MAX_CERT_SETS = 5000
# The most coordinates a document's hops may rebuild, n*n per hop: 2**23
# (64 MB of float64) holds the 2500 hops of MAX_CERT_SETS hop sets at n = 32
# three times over, and 2048 hops at n = 64.
MAX_HOP_COORDINATES = 2**23
INT64_MAX = int(np.iinfo(np.int64).max)
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


# ---------------------------------------------------------------------------
# Certificate container and serialization.


@dataclass
class Certificate:
    """Point table, maximal-set id table, claim pair, generator metadata.

    `sets` is one (S, n+1) int64 array of point ids for generated and
    parsed certificates (the checker also takes a list of id tuples), and
    `multipliers` holds one integer per set whose combination of the set
    equations is the claim; the checker reports any other length as
    MalformedCertificate.  `hops` lists (end id, end id) pairs (a, b).  With
    E the number of points less n per hop, the n points that the two sets
    of hop h share are points E + n*h .. E + n*h + n - 1, in order the
    rows of simplex_on_spheres((a + b)/2, b - a, beta(n)) with -0.0 read as
    0.0 in both arguments (gamma._shared_points).  With H hops, the last 2H
    sets are the hops' own, in hop order: hop h's a-set [a, E + n*h, ..,
    E + n*h + n - 1] at row S - 2H + 2h, its b-set (b in place of a) next,
    with opposite multipliers.  The tables list every point and set; only
    the JSON document leaves the n points and two sets per hop out.
    """

    n: int
    points: np.ndarray
    sets: np.ndarray | list
    claim: tuple
    generator_params: dict = field(default_factory=dict)
    multipliers: list[int] = field(default_factory=list)
    hops: list = field(default_factory=list)


def _is_int(value) -> bool:
    """Whether a value is an integer id or multiplier: an int or a numpy
    integer, never a boolean."""
    return type(value) is int or isinstance(value, np.integer)


def _checked_multipliers(multipliers, length: int, set_count: int, n: int) -> list[int]:
    """The multipliers as Python ints, or MalformedCertificate.

    Rejects a length other than `length`, entries that are not integers
    (booleans included), and magnitudes for which the checker's int64
    accumulation of set_count * (n+1) terms could overflow.
    """
    if not isinstance(multipliers, (list, tuple)) or len(multipliers) != length:
        raise MalformedCertificate(f"multipliers must be a list of {length} integers")
    if not all(map(_is_int, multipliers)):
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


@lru_cache(maxsize=64)
def _row_template(conversion: str, width: int) -> str:
    return "[" + ", ".join([conversion] * width) + "]"


def _rows_json(rows, conversion: str) -> _Json:
    """A list of rows, as _dumps prints it, with every entry formatted by the
    % conversion ("%.17g" % v is format(v, ".17g")), by one % over the
    template of the whole table."""
    template = "[" + ", ".join([_row_template(conversion, len(row)) for row in rows]) + "]"
    return _Json(template % tuple(itertools.chain.from_iterable(rows)))


def certificate_to_json(cert: Certificate, tol: Tolerance = DEFAULT_TOL) -> str:
    """The certificate as JSON text, byte-identical to _dumps of the plain
    document: the point table less the points that `hops` rebuilds, then
    hops, the sets less the hops' own, and the multipliers of the written
    sets followed by one per hop, that of its a-set (its b-set's is the
    negation, Certificate), formatted row by row."""
    points = np.asarray(cert.points, dtype=float)
    hop_count = len(cert.hops)
    written = len(points) - cert.n * hop_count
    kept = len(cert.sets) - 2 * hop_count
    sets = cert.sets[:kept]
    lam = list(cert.multipliers)
    return _dumps({
        "version": CERT_VERSION,
        "n": cert.n,
        "tolerance": {"eps_eq": tol.eps_eq, "grid_step": GRID_STEP},
        "points": _rows_json(points[:written].tolist(), "%.17g"),
        "hops": _rows_json(cert.hops, "%d"),
        "sets": _rows_json(sets.tolist() if isinstance(sets, np.ndarray) else sets, "%d"),
        "claim": [int(cert.claim[0]), int(cert.claim[1])],
        "generator_params": cert.generator_params,
        "multipliers": _Json("[" + ", ".join([str(int(m)) for m in lam[:kept] + lam[kept::2]])
                             + "]"),
    })


def certificate_from_json(text: str) -> Certificate:
    """Parse a certificate document, rebuilding the shared points and the
    two sets of each of its hops.

    Raises MalformedCertificate unless the document is a JSON object with
    integer `n`, `version` CERT_VERSION if present, a numeric `points` table
    of n columns, as `sets` a list of lists of n+1 integer ids, two integer
    ids as `claim`, as `hops` a list of [end id, end id] pairs of two
    distinct finite points of that table, and as `multipliers` one integer
    per set, then one per hop.  Ids must be JSON integers: 0.9, "2" and true
    are rejected.  One _shared_points call rebuilds the n shared points of
    every hop and appends them to the table, hop by hop, and each hop's
    a-set and b-set follow the written sets, with the hop's multiplier on
    the a-set and its negation on the b-set (Certificate); at most
    MAX_HOP_COORDINATES coordinates are rebuilt.  Whether the set ids are
    in range is left to the checker, which reports the first bad set.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedCertificate(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedCertificate("a certificate must be a JSON object")
    for key in ("n", "points", "hops", "sets", "claim", "multipliers"):
        if key not in doc:
            raise MalformedCertificate(f"missing field {key!r}")
    n, version, claim = doc["n"], doc.get("version", CERT_VERSION), doc["claim"]
    if not _is_int(n):
        raise MalformedCertificate("n must be an integer")
    if not (_is_int(version) and version == CERT_VERSION):
        raise MalformedCertificate("unsupported certificate version")
    if not (isinstance(claim, list) and len(claim) == 2 and all(map(_is_int, claim))):
        raise MalformedCertificate("claim must be a list of two point ids")
    sets = doc["sets"]
    if not (isinstance(sets, list) and set(map(type, sets)) <= {list}):
        raise MalformedCertificate("sets must be a list of point-id lists")
    if not set(map(type, itertools.chain.from_iterable(sets))) <= {int}:
        raise MalformedCertificate("set ids must be integers")
    try:
        points = json_number_array(doc["points"])
    except InputError as exc:
        raise MalformedCertificate(f"points must be a numeric array: {exc}") from exc
    if points.ndim != 2:
        raise MalformedCertificate("points must be a list of coordinate arrays")
    if points.shape[1] != n:
        raise MalformedCertificate(f"points must have n = {n} coordinates each, "
                                   f"got {points.shape[1]}")
    hops = doc["hops"]
    if not (isinstance(hops, list) and set(map(type, hops)) <= {list}
            and all(len(h) == 2 for h in hops)
            and set(map(type, itertools.chain.from_iterable(hops))) <= {int}):
        raise MalformedCertificate("hops must be a list of [end id, end id] pairs")
    shared, hop_sets = (_hop_tables(points, hops, n) if hops
                        else (points[:0], np.empty((0, n + 1), dtype=np.int64)))
    written = len(sets)
    multipliers = _checked_multipliers(doc["multipliers"], written + len(hops),
                                       written + 2 * len(hops), n)
    try:
        table = np.array(sets, dtype=np.int64).reshape(written, n + 1)
    except OverflowError as exc:
        raise MalformedCertificate("set ids must be ids of points") from exc
    except ValueError as exc:
        raise MalformedCertificate(f"sets must have n + 1 = {n + 1} ids each") from exc
    return Certificate(
        n=n,
        points=np.concatenate([points, shared]),
        sets=np.concatenate([table, hop_sets]),
        claim=(claim[0], claim[1]),
        generator_params=doc.get("generator_params", {}),
        multipliers=multipliers[:written] + [m for lam in multipliers[written:]
                                             for m in (lam, -lam)],
        hops=[tuple(h) for h in hops],
    )


def _hop_tables(points: np.ndarray, hops: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The shared points of the hops, pairs of ids into the written points,
    as an (n*len(hops), n) table, and the hops' sets as a (2*len(hops), n+1)
    id table, hop h's a-set [a, E + n*h, .., E + n*h + n - 1] then its
    b-set, E = len(points); MalformedCertificate unless every hop joins two
    distinct finite points and the table stays within MAX_HOP_COORDINATES."""
    if n < 2:
        raise MalformedCertificate("hops need n >= 2")
    if len(hops) * n * n > MAX_HOP_COORDINATES:
        raise MalformedCertificate(f"hops would rebuild more than {MAX_HOP_COORDINATES} "
                                   f"coordinates")
    try:
        ids = np.array(hops, dtype=np.int64)
    except OverflowError:
        ids = None
    if ids is None or ((ids < 0) | (ids >= len(points))).any():
        raise MalformedCertificate("hop ends must be ids of written points")
    ends = points[ids]
    if not np.isfinite(ends).all():
        raise MalformedCertificate("hop ends must be finite points")
    a, b = ends[:, 0], ends[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            shared = _shared_points((a + b) / 2.0, b - a)
        except InputError as exc:
            raise MalformedCertificate("hop ends coincide") from exc
    sets = np.empty((len(hops), 2, n + 1), dtype=np.int64)
    sets[:, :, 0] = ids
    sets[:, :, 1:] = len(points) + np.arange(n * len(hops)).reshape(-1, 1, n)
    # As in the generator's table, no coordinate is -0.0.
    return shared.reshape(-1, n) + 0.0, sets.reshape(-1, n + 1)


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
    index of the first set that is not such a tuple of integer ids.  An
    (S, width) int64 array, as generated and parsed certificates hold, takes
    only the range check."""
    if not (isinstance(sets, np.ndarray) and sets.dtype == np.int64
            and sets.shape == (len(sets), width)):
        def is_id_tuple(s) -> bool:
            try:
                return len(s) == width and all(_is_int(i) and 0 <= i < count for i in s)
            except TypeError:
                return False

        try:
            # Python int ids only: int64 conversion reads 0.9 as 0 and True as 1.
            plain = set(map(type, itertools.chain.from_iterable(sets))) <= {int}
            ids = np.asarray(sets, dtype=np.int64) if plain else None
        except (TypeError, ValueError, OverflowError):
            ids = None
        if ids is None or ids.shape != (len(sets), width):
            bad = next((idx for idx, s in enumerate(sets) if not is_id_tuple(s)), None)
            if bad is not None:
                return bad
            ids = np.array(sets, dtype=np.int64).reshape(len(sets), width)
        sets = ids
    bad = np.flatnonzero(((sets < 0) | (sets >= count)).any(axis=1))
    return int(bad[0]) if bad.size else sets


def _recheck(pts: np.ndarray, ids: np.ndarray, tol: Tolerance) -> tuple[int | None, float, float]:
    """Re-check the sets of an id table over the points, in check_sets'
    bounded chunks: (first failing set or None, its worst distance error and
    norm excess, or the worst over all sets when none fails)."""
    err, top, checks = check_sets(pts, True, tol, ids=ids)
    failed = first_failure(checks)
    if failed is None:
        return None, float(err.max(initial=0.0)), max(float(top.max(initial=1.0)) - 1.0, 0.0)
    i = failed[0]
    return i, float(err[i]), max(float(top[i]) - 1.0, 0.0)


def check_certificate(cert: Certificate, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Independently verify a certificate; never consults how it was generated.

    Re-checks every set (pairwise distances 1, norms <= 1, size n+1) in
    vectorized passes of bounded size and reports the first failing set as
    SetInvalid.  Accepts iff the int64 accumulation of the multipliers over
    the sum equations equals e_x - e_y exactly (residual 0.0; otherwise the
    residual is the norm of the integer difference).  Multipliers that are
    missing, of the wrong length or not integers are MalformedCertificate.
    Past the shape checks, `detail` carries the worst distance error and
    norm excess: of the failing set on SetInvalid, over all sets otherwise.
    """
    n = cert.n
    pts = np.asarray(cert.points, dtype=float)
    if n < 1 or pts.ndim != 2 or pts.shape[1] != n or not np.all(np.isfinite(pts)):
        return CheckReport(accepted=False, failure="MalformedCertificate",
                           detail={"reason": "bad point table"})
    count = pts.shape[0]
    claim = cert.claim
    if len(claim) != 2 or not all(_is_int(i) and 0 <= i < max(count, 1) for i in claim):
        return CheckReport(accepted=False, failure="MalformedCertificate",
                           detail={"reason": "claim indices out of range"})
    set_count = len(cert.sets)

    def report(failure: str | None, residual: float | None, **detail) -> CheckReport:
        return CheckReport(accepted=failure is None, failure=failure, residual=residual,
                           detail=detail, set_count=set_count, point_count=count)

    ids = _set_table(cert.sets, n + 1, count)
    if isinstance(ids, int):
        return report("MalformedCertificate", None,
                      reason=f"set {ids} is not an (n+1)-tuple of valid ids")
    try:
        multipliers = _checked_multipliers(cert.multipliers, set_count, set_count, n)
    except MalformedCertificate as exc:
        return report("MalformedCertificate", None, reason=str(exc))
    failed, dist_err, norm_excess = _recheck(pts, ids, tol)
    margins = {"worst_distance_error": dist_err, "worst_norm_excess": norm_excess}
    if failed is not None:
        return report("SetInvalid", None, set_index=failed, **margins)
    if int(claim[0]) == int(claim[1]):
        return report(None, 0.0, **margins)
    lam = np.array(multipliers, dtype=np.int64)
    miss = np.zeros(count + 1, dtype=np.int64)
    np.add.at(miss, ids.ravel(), np.repeat(lam, n + 1))
    miss[count] = -lam.sum()
    miss[int(claim[0])] -= 1
    miss[int(claim[1])] += 1
    if not miss.any():
        return report(None, 0.0, **margins)
    return report("ClaimNotImplied", float(np.linalg.norm(miss)), **margins)


# ---------------------------------------------------------------------------
# Generator.

OUTER = "outer"  # value equals the anchor value
INNER = "inner"  # value equals W - n * anchor value


def _point_key(p) -> bytes:
    """Identity key of a point, or of a stack of rows: the bytes of p + 0.0.
    Two points share a key exactly when their float64 coordinates compare
    equal; adding 0.0 turns -0.0 into 0.0, so signed zeros share one key."""
    return (np.asarray(p, dtype=float) + 0.0).tobytes()


@dataclass(frozen=True)
class _Fragment:
    """A relation built once in a fresh generator, merged into certificates.

    `points` is read-only; `sets` are (local point ids, stage tag) in
    registration order; `terms` are the relation's (local set, coefficient)
    pairs; `hops` are its (set pair, hop row) items (_Builder.hops) in local
    set and point ids.
    """

    points: np.ndarray
    sets: tuple[tuple[tuple[int, ...], str], ...]
    terms: tuple[tuple[int, int], ...]
    hops: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]


class _Builder:
    """Point table and deduplicated sets of one certificate.

    add_set, add_chain and add_fragment queue a request and return its
    slots, one per set it registers.  flush() registers the queue in request
    order, so point ids, set indices, dedup and stage tags are those of
    registering each request at once; `slots` then maps each slot to its set
    index.  One gamma1_link call per flush builds the shared points of every
    queued hop.  The queue is flushed early once its slots could
    take the certificate past MAX_CERT_SETS, so a certificate that is too
    large fails at the request that overflows it.  Every hop registered is
    kept as one row of point ids, (a, shared points in vertex order, b), in
    `hops`, keyed by the indices of its a-set and b-set, in registration
    order and once per pair of sets: the hop b -> a is a -> b with its ends
    swapped, whose shared points are the same ones when b - a has a nonzero
    last coordinate.
    """

    def __init__(self, n: int, tol: Tolerance):
        self.n = n
        self.tol = tol
        self.points: list[np.ndarray] = []
        self.index: dict[bytes, int] = {}
        self.sets: list[tuple] = []
        self.stages: list[str] = []
        self.set_index: dict[tuple, int] = {}
        self.slots: list[int] = []
        # Queued requests, each a function of the chain links iterator that
        # registers the request's sets and returns their indices.
        self.queue: list = []
        self.chains: list[np.ndarray] = []
        self.pending = 0
        self.hops: dict[tuple[int, int], tuple[int, ...]] = {}

    def ids(self, points: np.ndarray) -> list[int]:
        """Point ids of a stack of rows, in row order, keyed in one pass;
        a row whose key is new is added to the table."""
        keys = _point_key(points)
        width = len(keys) // len(points)
        found = []
        for i, p in enumerate(points):
            pid = self.index.setdefault(keys[i * width:(i + 1) * width], len(self.points))
            if pid == len(self.points):
                self.points.append(p)
            found.append(pid)
        return found

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
        self.stages.append(stage)
        return self.set_index[ids]

    def _enqueue(self, register, count: int) -> range:
        """Queue a request of `count` sets; returns its slots."""
        first = len(self.slots) + self.pending
        self.queue.append(register)
        self.pending += count
        if len(self.sets) + self.pending > MAX_CERT_SETS:
            self.flush()
        return range(first, first + count)

    def add_set(self, s: EquilateralSet, stage: str) -> int:
        """Slot of the set, which is added unless already present."""
        def register(links):
            return [self._register(self.ids(s.points), stage)]
        return self._enqueue(register, 1)[0]

    def add_chain(self, waypoints: np.ndarray, stage: str) -> list[tuple[int, int]]:
        """The two sets of every hop between consecutive waypoints, in hop
        order, as slot terms summing to e_first - e_last; the flush builds
        their shared points."""
        hops = len(waypoints) - 1
        self.chains.append(waypoints)

        def register(links):
            # Each hop's rows a, shared..., b, keyed in hop order in one pass;
            # the hop's two sets are its first and its last n+1 rows.
            rows = np.concatenate([waypoints[:-1, None], next(links), waypoints[1:, None]], axis=1)
            ids = self.ids(rows.reshape(-1, self.n))
            return [slot for hop in range(0, len(ids), self.n + 2)
                    for slot in self._register_hop(ids[hop:hop + self.n + 2], stage)]
        return list(zip(self._enqueue(register, 2 * hops), [1, -1] * hops))

    def _register_hop(self, ids: list[int], stage: str) -> list[int]:
        """Register the two sets of the hop row ids, (a, shared..., b), and
        keep the row."""
        pair = self._register(ids[:-1], stage), self._register(ids[1:], stage)
        self._keep_hop(pair, tuple(ids))
        return list(pair)

    def _keep_hop(self, pair: tuple[int, int], row: tuple[int, ...]) -> None:
        if pair[::-1] not in self.hops:
            self.hops.setdefault(pair, row)

    def add_fragment(self, frag: _Fragment) -> range:
        """Slots of the fragment's sets, which are added with its points in its
        order and with its stage tags, and its hops."""
        def register(links):
            ids = self.ids(frag.points)
            where = [self._register([ids[i] for i in local], stage) for local, stage in frag.sets]
            for (a, b), row in frag.hops:
                self._keep_hop((where[a], where[b]), tuple(ids[i] for i in row))
            return where
        return self._enqueue(register, len(frag.sets))

    def _links(self, chains: list[np.ndarray]):
        """The shared points of each chain's hops, from one gamma1_link call."""
        if not chains:
            return iter(())
        try:
            shared = gamma1_link(np.concatenate([w[:-1] for w in chains]),
                                 np.concatenate([w[1:] for w in chains]), self.tol)
        except (InputError, ConstructionError):
            # Rebuild chain by chain as the queue registers, so that the error
            # raised is the first one in request order.
            return (gamma1_link(w[:-1], w[1:], self.tol) for w in chains)
        return iter(np.split(shared, np.cumsum([len(w) - 1 for w in chains[:-1]])))

    def flush(self) -> None:
        """Register the queued requests in request order."""
        queue, chains = self.queue, self.chains
        self.queue, self.chains, self.pending = [], [], 0
        links = self._links(chains)
        for register in queue:
            self.slots += register(links)

    def certificate(self, claim: tuple[int, int], multipliers: list[int]) -> Certificate:
        """The certificate of the registered sets, its points and sets
        renumbered and its multipliers permuted with the sets.

        A hop is listed in `hops` when its two sets carry opposite
        multipliers and none of its shared points lies in a set other than
        the hop's two, is a claim point or is a hop's end.  The other points
        keep their first-appearance order, ahead of the shared points of the
        listed hops, hop by hop in vertex order; the other sets keep their
        registration order, ahead of each listed hop's a-set and b-set, in
        hop order (Certificate).  The table holds no -0.0, which JSON would
        read back as 0.0.
        """
        count, n = len(self.points), self.n
        sets = np.array(self.sets, dtype=np.int64).reshape(len(self.sets), n + 1)
        pairs = np.array(list(self.hops), dtype=np.int64).reshape(len(self.hops), 2)
        rows = np.array(list(self.hops.values()), dtype=np.int64).reshape(len(self.hops), n + 2)
        lam = np.array(multipliers)
        pinned = np.bincount(sets.ravel(), minlength=count) != 2
        pinned[rows[:, [0, -1]]] = True
        pinned[list(claim)] = True
        listed = ~pinned[rows[:, 1:-1]].any(axis=1) & (lam[pairs[:, 0]] == -lam[pairs[:, 1]])
        rows, pairs = rows[listed], pairs[listed]
        written = np.ones(count, dtype=bool)
        written[rows[:, 1:-1]] = False
        order = np.concatenate([np.flatnonzero(written), rows[:, 1:-1].ravel()])
        new_id = np.empty(count, dtype=np.int64)
        new_id[order] = np.arange(count)
        kept = np.ones(len(sets), dtype=bool)
        kept[pairs] = False
        set_order = np.concatenate([np.flatnonzero(kept), pairs.ravel()])
        return Certificate(
            n=n,
            points=np.array(self.points)[order] + 0.0,
            sets=np.sort(new_id[sets[set_order]], axis=1),
            claim=(int(new_id[claim[0]]), int(new_id[claim[1]])),
            multipliers=lam[set_order].tolist(),
            hops=list(map(tuple, new_id[rows[:, [0, -1]]].tolist())),
        )


class _Generator:
    def __init__(self, n: int, tol: Tolerance):
        if n < 2:
            raise InputError("certificates need n >= 2")
        self.n = n
        self.tol = tol
        self.builder = _Builder(n, tol)
        self.lam, self.hop = lambda_shell(n), 2.0 * alpha(n + 1)
        self.bridge_floor = self.hop - 1.0
        self.beta_next = beta(n + 1)
        # The anchor's coordinates in every section through it.
        self.anchor_local = np.array([(self.lam + 1.0) / 2.0, 0.0])
        self.anchor = np.zeros(n)
        self.anchor[0] = self.anchor_local[0]
        self.anchor_key = _point_key(self.anchor)
        # The first row of every section through the anchor: its direction.
        self.anchor_row = self.anchor[None, :] / math.sqrt(self.anchor @ self.anchor)
        # Value class and combination node of every point met so far.
        self.memo: dict[bytes, tuple[str, int | None]] = {}
        # Integer combinations, one node per resolved point: (set terms,
        # node terms), lists of (builder slot, coefficient) and (node index,
        # coefficient).  A node is made after every node it refers to, so the
        # list is in topological order.
        self.nodes: list[tuple[list, list]] = []

    # -- linking mechanics ---------------------------------------------------

    def _section(self, p: np.ndarray) -> np.ndarray:
        """Basis rows of a 2-D section through the anchor and p, those of
        section2d(anchor, p): the anchor's direction, then p's residual
        direction, or the canonical-axis tie-break when p lies on the
        anchor's axis (p at the anchor itself resolves by its key)."""
        u = _residual(p, self.anchor_row)
        norm = math.sqrt(u @ u)
        if norm > RANK_RESIDUAL:
            return np.array([self.anchor_row[0], u / norm])
        return np.array([self.anchor_row[0], first_orthogonal_axis(self.anchor_row, self.n)])

    def _plan(self, p_local: np.ndarray) -> list[np.ndarray]:
        """Section waypoints [p, via(p, A), A], or [p, via(p, q), q, via(q, A),
        A] through the first hub q that has a via from p, A the anchor:
        consecutive waypoints are one hop apart and every via is in the disc."""
        via = _via(p_local, self.anchor_local, self.hop)
        if via is not None:
            return [p_local, via, self.anchor_local]
        for hub, hub_via in _hubs(self.hop, self.anchor_local[0]):
            via = _via(p_local, hub, self.hop)
            if via is not None:
                return [p_local, via, hub, hub_via, self.anchor_local]
        raise GenerationFailure("shell-link", "no hop plan")

    def _chain_to_anchor(self, p: np.ndarray) -> list[tuple[int, int]]:
        """Emit gamma1 pairs along the planned chain from p to the anchor;
        returns their terms, which sum to e_p - e_anchor."""
        basis = self._section(p)
        # Each waypoint is embedded by its own (1, 2) @ basis product: a 2-D
        # (m, 2) @ basis product may round differently.
        waypoints = (np.array(self._plan(basis @ p))[:, None, :] @ basis)[:, 0]
        waypoints[0] = p          # use the exact ambient inputs at the ends
        waypoints[-1] = self.anchor
        return self.builder.add_chain(waypoints, "shell-link")

    def _bridge_partner(self, p: np.ndarray) -> np.ndarray:
        """The point at norm max(lam, hop - ||p||), hop distance from p, in
        the section through p and the anchor, for ||p|| in [hop - 1, 1]."""
        s = math.sqrt(p @ p)
        basis = self._section(p)
        p_local = basis @ p
        rho = max(self.lam, self.hop - s)
        c = (s * s + rho * rho - self.hop * self.hop) / (2.0 * s * rho)
        angle = math.atan2(p_local[1], p_local[0]) + math.acos(min(max(c, -1.0), 1.0))
        return rho * (np.array([[math.cos(angle), math.sin(angle)]]) @ basis)[0]

    # -- resolution ----------------------------------------------------------
    #
    # The node of an OUTER point p combines sets to e_p - e_anchor, that of
    # an INNER point to e_p + n*e_anchor - e_W, and the closing node to
    # (n+1)*e_anchor - e_W.

    def _node(self, sets: list, nodes: list) -> int:
        self.nodes.append((sets, nodes))
        return len(self.nodes) - 1

    def resolve(self, p: np.ndarray) -> tuple[str, int | None]:
        """Emit relations tying f(p) to the anchor; returns the value class and
        the node of its combination (None while p is still being resolved)."""
        key = _point_key(p)
        if key in self.memo:
            return self.memo[key]
        self.memo[key] = OUTER, None  # breaks accidental cycles; overwritten below
        s = math.sqrt(p @ p)
        if key == self.anchor_key:
            cls, node = OUTER, self._node([], [])
        elif s >= self.lam - 1e-12:
            cls, node = OUTER, self._node(self._chain_to_anchor(p), [])
        elif s < self.beta_next - INNER_EDGE:
            cls, node = INNER, self._lemma_node(p, "inner-lemma")
        elif s >= self.bridge_floor:
            # The hop p -> partner: its a-set minus the node of its b-set,
            # which is the b-set minus the partner's node.
            partner = self._bridge_partner(p)
            a_term, (b_slot, _) = self.builder.add_chain(np.array([p, partner]), "bridge")
            b_node = self._set_node(b_slot, "bridge", [(partner, OUTER)])
            cls, node = OUTER, self._node([a_term], [(b_node, -1)])
        else:
            cls, node = OUTER, self._step_node(p, "annulus-step")
        self.memo[key] = cls, node
        return cls, node

    def _set_node(self, own: int, stage: str, members) -> int:
        """Resolve the other members of the set in slot `own`, (point, value
        class) pairs that the construction puts in that class; returns the
        node of the set minus every member's node."""
        subs = []
        for p, cls in members:
            got, node = self.resolve(p)
            if got != cls:
                raise GenerationFailure(stage, f"a set member did not resolve {cls}")
            if node is None:
                raise GenerationFailure(stage, "a set member is still being resolved")
            subs.append((node, -1))
        return self._node([(own, 1)], subs)

    def _lemma_node(self, z: np.ndarray, stage: str) -> int:
        """The cap lemma's set {z, c_1..c_n}, its companions in the annulus."""
        full, companions = constant_lemma_relation(z, self.beta_next, self.n, self.tol)
        return self._set_node(self.builder.add_set(full, stage), stage,
                              [(c, OUTER) for c in companions])

    def _step_node(self, u: np.ndarray, stage: str) -> int:
        """The annulus step through u at rho0 = ||u||: its companions sit at
        sqrt(1 - ||u|| + ||u||**2) >= ||u||, and the set does not depend on rho0."""
        rel = theorem_step_relation(u, math.sqrt(u @ u), self.n, self.tol)
        return self._set_node(self.builder.add_set(rel.set, stage), stage,
                              [(rel.v, INNER)] + [(c, OUTER) for c in rel.companions])

    def _emit_closing(self) -> int:
        """Identify the inner value with the annulus value at the fixed point;
        returns the closing node, lemma minus step."""
        z = np.zeros(self.n)
        z[0] = self.beta_next
        step = self._step_node(z, "closing")
        self.memo[_point_key(z)] = OUTER, step
        return self._node([], [(self._lemma_node(z, "closing"), 1), (step, -1)])

    def _merge_closing(self) -> int:
        """The closing node, from the relation built once per (n, tol).

        Resolving a point does not depend on what was resolved before it, so
        the merged sets and terms are those _emit_closing would add here.
        """
        frag = _closing_fragment(self.n, self.tol)
        where = self.builder.add_fragment(frag)
        return self._node([(where[i], coef) for i, coef in frag.terms], [])

    def _multipliers(self, root: int) -> list[int]:
        """Per-set coefficients of a node, expanded through the node graph
        from the newest node down."""
        weight = [0] * len(self.nodes)
        weight[root] = 1
        lam = [0] * len(self.builder.sets)
        slots = self.builder.slots
        for j in range(len(self.nodes) - 1, -1, -1):
            w = weight[j]
            if w:
                sets, nodes = self.nodes[j]
                for slot, coef in sets:
                    lam[slots[slot]] += w * coef
                for k, coef in nodes:
                    weight[k] += w * coef
        return lam

    def run(self, x: np.ndarray, y: np.ndarray) -> Certificate:
        id_x, id_y = self.builder.ids(np.array([x, y]))
        if id_x == id_y:
            return self.builder.certificate((id_x, id_x), [])
        try:
            cls_x, node_x = self.resolve(x)
            cls_y, node_y = self.resolve(y)
            terms = [(node_x, 1), (node_y, -1)]
            if cls_x != cls_y:
                terms.append((self._merge_closing(), -1 if cls_x == INNER else 1))
            claim = self._node([], terms)
        finally:
            # Also on a failure: an error the queue meets came first.
            self.builder.flush()
        return self.builder.certificate((id_x, id_y), self._multipliers(claim))


def _via(a: np.ndarray, b: np.ndarray, hop: float) -> np.ndarray | None:
    """The smaller-norm point of the plane at distance hop from both a and
    b, or None when there is none in the closed unit disc."""
    points = circle_circle_intersections(a, hop, b, hop)
    if not points:
        return None
    via = min(points, key=lambda w: w @ w)
    return via if math.sqrt(via @ via) <= 1.0 else None


@lru_cache(maxsize=None)
def _hubs(hop: float, anchor_norm: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The hubs q = (0, r), r = 1, 0.95, ..., 0.5, of section coordinates
    that have a via to the anchor (anchor_norm, 0), each with that via; built
    once per dimension."""
    anchor = np.array([anchor_norm, 0.0])
    hubs = [np.array([0.0, 1.0 - 0.05 * k]) for k in range(11)]
    return tuple((q, via) for q in hubs if (via := _via(q, anchor, hop)) is not None)


@lru_cache(maxsize=None)
def _closing_fragment(n: int, tol: Tolerance) -> _Fragment:
    """The closing relation of (n, tol), built by _emit_closing in a fresh
    generator: its z and anchor depend on nothing else."""
    gen = _Generator(n, tol)
    try:
        root = gen._emit_closing()
    finally:
        gen.builder.flush()
    b = gen.builder
    points = np.array(b.points)
    points.flags.writeable = False
    terms = tuple((i, m) for i, m in enumerate(gen._multipliers(root)) if m)
    return _Fragment(points=points, sets=tuple(zip(b.sets, b.stages)), terms=terms,
                     hops=tuple(b.hops.items()))


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
        if math.sqrt(p @ p) > 1.0 + tol.eps_eq:
            raise InputError("certificate endpoints must lie in the closed unit ball")
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
