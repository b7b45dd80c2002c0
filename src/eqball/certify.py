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
The builder keeps its points and sets as tables (_Builder), so a flush
keys all its rows in one pass and the certificate is gathered from the
tables; the closing relation keeps its points' keys and merges as one
block.

Certificates are written as format version 4, whose `hops` field lists
hops as [end id, end id] pairs (a, b).  Neither the n shared points of a
listed hop nor its two sets are written: with E written points, the ids
E + n*h .. E + n*h + n - 1 name the shared points of hop h, and its sets
{a} + S and {b} + S follow the written sets, hop by hop.  `multipliers`
writes one entry per written set, then one per hop: lambda for {a} + S,
whose negation {b} + S carries.  In memory the point table holds the E
written points, the sets are one (S, n+1) int64 table holding every set,
and the multipliers one list in its order.  The generator keeps every hop
it builds, chain hops (the closing relation's too) and bridges, and lists
a hop when its two sets carry opposite multipliers and none of its shared
points lies in another set, is a claim point or is a hop's end; the other
points and sets keep their first-appearance order.

The checker is generation-agnostic: it re-validates every written set
numerically in vectorized passes of bounded size, and every listed hop by
the hop rule (gamma.hop_checks): a != b, both ends in the ball,
||b - a|| = 2*alpha(n+1) and the hop bound at most 1, within eps_eq.  The
gamma module docstring proves that such a pair has n shared points that
complete {a} and {b} to maximal sets of the ball, so the checker needs to
know that they exist, not where they are: it never builds them, and calls
none of the generator's kernels.  It then accepts the claim when the
integer accumulation of the multipliers equals e_x - e_y exactly.  That is
its only claim test: a document without multipliers, or of a version
other than CERT_VERSION, is malformed.
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
from .annulus import constant_lemma_relation, theorem_step_relation
from .gamma import gamma1_link, hop_checks
from .geometry import (DEFAULT_TOL, GRID_STEP, RANK_RESIDUAL, Tolerance, _residual, as_point,
                       first_orthogonal_axis, json_number_array)
from .simplex import EquilateralSet, alpha, beta, check_sets, first_failure
from .weights import circle_circle_intersections, lambda_shell

CERT_VERSION = 4
MAX_CERT_SETS = 5000
# The most cells, 2*(n+1) per hop, of the hop-set id table that the parser
# builds: 2**23 int64 (64 MB).  A certificate the generator emits has at most
# MAX_CERT_SETS sets, so at most 5000*(n+1) hop-set cells, and parses up to
# n = 1676.
MAX_HOP_SET_CELLS = 2**23
INT64_MAX = int(np.iinfo(np.int64).max)
INNER_EDGE = 1e-9


# ---------------------------------------------------------------------------
# Certificate container and serialization.


@dataclass
class Certificate:
    """Written points, maximal-set id table, claim pair, generator metadata.

    `points` holds the E written points.  `hops` holds (end id, end id)
    pairs (a, b) of written points, as one (H, 2) int64 array for generated
    and parsed certificates (the checker also takes a list of pairs); the
    ids E + n*h .. E + n*h + n - 1 name the n points that the two sets of
    hop h share, which no table holds: the hop rule (check_certificate)
    shows that they exist.  `sets` is one (S, n+1) int64 array of point ids
    for generated and parsed certificates (the checker also takes a list of
    id tuples), and `multipliers` holds
    one integer per set whose combination of the set equations is the
    claim; the checker reports any other length as MalformedCertificate.
    With H hops, the last 2H sets are the hops' own, in hop order: hop h's
    a-set [a, E + n*h, .., E + n*h + n - 1] at row S - 2H + 2h, its b-set (b
    in place of a) next, with opposite multipliers.  The other sets are the
    written ones, and they name written points only.
    """

    n: int
    points: np.ndarray
    sets: np.ndarray | list
    claim: tuple
    generator_params: dict = field(default_factory=dict)
    multipliers: list[int] = field(default_factory=list)
    hops: np.ndarray | list = field(default_factory=list)

    @property
    def point_count(self) -> int:
        """The number of named points: E written, and n per hop."""
        return len(self.points) + self.n * len(self.hops)


def _is_int(value) -> bool:
    """Whether a value is an integer id or multiplier: an int or a numpy
    integer, never a boolean."""
    return type(value) is int or isinstance(value, np.integer)


def _all_ints(values) -> bool:
    """Whether every value is an integer id or multiplier (_is_int), tested
    once per type that occurs."""
    return all(t is int or issubclass(t, np.integer) for t in set(map(type, values)))


def _checked_multipliers(multipliers, length: int, set_count: int, n: int) -> list[int]:
    """The multipliers as Python ints, or MalformedCertificate.

    Rejects a length other than `length`, entries that are not integers
    (booleans included), and magnitudes for which the checker's int64
    accumulation of set_count * (n+1) terms could overflow.
    """
    if not isinstance(multipliers, (list, tuple)) or len(multipliers) != length:
        raise MalformedCertificate(f"multipliers must be a list of {length} integers")
    if not _all_ints(multipliers):
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


def _plain(rows):
    """An id table as lists of Python ints, or a list of id tuples as it is."""
    return rows.tolist() if isinstance(rows, np.ndarray) else rows


def certificate_to_json(cert: Certificate, tol: Tolerance = DEFAULT_TOL) -> str:
    """The certificate as JSON text, byte-identical to _dumps of the plain
    document: the written points, hops, the sets less the hops' own, and the
    multipliers of the written sets followed by one per hop, that of its
    a-set (its b-set's is the negation, Certificate), formatted row by row."""
    kept = len(cert.sets) - 2 * len(cert.hops)
    sets = cert.sets[:kept]
    lam = list(cert.multipliers)
    return _dumps({
        "version": CERT_VERSION,
        "n": cert.n,
        "tolerance": {"eps_eq": tol.eps_eq, "grid_step": GRID_STEP},
        "points": _rows_json(np.asarray(cert.points, dtype=float).tolist(), "%.17g"),
        "hops": _rows_json(_plain(cert.hops), "%d"),
        "sets": _rows_json(_plain(sets), "%d"),
        "claim": [int(cert.claim[0]), int(cert.claim[1])],
        "generator_params": cert.generator_params,
        "multipliers": _Json("[" + ", ".join([str(int(m)) for m in lam[:kept] + lam[kept::2]])
                             + "]"),
    })


def certificate_from_json(text: str) -> Certificate:
    """Parse a certificate document into the written points and the id table
    of every set, the two sets of each hop appended.

    Raises MalformedCertificate unless the document is a JSON object with
    integer `n`, `version` CERT_VERSION if present, a numeric `points` table
    of n columns, as `sets` a list of lists of n+1 integer ids, two integer
    ids as `claim`, as `hops` a list of [end id, end id] pairs of two
    finite points of that table that do not compare equal (parsed into an
    (H, 2) int64 table), and as
    `multipliers` one integer per set, then one per hop.  Ids must be JSON
    integers: 0.9, "2" and true are rejected.  Each hop's a-set and b-set
    follow the written sets, with the hop's multiplier on the a-set and its
    negation on the b-set (Certificate); the hop-set table has at most
    MAX_HOP_SET_CELLS cells.  No shared point is built.  Whether the set ids
    are in range is left to the checker, which reports the first bad set.
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
    ends = _parsed_hops(points, hops, n)
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
        points=points,
        sets=np.concatenate([table, _hop_rows(ends, len(points), n)]),
        claim=(claim[0], claim[1]),
        generator_params=doc.get("generator_params", {}),
        multipliers=multipliers[:written] + [m for lam in multipliers[written:]
                                             for m in (lam, -lam)],
        hops=ends,
    )


def _hop_table(hops, written: int) -> np.ndarray | None:
    """The hops as an (H, 2) int64 table of ids in [0, written), or None
    unless every hop is a pair (tuple, list or array) of integer ids of
    written points.  An (H, 2) int64 array, as generated and parsed
    certificates hold, takes only the range check."""
    if not (isinstance(hops, np.ndarray) and hops.dtype == np.int64
            and hops.shape == (len(hops), 2)):
        try:
            ids = list(itertools.chain.from_iterable(hops))
            if not (set(map(type, hops)) <= {tuple, list, np.ndarray}
                    and set(map(len, hops)) <= {2} and _all_ints(ids)):
                return None
        except TypeError:
            return None
        if ids and not (min(ids) >= 0 and max(ids) < written):
            return None
        return np.array(ids, dtype=np.int64).reshape(-1, 2)
    if len(hops) and not (hops.min() >= 0 and hops.max() < written):
        return None
    return hops


def _parsed_hops(points: np.ndarray, hops: list, n: int) -> np.ndarray:
    """The document's hops, lists of two JSON integers, as an (H, 2) int64
    table of ids into the written points; MalformedCertificate unless every
    hop joins two finite points that do not compare equal, and the hop-set
    table stays within MAX_HOP_SET_CELLS."""
    if hops and n < 2:
        raise MalformedCertificate("hops need n >= 2")
    if 2 * len(hops) * (n + 1) > MAX_HOP_SET_CELLS:
        raise MalformedCertificate(f"hops would make more than {MAX_HOP_SET_CELLS} "
                                   f"hop-set cells")
    ends = _hop_table(hops, len(points))
    if ends is None:
        raise MalformedCertificate("hop ends must be ids of written points")
    pairs = points[ends]
    if not np.isfinite(pairs).all():
        raise MalformedCertificate("hop ends must be finite points")
    if (pairs[:, 0] == pairs[:, 1]).all(axis=1).any():
        raise MalformedCertificate("hop ends coincide")
    return ends


def _hop_rows(ends: np.ndarray, written: int, n: int) -> np.ndarray:
    """The sets of the hops with (H, 2) end ids `ends`, E = `written`, as a
    (2H, n+1) id table: hop h's a-set [a, E + n*h, .., E + n*h + n - 1],
    then its b-set."""
    sets = np.empty((len(ends), 2, n + 1), dtype=np.int64)
    sets[:, :, 0] = ends
    sets[:, :, 1:] = written + np.arange(n * len(ends)).reshape(len(ends), 1, n)
    return sets.reshape(-1, n + 1)


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
    if not len(ids):
        return None, 0.0, 0.0
    err, top, checks = check_sets(pts, True, tol, ids=ids)
    failed = first_failure(checks)
    if failed is None:
        return None, float(err.max(initial=0.0)), max(float(top.max(initial=1.0)) - 1.0, 0.0)
    i = failed[0]
    return i, float(err[i]), max(float(top[i]) - 1.0, 0.0)


def _check_hops(pts: np.ndarray, ends: np.ndarray,
                tol: Tolerance) -> tuple[int | None, float, float]:
    """The hop rule (gamma.hop_checks) on the hops with (H, 2) end ids into
    the points, in one O(H*n) pass: (first failing hop or None, its distance
    error and norm excess, or the worst over all hops when none fails).  A
    hop's distance error is that of its sets, |sqrt(beta(n)**2 +
    ||b - a||**2/4) - 1| from an end to the shared points, which lie one
    apart; its norm excess is that of its ends."""
    with np.errstate(over="ignore", invalid="ignore"):
        dist, norms, checks = hop_checks(pts[ends[:, 0]], pts[ends[:, 1]], tol)[3:]
        bn = beta(pts.shape[1])
        err = np.abs(np.sqrt(bn * bn + dist * dist / 4.0) - 1.0)
    top = np.maximum(*norms)
    failed = first_failure(checks)
    if failed is None:
        return None, float(err.max()), max(float(top.max()) - 1.0, 0.0)
    h = failed[0]
    return h, float(err[h]), max(float(top[h]) - 1.0, 0.0)


def check_certificate(cert: Certificate, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Independently verify a certificate; never consults how it was generated.

    Re-checks every written set (pairwise distances 1, norms <= 1, size n+1)
    in vectorized passes of bounded size, then every listed hop [a, b] by
    the hop rule, in one pass of O(n) per hop: a != b, ||a|| and ||b|| at
    most 1, ||b - a|| = 2*alpha(n+1) and the hop bound at most 1, all within
    eps_eq (gamma.hop_checks, whose module docstring proves that the hop's
    two sets then exist in the ball).  Reports the first failing written
    set, or else the first failing hop, by the row of its a-set, as
    SetInvalid.  The hops' shared points are never built: the checker calls
    none of the generator's kernels.  Accepts iff the int64 accumulation of
    the multipliers over the sum equations of all sets, those of the hops
    included, equals e_x - e_y exactly (residual 0.0; otherwise the residual
    is the norm of the integer difference).  MalformedCertificate covers
    multipliers that are missing, of the wrong length or not integers, hops
    that are not pairs of written point ids, last 2H set rows other than the
    hop rows (Certificate), and a written set or claim naming an id past the
    written points.  Past the shape checks, `detail` carries the worst
    distance error and norm excess: of the failing set or hop on SetInvalid,
    over all written sets and hops otherwise.  A hop's distance error is
    |sqrt(beta(n)**2 + ||b - a||**2/4) - 1|, that of its sets, and its norm
    excess that of its ends.  `point_count` counts the named points,
    written and shared.
    """
    n = cert.n
    pts = np.asarray(cert.points, dtype=float)
    if n < 1 or pts.ndim != 2 or pts.shape[1] != n or not np.all(np.isfinite(pts)):
        return CheckReport(accepted=False, failure="MalformedCertificate",
                           detail={"reason": "bad point table"})
    written = pts.shape[0]
    claim = cert.claim
    if len(claim) != 2 or not all(_is_int(i) and 0 <= i < max(written, 1) for i in claim):
        return CheckReport(accepted=False, failure="MalformedCertificate",
                           detail={"reason": "claim indices out of range"})
    ends = _hop_table(cert.hops, written)
    if ends is None or (len(ends) and n < 2):
        reason = ("hops must be pairs of written point ids" if ends is None
                  else "hops need n >= 2")
        return CheckReport(accepted=False, failure="MalformedCertificate",
                           detail={"reason": reason})
    count = written + n * len(ends)
    set_count = len(cert.sets)

    def report(failure: str | None, residual: float | None, **detail) -> CheckReport:
        return CheckReport(accepted=failure is None, failure=failure, residual=residual,
                           detail=detail, set_count=set_count, point_count=count)

    ids = _set_table(cert.sets, n + 1, count)
    if isinstance(ids, int):
        return report("MalformedCertificate", None,
                      reason=f"set {ids} is not an (n+1)-tuple of valid ids")
    kept = set_count - 2 * len(ends)
    if kept < 0 or not np.array_equal(ids[kept:], _hop_rows(ends, written, n)):
        return report("MalformedCertificate", None,
                      reason="the last 2H sets must be the hops' own, in hop order")
    if ids[:kept].max(initial=-1) >= written:
        shared = np.flatnonzero((ids[:kept] >= written).any(axis=1))[0]
        return report("MalformedCertificate", None,
                      reason=f"written set {shared} names a hop's shared point")
    try:
        multipliers = _checked_multipliers(cert.multipliers, set_count, set_count, n)
    except MalformedCertificate as exc:
        return report("MalformedCertificate", None, reason=str(exc))
    failed, dist_err, norm_excess = _recheck(pts, ids[:kept], tol)
    if failed is None and len(ends):
        hop, hop_err, hop_excess = _check_hops(pts, ends, tol)
        if hop is None:
            dist_err, norm_excess = max(dist_err, hop_err), max(norm_excess, hop_excess)
        else:
            failed, dist_err, norm_excess = kept + 2 * hop, hop_err, hop_excess
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

    Every array is read-only.  `points` are its point rows and `keys` their
    _point_key bytes, kept from the builder that built it; `sets` is its
    (F, n+1) table of local point ids, in registration order, with `stages`
    their stage tags; `terms` are the relation's (local set, coefficient)
    pairs; its kept hops (_Builder.hops) are `hop_pairs`, their (K, 2) local
    a-set and b-set indices, and `hop_rows`, their (K, n+2) local point ids.
    """

    points: np.ndarray
    keys: tuple[bytes, ...]
    sets: np.ndarray
    stages: tuple[str, ...]
    terms: tuple[tuple[int, int], ...]
    hop_pairs: np.ndarray
    hop_rows: np.ndarray


def _first_appearances(ids: np.ndarray, base: int, count: int) -> np.ndarray:
    """Where each of the ids base .. count - 1 first appears in `ids`, ids
    that were numbered in order of first appearance."""
    return np.searchsorted(np.maximum.accumulate(ids), np.arange(base, count))


class _Builder:
    """Point table and deduplicated sets of one certificate.

    add_set, add_chain and add_fragment queue a request and return its
    slots, one per set it registers.  flush() registers the queue in request
    order, so point ids, set indices, dedup and stage tags are those of
    registering each request at once; `slots` then maps each slot to its set
    index.  The queue is flushed early once its slots could take the
    certificate past MAX_CERT_SETS, so a certificate that is too large fails
    at the request that overflows it.

    The builder keeps tables: `points`, an (N, n) float64 table in id order,
    with `index` mapping each point's _point_key to its id, and `sets`, an
    (S, n+1) int64 table of sorted point ids, with `set_index` mapping each
    row's bytes to its index and `stages` holding its stage tag.  A flush
    lays out the rows of its set and chain requests as one array, in request
    order: each set's n+1 points, and each hop's rows (a, shared points in
    vertex order, b) from the flush's one gamma1_link call.  One dict
    comprehension over that array's key buffer numbers the rows in order of
    first appearance, and the new rows are appended to the table; one more
    over the sorted id rows of the sets, n+1 consecutive rows each (a hop's
    first and last n+1), registers them.  A fragment merges as a block.

    Every hop registered is kept as one row of point ids, (a, shared points
    in vertex order, b), in `hop_table` after its a-set and b-set indices,
    in registration order and once per pair of sets (`hops`): the hop b -> a
    is a -> b with its ends swapped, whose shared points are the same ones
    when b - a has a nonzero last coordinate.  A builder that raised is not
    used again.
    """

    def __init__(self, n: int, tol: Tolerance):
        self.n = n
        self.tol = tol
        self.index: dict[bytes, int] = {}
        self.points = np.empty((0, n))
        self.set_index: dict[bytes, int] = {}
        self.sets = np.empty((0, n + 1), dtype=np.int64)
        self.stages: list[str] = []
        self.slots: list[int] = []
        # Queued requests (stage, points, hops): a set's points with hops 0,
        # a chain's waypoints with its hop count, or (None, fragment, 0).
        self.queue: list[tuple] = []
        self.pending = 0
        self.hops: dict[tuple[int, int], None] = {}
        self.hop_table = np.empty((0, n + 4), dtype=np.int64)

    def ids(self, rows: np.ndarray) -> np.ndarray:
        """Point ids of a stack of rows, in row order, by one dict
        comprehension over their _point_key buffer; the rows whose key is new
        are added to the table in order of first appearance."""
        keys, width = _point_key(rows), 8 * self.n
        index, base = self.index, len(self.index)
        return self._added(rows, base, [index.setdefault(keys[i:i + width], len(index))
                                        for i in range(0, len(keys), width)])

    def _added(self, rows: np.ndarray, base: int, ids: list[int]) -> np.ndarray:
        """The ids of the rows, after appending those first numbered from
        `base` to the point table."""
        ids = np.array(ids, dtype=np.int64)
        new = rows[_first_appearances(ids, base, len(self.index))]
        self.points = np.concatenate([self.points, new])
        return ids

    def _enqueue(self, request: tuple, count: int) -> range:
        """Queue a request of `count` sets; returns its slots."""
        first = len(self.slots) + self.pending
        self.queue.append(request)
        self.pending += count
        if len(self.sets) + self.pending > MAX_CERT_SETS:
            self.flush()
        return range(first, first + count)

    def add_set(self, s: EquilateralSet, stage: str) -> int:
        """Slot of the maximal set, which is added unless already present."""
        return self._enqueue((stage, s.points, 0), 1)[0]

    def add_chain(self, waypoints: np.ndarray, stage: str) -> list[tuple[int, int]]:
        """The two sets of every hop between consecutive waypoints, in hop
        order, as slot terms summing to e_first - e_last; the flush builds
        their shared points."""
        hops = len(waypoints) - 1
        return list(zip(self._enqueue((stage, waypoints, hops), 2 * hops), [1, -1] * hops))

    def add_fragment(self, frag: _Fragment) -> range:
        """Slots of the fragment's sets, which are added with its points in its
        order and with its stage tags, and its hops (_merge)."""
        return self._enqueue((None, frag, 0), len(frag.sets))

    def flush(self) -> None:
        """Register the queued requests in request order."""
        queue, self.queue, self.pending = self.queue, [], 0
        try:
            rows = self._hop_rows(queue)
        except (InputError, ConstructionError):
            # Rebuild chain by chain as the queue registers, so that the error
            # raised is the first one in request order.
            for request in queue:
                self._register([request], self._hop_rows([request]))
            return
        self._register(queue, rows)

    def _hop_rows(self, requests: list[tuple]) -> np.ndarray:
        """The rows a, shared points..., b of every hop of the chain requests,
        as one (H, n+2, n) array, from one gamma1_link call."""
        chains = [w for _, w, hops in requests if hops]
        if not chains:
            return np.empty((0, self.n + 2, self.n))
        a = np.concatenate([w[:-1] for w in chains])
        b = np.concatenate([w[1:] for w in chains])
        return np.concatenate([a[:, None], gamma1_link(a, b, self.tol), b[:, None]], axis=1)

    def _register(self, requests: list[tuple], rows: np.ndarray) -> None:
        """Register requests in order, `rows` the hop rows of their chains:
        each run of set and chain requests as one block, and each fragment
        by _merge."""
        start = 0
        for merged, run in itertools.groupby(requests, lambda r: isinstance(r[1], _Fragment)):
            run = list(run)
            if merged:
                for _, frag, _ in run:
                    self._merge(frag)
            else:
                hops = sum(h for _, _, h in run)
                self._add_rows(run, rows[start:start + hops])
                start += hops

    def _add_rows(self, requests: list[tuple], hop_rows: np.ndarray) -> None:
        """Register set and chain requests as one block of rows in request
        order, `hop_rows` the (H, n+2, n) rows of their hops."""
        n = self.n
        offset, set_at, hop_at, stages = 0, [], [], []
        for stage, points, hops in requests:
            if hops:
                hop_at += range(offset, offset + hops * (n + 2), n + 2)
                stages += [stage] * (2 * hops)
            else:
                set_at.append(offset)
                stages.append(stage)
            offset += hops * (n + 2) or n + 1
        hop_at, set_at = np.array(hop_at, dtype=np.int64), np.array(set_at, dtype=np.int64)
        rows = hop_rows.reshape(-1, n)
        if len(set_at):
            rows = np.empty((offset, n))
            rows[hop_at[:, None] + np.arange(n + 2)] = hop_rows
            rows[set_at[:, None] + np.arange(n + 1)] = [p for _, p, h in requests if not h]
        ids = self.ids(rows)
        starts = np.sort(np.concatenate([set_at, hop_at, hop_at + 1]))
        where = self._add_sets(np.sort(ids[starts[:, None] + np.arange(n + 1)], axis=1), stages)
        self._keep_hops(where[np.searchsorted(starts, hop_at)[:, None] + np.arange(2)],
                        ids[hop_at[:, None] + np.arange(n + 2)])

    def _add_sets(self, sets: np.ndarray, stages) -> np.ndarray:
        """Register the sets, sorted (k, n+1) id rows with their stage tags,
        in row order, each unless already present; returns their indices,
        which also extend `slots`.  The first set in row order that has a
        repeated id (it collapsed under point deduplication), or that would
        be set MAX_CERT_SETS + 1, raises GenerationFailure."""
        keys, width = sets.tobytes(), 8 * (self.n + 1)
        index, base = self.set_index, len(self.sets)
        where = np.array([index.setdefault(keys[i:i + width], len(index))
                          for i in range(0, len(keys), width)], dtype=np.int64)
        new = _first_appearances(where, base, len(index))
        collapsed = np.flatnonzero((sets[:, 1:] == sets[:, :-1]).any(axis=1))[:1].tolist()
        over = new[MAX_CERT_SETS - base:][:1].tolist()
        if collapsed and (not over or collapsed <= over):
            raise GenerationFailure(stages[collapsed[0]], "set collapsed under point deduplication")
        if over:
            raise GenerationFailure(stages[over[0]], f"certificate exceeded {MAX_CERT_SETS} sets")
        self.sets = np.concatenate([self.sets, sets[new]])
        self.stages += [stages[i] for i in new.tolist()]
        self.slots += where.tolist()
        return where

    def _keep_hops(self, pairs: np.ndarray, rows: np.ndarray) -> None:
        """Keep each hop, (K, 2) set pairs and (K, n+2) point-id rows, unless
        its pair is kept already either way round."""
        hops, kept = self.hops, []
        for h, pair in enumerate(map(tuple, pairs.tolist())):
            if pair not in hops and pair[::-1] not in hops:
                hops[pair] = None
                kept.append(h)
        self.hop_table = np.concatenate([self.hop_table,
                                         np.concatenate([pairs, rows], axis=1)[kept]])

    def _merge(self, frag: _Fragment) -> None:
        """Register the fragment as one block, as registering its sets one by
        one would: one dict comprehension over its stored keys numbers its
        points in its order, and its sets and hops are registered with their
        ids mapped."""
        index, base = self.index, len(self.index)
        ids = self._added(frag.points, base, [index.setdefault(key, len(index))
                                              for key in frag.keys])
        where = self._add_sets(np.sort(ids[frag.sets], axis=1), frag.stages)
        self._keep_hops(where[frag.hop_pairs], ids[frag.hop_rows])

    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The registered sets as an (S, n+1) int64 table, and the kept hops
        as their (K, 2) set pairs and (K, n+2) point-id rows."""
        return self.sets, self.hop_table[:, :2], self.hop_table[:, 2:]

    def certificate(self, claim: tuple[int, int], multipliers: list[int]) -> Certificate:
        """The certificate of the registered sets, its points and sets
        renumbered and its multipliers permuted with the sets, by gathers
        from the tables.

        A hop is listed in `hops` when its two sets carry opposite
        multipliers and none of its shared points lies in a set other than
        the hop's two, is a claim point or is a hop's end.  The other points
        are the written ones, in first-appearance order; the shared points
        of the listed hops take the ids after them, hop by hop in vertex
        order, and leave the table.  The other sets keep their registration
        order, ahead of each listed hop's a-set and b-set, in hop order
        (Certificate).  The table holds no -0.0, which JSON would read back
        as 0.0.
        """
        count, n = len(self.points), self.n
        sets, pairs, rows = self.tables()
        lam = np.array(multipliers)
        pinned = np.bincount(sets.ravel(), minlength=count) != 2
        pinned[rows[:, [0, -1]]] = True
        pinned[list(claim)] = True
        listed = ~pinned[rows[:, 1:-1]].any(axis=1) & (lam[pairs[:, 0]] == -lam[pairs[:, 1]])
        rows, pairs = rows[listed], pairs[listed]
        is_written = np.ones(count, dtype=bool)
        is_written[rows[:, 1:-1]] = False
        written = np.flatnonzero(is_written)
        order = np.concatenate([written, rows[:, 1:-1].ravel()])
        new_id = np.empty(count, dtype=np.int64)
        new_id[order] = np.arange(count)
        kept = np.ones(len(sets), dtype=bool)
        kept[pairs] = False
        set_order = np.concatenate([np.flatnonzero(kept), pairs.ravel()])
        return Certificate(
            n=n,
            points=self.points[written] + 0.0,
            sets=np.sort(new_id[sets[set_order]], axis=1),
            claim=(int(new_id[claim[0]]), int(new_id[claim[1]])),
            multipliers=lam[set_order].tolist(),
            hops=new_id[rows[:, [0, -1]]],
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
        id_x, id_y = self.builder.ids(np.array([x, y])).tolist()
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
    builder = gen.builder
    sets, hop_pairs, hop_rows = builder.tables()
    terms = tuple((i, m) for i, m in enumerate(gen._multipliers(root)) if m)
    frag = _Fragment(points=builder.points, keys=tuple(builder.index), sets=sets,
                     stages=tuple(builder.stages), terms=terms, hop_pairs=hop_pairs,
                     hop_rows=hop_rows)
    for table in (frag.points, frag.sets, frag.hop_pairs, frag.hop_rows):
        table.flags.writeable = False
    return frag


def generate_equality_certificate(x, y, n: int,
                                  tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Build a certificate whose sum equations force f(x) = f(y).

    Deterministic for fixed (x, y, n).  Raises GenerationFailure (with a
    stage tag) if any construction fails its re-check, and self-checks the
    result before returning it.
    """
    x = as_point(x, n)
    y = as_point(y, n)
    with np.errstate(over="ignore"):  # a finite but huge coordinate gives inf
        outside = any(math.sqrt(p @ p) > 1.0 + tol.eps_eq for p in (x, y))
    if outside:
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
