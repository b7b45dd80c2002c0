"""Seeded workloads, closed-loop timing and correctness gates.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one returned.  All inputs are generated from the
seed before timing starts and reach the program only through eqball's
public API, looked up on the package at call time so that the traced run
sees every call.

* certify-shell  n in {2, 3, 4}, both endpoints uniform by volume.
* certify-deep   n = 5, one endpoint's radius on a grid over [0, 1] plus the
                 boundary radii, the other's on a grid uniform by volume
                 over [0.25, 1], random directions; plus one fixed pair.
* falsify-mix    falsify on compiled expressions, n in {3, 8}, ball and
                 sphere mode; bypasses the certificate generator and checker.
"""
from __future__ import annotations

import copy
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import eqball
from eqball.errors import GenerationFailure
from eqball.expr import compile_weight_expression
from eqball.weights import lambda_shell

MAX_CERT_SETS = 5000  # the acceptance bound on certificate size
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class GateFailure(Exception):
    """The program returned a wrong output; the run has no valid result."""


def _ordered(count: int) -> list[int]:
    """Visit order whose every prefix spreads evenly over range(count).

    A run ends after a fixed time, partway through a pass over the pool;
    with this order the partial pass samples the pool evenly.
    """
    return sorted(range(count), key=lambda i: (i * GOLDEN) % 1.0)


def _polar_quantile(n: int, v: np.ndarray) -> np.ndarray:
    """Angle to e1 at quantile v of its law for a uniform direction in R^n
    (density proportional to sin(theta)**(n-2) on [0, pi])."""
    theta = np.linspace(0.0, math.pi, 2049)
    density = np.sin(theta) ** (n - 2)
    cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2.0)])
    return np.interp(v, cdf / cdf[-1], theta)


def _directions(rng: np.random.Generator, v: np.ndarray, n: int) -> np.ndarray:
    """Uniform random directions whose angles to e1 sit at the quantiles v.

    The generator routes every point to an anchor on the e1 axis, so that
    angle, with the radius, sets how much work a point needs; the rest of
    the direction is drawn at random.
    """
    theta = _polar_quantile(n, v)
    rest = rng.standard_normal((v.size, n - 1))
    rest /= np.linalg.norm(rest, axis=1, keepdims=True)
    return np.hstack([np.cos(theta)[:, None], np.sin(theta)[:, None] * rest])


def _lattice(rng: np.random.Generator, count: int, generator: tuple) -> np.ndarray:
    """Randomly shifted rank-1 lattice: row i is frac(i * generator / count + shift).

    Every coordinate is stratified (one point per 1/count strip) and every
    pair of coordinates is spread evenly, so how many pairs land in each
    cost class hardly varies with the seed.
    """
    i = np.arange(count)[:, None]
    shift = rng.uniform(size=len(generator))
    return (i * np.asarray(generator) / count + shift) % 1.0


@dataclass(frozen=True)
class Pair:
    n: int
    x: np.ndarray
    y: np.ndarray
    stratum: str


@dataclass
class Op:
    """Outcome of one timed operation."""

    key: int          # index of the pair or job in the workload's pool
    seconds: float
    ok: bool
    sets: int = 0     # maximal sets emitted (certify) or sampled (falsify)
    points: int = 0
    cert_bytes: int = 0


# ---------------------------------------------------------------------------
# Certify workloads.

# Pairs per n and lattice generators over (radius x, radius y, angle x,
# angle y).  The first two coordinates form a Fibonacci lattice; the other
# two were chosen to maximise the smallest distance in every 2-D projection.
# The weights put both percentiles inside a cluster of similar pairs rather
# than on the edge between clusters, where one pair more or less would move
# them by up to 2x.  About 63% of pairs are cheap (both endpoints in one
# value class), so the median lies inside the cheap mode.  The costly pairs
# that need the closing relation form the top: about 4% large n = 2
# certificates, then about 14% n = 3 ones of 280-300 sets, which hold the
# 90th percentile.  With these sizes the total of certificate sets in the
# pool spreads 0.019 (IQR / median) over 20 seeds; with 13 / 55 / 89 pairs
# it spread 0.047, which showed in pairs per second.
SHELL_LATTICES = {2: (21, (1, 13, 2, 11)), 3: (89, (1, 55, 73, 79)), 4: (144, (1, 89, 83, 101))}
DEEP_N = 5
DEEP_STRATA = 40      # y radius = stratum midpoint (j + 1/2) / 40
# Over (rank of the y radius, radius x, angle x, angle y), 47 points; the
# row index itself is the rank, and the radius of x takes no random shift.
DEEP_GENERATOR = (1, 6, 10, 13)
# |x| sits on the midpoints of equal-volume strata of the shell
# DEEP_X_FLOOR <= |x| <= 1, which leaves out 0.1% of the ball's volume.  An
# endpoint with radius in about [0.231, 0.2335] makes a certificate of ~3500
# sets that takes longer to check than a whole run (see the README's known
# limits); the y grid keeps clear of that window too.
DEEP_X_FLOOR = 0.25
# One fixed pair, (|x|, cos of x to e1, |y|, cos of y to e1), whose
# certificate (954 sets, 2830 points) is as large as any the grid made in 30
# probe seeds, so that the seed does not set the largest checker matrix and
# with it peak_rss_mb.
DEEP_FIXED = (0.85, -0.3, 0.1875, 0.65)


def shell_pairs(seed: int) -> list[Pair]:
    rng = np.random.default_rng(seed)
    pairs = []
    for n, (count, generator) in SHELL_LATTICES.items():
        ux, uy, vx, vy = _lattice(rng, count, generator).T
        dx = _directions(rng, vx, n)
        dy = _directions(rng, vy, n)
        # Position (k + 1/2) / count within its dimension interleaves the dimensions.
        pairs += [((k + 0.5) / count, Pair(n, dx[i] * ux[i] ** (1.0 / n),
                                           dy[i] * uy[i] ** (1.0 / n), "volume"))
                  for k, i in enumerate(_ordered(count))]
    return [pair for _, pair in sorted(pairs, key=lambda t: t[0])]


def boundary_radii(n: int) -> dict[str, float]:
    return {
        "0": 0.0,
        "1e-13": 1e-13,
        "beta(n+1)": eqball.beta(n + 1),
        "lambda_n": lambda_shell(n),
        "0.5": 0.5,
        "2alpha(n+1)-1": 2.0 * eqball.alpha(n + 1) - 1.0,
        "1": 1.0,
    }


def _in_plane(n: int, radius: float, cos_e1: float) -> np.ndarray:
    """Point of the (e1, e2) plane with the given radius and cosine to e1."""
    point = np.zeros(n)
    point[:2] = radius * cos_e1, radius * math.sqrt(1.0 - cos_e1 ** 2)
    return point


def deep_pairs(seed: int) -> list[Pair]:
    n = DEEP_N
    rng = np.random.default_rng(seed)
    radii = sorted([((j + 0.5) / DEEP_STRATA, "grid") for j in range(DEEP_STRATA)]
                   + [(r, label) for label, r in boundary_radii(n).items()])
    count = len(radii)
    _, _, vx, vy = _lattice(rng, count, DEEP_GENERATOR).T
    # The x radius sits on stratum midpoints as well, unshifted: its band
    # sets much of a pair's cost, so only the directions vary with the seed.
    ux = (np.arange(count) * DEEP_GENERATOR[1] % count + 0.5) / count
    dx = _directions(rng, vx, n)
    dy = _directions(rng, vy, n)
    rx = (DEEP_X_FLOOR ** n + ux * (1.0 - DEEP_X_FLOOR ** n)) ** (1.0 / n)
    pairs = [Pair(n, dx[i] * rx[i], dy[i] * r, label)
             for i, (r, label) in enumerate(radii)]
    r_x, cos_x, r_y, cos_y = DEEP_FIXED
    pairs.append(Pair(n, _in_plane(n, r_x, cos_x), _in_plane(n, r_y, cos_y), "fixed"))
    return [pairs[i] for i in _ordered(len(pairs))]


def certify_once(pair: Pair):
    """`eqball certify` then `eqball check`: generate, serialize, parse, check."""
    cert = eqball.generate_equality_certificate(pair.x, pair.y, pair.n)
    text = eqball.certificate_to_json(cert)
    parsed = eqball.certificate_from_json(text)
    report = eqball.check_certificate(parsed)
    return parsed, report, len(text)


def gate_certificate(pair: Pair, cert, report) -> None:
    """An emitted certificate must pass the checker after the JSON round trip,
    stay within the size bound, and claim exactly the requested endpoints."""
    if not report.accepted:
        raise GateFailure(f"round-tripped certificate rejected: {report.failure}")
    if len(cert.sets) > MAX_CERT_SETS:
        raise GateFailure(f"certificate has {len(cert.sets)} sets > {MAX_CERT_SETS}")
    claimed = cert.points[list(cert.claim)]
    if np.max(np.abs(claimed - np.vstack([pair.x, pair.y]))) > 1e-12:
        raise GateFailure("certificate claims other points than the requested pair")


def tampered(cert):
    """Copy of `cert` with one point of its first set moved by 1e-3, so that
    set's pairwise distances are no longer 1."""
    bad = copy.deepcopy(cert)
    victim = bad.sets[0][0]
    bad.points = bad.points.copy()
    bad.points[victim, 0] += 1e-3 if bad.points[victim, 0] < 0 else -1e-3
    return bad


def gate_tamper(cert) -> str:
    report = eqball.check_certificate(tampered(cert))
    if report.accepted or report.failure != "SetInvalid":
        raise GateFailure(f"tampered certificate not rejected with SetInvalid "
                          f"(accepted={report.accepted}, failure={report.failure})")
    return report.failure


class CertifyWorkload:
    kind = "certify"

    def __init__(self, name: str, seed: int):
        self.name = name
        self.pool = shell_pairs(seed) if name == "certify-shell" else deep_pairs(seed)
        self.sample = None     # first accepted certificate, for the tamper gate
        self.last_cert = None  # certificate of the latest op, if it was accepted

    def warm_up(self) -> None:
        """One small pair per dimension of the mix, untimed."""
        for n in sorted({p.n for p in self.pool}):
            x = np.zeros(n)
            y = np.zeros(n)
            x[0], y[1] = 0.95, 0.9
            pair = Pair(n, x, y, "warm-up")
            cert, report, _ = certify_once(pair)
            gate_certificate(pair, cert, report)

    def run(self, i: int) -> Op:
        key = i % len(self.pool)
        pair = self.pool[key]
        t0 = time.perf_counter()
        try:
            cert, report, size = certify_once(pair)
        except GenerationFailure:
            self.last_cert = None
            return Op(key, time.perf_counter() - t0, ok=False)
        seconds = time.perf_counter() - t0
        gate_certificate(pair, cert, report)
        self.last_cert = cert
        if self.sample is None:
            self.sample = cert
        return Op(key, seconds, ok=True, sets=len(cert.sets),
                  points=len(cert.points), cert_bytes=size)

    def finish(self) -> dict:
        if self.sample is None:
            raise GateFailure("no certificate was accepted, so the tamper gate could not run")
        return {"tamper_check": gate_tamper(self.sample)}

    def describe(self) -> dict:
        strata: dict[str, int] = {}
        for p in self.pool:
            strata[p.stratum] = strata.get(p.stratum, 0) + 1
        return {"n_mix": {str(n): sum(p.n == n for p in self.pool)
                          for n in sorted({p.n for p in self.pool})},
                "radius_strata": strata, "pool_pairs": len(self.pool)}


# ---------------------------------------------------------------------------
# Falsify workload.

FALSIFY_NS = (3, 8)
FALSIFY_MODES = ("ball", "sphere")
FALSIFY_EXPRS = ("dot(x,x)", "2*x1*x1 + dot(x,x) - 0.5", "1")
FALSIFY_SAMPLES = 200
FALSIFY_JOBS = 96      # 8 per job type, each with its own sampling seed
CONSISTENT_SPREAD = 1e-12


@dataclass
class JobType:
    n: int
    mode: str
    expr: str
    expected: str
    evaluator: object = field(default=None, repr=False)


def expected_verdict(mode: str, expr: str) -> str:
    """Known verdict of a job.

    On a basis rescaled to radius 1/sqrt(2), dot(x,x) sums to n/2 and
    2*x1*x1 to 1, so every expression here is constant in sphere mode; in
    ball mode only the constant weight is an equilateral weight.
    """
    return "consistent" if mode == "sphere" or expr == "1" else "disproved"


class FalsifyWorkload:
    kind = "falsify"
    name = "falsify-mix"

    def __init__(self, seed: int, trace_eval=None):
        self.types = [JobType(n, mode, expr, expected_verdict(mode, expr))
                      for n in FALSIFY_NS for mode in FALSIFY_MODES for expr in FALSIFY_EXPRS]
        for t in self.types:
            t.evaluator = compile_weight_expression(t.expr, t.n)
            if trace_eval is not None:
                t.evaluator = trace_eval(t.evaluator)
        rng = np.random.default_rng(seed)
        self.pool = rng.integers(0, 2**63 - 1, size=FALSIFY_JOBS)   # sampling seeds

    def warm_up(self) -> None:
        for t in self.types:
            eqball.falsify(eqball.WeightFn(evaluator=t.evaluator, domain_mode=t.mode),
                           t.n, 2, seed=0)

    def run(self, i: int) -> Op:
        key = i % FALSIFY_JOBS
        t = self.types[key % len(self.types)]
        seed = int(self.pool[key])
        t0 = time.perf_counter()
        report = eqball.falsify(eqball.WeightFn(evaluator=t.evaluator, domain_mode=t.mode),
                                t.n, FALSIFY_SAMPLES, seed)
        seconds = time.perf_counter() - t0
        if report.verdict != t.expected:
            raise GateFailure(f"falsify n={t.n} {t.mode} {t.expr!r}: verdict {report.verdict}, "
                              f"expected {t.expected}")
        if t.expected == "consistent" and not report.spread < CONSISTENT_SPREAD:
            raise GateFailure(f"falsify n={t.n} {t.mode} {t.expr!r}: spread {report.spread}")
        return Op(key, seconds, ok=True, sets=FALSIFY_SAMPLES)

    def finish(self) -> dict:
        return {}

    def describe(self) -> dict:
        return {"n_mix": list(FALSIFY_NS), "modes": list(FALSIFY_MODES),
                "expressions": list(FALSIFY_EXPRS), "samples_per_job": FALSIFY_SAMPLES,
                "job_types": len(self.types), "pool_jobs": FALSIFY_JOBS}


WORKLOADS = ("certify-shell", "certify-deep", "falsify-mix")


def make_workload(name: str, seed: int, trace_eval=None):
    if name == "falsify-mix":
        return FalsifyWorkload(seed, trace_eval)
    if name in WORKLOADS:
        return CertifyWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Loop and summary.


def closed_loop(workload, seconds: float | None = None, count: int | None = None,
                between=None) -> tuple[list[Op], float]:
    """Run operations back to back for `seconds`, or exactly `count` of them.

    `between(ops)` runs after each op with the ops so far; its time is left
    out of the wall time.
    """
    ops: list[Op] = []
    paused = 0.0
    t0 = time.perf_counter()
    while (len(ops) < count) if count is not None else (time.perf_counter() - t0 < seconds):
        ops.append(workload.run(len(ops)))
        if between is not None:
            t1 = time.perf_counter()
            between(ops)
            paused += time.perf_counter() - t1
    return ops, time.perf_counter() - t0 - paused


@dataclass
class Summary:
    latencies_ms: list[float]   # one per distinct successful pair or job
    ops_per_s: float
    sets_per_s: float
    distinct: int


def summarize(ops: list[Op]) -> Summary:
    """Rates and latencies over the distinct pairs or jobs of a run.

    The loop visits the pool in passes, so each pair or job runs several
    times; the median of its repeats stands for it, and each counts once, so
    the percentiles do not depend on how far the last, partial pass got.
    Rates are distinct items (failed ones included) over the sum of their
    median times.
    """
    times: dict[int, list[float]] = {}
    first: dict[int, Op] = {}
    for op in ops:
        times.setdefault(op.key, []).append(op.seconds)
        first.setdefault(op.key, op)
    items = [(first[key], statistics.median(ts)) for key, ts in times.items()]
    busy = sum(seconds for _, seconds in items)
    return Summary(latencies_ms=[seconds * 1e3 for op, seconds in items if op.ok],
                   ops_per_s=len(items) / busy,
                   sets_per_s=sum(op.sets for op, _ in items) / busy,
                   distinct=len(items))
