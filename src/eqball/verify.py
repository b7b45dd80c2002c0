"""The guaranteed properties, one suite each, measured at any size.

Each suite samples its inputs from its seed, measures one property and
returns the measurements: `eqball verify-all` runs the suites at interactive
sizes, and tests/test_acceptance.py runs them at the contract's sizes and
asserts the contract's bounds on what they return.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .certify import Certificate, check_certificate, generate_equality_certificate
from .enlarge import center_norm_bound, enlarge_to_maximal
from .gamma import gamma, gamma1_link, gamma_bruteforce
from .geometry import Frame, orthonormalize
from .simplex import EquilateralSet, alpha, beta, canonical_simplex, cap_extension, sample_maximal_sets
from .weights import (
    WeightFn,
    _sin_at,
    circle_circle_intersections,
    eta,
    falsify,
    frame_weight_sum,
    lambda_shell,
    shell_circuit,
    sin_corner_angle,
    sin_reference_angle,
)

SUITE_NAMES = [
    "constants",
    "enlargement",
    "center_bounds",
    "k_region",
    "gamma_oracle",
    "shell_geometry",
    "eta_mu_nu",
    "certificates",
    "falsifier",
    "negative_controls",
]


@dataclass
class SuiteResult:
    """One suite's verdict and measurements.

    `worst_slack` is the suite's headline deviation; `measures` holds every
    other measurement a bound is stated on; `elapsed` is the wall time of the
    whole suite in seconds.
    """

    name: str
    passed: bool
    count: int
    worst_slack: float
    note: str = ""
    measures: dict = field(default_factory=dict)
    elapsed: float = 0.0


def _timed(suite):
    @functools.wraps(suite)
    def run(*args, **kwargs) -> SuiteResult:
        start = time.perf_counter()
        result = suite(*args, **kwargs)
        result.elapsed = time.perf_counter() - start
        return result
    return run


def _ball_point(rng, n: int) -> np.ndarray:
    """Point uniform in the unit ball: a Gaussian direction at radius U**(1/n)."""
    p = rng.standard_normal(n)
    return p * rng.uniform() ** (1.0 / n) / np.linalg.norm(p)


@_timed
def suite_constants(max_k: int) -> SuiteResult:
    """Measured circumradii and apex heights of canonical simplices, and
    beta and alpha, against the literals sqrt((k-1)/2k) and sqrt((k+1)/2k)."""
    worst = 0.0
    for k in range(1, max_k + 1):
        radius = math.sqrt((k - 1) / (2.0 * k))
        height = math.sqrt((k + 1) / (2.0 * k))
        simplex = canonical_simplex(max(k - 1, 1), k)
        c = simplex.points.mean(axis=0)
        measured = float(np.max(np.linalg.norm(simplex.points - c, axis=1))) if k > 1 else 0.0
        lifted = canonical_simplex(k, k + 1)
        apex = float(np.linalg.norm(lifted.points[k] - lifted.points[:k].mean(axis=0)))
        worst = max(worst, abs(measured - radius), abs(apex - height),
                    abs(beta(k) - radius), abs(alpha(k + 1) - height))
    return SuiteResult("constants", worst < 1e-12, max_k, worst)


@_timed
def suite_enlargement(n_values, per_n: int, seed: int) -> SuiteResult:
    """Enlarge a random prefix of a sampled maximal set back to size n+1."""
    rng = np.random.default_rng(seed)
    worst_dist = worst_norm = 0.0
    successes = 0
    for n in n_values:
        ks = rng.integers(1, n + 1, size=per_n).tolist()
        for base, k in zip(sample_maximal_sets(n, per_n, rng), ks):
            out, _ = enlarge_to_maximal(EquilateralSet(base[:k].copy()))
            successes += int(out.k == n + 1)
            worst_dist = max(worst_dist, out.pairwise_distance_error())
            worst_norm = max(worst_norm, out.max_norm())
    count = per_n * len(n_values)
    passed = successes == count and worst_dist < 1e-9 and worst_norm <= 1 + 1e-9
    return SuiteResult("enlargement", passed, count, max(worst_dist, worst_norm - 1.0),
                       measures={"successes": successes, "worst_dist": worst_dist,
                                 "worst_norm": worst_norm})


@_timed
def suite_center_bounds(n_values, per_n: int, seed: int) -> SuiteResult:
    """Center norm against its bound for sampled maximal sets and a random
    prefix of each; `worst_slack` is the largest norm minus bound."""
    rng = np.random.default_rng(seed)
    worst = -1.0  # every bound is at most 1, so norm minus bound is at least -1
    violations = 0
    for n in n_values:
        ks = rng.integers(2, n + 1, size=per_n).tolist()
        for pts, k in zip(sample_maximal_sets(n, per_n, rng), ks):
            for t in (EquilateralSet(pts), EquilateralSet(pts[:k].copy())):
                norm_c, bound = center_norm_bound(t)
                worst = max(worst, norm_c - bound)
                violations += int(norm_c > bound + 1e-9)
    return SuiteResult("center_bounds", violations == 0, 2 * per_n * len(n_values), worst,
                       measures={"violations": violations})


@_timed
def suite_k_region(n_values, samples_per_n: int, seed: int) -> SuiteResult:
    """Convex combinations of the K-region's extreme points stay in the
    ball, and points u of the simplex cone have <u, v> >= 1/2 at unit norm
    and beyond it, scaled into [1, 2]."""
    rng = np.random.default_rng(seed)
    worst_norm = 0.0
    worst_unit = -math.inf
    violations = 0
    for n in n_values:
        s = canonical_simplex(n, n + 1)
        outer = s.points[1:]
        extremes = np.vstack([np.zeros(n), outer - s.points[0]])
        combos = rng.dirichlet(np.ones(n + 1), size=samples_per_n) @ extremes
        worst_norm = max(worst_norm, float(np.max(np.linalg.norm(combos, axis=1))))
        v = outer.sum(axis=0)
        # proposal biased toward the cone's incenter, exact rejection by its constraints
        incenter = np.linalg.solve(outer, np.ones(n))
        incenter /= np.linalg.norm(incenter)
        accepted = 0
        while accepted < samples_per_n:
            g = rng.standard_normal((10 * samples_per_n, n)) + 3.5 * incenter
            batch = g[np.all(g @ outer.T >= 0.0, axis=1)][: samples_per_n - accepted]
            if batch.size == 0:
                continue
            scales = rng.uniform(1.0, 2.0, size=batch.shape[0])
            norms = np.linalg.norm(batch, axis=1)
            worst_unit = max(worst_unit, float(np.max(0.5 - (batch / norms[:, None]) @ v)))
            violations += int(np.sum((batch * (scales / norms)[:, None]) @ v < 0.5 - 1e-9))
            accepted += batch.shape[0]
    passed = worst_norm <= 1 + 1e-9 and worst_unit <= 1e-9 and violations == 0
    return SuiteResult("k_region", passed, 2 * samples_per_n * len(n_values),
                       max(worst_norm - 1.0, worst_unit),
                       measures={"worst_norm": worst_norm, "worst_unit": worst_unit,
                                 "violations": violations})


@_timed
def suite_gamma_oracle(n_values, pairs_per_n: int, monotone_trials: int,
                       seed: int) -> SuiteResult:
    """Closed-form gamma against the grid oracle on R^n (step 1e-4), then
    the oracle (step 1e-3) on a random plane against a subspace holding it."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in n_values:
        full = Frame(np.eye(n))
        done = 0
        while done < pairs_per_n:
            a, b = _ball_point(rng, n), _ball_point(rng, n)
            if np.linalg.norm(a - b) < 1e-6:
                continue
            worst = max(worst, abs(gamma(a, b).value - gamma_bruteforce(a, b, full, 1e-4)))
            done += 1
    monotone = 0
    for _ in range(monotone_trials):
        n = int(rng.integers(3, 7))
        a, b = _ball_point(rng, n), _ball_point(rng, n)
        if np.linalg.norm(a - b) < 1e-6:
            continue
        big = orthonormalize(rng.standard_normal((int(rng.integers(3, n + 1)), n)), n)
        if big.shape[0] < 3:
            continue
        value_small = gamma_bruteforce(a, b, Frame(big[:2]), 1e-3)
        monotone += int(gamma_bruteforce(a, b, Frame(big), 1e-3) <= value_small + 1e-3 + 1e-12)
    passed = worst <= 2e-4 and monotone >= 0.95 * monotone_trials
    return SuiteResult("gamma_oracle", passed, pairs_per_n * len(n_values) + monotone_trials,
                       worst, measures={"monotone": monotone})


@_timed
def suite_shell_geometry(max_n: int) -> SuiteResult:
    """Corner a, lambda_n and the sines at w of the annulus circuit against
    their closed forms, from direct circle intersections and from
    shell_circuit; sin(owa) must not exceed sin(owh)."""
    worst = 0.0
    # cardinal points w, x (arc centers, radius 2 alpha(n+1)) and g, the center
    # of the unit circle that meets the arc about w at the reference point h
    w, x = np.array([0.0, -1.0]), np.array([-1.0, 0.0])
    g = np.array([math.sqrt(3.0) / 2.0, -0.5])
    for n in range(2, max_n + 1):
        radius = 2 * alpha(n + 1)
        t_closed = (-1.0 + math.sqrt(8.0 * alpha(n + 1) ** 2 - 1.0)) / 2.0
        corner = min(circle_circle_intersections(w, radius, x, radius), key=np.linalg.norm)
        h = max((p for p in circle_circle_intersections(g, 1.0, w, radius)
                 if np.linalg.norm(p) <= 1 + 1e-9), key=lambda p: p[1])
        plan = shell_circuit(n, 0.0)
        for c, sin_owa, sin_owh in ((corner, _sin_at(w, corner), _sin_at(w, h)),
                                    (plan.corners_local["a"], plan.sin_owa, plan.sin_owh)):
            worst = max(worst, float(np.max(np.abs(c - t_closed))),
                        abs(lambda_shell(n) - (radius - float(np.linalg.norm(c)))),
                        abs(sin_owa - sin_corner_angle(n)), abs(sin_owh - sin_reference_angle(n)),
                        sin_owa - sin_owh)
    return SuiteResult("shell_geometry", worst < 1e-12, max_n - 1, worst)


@_timed
def suite_eta_mu_nu(max_n: int, caps: int, seed: int) -> SuiteResult:
    """beta(n+1) as a fixed point of eta for n = 2..max_n, and the cap
    extension of random apexes at norm eta(rho)."""
    worst_fp = max(abs(eta(n, beta(n + 1)) - beta(n + 1)) for n in range(2, max_n + 1))
    rng = np.random.default_rng(seed)
    worst_cap = 0.0
    for _ in range(caps):
        n = int(rng.integers(2, 9))
        rho = float(rng.uniform(beta(n), 1.0))
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        x = eta(n, rho) * direction
        comps = cap_extension(x, rho)
        full = EquilateralSet(np.vstack([x, comps.points]))
        worst_cap = max(worst_cap,
                        float(np.max(np.abs(np.linalg.norm(comps.points, axis=1) - rho))),
                        full.pairwise_distance_error(), full.max_norm() - 1.0)
    passed = worst_fp < 1e-12 and worst_cap < 1e-9
    return SuiteResult("eta_mu_nu", passed, (max_n - 1) + caps, max(worst_fp, worst_cap),
                       measures={"fixed_point": worst_fp, "cap": worst_cap})


def _sum_rows(ids: np.ndarray, count: int) -> np.ndarray:
    """Dense sum-equation rows of an (S, n+1) id table over `count` points: a
    1 per point of each set in its column, -1 in the last (W) column."""
    rows = np.zeros((len(ids), count + 1))
    np.add.at(rows, (np.arange(len(ids))[:, None], ids), 1.0)
    rows[:, count] = -1.0
    return rows


def _feasible_assignments(cert: Certificate, count: int, rng) -> np.ndarray:
    """`count` random weights (columns over the named points, written and
    shared, and the constant) that satisfy every sum equation of the
    certificate."""
    p = cert.point_count
    rows = _sum_rows(np.asarray(cert.sets, dtype=np.int64).reshape(-1, cert.n + 1), p)
    g = rng.standard_normal((p + 1, count))
    row_part, *_ = np.linalg.lstsq(rows, rows @ g, rcond=None)
    return g - row_part


@_timed
def suite_certificates(n_values, pairs_per_n: int, assignments: int, seed: int) -> SuiteResult:
    """Certify and check random pairs.  After each pair, `assignments`
    weights satisfying its sum equations give the soundness gap: how far
    they spread on the claimed points."""
    rng = np.random.default_rng(seed)
    accepted = count = worst_sets = 0
    worst_residual = worst_time = worst_gap = 0.0
    note = ""
    for n in n_values:
        for _ in range(pairs_per_n):
            x, y = _ball_point(rng, n), _ball_point(rng, n)
            start = time.perf_counter()
            cert = generate_equality_certificate(x, y, n)
            report = check_certificate(cert)
            worst_time = max(worst_time, time.perf_counter() - start)
            count += 1
            if report.accepted:
                accepted += 1
                worst_residual = max(worst_residual, report.residual)
            elif not note:
                note = f"rejected at n={n}: {report.failure} residual={report.residual}"
            worst_sets = max(worst_sets, len(cert.sets))
            values = _feasible_assignments(cert, assignments, rng)
            gap = float(np.max(np.abs(values[cert.claim[0]] - values[cert.claim[1]])))
            worst_gap = max(worst_gap, gap)
    passed = (accepted == count and worst_residual < 1e-8 and worst_sets <= 5000
              and worst_gap < 1e-6)
    return SuiteResult("certificates", passed, count, worst_residual, note,
                       measures={"accepted": accepted, "worst_sets": worst_sets,
                                 "worst_time": worst_time, "soundness_gap": worst_gap})


@_timed
def suite_falsifier(samples: int, frames_per_n: int, seed: int) -> SuiteResult:
    """falsify disproves the weight ‖x‖² (seed) and finds the constant 0.75
    consistent (seed + 1); the frame sums of a random symmetric matrix for
    each n = 3..6 (seed + 2) equal trace/2."""
    quadratic = falsify(WeightFn(evaluator=lambda p: float(p @ p)), 3, samples, seed)
    constant = falsify(WeightFn(evaluator=lambda p: 0.75), 3, samples, seed + 1)
    rng = np.random.default_rng(seed + 2)
    worst_sphere = 0.0
    for n in range(3, 7):
        t = rng.standard_normal((n, n))
        t = (t + t.T) / 2.0
        for frame_seed in range(frames_per_n):
            total, expected = frame_weight_sum(t, frame_seed)
            worst_sphere = max(worst_sphere, abs(total - expected))
    passed = (quadratic.verdict == "disproved" and quadratic.spread > 0.01
              and constant.spread < 1e-12 and worst_sphere < 1e-9)
    return SuiteResult("falsifier", passed, 2 * samples + 4 * frames_per_n,
                       max(constant.spread, worst_sphere),
                       measures={"quadratic_spread": quadratic.spread,
                                 "constant_spread": constant.spread, "sphere": worst_sphere})


@_timed
def suite_negative_controls(seed: int) -> SuiteResult:
    """The checker rejects a generated certificate with one coordinate moved
    by 1e-3, and a claim on two points of one set: a gamma-1 link set and the
    certificate's first set, each as a one-set certificate of its own points
    with its own equation as the combination (no multiplier proves such a
    claim: its W entry must be 0)."""
    rng = np.random.default_rng(seed)
    x, y = _ball_point(rng, 3), _ball_point(rng, 3)
    cert = generate_equality_certificate(x, y, 3)
    points = cert.points.copy()
    points[cert.sets[0][0]][0] += 1e-3
    tampered = check_certificate(Certificate(n=3, points=points, sets=cert.sets, claim=cert.claim,
                                             generator_params=cert.generator_params,
                                             multipliers=cert.multipliers, hops=cert.hops))
    a4 = alpha(4)
    a = np.array([0.0, 0.0, -a4])
    link = np.vstack([a, gamma1_link(a, np.array([0.0, 0.0, a4]))])
    single_link = check_certificate(Certificate(n=3, points=link, sets=[(0, 1, 2, 3)],
                                                claim=(0, 1), multipliers=[1]))
    if len(cert.sets) > 2 * len(cert.hops):  # a written set
        first = cert.points[cert.sets[0]]
    else:  # hop 0's a-set: its end a, then the shared points, which no table holds
        end_a, end_b = cert.points[list(cert.hops[0])]
        first = np.vstack([end_a, gamma1_link(end_a, end_b)])
    single_set = check_certificate(Certificate(n=3, points=first, sets=[(0, 1, 2, 3)],
                                               claim=(0, 1), multipliers=[1]))
    failures = {"tampered": tampered.failure, "single_link": single_link.failure,
                "single_set": single_set.failure}
    passed = failures == {"tampered": "SetInvalid", "single_link": "ClaimNotImplied",
                          "single_set": "ClaimNotImplied"}
    return SuiteResult("negative_controls", passed, 3, 0.0, measures=failures)


def run_verification_suites(n_values=None, seed: int = 0) -> list[SuiteResult]:
    """Run every suite at interactive sizes; returns one result each."""
    n_values = [2, 3, 4] if n_values is None else list(n_values)
    small = [n for n in n_values if n <= 6]
    return [
        suite_constants(64),
        suite_enlargement(n_values, per_n=50, seed=seed),
        suite_center_bounds(n_values, per_n=200, seed=seed + 1),
        suite_k_region(small, samples_per_n=2000, seed=seed + 2),
        suite_gamma_oracle(small, pairs_per_n=20, monotone_trials=10, seed=seed + 3),
        suite_shell_geometry(64),
        suite_eta_mu_nu(64, caps=100, seed=seed + 4),
        suite_certificates([n for n in n_values if n <= 4], pairs_per_n=2, assignments=10,
                           seed=seed + 5),
        suite_falsifier(samples=200, frames_per_n=10, seed=seed + 6),
        suite_negative_controls(seed + 9),
    ]
