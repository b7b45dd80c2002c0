import math
import re
import tracemalloc

import numpy as np
import pytest

from eqball import simplex, weights
from eqball.errors import ConstructionError, InputError
from eqball.gamma import gamma
from eqball.expr import compile_weight_expression
from eqball.simplex import alpha, beta, sample_maximal_sets
from eqball.weights import (
    WeightFn,
    circle_circle_intersections,
    circuit_geometry,
    eta,
    falsify,
    frame_weight_sum,
    lambda_shell,
    mu,
    mu_inverse,
    nu,
    shell_circuit,
    sin_corner_angle,
    sin_reference_angle,
    sphere_basis_set,
    sphere_basis_sets,
)


# -- radius maps -------------------------------------------------------------


def test_eta_endpoints():
    for n in (2, 3, 5, 16):
        assert eta(n, beta(n)) == pytest.approx(alpha(n + 1), abs=1e-15)
        assert eta(n, 1.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(InputError, match=r"^rho=0\.2 outside "):
        eta(3, 0.2)


def test_eta_fixed_point_via_bisection():
    for n in range(2, 65):
        # independent bisection of eta(rho) = rho
        lo, hi = beta(n), 1.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if eta(n, mid) > mid:
                lo = mid
            else:
                hi = mid
        assert abs((lo + hi) / 2 - beta(n + 1)) < 1e-12
        assert abs(eta(n, beta(n + 1)) - beta(n + 1)) < 1e-12


def test_eta_mu_nu_monotonicity():
    for n in range(2, 17):
        grid = np.linspace(beta(n), 1.0, 10000)
        etas = np.array([eta(n, r) for r in grid])
        mus = np.array([mu(n, r) for r in grid])
        nus = np.array([nu(n, r) for r in grid])
        assert np.all(np.diff(etas) < 0)
        assert np.all(np.diff(mus) > 0)
        assert np.all(np.diff(nus) < 0)
        assert mus[0] == pytest.approx(1 - alpha(n + 1), abs=1e-12)
        assert mus[-1] == pytest.approx(1.0, abs=1e-12)
        assert nus[-1] == pytest.approx(0.0, abs=1e-12)
        # mu(rho) < rho strictly below 1
        assert np.all(mus[:-1] < grid[:-1])


def test_mu_examples():
    assert nu(3, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert mu(2, 0.9) < 0.9
    assert mu(4, beta(4)) == pytest.approx(1 - alpha(5), abs=1e-15)


def test_mu_inverse_round_trip():
    rng = np.random.default_rng(3)
    for n in (2, 3, 6):
        assert mu_inverse(n, 1.0) == pytest.approx(1.0, abs=1e-10)
        assert mu_inverse(n, 1 - alpha(n + 1)) == pytest.approx(beta(n), abs=1e-10)
        for _ in range(100):
            t = rng.uniform(1 - alpha(n + 1), 1.0)
            rho = mu_inverse(n, t)
            assert abs(mu(n, rho) - t) < 1e-10
    with pytest.raises(InputError, match=r"^t=0\.05 outside "):
        mu_inverse(3, 0.05)


def test_mu_inverse_is_closed_form_exact():
    for n in range(2, 11):
        lo = 1 - alpha(n + 1)
        assert mu_inverse(n, lo) == beta(n)
        worst = max(abs(mu(n, mu_inverse(n, t)) - t) for t in np.linspace(lo, 1.0, 50))
        assert worst <= 1e-14, (n, worst)


def test_lambda_shell_values():
    lam2 = lambda_shell(2)
    closed = (1 + math.sqrt(6) - math.sqrt(5)) / math.sqrt(2)
    assert lam2 == pytest.approx(closed, abs=1e-15)
    t = (-1 + math.sqrt(5)) / 2
    corner = np.array([t, t])
    assert lam2 == pytest.approx(2 * alpha(3) - float(np.linalg.norm(corner)), abs=1e-12)
    for n in range(2, 65):
        assert 0.0 <= lambda_shell(n) < 1.0


def test_lambda_matches_circuit_geometry():
    for n in range(2, 65):
        points, _ = circuit_geometry(n, 0.0)
        lam_geo = 2 * alpha(n + 1) - float(np.linalg.norm(points["a"]))
        assert abs(lambda_shell(n) - lam_geo) < 1e-12


# -- circuit -----------------------------------------------------------------


def test_circuit_corner_n2():
    plan = shell_circuit(2, 0.0)
    expected = (-1 + math.sqrt(5)) / 2
    assert np.allclose(plan.corners_local["a"], [expected, expected], atol=1e-12)
    # 8*alpha(3)^2 - 1 = 5 drives the closed form
    assert 8 * alpha(3) ** 2 - 1 == pytest.approx(5.0, abs=1e-12)


def test_circuit_sines_match_closed_forms():
    for n in (2, 3, 8, 32, 64):
        plan = shell_circuit(n, 0.0)
        assert plan.sin_owa == pytest.approx(sin_corner_angle(n), abs=1e-12)
        assert plan.sin_owh == pytest.approx(sin_reference_angle(n), abs=1e-12)
        assert plan.sin_owa <= plan.sin_owh + 1e-12


def test_circuit_moves_are_exact_hops_with_clearance():
    for n, angle in ((2, 0.0), (3, 0.7), (5, 1.9), (2, 1e8), (3, 1e16), (5, -1e17)):
        plan = shell_circuit(n, angle)
        hop = 2 * alpha(n + 1)
        for p, q in plan.link_moves:
            assert p.shape == q.shape == (2,)
            assert abs(float(np.linalg.norm(p - q)) - hop) < 1e-9
            # independent clearance re-check
            assert gamma(p, q).value >= beta(n) - 1e-9


def test_circuit_reports_the_first_move_off_the_hop_length(monkeypatch):
    # Corner b moved by 1e-6: x -> b, the third move of the cycle, is the
    # first to fail, ahead of b -> y and the moves from b's arc.
    original = weights.circuit_geometry

    def moved(n, rotation_angle):
        points, arcs = original(n, rotation_angle)
        points["b"] = points["b"] + [1e-6, 0.0]
        return points, arcs

    monkeypatch.setattr(weights, "circuit_geometry", moved)
    points, _ = moved(3, 0.0)
    with pytest.raises(ConstructionError, match="^move length ") as info:
        shell_circuit(3, 0.0)
    length, hop = map(float, re.fullmatch(r"move length (\S+) differs from (\S+)",
                                          str(info.value)).groups())
    assert length == pytest.approx(float(np.linalg.norm(points["x"] - points["b"])), abs=1e-14)
    assert abs(length - float(np.linalg.norm(points["y"] - points["b"]))) > 1e-7
    assert hop == pytest.approx(2 * alpha(4), abs=1e-14)


def test_circuit_arcs_have_uniform_radius():
    plan = shell_circuit(4, 0.3)
    for arc in plan.arcs:
        assert arc.radius == pytest.approx(2 * alpha(5), abs=1e-15)


def test_circuit_memory_does_not_grow_with_n():
    # The moves are checked on their plane points; one (36, n) stack of
    # floats would take 2.9 MB at n = 10**4.
    tracemalloc.start()
    try:
        shell_circuit(10**4, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_rotated_circuits_intersect():
    # any two circuits of the same disc meet on their corner arcs
    rng = np.random.default_rng(20)
    for n in (2, 3, 4):
        hop = 2 * alpha(n + 1)
        for _ in range(50):
            delta = rng.uniform(0.01, math.pi / 2 - 0.01)
            points1, arcs1 = circuit_geometry(n, 0.0)
            points2, arcs2 = circuit_geometry(n, delta)
            found = False
            for i in "abcd":
                for j in "abcd":
                    for pt in circle_circle_intersections(points1[i], hop,
                                                          points2[j], hop):
                        if float(np.linalg.norm(pt)) > 1 + 1e-9:
                            continue
                        t1 = math.atan2(pt[1] - points1[i][1], pt[0] - points1[i][0])
                        t2 = math.atan2(pt[1] - points2[j][1], pt[0] - points2[j][0])
                        if arcs1[i].contains_angle(t1) and arcs2[j].contains_angle(t2):
                            # common waypoint: hop distance to both corners
                            assert abs(np.linalg.norm(pt - points1[i]) - hop) < 1e-6
                            assert abs(np.linalg.norm(pt - points2[j]) - hop) < 1e-6
                            found = True
            assert found, f"circuits at delta={delta} (n={n}) do not meet"


# -- sphere mode -------------------------------------------------------------


def test_frame_weight_sum_identity():
    total, expected = frame_weight_sum(np.eye(3), seed=0)
    assert expected == pytest.approx(1.5, abs=1e-15)
    assert total == pytest.approx(1.5, abs=1e-12)
    total, expected = frame_weight_sum(np.zeros((3, 3)), seed=1)
    assert total == pytest.approx(0.0, abs=1e-12) and expected == 0.0


def test_frame_weight_sum_random_symmetric():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((5, 5))
    t = (t + t.T) / 2
    worst = 0.0
    for seed in range(100):
        total, expected = frame_weight_sum(t, seed)
        worst = max(worst, abs(total - expected))
    assert worst < 1e-9


def test_frame_weight_sum_rechecks_its_basis(monkeypatch):
    monkeypatch.setattr(weights, "sphere_basis_set", lambda n, seed: np.eye(n))
    with pytest.raises(ConstructionError, match="^pairwise distance deviates from 1 by "):
        frame_weight_sum(np.eye(3), seed=0)


def test_frame_weight_sum_rejects_asymmetric():
    with pytest.raises(InputError, match="^T is not symmetric"):
        frame_weight_sum(np.array([[0.0, 1.0], [0.0, 0.0]]), seed=0)


def test_sphere_distance_orthogonality_equivalence():
    rng = np.random.default_rng(6)
    n = 4
    radius = 1 / math.sqrt(2)
    u = rng.standard_normal((10000, n))
    u *= radius / np.linalg.norm(u, axis=1)[:, None]
    v = rng.standard_normal((10000, n))
    v *= radius / np.linalg.norm(v, axis=1)[:, None]
    # half the pairs are forced orthogonal so both sides of the equivalence occur
    half = 5000
    v[:half] -= (np.sum(u[:half] * v[:half], axis=1) / radius**2)[:, None] * u[:half]
    v[:half] *= radius / np.linalg.norm(v[:half], axis=1)[:, None]
    dist_one = np.abs(np.linalg.norm(u - v, axis=1) - 1.0) < 1e-9
    orthogonal = np.abs(np.sum(u * v, axis=1)) < 1e-9
    assert np.array_equal(dist_one, orthogonal)
    assert dist_one[:half].all()
    basis = sphere_basis_set(n, 17)
    for i in range(n):
        for j in range(i + 1, n):
            assert abs(float(np.linalg.norm(basis[i] - basis[j])) - 1.0) < 1e-12
            assert abs(float(basis[i] @ basis[j])) < 1e-12


# -- falsifier ---------------------------------------------------------------


def test_falsify_constant_is_consistent():
    fn = WeightFn(evaluator=lambda p: 2.5)
    report = falsify(fn, 3, 100, seed=0)
    assert report.spread < 1e-12
    assert report.verdict == "consistent"
    assert report.empirical_weight == pytest.approx(4 * 2.5, abs=1e-12)


def test_falsify_norm_squared_is_disproved():
    fn = WeightFn(evaluator=lambda p: float(p @ p))
    report = falsify(fn, 3, 1000, seed=1)
    assert report.verdict == "disproved"
    assert report.spread > 0.01
    # the witness sets really achieve the reported sums
    hi = sum(float(p @ p) for p in report.witness_high)
    lo = sum(float(p @ p) for p in report.witness_low)
    assert hi - lo == pytest.approx(report.spread, abs=1e-12)


def test_falsify_sphere_mode_quadratic_form_consistent():
    rng = np.random.default_rng(9)
    t = rng.standard_normal((4, 4))
    t = (t + t.T) / 2
    fn = WeightFn(evaluator=lambda p: float(p @ t @ p), domain_mode="sphere")
    report = falsify(fn, 4, 200, seed=2)
    assert report.spread < 1e-9
    assert report.verdict == "consistent"
    assert report.empirical_weight == pytest.approx(np.trace(t) / 2, abs=1e-9)


def test_falsify_nonfinite_evaluator():
    fn = WeightFn(evaluator=lambda p: float("nan"))
    with pytest.raises(InputError, match="^weight function returned a non-finite value"):
        falsify(fn, 2, 5, seed=0)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -1e-6])
def test_falsify_rejects_a_threshold_out_of_domain(threshold):
    with pytest.raises(InputError, match="^threshold "):
        falsify(WeightFn(evaluator=lambda p: 1.0), 2, 5, seed=0, threshold=threshold)


def test_falsify_rejects_a_negative_seed():
    with pytest.raises(InputError, match="^seed -1 must be non-negative"):
        falsify(WeightFn(evaluator=lambda p: 1.0), 2, 5, seed=-1)


@pytest.mark.parametrize("mode", ["ball", "sphere"])
@pytest.mark.parametrize("n, samples", [(3, 10**11), (10**6, 2)])
def test_falsify_rejects_a_batch_past_the_resource_limit(monkeypatch, n, samples, mode):
    """The limit is checked before anything is sampled, so inputs that
    would need terabytes fail at once and allocate nothing."""
    def never(*args):
        raise AssertionError("sampled past the resource limit")

    monkeypatch.setattr(weights, "sample_maximal_sets", never)
    monkeypatch.setattr(weights, "sphere_basis_sets", never)
    monkeypatch.setattr(simplex, "_simplex_vertices", never)
    fn = WeightFn(evaluator=lambda p: 1.0, domain_mode=mode)
    with pytest.raises(InputError, match=rf"^{samples} samples at n={n} exceed the limit of "):
        falsify(fn, n, samples, seed=0)


def test_falsify_resource_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(weights, "MAX_FALSIFY_CELLS", 2 * 4 * 3)
    assert falsify(WeightFn(evaluator=lambda p: 1.0), 3, 2, seed=0).verdict == "consistent"
    with pytest.raises(InputError, match="^3 samples at n=3 exceed the limit of 24 "):
        falsify(WeightFn(evaluator=lambda p: 1.0), 3, 3, seed=0)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_shell_circuit_rejects_a_non_finite_angle(angle):
    with pytest.raises(InputError, match="^rotation angle "):
        shell_circuit(2, angle)


def reference_falsify(evaluator, n, samples, seed, mode):
    """Sums, spread, witness indices and witness sets of the per-sample
    falsify loop over the batch sampler's sets: evaluate each set point by
    point, add its values with the builtin sum, repeat."""
    rng = np.random.default_rng(seed)
    if mode == "sphere":
        sets = sphere_basis_sets(n, samples, rng)
    else:
        sets = sample_maximal_sets(n, samples, rng)
    sums = [float(sum([float(evaluator(p)) for p in pts])) for pts in sets]
    hi, lo = int(np.argmax(sums)), int(np.argmin(sums))
    return sums, float(sums[hi] - sums[lo]), (hi, lo), sets[hi], sets[lo]


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("mode", ["ball", "sphere"])
def test_falsify_report_equals_the_per_sample_reference(n, mode):
    evaluator = compile_weight_expression("2*x1*x1 + dot(x,x) - 0.5", n)
    for seed in (4, 2**40 + 7):
        report = falsify(WeightFn(evaluator=evaluator, domain_mode=mode), n, 120, seed)
        sums, spread, indices, high, low = reference_falsify(evaluator, n, 120, seed, mode)
        assert report.sums == sums
        assert report.spread == spread
        assert report.witness_indices == indices
        assert np.array_equal(report.witness_high, high)
        assert np.array_equal(report.witness_low, low)


def test_falsify_witness_tie_break_deterministic():
    fn = WeightFn(evaluator=lambda p: 1.0)
    r1 = falsify(fn, 2, 50, seed=3)
    r2 = falsify(fn, 2, 50, seed=3)
    assert r1.witness_indices == r2.witness_indices == (0, 0)


def _float_bits(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("mode", ["ball", "sphere"])
def test_falsify_through_the_rows_kernel_equals_per_point_calls(n, mode):
    """The one-call `rows` path and the per-point path of a plain callable
    give the same report in every field, bit for bit."""
    ev = compile_weight_expression("2*x1*x1 + dot(x,x) - 0.5 - abs(x2) / norm(x)", n)
    batched = falsify(WeightFn(evaluator=ev, domain_mode=mode), n, 90, seed=17)
    plain = falsify(WeightFn(evaluator=lambda p: ev(p), domain_mode=mode), n, 90, seed=17)
    assert _float_bits(batched.sums) == _float_bits(plain.sums)
    assert all(type(s) is float for s in batched.sums)
    assert _float_bits([batched.spread, batched.empirical_weight, batched.threshold]) == \
        _float_bits([plain.spread, plain.empirical_weight, plain.threshold])
    assert batched.witness_indices == plain.witness_indices
    assert batched.witness_high.tobytes() == plain.witness_high.tobytes()
    assert batched.witness_low.tobytes() == plain.witness_low.tobytes()
    assert batched.verdict == plain.verdict


@pytest.mark.parametrize("n, mode", [(3, "ball"), (8, "ball"), (8, "sphere")])
def test_falsify_sums_of_negative_zero_are_positive_zero(n, mode):
    """The builtin sum starts from +0, so a weight of -0.0 sums to +0.0."""
    ev = compile_weight_expression("-0", n)
    assert math.copysign(1.0, ev(np.zeros(n))) == -1.0
    report = falsify(WeightFn(evaluator=ev, domain_mode=mode), n, 20, seed=5)
    assert all(s == 0.0 and math.copysign(1.0, s) == 1.0 for s in report.sums)
    assert math.copysign(1.0, report.empirical_weight) == 1.0
