import math

import numpy as np
import pytest

from eqball.enlarge import (
    center_norm_bound,
    enlarge_step,
    enlarge_to_maximal,
    is_maximal,
    k_region_test,
)
from eqball.errors import InputError
from eqball.geometry import Tolerance
from eqball.simplex import EquilateralSet, alpha, beta, canonical_simplex, sample_maximal_set


def test_step_from_singleton_on_boundary():
    s = EquilateralSet(np.array([[1.0, 0.0]]))
    out, step = enlarge_step(s)
    # the affine hull is trivial, a = center = (1, 0), u = -alpha(2) * a
    assert np.allclose(step.a, [1.0, 0.0], atol=1e-12)
    assert np.allclose(step.u, [-1.0, 0.0], atol=1e-12)
    assert np.allclose(out.points[1], [0.0, 0.0], atol=1e-12)


def test_step_tie_break_branch():
    s = EquilateralSet(np.array([[1.0, 0.0], [0.0, 0.0]]))
    out, step = enlarge_step(s)
    # a = 0, tie-break picks +e2, so the new point sits below the segment
    assert np.linalg.norm(step.a) < 1e-12
    assert np.allclose(out.points[2], [0.5, -math.sqrt(3.0) / 2.0], atol=1e-12)
    assert abs(np.linalg.norm(out.points[2]) - 1.0) < 1e-12


def test_step_from_centered_simplex():
    for n, k in ((3, 2), (4, 3), (6, 4)):
        s = canonical_simplex(n, k)
        out, step = enlarge_step(s)
        c = s.points.mean(axis=0)
        assert np.linalg.norm(out.points[-1] - c) == pytest.approx(alpha(k + 1), abs=1e-12)
        assert np.linalg.norm(step.u) == pytest.approx(alpha(k + 1), abs=1e-12)


def test_step_norm_identity():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        base = sample_maximal_set(n, int(rng.integers(2**63 - 1)))
        k = int(rng.integers(1, n + 1))
        s = EquilateralSet(base.points[:k].copy())
        out, step = enlarge_step(s)
        assert float(np.linalg.norm(step.new_point)) ** 2 <= 1.0 + 1e-9
        assert out.pairwise_distance_error() < 1e-9


def test_enlarge_to_maximal_from_singleton():
    out, trace = enlarge_to_maximal(EquilateralSet(np.array([[1.0, 0.0, 0.0]])))
    assert out.k == 4
    assert out.pairwise_distance_error() < 1e-9
    assert out.max_norm() <= 1.0 + 1e-9
    assert len(trace.steps) == 3


def test_enlarge_already_maximal_is_identity():
    s = canonical_simplex(3, 4)
    out, trace = enlarge_to_maximal(s)
    assert out is s or np.array_equal(out.points, s.points)
    assert trace.steps == []
    with pytest.raises(InputError, match="^set of size 4 is already maximal"):
        enlarge_step(s)


def test_enlarge_at_a_loose_tolerance():
    # the widened output re-check must accept any valid tolerance
    loose = Tolerance(eps_eq=2e-5)
    out, trace = enlarge_to_maximal(EquilateralSet(np.array([[1.0, 0.0, 0.0]])), loose)
    assert out.k == 4 and len(trace.steps) == 3
    assert out.pairwise_distance_error() < 1e-12


def test_enlarge_rejects_out_of_ball():
    s = EquilateralSet(np.array([[1.2, 0.0]]))
    with pytest.raises(InputError, match=r"^a point has norm 1\.200000000000 > 1$"):
        enlarge_step(s)


def test_enlargement_property_sweep():
    rng = np.random.default_rng(2)
    for n in range(2, 6):
        for _ in range(100):
            base = sample_maximal_set(n, int(rng.integers(2**63 - 1)))
            k = int(rng.integers(1, n + 1))
            out, _ = enlarge_to_maximal(EquilateralSet(base.points[:k].copy()))
            assert out.k == n + 1
            assert out.pairwise_distance_error() < 1e-9
            assert out.max_norm() <= 1.0 + 1e-9


def test_is_maximal():
    assert is_maximal(canonical_simplex(3, 4))
    assert not is_maximal(canonical_simplex(3, 3))
    assert is_maximal(sample_maximal_set(5, 77))


def test_center_norm_bound_examples():
    norm_c, bound = center_norm_bound(canonical_simplex(4, 5))
    assert norm_c < 1e-12 and norm_c <= bound
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        s = sample_maximal_set(n, int(rng.integers(2**63 - 1)))
        norm_c, bound = center_norm_bound(s)
        assert bound == pytest.approx(beta(n + 1), abs=1e-15)
        assert norm_c <= bound + 1e-9
        k = int(rng.integers(2, n + 1))
        sub = EquilateralSet(s.points[:k].copy())
        norm_c, bound = center_norm_bound(sub)
        assert bound == pytest.approx(alpha(k + 1), abs=1e-15)
        assert norm_c <= bound + 1e-9


def test_k_region_origin_and_edge_point():
    s = canonical_simplex(3, 4)
    member, inner = k_region_test(np.zeros(3), s)
    assert member and inner == pytest.approx(0.0, abs=1e-12)
    edge = s.points[1] - s.points[0]
    member, inner = k_region_test(edge, s)
    assert member
    assert inner == pytest.approx(0.5, abs=1e-9)
    assert np.linalg.norm(edge) == pytest.approx(1.0, abs=1e-12)


def test_k_region_convex_combinations_stay_in_ball():
    rng = np.random.default_rng(17)
    for n in (2, 3, 5):
        s = canonical_simplex(n, n + 1)
        extremes = np.vstack([np.zeros(n), s.points[1:] - s.points[0]])
        weights = rng.dirichlet(np.ones(n + 1), size=1000)
        combos = weights @ extremes
        norms = np.linalg.norm(combos, axis=1)
        assert float(norms.max()) <= 1.0 + 1e-9
        for xi in combos[:50]:
            member, _ = k_region_test(xi, s)
            assert member


def test_k_region_requires_centered_set():
    shifted = EquilateralSet(canonical_simplex(2, 3).points + np.array([0.1, 0.0]))
    with pytest.raises(InputError, match="^set center has norm "):
        k_region_test(np.zeros(2), shifted)
