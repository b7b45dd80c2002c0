import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqball.enlarge import (
    center_norm_bound,
    enlarge_step,
    enlarge_to_maximal,
)
from eqball.errors import InputError
from eqball.geometry import DEFAULT_TOL, Tolerance
from eqball.simplex import (EquilateralSet, alpha, beta, canonical_simplex, random_rotations,
                            sample_maximal_set)
from eqball.weights import lambda_shell


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


def test_k_region_convex_combinations_stay_in_ball():
    rng = np.random.default_rng(17)
    for n in (2, 3, 5):
        s = canonical_simplex(n, n + 1)
        extremes = np.vstack([np.zeros(n), s.points[1:] - s.points[0]])
        weights = rng.dirichlet(np.ones(n + 1), size=1000)
        combos = weights @ extremes
        norms = np.linalg.norm(combos, axis=1)
        assert float(norms.max()) <= 1.0 + 1e-9



# Offsets from each boundary norm: within rounding, within eps_eq = 1e-9 and past it.
EDGE_OFFSETS = (-2e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9, 2e-9)


@st.composite
def boundary_sets(draw):
    """A rotated canonical set of size k <= n, moved along a drawn direction
    until its farthest point has norm 1, beta(n+1) or lambda_n, each moved by
    an EDGE_OFFSETS step.  The direction is drawn, or lies in the set's
    affine hull up to a part of 0 to 1e-6 across it, so that the centre
    lies on or near the hull (the case of a zero out-of-hull component)."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    pts = canonical_simplex(n, k).points @ random_rotations(n, 1, rng)[0].T
    u = rng.standard_normal(n)
    if k > 1:
        across = draw(st.sampled_from([None, 0.0, 1e-12, 1e-10, 1e-6]))
        if across is not None:
            u = pts[1] - pts[0] + across * u
    u /= np.linalg.norm(u)
    r = draw(st.sampled_from([1.0, beta(n + 1), lambda_shell(n)]))
    r += draw(st.sampled_from(EDGE_OFFSETS))
    # the shift at which each point reaches norm r; the first to reach it wins
    vu = pts @ u
    reach = np.sqrt(vu * vu + r * r - np.einsum("ij,ij->i", pts, pts)) - vu
    return pts + reach.min() * u


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(boundary_sets())
def test_boundary_sets_enlarge_or_fail_cleanly(pts):
    """A maximal set that passes the in-ball re-check at the widened
    tolerance of enlargement's output, or an InputError for a set that lies
    more than eps_eq outside the ball; nothing else."""
    s = EquilateralSet(pts)
    try:
        out, _ = enlarge_to_maximal(s)
    except InputError:
        assert s.max_norm() > 1.0 + DEFAULT_TOL.eps_eq
        return
    assert out.k == s.n + 1
    out.validate(in_ball=True, tol=DEFAULT_TOL.widened())
