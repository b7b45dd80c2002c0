import numpy as np
import pytest

from eqball.errors import DegenerateInput, DimensionMismatch, FullSpan
from eqball.geometry import (
    Tolerance,
    orthonormal_complement,
    orthonormalize,
    row_dot,
    section2d,
)


def test_tolerance_invariants():
    tol = Tolerance()
    assert tol.eps_eq < tol.grid_step
    with pytest.raises(ValueError):
        Tolerance(eps_eq=-1e-9)
    with pytest.raises(ValueError):
        Tolerance(eps_eq=1e-3, grid_step=1e-4)


def test_tolerance_widened_loosens_eps_eq_only():
    wide = Tolerance(eps_eq=2e-9, eps_rank=3e-8, grid_step=5e-4).widened()
    assert (wide.eps_eq, wide.eps_rank, wide.grid_step) == (2e-8, 3e-8, 5e-4)


def test_complement_of_axis_in_r2():
    frame = orthonormal_complement([np.array([1.0, 0.0])], 2)
    assert frame.k == 1
    assert abs(abs(frame.basis[0, 1]) - 1.0) < 1e-12
    assert abs(frame.basis[0, 0]) < 1e-12


def test_complement_of_empty_input_is_full_basis():
    frame = orthonormal_complement([], 3)
    assert frame.k == 3
    assert np.allclose(frame.basis @ frame.basis.T, np.eye(3), atol=1e-12)


def test_complement_of_plane_in_r3():
    v1 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    v2 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    frame = orthonormal_complement([v1, v2], 3)
    assert frame.k == 1
    # direct inner-product verification
    assert abs(frame.basis[0] @ v1) < 1e-12
    assert abs(frame.basis[0] @ v2) < 1e-12
    assert abs(abs(frame.basis[0, 2]) - 1.0) < 1e-12


def test_complement_errors():
    with pytest.raises(DimensionMismatch):
        orthonormal_complement([np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])], 2)
    with pytest.raises(FullSpan):
        orthonormal_complement([np.array([1.0, 0.0]), np.array([0.0, 1.0])], 2)


def test_complement_plus_span_reconstructs_everything():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n))
        vecs = rng.standard_normal((d, n))
        comp = orthonormal_complement(vecs, n)
        span = orthonormalize(vecs, n)
        full = np.vstack([span, comp.basis])
        for _ in range(5):
            x = rng.standard_normal(n)
            recon = full.T @ (full @ x)
            assert np.linalg.norm(recon - x) < 1e-9


def test_section2d_planar_cases():
    f = section2d(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    span = f.basis.T @ f.basis
    assert np.allclose(span[:2, :2], np.eye(2), atol=1e-12)
    assert np.allclose(span[2], 0.0, atol=1e-12)

    ident = section2d(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert ident.k == 2 and ident.n == 2


def test_section2d_collinear_tie_break_and_reconstruction():
    a = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    b = 0.5 * a  # distinct point on the same line through the origin
    f = section2d(a, b)
    for p in (a, b):
        assert np.linalg.norm(f.basis.T @ (f.basis @ p) - p) < 1e-9
    # deterministic: repeat call gives identical frame
    g = section2d(a, b)
    assert np.array_equal(f.basis, g.basis)


def test_section2d_degenerate():
    with pytest.raises(DegenerateInput):
        section2d(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    with pytest.raises(DimensionMismatch):
        section2d(np.array([1.0]), np.array([2.0]))


def test_section2d_reconstructs_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        f = section2d(a, b)
        for p in (a, b):  # p lies in the frame
            assert np.linalg.norm(f.basis.T @ (f.basis @ p) - p) < 1e-9


def test_row_dot_equals_the_one_row_product():
    rng = np.random.default_rng(9)
    for n in (2, 3, 5, 8, 17):
        a = rng.standard_normal((40, n))
        stack = rng.standard_normal((40, 3, n))
        for b in (rng.standard_normal((40, n)), stack[:, 1]):  # contiguous and strided
            got = row_dot(a, b)
            assert got.shape == (40,)
            assert np.array_equal(got, [x @ y for x, y in zip(a, b)])
