import math

import numpy as np
import pytest

from eqball.errors import InputError
from eqball.geometry import (
    GRID_STEP,
    RANK_RESIDUAL,
    Tolerance,
    _residual,
    as_point,
    clamp_to_range,
    json_number_array,
    orthonormal_complement,
    orthonormalize,
    row_dot,
    section2d,
)


def test_tolerance_invariants():
    tol = Tolerance()
    assert tol.eps_eq < GRID_STEP
    with pytest.raises(ValueError):
        Tolerance(eps_eq=-1e-9)
    with pytest.raises(ValueError):
        Tolerance(eps_eq=1e-3)


def test_tolerance_widened_loosens_eps_eq_only():
    wide = Tolerance(eps_eq=2e-9).widened()
    assert wide.eps_eq == 2e-8


def test_tolerance_widened_past_the_grid_step():
    # eps_eq = 2e-5 is valid; ten times that passes grid_step = 1e-4, which
    # the constructor would refuse but an equality re-check does not mind
    wide = Tolerance(eps_eq=2e-5).widened()
    assert (wide.eps_eq, GRID_STEP) == (2e-4, 1e-4)


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
    with pytest.raises(InputError, match="^point has dimension 3, expected 2"):
        orthonormal_complement([np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])], 2)
    with pytest.raises(InputError, match="^span has dimension 2 in R\\^2; complement is trivial"):
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


def _complement_one_axis_at_a_time(span, n):
    """Reference for orthonormal_complement: one canonical axis at a time."""
    rows, stacked = [], span
    for e in np.eye(n):
        if len(rows) == n - len(span):
            break
        r = _residual(e, stacked)
        norm = float(np.linalg.norm(r))
        if norm > RANK_RESIDUAL:
            rows.append(r / norm)
            stacked = np.vstack([stacked, rows[-1]])
    return np.array(rows)


def test_orthonormal_complement_matches_the_one_axis_loop():
    """To an ulp or two, on random spans and on spans of signed canonical
    axes, which drop axes: orthonormalize re-normalizes the span rows it
    completes."""
    rng = np.random.default_rng(21)
    for n in range(2, 8):
        for d in range(n):
            spans = [orthonormalize(rng.standard_normal((d, n)), n) for _ in range(4)]
            spans += [np.eye(n)[rng.permutation(n)[:d]] * rng.choice([-1.0, 1.0], (d, 1))
                      for _ in range(4)]
            for span in spans:
                span = span.reshape(d, n)
                rows = orthonormal_complement(list(span), n).basis
                reference = _complement_one_axis_at_a_time(span, n)
                assert rows.shape == reference.shape
                assert np.max(np.abs(rows - reference), initial=0.0) <= 2 * np.finfo(float).eps


def test_vector_norm_form_is_numpy_norm():
    """math.sqrt(v @ v), the form of the library's 1-D norms, is bit for bit
    np.linalg.norm(v) on contiguous vectors, which as_point returns."""
    rng = np.random.default_rng(8)
    for size in range(1, 41):
        for scale in (1e-160, 1e-12, 1.0, 1e8):
            v = rng.standard_normal(size) * scale
            assert math.sqrt(v @ v) == float(np.linalg.norm(v))
    strided = as_point(rng.standard_normal(80)[::2])
    assert strided.flags.c_contiguous
    assert math.sqrt(strided @ strided) == float(np.linalg.norm(strided))


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
    with pytest.raises(InputError, match="^section2d requires two distinct points"):
        section2d(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    with pytest.raises(InputError, match="^a 2-D section needs ambient dimension >= 2"):
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


def test_clamp_to_range():
    tol = Tolerance(eps_eq=1e-9)
    assert clamp_to_range("r", 0.5, 0.25, 1.0, tol) == 0.5
    assert clamp_to_range("r", 1.0 + 5e-10, 0.25, 1.0, tol) == 1.0
    assert clamp_to_range("r", 0.25 - 5e-10, 0.25, 1.0, tol) == 0.25
    with pytest.raises(InputError, match=r"^r=1\.1 outside \[0\.25, 1\.0\]$"):
        clamp_to_range("r", 1.1, 0.25, 1.0, tol)
    with pytest.raises(InputError, match=r"^t=0\.2 outside \[0\.25, 1\.0\]$"):
        clamp_to_range("t", 0.2, 0.25, 1.0, tol)


def test_json_number_array():
    assert np.array_equal(json_number_array([[1, 0.5], [-2, 1e-300]]), [[1.0, 0.5], [-2.0, 1e-300]])
    assert json_number_array([0.2, -1]).dtype == np.float64
    assert json_number_array([]).shape == (0,)
    for bad in (["0.2", 0.1], [[1.0, 0.0], [0.0, False]], [[0.0, None]], [[1.0], [2.0, 3.0]],
                "1", {"a": 1.0}):
        with pytest.raises(InputError, match="^coordinates must be JSON numbers$"):
            json_number_array(bad)
    with pytest.raises(InputError, match="^a coordinate is out of range: "):
        json_number_array([10 ** 400, 0])
