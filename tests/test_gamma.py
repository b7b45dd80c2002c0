import importlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqball.errors import ConstructionError, InputError
from eqball.gamma import gamma, gamma1_link, gamma_bruteforce
from eqball.geometry import DEFAULT_TOL, Frame, orthonormalize, section2d
from eqball.simplex import (EquilateralSet, alpha, beta, canonical_simplex, distance_errors,
                            random_rotations)
from eqball.weights import lambda_shell

gamma_module = importlib.import_module("eqball.gamma")  # the package exports the function gamma


# Messages of the two linking-move preconditions, hop length and hop bound.
DISTANCE = r"^\|\|b-a\|\|="
BOUND = r"^hop bound .* exceeds 1: a shared point would leave the ball$"


def _link_sets(a, b):
    """The two maximal sets of the linking move a -> b, {a} + shared and
    {b} + shared."""
    shared = gamma1_link(a, b)
    return EquilateralSet(np.vstack([a, shared])), EquilateralSet(np.vstack([b, shared]))


def _random_ball_point(rng, n):
    p = rng.standard_normal(n)
    return p * rng.uniform() ** (1.0 / n) / np.linalg.norm(p)


def test_gamma_symmetric_pair_reaches_one():
    res = gamma(np.array([0.5, 0.0]), np.array([-0.5, 0.0]))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(res.midpoint, 0.0, atol=1e-12)


def test_gamma_quarter_circle_pair():
    res = gamma(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert res.value == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)
    # cross-checked against the grid oracle at its resolution
    brute = gamma_bruteforce(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                             Frame(np.eye(2)), 1e-4)
    assert abs(res.value - brute) <= 2e-4


def test_gamma_result_invariants():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = _random_ball_point(rng, n)
        b = _random_ball_point(rng, n)
        if np.linalg.norm(a - b) < 1e-3:
            continue
        res = gamma(a, b)
        assert 0.0 < res.value <= 1.0 + 1e-12
        assert abs(res.direction @ (b - a)) < 1e-9
        assert res.direction @ (a + b) >= -1e-9


def test_gamma_direction_is_the_normalised_perpendicular_of_the_midpoint():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = _random_ball_point(rng, n)
        b = _random_ball_point(rng, n)
        x0 = (a + b) / 2.0
        d = (b - a) / np.linalg.norm(b - a)
        perp = x0 - (x0 @ d) * d
        assert np.max(np.abs(gamma(a, b).direction - perp / np.linalg.norm(perp))) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_gamma_direction_for_collinear_pairs(n):
    """With a, b and 0 collinear any unit vector orthogonal to b - a attains
    the clearance; the tie-break picks one, the same for either order."""
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = _random_ball_point(rng, n)
        for b in (-a, np.zeros(n), 0.3 * a, -0.7 * a):
            for p, q in ((a, b), (np.zeros(n), a)):
                u = gamma(p, q).direction
                assert abs(np.linalg.norm(u) - 1.0) < 1e-12
                assert abs(u @ (q - p)) < 1e-12
                assert np.array_equal(u, gamma(q, p).direction)


def test_gamma_rotation_invariance():
    rng = np.random.default_rng(8)
    a = np.array([0.4, 0.1, -0.2])
    b = np.array([-0.3, 0.5, 0.1])
    base = gamma(a, b).value
    for _ in range(500):
        rot = random_rotations(3, 1, rng)[0]
        assert gamma(rot @ a, rot @ b).value == pytest.approx(base, abs=1e-9)


def test_gamma_errors():
    with pytest.raises(InputError, match="^a and b coincide"):
        gamma(np.array([0.1, 0.2]), np.array([0.1, 0.2]))
    with pytest.raises(InputError, match="^point with norm .* is outside the ball"):
        gamma(np.array([1.5, 0.0]), np.array([0.0, 0.5]))


def test_bruteforce_matches_closed_form():
    rng = np.random.default_rng(15)
    for n in (2, 3, 4):
        full = Frame(np.eye(n))
        for _ in range(25):
            a = _random_ball_point(rng, n)
            b = _random_ball_point(rng, n)
            if np.linalg.norm(a - b) < 1e-3:
                continue
            closed = gamma(a, b).value
            brute = gamma_bruteforce(a, b, full, 1e-4)
            assert abs(closed - brute) <= 2e-4


def test_bruteforce_in_2d_section_reproduces_full_value():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = _random_ball_point(rng, 4)
        b = _random_ball_point(rng, 4)
        if np.linalg.norm(a - b) < 1e-3:
            continue
        section = section2d(a, b)
        closed = gamma(a, b).value
        brute = gamma_bruteforce(a, b, section, 1e-4)
        assert abs(closed - brute) <= 2e-4


def test_bruteforce_symmetric_pair_caps_at_one():
    value = gamma_bruteforce(np.array([0.5, 0.0]), np.array([-0.5, 0.0]),
                             Frame(np.eye(2)), 1e-3)
    assert value == pytest.approx(1.0, abs=2e-3)


def test_bruteforce_subspace_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = 5
        a = _random_ball_point(rng, n)
        b = _random_ball_point(rng, n)
        if np.linalg.norm(a - b) < 1e-3:
            continue
        big = orthonormalize(rng.standard_normal((4, n)), n)
        if big.shape[0] < 4:
            continue
        small = Frame(big[:2])
        value_small = gamma_bruteforce(a, b, small, 1e-3)
        value_big = gamma_bruteforce(a, b, Frame(big), 1e-3)
        assert value_big <= value_small + 1e-3 + 1e-12


def test_bruteforce_empty_intersection():
    a = np.array([0.2, 0.0, 0.0])
    b = np.array([0.6, 0.0, 0.0])
    direction = Frame(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(InputError, match="^M intersects the orthogonal hyperplane only at 0"):
        gamma_bruteforce(a, b, direction, 1e-3)


def test_gamma1_link_shared_edge_triangles():
    a3 = alpha(3)
    a = np.array([0.05, -a3])
    b = np.array([0.05, a3])
    set_a, set_b = _link_sets(a, b)
    for s in (set_a, set_b):
        assert s.k == 3
        assert s.pairwise_distance_error() < 1e-9
        assert s.max_norm() <= 1.0 + 1e-9
    # shared points are bit-for-bit identical and count n, union n+2
    assert np.array_equal(set_a.points[1:], set_b.points[1:])
    union = {tuple(np.round(p, 12)) for p in np.vstack([set_a.points, set_b.points])}
    assert len(union) == 2 + 2


def test_gamma1_link_centered_any_n():
    rng = np.random.default_rng(42)
    for n in (2, 3, 4, 6):
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        a = alpha(n + 1) * direction
        b = -a
        set_a, set_b = _link_sets(a, b)
        shared = set_a.points[1:]
        assert np.max(np.abs(np.linalg.norm(shared, axis=1) - beta(n))) < 1e-9
        assert np.max(np.abs(shared @ direction)) < 1e-9
        assert set_a.k == n + 1 and set_b.k == n + 1


def _past_the_bound(n):
    """Two points at norm 1 + 0.9*eps_eq, one hop apart: both lie in the ball
    as gamma1_link admits it, and the hop bound is 1 + 1.8*eps_eq*n/(n-1)."""
    r = 1.0 + 0.9 * DEFAULT_TOL.eps_eq
    phi = 2.0 * math.asin(alpha(n + 1) / r)
    a, b = np.zeros(n), np.zeros(n)
    a[0], b[:2] = r, (r * math.cos(phi), r * math.sin(phi))
    return a, b


def test_gamma1_link_preconditions():
    with pytest.raises(InputError, match=DISTANCE):
        gamma1_link(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    # Two boundary points of the 3-ball at hop distance: their midpoint has
    # clearance 1 - beta(3) < beta(3), yet the hop bound is 1, so the
    # linking move accepts them.
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([-1.0 / 3.0, math.sqrt(8.0) / 3.0, 0.0])
    assert np.linalg.norm(p - q) == pytest.approx(2 * alpha(4), abs=1e-12)
    assert gamma(p, q).value == pytest.approx(1.0 - beta(3), abs=1e-12)
    for s in _link_sets(p, q):
        s.validate(in_ball=True)
    with pytest.raises(InputError, match=BOUND):
        gamma1_link(*_past_the_bound(3))


def test_gamma1_link_takes_one_hop_or_a_stack():
    """Two (n,) points are one hop, with the point checks of as_point; two
    (k, n) stacks are k hops, each row the one-hop result."""
    w = _random_chain(np.random.default_rng(36), 3, 2)
    assert gamma1_link(w[0], w[1]).shape == (3, 3)
    assert np.array_equal(gamma1_link(w[:-1], w[1:])[1], gamma1_link(w[1], w[2]))
    with pytest.raises(InputError, match=r"^point has dimension 2, expected 3$"):
        gamma1_link(w[0], w[1][:2])
    with pytest.raises(InputError, match=r"^endpoint arrays must share a \(k, n\) shape"):
        gamma1_link(w[:-1], w[1])

def _random_chain(rng, n, hops):
    """Waypoints of a chain of valid links: hop length 2*alpha(n+1),
    clearance above beta(n), every waypoint in the ball."""
    hop = 2.0 * alpha(n + 1)
    start = rng.standard_normal(n)
    points = [start * (hop - 1.0 + 0.1 * rng.uniform()) / np.linalg.norm(start)]
    while len(points) <= hops:
        d = rng.standard_normal(n)
        b = points[-1] + hop * d / np.linalg.norm(d)
        if np.linalg.norm(b) <= 1.0 and gamma(points[-1], b).value >= beta(n) + 1e-6:
            points.append(b)
    return np.array(points)


def _householder_rows(v):
    """Rows 0..n-2 of I - 2*h*h^T/(h^T h), h = v/||v|| + s*e[-1] with s = -1
    where v[-1] < 0 and 1 otherwise (gamma1_link reads a -0.0 as 0): an
    orthonormal basis of the complement of v."""
    h = v / np.linalg.norm(v)
    h[-1] += -1.0 if h[-1] < 0.0 else 1.0
    return np.eye(len(v))[:-1] - np.outer(h[:-1] * (2.0 / (h @ h)), h)


def test_gamma1_links_rows_are_the_paper_construction():
    """Each row rebuilt on its own: a regular simplex of radius beta(n) around
    the hop's midpoint x0, in the hyperplane orthogonal to b - a, with its
    first point at x0 - beta(n)*u; a hop on a line through the origin
    keeps canonical_simplex carried into the Householder rows of b - a,
    which are orthonormal to 4 ulp.  The lines include +-e_n, one 1e-12
    off e_n, and e_1 with b - a ending in -0.0."""
    rng = np.random.default_rng(31)
    eps = np.finfo(float).eps
    for n in range(2, 7):
        hop = 2.0 * alpha(n + 1)
        eye = np.eye(n)
        tilted = eye[n - 1] + 1e-12 * eye[0]
        lines = [random_rotations(n, 1, np.random.default_rng(n))[0][0], eye[n - 1], -eye[n - 1],
                 tilted / np.linalg.norm(tilted), eye[0]]
        # (0.9 - hop) * 0.0 is -0.0, so the hop along e_1 has b - a ending in -0.0
        assert math.copysign(1.0, ((0.9 - hop) * eye[0] - 0.9 * eye[0])[-1]) == -1.0
        for line in lines:
            on_line = np.array([0.9 * line, (0.9 - hop) * line])
            diff = on_line[1] - on_line[0]
            assert np.linalg.norm(diff) == pytest.approx(hop, abs=1e-15)
            shared = gamma1_link(on_line[:1], on_line[1:])[0]
            basis = _householder_rows(diff)
            assert np.max(np.abs(basis @ basis.T - np.eye(n - 1))) <= 4 * eps
            offsets = canonical_simplex(n - 1, n).points @ basis
            offsets = offsets * (beta(n) / np.linalg.norm(offsets, axis=1))[:, None]
            # a few ulp: the batched kernel may sum in another order
            assert np.max(np.abs(shared - (on_line.mean(axis=0) + offsets))) <= 4 * eps
        for hops in (1, 3, 6):
            w = _random_chain(rng, n, hops)
            shared = gamma1_link(w[:-1], w[1:])
            assert shared.shape == (hops, n, n)
            for h in range(hops):
                a, b = w[h], w[h + 1]
                x0, d = (a + b) / 2.0, (b - a) / np.linalg.norm(b - a)
                perp = x0 - (x0 @ d) * d
                u = perp / np.linalg.norm(perp)
                assert np.max(np.abs(shared[h][0] - (x0 - beta(n) * u))) <= 1e-14
                assert np.max(np.abs(np.linalg.norm(shared[h] - x0, axis=1) - beta(n))) <= 1e-14
                assert np.max(np.abs((shared[h] - x0) @ d)) <= 1e-14
                assert np.max(distance_errors(shared[h])) <= 1e-14
                for end in (a, b):
                    assert np.max(np.abs(np.linalg.norm(shared[h] - end, axis=1) - 1.0)) < 1e-12
                # one hop of (n,) points gives the same rows as its row of the stack
                set_a, set_b = _link_sets(a, b)
                assert np.array_equal(set_a.points, np.vstack([a, shared[h]]))
                assert np.array_equal(set_b.points, np.vstack([b, shared[h]]))


@pytest.mark.parametrize("failing, message", [
    ({"distance": [4], "norm": [1, 2]}, "norm 1"),      # hop 1: a's norm before b's distance
    ({"distance": [4, 2], "norm": []}, "distance 4"),   # hop 1 (b's set) before hop 2
    ({"distance": [5], "norm": [5]}, "distance 5"),     # hop 2, b's set: distance first
    ({"distance": [], "norm": []}, None),
])
def test_gamma1_links_reports_the_first_failing_hop_then_check(monkeypatch, failing, message):
    """One check_sets call re-checks a's set of every hop, then b's, as 2m
    id rows over the hops' point rows; the error raised is that of the first
    failing hop, and of its first failing check in the order a's distances,
    a's norms, b's distances, b's norms."""
    def fake(points, in_ball, tol, error, ids):
        masks = {name: np.isin(np.arange(len(ids)), rows) for name, rows in failing.items()}
        return None, None, [(masks[name], lambda i, name=name: error(f"{name} {i}"))
                            for name in ("distance", "norm")]

    monkeypatch.setattr(gamma_module, "check_sets", fake)
    w = _random_chain(np.random.default_rng(35), 3, 3)
    if message is None:
        assert gamma1_link(w[:-1], w[1:]).shape == (3, 3, 3)
        return
    with pytest.raises(ConstructionError, match=f"^{message}$"):
        gamma1_link(w[:-1], w[1:])



def test_gamma1_link_memory_is_bounded_at_n40():
    """200 hops at n = 40: one re-check pass over their 400 sets would hold
    (400, 820, 40) difference stacks, 105 MB each; check_sets' chunks keep
    the traced peak at a few of them."""
    n = 40
    a = np.zeros(n)
    a[0] = alpha(n + 1)
    A = np.tile(a, (200, 1))
    tracemalloc.start()
    try:
        shared = gamma1_link(A, -A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shared.shape == (200, n, n)
    assert peak < 32e6

@pytest.mark.parametrize("n", [2, 3, 5])
def test_gamma1_links_read_values_not_zero_signs(n):
    """Ends whose zeros differ only in sign give the same shared points, bit
    for bit, as they are one point (JSON reads "-0" back as 0).  Here b - a
    ends in -0.0 on one side and 0.0 on the other, which would choose the
    other Householder reflection."""
    hop = 2.0 * alpha(n + 1)
    for shift in (-0.1, 0.0, 0.07):
        a = np.zeros(n)
        a[0] = shift - hop / 2.0
        a[1:-1] = 0.1     # none at n = 2; the last coordinate stays 0
        b = a.copy()
        b[0] += hop
        signed_b = b.copy()
        signed_b[-1] = -0.0
        assert np.signbit((signed_b - a)[-1]) and not np.signbit((b - a)[-1])
        assert gamma1_link(a[None], signed_b[None]).tobytes() == \
            gamma1_link(a[None], b[None]).tobytes()


def test_gamma1_links_middle_hop_of_wrong_length():
    w = _random_chain(np.random.default_rng(32), 3, 3)
    bent = w.copy()
    bent[2] = w[1] + 0.9 * (w[2] - w[1])
    middle = f"||b-a||={np.linalg.norm(bent[2] - bent[1]):.12f}"
    with pytest.raises(InputError, match=re.escape(middle)):
        gamma1_link(bent[:-1], bent[1:])
    # the same hop set with an intact middle hop is accepted
    assert gamma1_link(w[:-1], w[1:]).shape == (3, 3, 3)


@pytest.mark.parametrize("n", [2, 5])
def test_gamma1_link_checks_the_hop_length_at_eps_eq(n):
    # A hop 5e-8 too long is an input error, not a failed re-check of its sets.
    a, b = _random_chain(np.random.default_rng(34), n, 1)
    hop = 2.0 * alpha(n + 1)
    far = a + (hop + 5e-8) * (b - a) / np.linalg.norm(b - a)
    with pytest.raises(InputError, match=DISTANCE + r"[0-9.]+, need [0-9.]+$"):
        gamma1_link(a, far)


def test_gamma1_links_low_clearance_hop():
    w = _random_chain(np.random.default_rng(33), 3, 2)
    p, q = _past_the_bound(3)  # clearance below beta(3), hop bound past 1 + eps_eq
    assert gamma(p, q).value < beta(3)
    with pytest.raises(InputError, match=BOUND):
        gamma1_link(np.vstack([w[:-1], p]), np.vstack([w[1:], q]))
    # the error is that of the first failing hop, whatever later hops do
    short = np.array([0.0, 0.0, 0.0]), np.array([0.5, 0.0, 0.0])
    with pytest.raises(InputError, match=BOUND):
        gamma1_link(np.vstack([p, short[0]]), np.vstack([q, short[1]]))
    with pytest.raises(InputError, match=DISTANCE):
        gamma1_link(np.vstack([short[0], p]), np.vstack([short[1], q]))


# -- boundary properties ----------------------------------------------------------

# Offsets from each boundary norm: within rounding, within eps_eq = 1e-9 and past it.
EDGE_OFFSETS = (-2e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9, 2e-9)


def hop_edge(n):
    """Norm of two points that sit one hop 2*alpha(n+1) apart on one sphere
    with clearance exactly beta(n): 1 - sqrt(r**2 - alpha**2) = beta(n)."""
    return math.sqrt(alpha(n + 1) ** 2 + (1.0 - beta(n)) ** 2)


@st.composite
def boundary_pairs(draw):
    """(n, a, b): a at the unit sphere, beta(n+1), lambda_n or hop_edge(n),
    each moved by an EDGE_OFFSETS step, in a drawn plane; b one hop away on
    a's sphere, within 2e-9 of a, or at a boundary norm of its own."""
    n = draw(st.integers(2, 5))
    e1, e2 = random_rotations(n, 1, np.random.default_rng(draw(st.integers(0, 2**32))))[0][:2]
    edges = [1.0, beta(n + 1), lambda_shell(n), hop_edge(n)]
    r = draw(st.sampled_from(edges)) + draw(st.sampled_from(EDGE_OFFSETS))
    a = r * e1
    kind = draw(st.sampled_from(["hop", "near", "free"]))
    if kind == "hop" and r >= alpha(n + 1):
        phi = 2.0 * math.asin(alpha(n + 1) / r)
        return n, a, r * (math.cos(phi) * e1 + math.sin(phi) * e2)
    if kind == "near":
        step = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 2e-9]))
        return n, a, a + step * e2
    r_b = draw(st.sampled_from(edges)) + draw(st.sampled_from(EDGE_OFFSETS))
    turn = draw(st.floats(0.0, 2.0 * math.pi))
    return n, a, r_b * (math.cos(turn) * e1 + math.sin(turn) * e2)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(boundary_pairs())
def test_boundary_pairs_link_or_fail_cleanly(pair):
    """gamma gives a finite clearance with a unit direction, and gamma1_link
    two maximal sets that pass the in-ball set re-check; or either raises
    InputError, and nothing else."""
    n, a, b = pair
    try:
        res = gamma(a, b)
    except InputError:
        pass
    else:
        assert math.isfinite(res.value) and res.value <= 1.0
        assert abs(float(np.linalg.norm(res.direction)) - 1.0) < 1e-12
    try:
        sets = _link_sets(a, b)
    except InputError:
        return
    for s in sets:
        assert s.k == n + 1
        s.validate(in_ball=True)


@st.composite
def exact_hops(draw):
    """(n, a, b): two points of the closed ball one hop 2*alpha(n+1) apart,
    n = 2..64, each end on the sphere, at the least norm that can still
    hop, or anywhere between; b on the line through a and 0 when its norm
    is the hop length minus a's."""
    n = draw(st.integers(2, 64))
    hop = 2.0 * alpha(n + 1)
    e1, e2 = random_rotations(n, 1, np.random.default_rng(draw(st.integers(0, 2**32))))[0][:2]
    r_a = draw(st.sampled_from([1.0, hop - 1.0]) | st.floats(hop - 1.0, 1.0))
    r_b = draw(st.sampled_from([1.0, hop - r_a]) | st.floats(hop - r_a, 1.0))
    cos = min(max((r_a * r_a + r_b * r_b - hop * hop) / (2.0 * r_a * r_b), -1.0), 1.0)
    return n, r_a * e1, r_b * (cos * e1 + math.sqrt(1.0 - cos * cos) * e2)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(exact_hops())
def test_hop_shared_points_stay_within_the_mean_squared_norm(pair):
    """Every shared point of a hop has squared norm at most
    (||a||**2 + ||b||**2)/2 + delta, delta = (8n + 16) * 2**-53.

    With u = 2**-53 and every length at most 1, to first order in u: the
    drawn pair is within 4u of exact hop length, which moves
    ||x0||**2 = (||a||**2 + ||b||**2)/2 - ||b - a||**2/4 by at most 4u; the
    rounded midpoint is within u of x0 (2u on its squared norm); the
    complement basis (two Gram-Schmidt passes), the rescale to beta(n) and
    the reflection leave each offset o within about 2nu of its exact
    vertex, which moves 2<x0, o> + ||o||**2 by at most
    2 * 2nu * (||x0|| + beta(n)) < 6nu; adding x0 rounds each coordinate
    (2u), and the n-term sum of squares below adds nu: (7n + 8)u < delta.
    The largest excess measured over 20000 random hops at n = 2..64 was
    2n * 2**-52, at n = 2.

    A midpoint whose part t orthogonal to b - a is at most RANK_RESIDUAL
    keeps the canonical orientation: the points there reach at most
    ||x0||**2 + beta(n)**2 + 2*beta(n)*t = mean - 1/n + 2*beta(n)*t, with
    2*beta(n)*t < 1.5e-10, far below the mean; the collinear draws
    (b on the line through a and 0) take that path."""
    n, a, b = pair
    shared = gamma1_link(a[None, :], b[None, :])[0]
    mean = (a @ a + b @ b) / 2.0
    delta = (8 * n + 16) * 2.0**-53
    assert np.max(np.sum(shared * shared, axis=1)) <= mean + delta
    x0, d = (a + b) / 2.0, (b - a) / np.linalg.norm(b - a)
    t = np.linalg.norm(x0 - (x0 @ d) * d)
    if t <= 1e-10:
        reach = mean - 1.0 / n + 2.0 * beta(n) * t
        assert np.max(np.sum(shared * shared, axis=1)) <= reach + delta
