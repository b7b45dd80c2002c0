import math
import re

import numpy as np
import pytest

from eqball.errors import InputError
from eqball.gamma import gamma, gamma1_link, gamma1_links, gamma_bruteforce
from eqball.geometry import Frame, orthonormal_complement, orthonormalize, section2d
from eqball.simplex import alpha, beta, canonical_simplex, random_rotations


# Messages of the two linking-move preconditions, hop length and clearance.
DISTANCE = r"^\|\|b-a\|\|="
CLEARANCE = r"^clearance .* below beta_n="


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
    set_a, set_b = gamma1_link(a, b)
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
        set_a, set_b = gamma1_link(a, b)
        shared = set_a.points[1:]
        assert np.max(np.abs(np.linalg.norm(shared, axis=1) - beta(n))) < 1e-9
        assert np.max(np.abs(shared @ direction)) < 1e-9
        assert set_a.k == n + 1 and set_b.k == n + 1


def test_gamma1_link_preconditions():
    with pytest.raises(InputError, match=DISTANCE):
        gamma1_link(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    # Two boundary points of the 3-ball at hop distance: their midpoint has
    # clearance 1 - beta(3) < beta(3), so the linking move must refuse.
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([-1.0 / 3.0, math.sqrt(8.0) / 3.0, 0.0])
    assert np.linalg.norm(p - q) == pytest.approx(2 * alpha(4), abs=1e-12)
    assert gamma(p, q).value == pytest.approx(1.0 - beta(3), abs=1e-12)
    with pytest.raises(InputError, match=CLEARANCE):
        gamma1_link(p, q)


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


def test_gamma1_links_rows_are_the_paper_construction():
    """Each row rebuilt on its own: a regular simplex of radius beta(n) around
    the hop's midpoint, in the hyperplane orthogonal to b - a."""
    rng = np.random.default_rng(31)
    eps = np.finfo(float).eps
    for n in range(2, 7):
        for hops in (1, 3, 6):
            w = _random_chain(rng, n, hops)
            shared = gamma1_links(w[:-1], w[1:])
            assert shared.shape == (hops, n, n)
            for h in range(hops):
                a, b = w[h], w[h + 1]
                basis = orthonormal_complement([b - a], n).basis
                offsets = canonical_simplex(n - 1, n).points @ basis
                offsets = offsets * (beta(n) / np.linalg.norm(offsets, axis=1))[:, None]
                # a few ulp: the batched kernel may sum in another order
                assert np.max(np.abs(shared[h] - ((a + b) / 2.0 + offsets))) <= 4 * eps
                for end in (a, b):
                    assert np.max(np.abs(np.linalg.norm(shared[h] - end, axis=1) - 1.0)) < 1e-12
                # the one-hop wrapper returns the same rows around its endpoints
                set_a, set_b = gamma1_link(a, b)
                assert np.array_equal(set_a.points, np.vstack([a, shared[h]]))
                assert np.array_equal(set_b.points, np.vstack([b, shared[h]]))


def test_gamma1_links_middle_hop_of_wrong_length():
    w = _random_chain(np.random.default_rng(32), 3, 3)
    bent = w.copy()
    bent[2] = w[1] + 0.9 * (w[2] - w[1])
    middle = f"||b-a||={np.linalg.norm(bent[2] - bent[1]):.12f}"
    with pytest.raises(InputError, match=re.escape(middle)):
        gamma1_links(bent[:-1], bent[1:])
    # the same hop set with an intact middle hop is accepted
    assert gamma1_links(w[:-1], w[1:]).shape == (3, 3, 3)


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
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([-1.0 / 3.0, math.sqrt(8.0) / 3.0, 0.0])  # clearance 1 - beta(3)
    with pytest.raises(InputError, match=CLEARANCE):
        gamma1_links(np.vstack([w[:-1], p]), np.vstack([w[1:], q]))
    # the error is that of the first failing hop, whatever later hops do
    short = np.array([0.0, 0.0, 0.0]), np.array([0.5, 0.0, 0.0])
    with pytest.raises(InputError, match=CLEARANCE):
        gamma1_links(np.vstack([p, short[0]]), np.vstack([q, short[1]]))
    with pytest.raises(InputError, match=DISTANCE):
        gamma1_links(np.vstack([short[0], p]), np.vstack([short[1], q]))
