import math
import re

import numpy as np
import pytest

from eqball.geometry import RANK_RESIDUAL, Tolerance, row_dot

from eqball import simplex
from eqball.errors import ConstructionError, InputError
from eqball.simplex import (
    EquilateralSet,
    alpha,
    beta,
    canonical_simplex,
    cap_extension,
    center,
    check_sets,
    distance_errors,
    first_failure,
    height_above_base,
    random_rotations,
    sample_maximal_set,
    sample_maximal_sets,
    simplex_on_spheres,
)
from eqball.weights import sphere_basis_set, sphere_basis_sets

# Unit regular tetrahedron written out explicitly; the measured circumradius
# is the oracle for beta(4).
TETRAHEDRON = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.5, math.sqrt(3.0) / 2.0, 0.0],
    [0.5, math.sqrt(3.0) / 6.0, math.sqrt(6.0) / 3.0],
])


def test_beta_trivial_values():
    assert beta(1) == 0.0
    assert beta(2) == 0.5
    with pytest.raises(InputError, match="^beta requires k >= 1"):
        beta(0)


def test_beta_4_against_tetrahedron_measurement():
    c = TETRAHEDRON.mean(axis=0)
    radii = np.linalg.norm(TETRAHEDRON - c, axis=1)
    assert np.max(np.abs(radii - radii[0])) < 1e-15
    # frozen from the measurement: 0.6123724356957945
    assert radii[0] == pytest.approx(0.6123724356957945, abs=1e-12)
    assert beta(4) == pytest.approx(radii[0], abs=1e-12)


def test_beta_monotone_with_limit():
    vals = [beta(k) for k in range(1, 200)]
    assert all(b2 > b1 for b1, b2 in zip(vals, vals[1:]))
    assert vals[-1] < 1.0 / math.sqrt(2.0)


def test_alpha_values_and_identity():
    assert alpha(2) == 1.0
    # apex height of the unit triangle, from explicit coordinates
    apex = np.array([0.5, math.sqrt(3.0) / 2.0])
    base_mid = np.array([0.5, 0.0])
    measured = float(np.linalg.norm(apex - base_mid))
    assert measured == pytest.approx(0.8660254037844386, abs=1e-12)
    assert alpha(3) == pytest.approx(measured, abs=1e-12)
    for m in range(2, 65):
        assert alpha(m) ** 2 + beta(m - 1) ** 2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InputError, match="^alpha requires subscript >= 2"):
        alpha(1)


def test_center_midpoint_example():
    s = EquilateralSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    st = center(s)
    assert np.allclose(st.center, [0.5, 0.0])
    assert st.radius == pytest.approx(0.5, abs=1e-12)
    assert not st.is_maximal


def test_center_radius_matches_beta():
    st = center(canonical_simplex(2, 3))
    assert st.radius == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        s = sample_maximal_set(n, int(rng.integers(2**63 - 1)))
        st = center(s)
        assert abs(st.radius - beta(s.k)) < 1e-9
        assert st.is_maximal


def test_center_rejects_invalid():
    with pytest.raises(InputError, match="^pairwise distance deviates from 1"):
        center(EquilateralSet(np.array([[0.0, 0.0], [2.0, 0.0]])))


def test_canonical_segment():
    s = canonical_simplex(1, 2)
    assert np.allclose(sorted(s.points[:, 0]), [-0.5, 0.5], atol=1e-15)


def test_canonical_triangle_centered():
    s = canonical_simplex(2, 3)
    assert s.pairwise_distance_error() < 1e-12
    assert np.allclose(s.points.mean(axis=0), 0.0, atol=1e-15)
    norms = np.linalg.norm(s.points, axis=1)
    assert np.max(np.abs(norms - math.sqrt(1.0 / 3.0))) < 1e-12


def test_canonical_large_and_errors():
    s = canonical_simplex(8, 9)
    assert s.pairwise_distance_error() < 1e-12
    with pytest.raises(InputError, match="^size 5 does not fit in R\\^3"):
        canonical_simplex(3, 5)
    with pytest.raises(InputError, match="^canonical_simplex requires k >= 1"):
        canonical_simplex(3, 0)


def test_canonical_deterministic():
    a = canonical_simplex(5, 6)
    b = canonical_simplex(5, 6)
    assert np.array_equal(a.points, b.points)


def test_distance_errors_match_pairwise_loop():
    rng = np.random.default_rng(21)
    stack = rng.uniform(-1.0, 1.0, size=(7, 5, 4))
    errs = distance_errors(stack)
    assert errs.shape == (7, 10)
    for s, row in zip(stack, errs):
        expected = [abs(float(np.linalg.norm(s[i] - s[j])) - 1.0)
                    for i in range(5) for j in range(i + 1, 5)]
        # the kernel may sum squares in another order: allow two ulps of a
        # distance up to 4, the diameter of [-1, 1]^4
        assert np.allclose(row, expected, rtol=0.0, atol=8 * np.finfo(float).eps)
    assert distance_errors(np.zeros((1, 3))).shape == (0,)


def test_check_sets_reports_each_set_and_the_first_failure():
    good = canonical_simplex(2, 3).points
    far = good.copy()
    far[0, 0] += 0.01          # one distance off
    out = good + [0.0, 0.9]    # a translate that leaves the ball
    stack = np.array([good, far, out, far])
    err, top, checks = check_sets(stack, True)
    assert np.allclose(err, [distance_errors(s).max() for s in stack], rtol=0.0, atol=1e-15)
    assert np.array_equal(top, [np.linalg.norm(s, axis=1).max() for s in stack])
    index, error = first_failure(checks)
    assert index == 1 and isinstance(error, InputError)
    assert re.match(r"^pairwise distance deviates from 1 by \d\.\d{3}e-0\d$", str(error))
    index, error = first_failure(check_sets(stack[[0, 2]], True, error=ConstructionError)[2])
    assert index == 1 and isinstance(error, ConstructionError)
    assert re.match(r"^a point has norm 1\.\d{12} > 1$", str(error))
    assert first_failure(check_sets(stack[[0, 2]], False)[2]) is None



def test_check_sets_by_ids_and_in_chunks_equals_one_pass(monkeypatch):
    """Sets given as id rows over a point table, and sets taken one per
    chunk, give the one-pass results: the same values and the same first
    failure."""
    good = canonical_simplex(2, 3).points
    far = good.copy()
    far[0, 0] += 0.01
    table = np.vstack([good, far, good + [0.0, 0.9]])
    ids = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8], [3, 4, 5], [0, 1, 2]])
    err, top, checks = check_sets(table[ids], True)
    expected = err, top, first_failure(checks)[0]
    for chunk in (simplex.CHECK_CHUNK_CELLS, 1):
        monkeypatch.setattr(simplex, "CHECK_CHUNK_CELLS", chunk)
        for got_err, got_top, got_checks in (check_sets(table, True, ids=ids),
                                             check_sets(table[ids], True)):
            assert np.array_equal(got_err, expected[0]) and np.array_equal(got_top, expected[1])
            assert first_failure(got_checks)[0] == expected[2] == 1

def test_equilateral_set_needs_points_and_coordinates():
    for pts in (np.zeros((0, 2)), np.zeros((2, 0)), np.zeros(3)):
        with pytest.raises(InputError, match=r"^an equilateral set needs a 2-D \(k, n\) point array"):
            EquilateralSet(pts)


def test_rotated_simplices_independence_and_gram():
    rng = np.random.default_rng(9)
    for n in range(2, 9):
        base = canonical_simplex(n, n + 1)
        for _ in range(150):
            rot = random_rotations(n, 1, rng)[0]
            s = EquilateralSet(base.points @ rot.T)
            diffs = s.points[1:] - s.points[0]
            gram = diffs @ diffs.T
            expected = (1.0 + np.eye(s.k - 1)) / 2.0
            assert np.max(np.abs(gram - expected)) < 1e-9


def test_cap_extension_unit_radius_pole():
    comps = cap_extension(np.zeros(3), 1.0)
    assert comps.k == 3
    assert np.max(np.abs(np.linalg.norm(comps.points, axis=1) - 1.0)) < 1e-12
    full = EquilateralSet(np.vstack([np.zeros(3), comps.points]))
    assert full.pairwise_distance_error() < 1e-12


def test_cap_extension_at_minimal_radius():
    # rho = beta(2): the apex sits at height alpha(3) and the two companions
    # stay in the plane orthogonal to it.
    rho = beta(2)
    x = np.array([0.0, height_above_base(2, rho)])
    comps = cap_extension(x, rho)
    assert np.max(np.abs(np.linalg.norm(comps.points, axis=1) - rho)) < 1e-12
    assert np.max(np.abs(comps.points @ x)) < 1e-12


def test_cap_extension_generic():
    x = np.array([height_above_base(3, 0.8), 0.0, 0.0])
    comps = cap_extension(x, 0.8)
    assert np.max(np.abs(np.linalg.norm(comps.points, axis=1) - 0.8)) < 1e-9
    assert np.max(np.abs(np.linalg.norm(comps.points - x, axis=1) - 1.0)) < 1e-9
    full = EquilateralSet(np.vstack([x, comps.points]))
    assert full.pairwise_distance_error() < 1e-9
    assert full.max_norm() <= 1.0 + 1e-9


def test_cap_extension_errors():
    with pytest.raises(InputError, match=r"^rho=0\.3 outside "):
        cap_extension(np.array([0.1, 0.0]), 0.3)
    with pytest.raises(InputError, match=r"^norm\(x\)=.* but the height for rho="):
        cap_extension(np.array([0.5, 0.0]), 0.9)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_cap_extension_checks_the_apex_at_eps_eq(n):
    # An apex the norm check admits must pass the eps_eq re-check of the set:
    # one off by 5e-9 is an input error, one off by 5e-10 is extended.
    rho = (beta(n) + 1.0) / 2.0
    x = np.zeros(n)
    x[0] = height_above_base(n, rho)
    with pytest.raises(InputError, match=r"^norm\(x\)=.* but the height for rho="):
        cap_extension(x + 5e-9 * np.eye(n)[0], rho)
    near = x + 5e-10 * np.eye(n)[0]
    full = EquilateralSet(np.vstack([near, cap_extension(near, rho).points]))
    assert full.pairwise_distance_error() <= 1e-9


def test_cap_extension_at_a_loose_tolerance():
    loose = Tolerance(eps_eq=2e-5)
    x = np.array([height_above_base(3, 0.8), 0.0, 0.0])
    comps = cap_extension(x, 0.8, loose)
    assert np.max(np.abs(np.linalg.norm(comps.points - x, axis=1) - 1.0)) < 1e-9


def test_cap_extension_rechecks_the_distance_to_x(monkeypatch):
    x = np.array([height_above_base(3, 0.8), 0.0, 0.0])
    moved = lambda *args: simplex_on_spheres(*args) + [1e-6, 0.0, 0.0]  # noqa: E731
    monkeypatch.setattr(simplex, "simplex_on_spheres", moved)
    with pytest.raises(ConstructionError, match="^pairwise distance deviates from 1 by "):
        cap_extension(x, 0.8)


def test_recheck_reports_a_construction_error_with_the_validate_message():
    bad = EquilateralSet(np.array([[0.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(InputError, match="^pairwise distance deviates from 1 by "):
        bad.validate()
    with pytest.raises(ConstructionError, match="^pairwise distance deviates from 1 by "):
        bad.recheck()
    outside = EquilateralSet(np.array([[1.5, 0.0]]))
    outside.recheck()
    with pytest.raises(ConstructionError, match="^a point has norm 1.5"):
        outside.recheck(in_ball=True)


def test_sample_maximal_set_postconditions():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        s = sample_maximal_set(n, int(rng.integers(2**63 - 1)))
        assert s.k == n + 1
        assert s.pairwise_distance_error() < 1e-9
        assert s.max_norm() <= 1.0
        assert float(np.linalg.norm(s.points.mean(axis=0))) <= beta(n + 1) + 1e-9


def test_sample_maximal_set_is_deterministic():
    a = sample_maximal_set(4, 123)
    b = sample_maximal_set(4, 123)
    assert np.array_equal(a.points, b.points)


def reference_rotation(n, rng):
    """Haar rotation of one Gaussian matrix, drawn and orthogonalized alone."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def reference_sample(n, seed):
    """The per-sample sampler: one generator, one set, one attempt at a time."""
    rng = np.random.default_rng(seed)
    base = canonical_simplex(n, n + 1).points @ reference_rotation(n, rng).T
    radius = beta(n + 1)
    while True:
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        shift = direction * radius * rng.uniform() ** (1.0 / n)
        pts = base + shift
        if float(np.max(np.linalg.norm(pts, axis=1))) <= 1.0:
            return pts


def reference_sphere_basis(n, seed):
    rows = reference_rotation(n, np.random.default_rng(seed))
    return rows / (np.linalg.norm(rows, axis=1)[:, None] * math.sqrt(2.0))


SEEDS = list(range(30)) + [2**63 - 2, 8_675_309_000_000_000_001]


@pytest.mark.parametrize("n", range(2, 11))
def test_batched_sampler_equals_the_per_sample_reference(n):
    """One set per seed is the per-sample reference bit for bit; every set
    of a batch from one generator has norms at most 1 exactly, unit
    distances and its centre within beta(n+1); the batch is deterministic
    and may be empty."""
    for seed in SEEDS:
        assert np.array_equal(sample_maximal_set(n, seed).points, reference_sample(n, seed))
    batch = sample_maximal_sets(n, len(SEEDS), np.random.default_rng(n))
    assert batch.shape == (len(SEEDS), n + 1, n)
    for pts in batch:
        s = EquilateralSet(pts)
        assert s.max_norm() <= 1.0
        assert s.pairwise_distance_error() < 1e-9
        assert float(np.linalg.norm(pts.mean(axis=0))) <= beta(n + 1) + 1e-9
    again = sample_maximal_sets(n, len(SEEDS), np.random.default_rng(n))
    assert np.array_equal(batch, again)
    empty = sample_maximal_sets(n, 0, np.random.default_rng(n))
    assert empty.shape == (0, n + 1, n)


@pytest.mark.parametrize("n", range(2, 11))
def test_batched_sphere_bases_equal_the_per_sample_reference(n):
    """One basis per seed is the per-sample reference bit for bit; a batch
    from one generator holds orthogonal rows of norm 1/sqrt(2), is
    deterministic, and may be empty."""
    for seed in SEEDS:
        assert np.array_equal(sphere_basis_set(n, seed), reference_sphere_basis(n, seed))
    batch = sphere_basis_sets(n, len(SEEDS), np.random.default_rng(n))
    assert batch.shape == (len(SEEDS), n, n)
    for rows in batch:
        assert EquilateralSet(rows).pairwise_distance_error() < 1e-9
        assert np.max(np.abs(rows @ rows.T - np.eye(n) / 2.0)) < 1e-12
    assert np.array_equal(batch, sphere_basis_sets(n, len(SEEDS), np.random.default_rng(n)))
    assert sphere_basis_sets(n, 0, np.random.default_rng(n)).shape == (0, n, n)


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical distribution functions of `a` and `b`."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    gap = (np.searchsorted(a, grid, side="right") / a.size
           - np.searchsorted(b, grid, side="right") / b.size)
    return float(np.max(np.abs(gap)))


def ks_critical(m: int, k: int, level: float = 1e-3) -> float:
    """Asymptotic critical value of the two-sample statistic at `level`."""
    return math.sqrt(-math.log(level / 2.0) / 2.0) * math.sqrt((m + k) / (m * k))


def test_ks_statistic_on_known_samples():
    assert ks_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ks_statistic([1.0, 2.0], [3.0, 4.0]) == 1.0
    assert ks_statistic([1.0, 2.0, 3.0, 4.0], [2.5, 10.0]) == 0.5
    assert ks_critical(2000, 2000) == pytest.approx(0.0616, abs=1e-4)


@pytest.mark.parametrize("n", [3, 8])
def test_batched_sampler_keeps_the_law_of_the_per_sample_reference(n):
    """Shared rejection rounds leave the law of a sampled set as it was: the
    centre norm and the first vertex's first coordinate of 2000 batched sets
    and of 2000 per-seed reference sets pass a two-sample KS test at 0.1%."""
    count = 2000
    batch = sample_maximal_sets(n, count, np.random.default_rng(1000 + n))
    ref = np.array([reference_sample(n, seed) for seed in range(count)])
    critical = ks_critical(count, count)
    for stat in (lambda sets: np.linalg.norm(sets.mean(axis=1), axis=-1),
                 lambda sets: sets[:, 0, 0]):
        assert ks_statistic(stat(batch), stat(ref)) < critical


def reference_batch(n, count, rng):
    """The batch sampler with full per-proposal norms: every round forms all
    vertices of every proposal and tests np.linalg.norm of each."""
    base = canonical_simplex(n, n + 1).points @ random_rotations(n, count, rng).transpose(0, 2, 1)
    radius = beta(n + 1)
    out = np.empty_like(base)
    todo = np.arange(count)
    while todo.size:
        shift = rng.standard_normal((todo.size, count // todo.size, n))
        draws = rng.random(shift.shape[:2])
        scale = np.array([u ** (1.0 / n) for u in draws.ravel().tolist()]).reshape(draws.shape)
        shift /= np.sqrt(row_dot(shift, shift))[..., None]
        shift = (shift * radius) * scale[..., None]
        pts = base[todo, None] + shift[:, :, None, :]
        inside = np.linalg.norm(pts, axis=-1).max(axis=-1) <= 1.0
        hit = inside.any(axis=1)
        out[todo[hit]] = pts[hit, inside[hit].argmax(axis=1)]
        todo = todo[~hit]
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_batches_equal_the_full_norm_reference(n):
    """The Gram test with exact norms near 1 accepts exactly the proposals
    the full per-vertex norms accept, so every batch is the reference's bit
    for bit, and every set has norms at most 1.0 exactly."""
    for count in (1, 5, 200):
        for seed in range(10):
            batch = sample_maximal_sets(n, count, np.random.default_rng(seed))
            assert np.array_equal(batch, reference_batch(n, count, np.random.default_rng(seed)))
            assert np.linalg.norm(batch, axis=-1).max() <= 1.0


def boundary_shifts(vertices, k, rng, ulps):
    """k unit directions per set, each scaled to the length at which its
    first vertex reaches the unit sphere, then moved by up to `ulps` ulps."""
    d = rng.standard_normal((vertices.shape[0], k, vertices.shape[-1]))
    d /= np.linalg.norm(d, axis=-1)[..., None]
    vd = np.einsum("pin,pkn->pki", vertices, d)
    vv = np.einsum("pin,pin->pi", vertices, vertices)[:, None, :]
    reach = (np.sqrt(vd * vd + 1.0 - vv) - vd).min(axis=-1)
    steps = rng.integers(-ulps, ulps + 1, size=reach.shape)
    return d * (reach * (1.0 + steps * np.finfo(float).eps))[..., None]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 16])
def test_in_ball_decides_as_the_exact_norms_at_the_boundary(n):
    """Shifts within a few ulps of the unit sphere and shifts of length up
    to 1e9 get the verdict of np.linalg.norm(v + t, axis=-1).max() <= 1.0,
    at the slack gram_slack derives; the Gram bound alone, at slack 0,
    misjudges some of the boundary shifts."""
    rng = np.random.default_rng(70 + n)
    vertices = canonical_simplex(n, n + 1).points @ random_rotations(n, 40, rng).transpose(0, 2, 1)
    rows = simplex._gram_rows(vertices)
    near = boundary_shifts(vertices, 50, rng, 16)
    far = rng.standard_normal(near.shape) * 1e9 * rng.random(near.shape[:2] + (1,)) ** 3
    for shifts, radius in ((near, None), (near, 1e9), (np.concatenate([near, far], axis=1), 1e9)):
        exact = np.linalg.norm(vertices[:, None] + shifts[:, :, None, :], axis=-1).max(axis=-1) <= 1.0
        slack = simplex.gram_slack(n, beta(n + 1) if radius is None else radius)
        assert np.array_equal(simplex._in_ball(vertices, rows, shifts, slack), exact)
        assert exact.any() and not exact.all()
    exact = np.linalg.norm(vertices[:, None] + near[:, :, None, :], axis=-1).max(axis=-1) <= 1.0
    assert not np.array_equal(simplex._in_ball(vertices, rows, near, 0.0), exact)


def test_a_slack_covering_every_proposal_gives_the_same_batches(monkeypatch):
    """With every proposal sent to the exact norms the batches stay the same."""
    grid = [(n, count, seed) for n in (1, 3, 8) for count in (1, 200) for seed in range(6)]
    fast = [sample_maximal_sets(n, count, np.random.default_rng(seed)) for n, count, seed in grid]
    monkeypatch.setattr(simplex, "gram_slack", lambda n, radius: math.inf)
    for (n, count, seed), batch in zip(grid, fast):
        assert np.array_equal(sample_maximal_sets(n, count, np.random.default_rng(seed)), batch)


def test_sampling_failure_after_the_last_round(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_SAMPLE_ATTEMPTS", 0)
    with pytest.raises(ConstructionError, match="^no in-ball sample after 0 attempts"):
        sample_maximal_sets(3, 3, np.random.default_rng(1))
    with pytest.raises(ConstructionError, match="^no in-ball sample after 0 attempts"):
        sample_maximal_set(3, 5)
    assert sample_maximal_sets(3, 0, np.random.default_rng(1)).shape == (0, 4, 3)
    # a round that places the last pending set ends the sampling, also when
    # it is the last round allowed: at n = 1 the vertices sit at +-1/2 and a
    # translation is at most beta(2) = 1/2 long, so every proposal lands
    monkeypatch.setattr(simplex, "MAX_SAMPLE_ATTEMPTS", 1)
    assert sample_maximal_sets(1, 3, np.random.default_rng(1)).shape == (3, 2, 1)
    assert sample_maximal_set(1, 5).k == 2


def _householder_rows(v):
    """Rows 0..n-2 of I - 2*h*h^T/(h^T h), h = v/||v|| + copysign(1, v[-1])*e[-1]:
    an orthonormal basis of the complement of v."""
    h = v / np.linalg.norm(v)
    h[-1] += math.copysign(1.0, h[-1])
    return np.eye(len(v))[:-1] - np.outer(h[:-1] * (2.0 / (h @ h)), h)


def _turned_by_subset(centers, normals, radius):
    """simplex_on_spheres with the orthogonal map applied to the rows with
    t > RANK_RESIDUAL alone, gathered by index and scattered back into
    canonical vertices: the reference the kernel equals bit for bit."""
    n = normals.shape[1]
    h = normals / np.sqrt(row_dot(normals, normals))[:, None]
    h[:, -1] += np.copysign(1.0, h[:, -1])
    complements = (np.eye(n)[:-1]
                   - (h[:, :-1] * (2.0 / row_dot(h, h))[:, None])[:, :, None] * h[:, None, :])
    vertices = base = canonical_simplex(n - 1, n).points
    local = (complements @ centers[:, :, None])[..., 0]
    t = np.sqrt(row_dot(local, local))
    turn = (t > RANK_RESIDUAL).nonzero()[0]
    if turn.size:
        u = local[turn] / t[turn, None]
        sign = np.copysign(1.0, u @ base[0])[:, None]
        w = base[0] / beta(n) + sign * u
        along = (base @ w[..., None]) * (2.0 / row_dot(w, w))[:, None, None]
        vertices = np.repeat(base[None], len(centers), axis=0)
        vertices[turn] = sign[..., None] * (base - along * w[:, None, :])
    offsets = vertices @ complements
    offsets *= (radius / np.linalg.norm(offsets, axis=-1))[..., None]
    return centers[:, None, :] + offsets


def test_simplex_on_spheres_turns_mixed_rows_as_the_subset_reference():
    """Rows with t > RANK_RESIDUAL and rows without (centers at 0, on the
    normal's line, or 1e-11 off it), interleaved in one call, in calls of one
    kind and row by row, equal the reference bit for bit."""
    rng = np.random.default_rng(25)
    for n in range(2, 10):
        normals = rng.standard_normal((24, n))
        centers = 0.4 * rng.standard_normal((24, n))
        kind = np.arange(24) % 4
        centers[kind == 1] = 0.0
        centers[kind == 2] = rng.standard_normal((6, 1)) * normals[kind == 2]
        centers[kind == 3] = rng.standard_normal((6, 1)) * normals[kind == 3]
        centers[kind == 3, 0] += 1e-11
        turned = simplex_on_spheres(centers, normals, beta(n))
        assert np.array_equal(turned, _turned_by_subset(centers, normals, beta(n)))
        for rows in (kind == 0, kind != 0, slice(None, None, -1)):
            assert np.array_equal(simplex_on_spheres(centers[rows], normals[rows], beta(n)),
                                  turned[rows])
        for i in range(24):
            assert np.array_equal(simplex_on_spheres(centers[i:i + 1], normals[i:i + 1], beta(n)),
                                  turned[i:i + 1])


def test_simplex_on_spheres_matches_the_complement_construction():
    """Centers on the normal's line get canonical_simplex carried into the
    Householder rows of the normal, which are orthonormal to 4 ulp; other
    centers have vertex 0 at center - radius*u, u the unit part of the
    center orthogonal to the normal, and every other vertex v at
    <center, v - center> = radius*t/(n-1), t that part's length.  Normals
    include +-e_n, one with a -0.0 last coordinate and one 1e-12 off e_n;
    centers 1e-9 off the normal's line keep every vertex in the
    hyperplane."""
    rng = np.random.default_rng(12)
    eps = np.finfo(float).eps
    for n in range(2, 8):
        eye = np.eye(n)
        normals = [rng.standard_normal(n) for _ in range(6)]
        normals += [eye[0], -eye[n - 1], eye[n // 2] + 1e-12 * eye[0], eye[n - 1],
                    eye[n - 1] + 1e-12 * eye[0], np.append(rng.standard_normal(n - 1), -0.0)]
        normals = np.array(normals)
        units = normals / np.linalg.norm(normals, axis=1)[:, None]
        on_line = rng.standard_normal((len(normals), 1)) * normals
        sideways = rng.standard_normal(normals.shape)
        for _ in range(2):
            sideways -= np.sum(sideways * units, axis=1)[:, None] * units
        sideways /= np.linalg.norm(sideways, axis=1)[:, None]
        off_line = 0.3 * rng.standard_normal(normals.shape)
        centers = np.concatenate([on_line, on_line + 1e-9 * sideways, off_line])
        out = simplex_on_spheres(centers, np.tile(normals, (3, 1)), beta(n))
        assert out.shape == (3 * len(normals), n, n)
        assert np.array_equal(out, _turned_by_subset(centers, np.tile(normals, (3, 1)), beta(n)))
        for i, (c, pts) in enumerate(zip(centers, out)):
            v = normals[i % len(normals)]
            assert np.max(distance_errors(pts)) < 1e-12
            assert np.max(np.abs((pts - c) @ v)) < 1e-12 * np.linalg.norm(v)
            assert np.max(np.abs(np.linalg.norm(pts - c, axis=1) - beta(n))) < 1e-14
            if i < len(normals):
                basis = _householder_rows(v)
                assert np.max(np.abs(basis @ basis.T - np.eye(n - 1))) <= 4 * eps
                offsets = canonical_simplex(n - 1, n).points @ basis
                offsets = offsets * (beta(n) / np.linalg.norm(offsets, axis=1))[:, None]
                # a few ulp: the kernel may sum its dot products in another order
                assert np.max(np.abs(pts - (c + offsets))) <= 4 * eps
                continue
            unit = units[i % len(normals)]
            perp = c - (c @ unit) * unit
            perp -= (perp @ unit) * unit
            t = np.linalg.norm(perp)
            reach = (pts - c) @ perp
            slack = 4e-15 * np.linalg.norm(c)
            assert reach[0] == pytest.approx(-beta(n) * t, abs=slack)
            assert np.max(np.abs(reach[1:] - beta(n) * t / (n - 1))) < slack
            if i >= 2 * len(normals):
                assert np.max(np.abs(pts[0] - (c - beta(n) * perp / t))) < 1e-14


def test_simplex_on_spheres_rejects_a_zero_normal():
    with pytest.raises(InputError, match="^a normal vector is zero"):
        simplex_on_spheres(np.zeros((1, 3)), np.zeros((1, 3)), beta(3))
