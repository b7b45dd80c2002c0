import dataclasses
import json
import math
import re
import time
from collections import Counter

import numpy as np
import pytest

from eqball import certify
from eqball.certify import (
    OUTER,
    Certificate,
    _Builder,
    _Generator,
    _closing_fragment,
    _dumps,
    _point_key,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    constant_lemma_relation,
    generate_equality_certificate,
    theorem_step_relation,
)
from eqball.errors import GenerationFailure, InputError, MalformedCertificate
from eqball.gamma import gamma1_link
from eqball.geometry import DEFAULT_TOL, Tolerance
from eqball.simplex import EquilateralSet, alpha, beta
from eqball.verify import _ball_point, _feasible_assignments
from eqball.weights import eta, lambda_shell, mu, nu


# -- step relation ------------------------------------------------------------


def test_step_and_lemma_at_a_loose_tolerance():
    loose = dataclasses.replace(DEFAULT_TOL, eps_eq=2e-5)
    rel = theorem_step_relation(np.array([0.83, 0.0]), 0.85, 2, loose)
    assert np.allclose(rel.v, [-0.17, 0.0], atol=1e-12)
    full, companions = constant_lemma_relation(np.array([0.0, 0.1, 0.0]), 0.8, 3, loose)
    assert full.pairwise_distance_error() < 1e-9


@pytest.mark.parametrize("x", [[0.7290110457871478, 0.0], [0.8713743979933785, 0.0, 0.0, 0.0, 0.0]],
                         ids=["n2", "n5"])
def test_small_eps_matches_bands_inside_the_step_window(x):
    """A norm 3e-10 below a schedule radius: at eps_eq = 1e-10 the band edge
    slack must stay within the 2*eps_eq that theorem_step_relation admits."""
    tol = Tolerance(1e-10)
    x = np.array(x)
    y = np.zeros(x.size)
    y[0] = 0.97
    cert = generate_equality_certificate(x, y, x.size, tol)
    assert check_certificate(cert, tol).accepted


def test_step_endpoint_norm_of_v():
    rho0 = 0.85
    rel = theorem_step_relation(np.array([0.85, 0.0]), rho0, 2)
    assert np.allclose(rel.v, [-0.15, 0.0], atol=1e-12)
    assert float(np.linalg.norm(rel.v)) == pytest.approx(1 - rho0, abs=1e-12)


def test_step_compliant_interior_case():
    rho0 = 0.85
    lo = mu(2, rho0)
    u = np.array([0.83, 0.0])
    assert lo <= 0.83 <= rho0
    rel = theorem_step_relation(u, rho0, 2)
    assert np.allclose(rel.v, [-0.17, 0.0], atol=1e-12)
    w = (rel.u + rel.v) / 2
    for x in rel.companions:
        assert float(np.linalg.norm(x - w)) ** 2 == pytest.approx(0.75, abs=1e-12)
        assert float(np.linalg.norm(x)) ** 2 == pytest.approx(0.75 + (0.83 - 0.5) ** 2, abs=1e-12)
        assert float(np.linalg.norm(x)) >= rho0 - 1e-9
    assert rel.set.pairwise_distance_error() < 1e-9
    assert rel.set.max_norm() <= 1 + 1e-9


def test_step_rejects_u_below_window():
    # mu_2(0.85) ~ 0.8214, so ||u|| = 0.8 is outside the admissible window
    assert mu(2, 0.85) > 0.8
    with pytest.raises(InputError, match=r"^\|\|u\|\|=.* outside the step window "):
        theorem_step_relation(np.array([0.8, 0.0]), 0.85, 2)


def test_step_and_lemma_range_check_their_radius():
    # rho_max for n = 2 is mu_inverse(lambda_shell(2)), about 0.8799
    with pytest.raises(InputError, match=r"^rho0=0\.95 outside \[0\.5, 0\.87\d*\]$"):
        theorem_step_relation(np.array([0.9, 0.0]), 0.95, 2)
    with pytest.raises(InputError, match=r"^rho0=0\.2 outside \[0\.5, 1\.0\]$"):
        constant_lemma_relation(np.array([0.1, 0.0]), 0.2, 2)


def test_step_companion_window_across_dimensions():
    rng = np.random.default_rng(14)
    for n in (2, 3, 4):
        lam = lambda_shell(n)
        for _ in range(25):
            rho0 = rng.uniform(beta(n + 1), lam)
            s = rng.uniform(mu(n, rho0), rho0)
            direction = rng.standard_normal(n)
            direction /= np.linalg.norm(direction)
            rel = theorem_step_relation(s * direction, rho0, n)
            assert float(np.min(np.linalg.norm(rel.companions, axis=1))) >= rho0 - 1e-7
            assert float(np.linalg.norm(rel.v)) <= eta(n, rho0) + 1e-9
            assert float(np.linalg.norm(rel.v)) >= 1 - rho0 - 1e-9


# -- constant lemma relation ---------------------------------------------------


def test_lemma_relation_origin_companions_on_sphere():
    full, companions = constant_lemma_relation(np.zeros(3), 0.8, 3)
    assert full.k == 4
    assert np.max(np.abs(np.linalg.norm(companions, axis=1) - 1.0)) < 1e-9


def test_lemma_relation_fixed_point_case():
    b3 = beta(3)
    z = np.array([b3, 0.0])
    full, companions = constant_lemma_relation(z, b3, 2)
    assert np.max(np.abs(np.linalg.norm(companions, axis=1) - b3)) < 1e-9
    assert full.pairwise_distance_error() < 1e-9


def test_lemma_relation_generic_bisection():
    z = np.array([0.1, 0.0, 0.0])
    full, companions = constant_lemma_relation(z, 0.8, 3)
    rho = float(np.linalg.norm(companions[0]))
    assert np.max(np.abs(np.linalg.norm(companions, axis=1) - rho)) < 1e-9
    assert rho >= 0.8 - 1e-12
    assert eta(3, rho) == pytest.approx(0.1, abs=1e-10)
    assert full.max_norm() <= 1 + 1e-9


def test_lemma_radius_is_exact():
    # The companions sit at the radius rho whose apex height eta(rho) is ||z||.
    for n in range(2, 11):
        for s in np.linspace(0.0, beta(n + 1), 25, endpoint=False):
            z = np.zeros(n)
            z[-1] = s
            _, companions = constant_lemma_relation(z, beta(n + 1), n)
            worst = max(abs(eta(n, float(r)) - s) for r in np.linalg.norm(companions, axis=1))
            assert worst <= 1e-14, (n, s, worst)


def test_lemma_relation_rejects_far_point():
    with pytest.raises(InputError, match=r"^\|\|z\|\|=.* exceeds eta\(rho0\)="):
        constant_lemma_relation(np.array([0.5, 0.0]), 0.95, 2)


# -- checker ------------------------------------------------------------------


def test_checker_accepts_gamma1_pair():
    a3 = alpha(3)
    a = np.array([0.02, -a3])
    b = np.array([0.02, a3])
    set_a, set_b = gamma1_link(a, b)
    points = np.vstack([a, b, set_a.points[1:]])
    cert = Certificate(n=2, points=points, sets=[(0, 2, 3), (1, 2, 3)], claim=(0, 1))
    report = check_certificate(cert)
    assert report.accepted
    assert report.residual < 1e-12


def test_checker_rejects_perturbed_point():
    a3 = alpha(3)
    set_a, set_b = gamma1_link(np.array([0.02, -a3]), np.array([0.02, a3]))
    points = np.vstack([set_a.points[0], set_b.points[0], set_a.points[1:]])
    points[2, 0] += 1e-3
    cert = Certificate(n=2, points=points, sets=[(0, 2, 3), (1, 2, 3)], claim=(0, 1))
    report = check_certificate(cert)
    assert not report.accepted
    assert report.failure == "SetInvalid"
    assert report.detail["set_index"] == 0


def test_checker_rejects_non_shared_claim():
    a3 = alpha(3)
    set_a, _ = gamma1_link(np.array([0.02, -a3]), np.array([0.02, a3]))
    cert = Certificate(n=2, points=set_a.points, sets=[(0, 1, 2)], claim=(0, 1))
    report = check_certificate(cert)
    assert not report.accepted
    assert report.failure == "ClaimNotImplied"
    assert report.residual > 1e-3


def test_checker_malformed():
    cert = Certificate(n=2, points=np.zeros((2, 2)), sets=[(0, 1)], claim=(0, 1))
    report = check_certificate(cert)
    assert report.failure == "MalformedCertificate"


def test_checker_reflexive_claim():
    cert = Certificate(n=2, points=np.array([[0.1, 0.2]]), sets=[], claim=(0, 0))
    report = check_certificate(cert)
    assert report.accepted and report.residual == 0.0


def test_checker_is_permutation_invariant():
    rng = np.random.default_rng(33)
    cert = generate_equality_certificate(np.array([0.2, 0.3]), np.array([0.7, -0.4]), 2)
    relabel = rng.permutation(cert.points.shape[0])  # old id -> new id
    new_points = np.empty_like(cert.points)
    new_points[relabel] = cert.points
    shuffled_sets = [tuple(int(relabel[i]) for i in s) for s in cert.sets]
    rng.shuffle(shuffled_sets)
    shuffled = Certificate(
        n=2,
        points=new_points,
        sets=shuffled_sets,
        claim=(int(relabel[cert.claim[0]]), int(relabel[cert.claim[1]])),
    )
    assert check_certificate(shuffled).accepted


# -- generator ----------------------------------------------------------------


def test_generate_reflexive():
    x = np.array([0.3, -0.2, 0.1])
    cert = generate_equality_certificate(x, x.copy(), 3)
    assert cert.sets == []
    assert cert.claim[0] == cert.claim[1]
    assert check_certificate(cert).accepted


def test_generate_shell_pair_uses_only_links():
    lam = lambda_shell(2)
    x = np.array([0.9, 0.0])
    y = np.array([0.0, 0.9])
    assert min(np.linalg.norm(x), np.linalg.norm(y)) >= lam
    cert = generate_equality_certificate(x, y, 2)
    report = check_certificate(cert)
    assert report.accepted and report.residual < 1e-8
    # pure link chains: sets arrive in pairs sharing exactly n points
    assert len(cert.sets) % 2 == 0
    for i in range(0, len(cert.sets), 2):
        shared = set(cert.sets[i]) & set(cert.sets[i + 1])
        assert len(shared) == 2


def test_generate_mixed_regions_all_stages():
    cert = generate_equality_certificate(np.zeros(3), np.array([0.95, 0.0, 0.0]), 3)
    report = check_certificate(cert)
    assert report.accepted
    assert report.residual < 1e-8
    assert len(cert.sets) <= 5000
    assert "epsilon" in cert.generator_params
    assert len(cert.generator_params["shell_rho_schedule"]) >= 2


def test_generate_schedule_matches_contract():
    for n in (2, 3, 4):
        cert = generate_equality_certificate(np.zeros(n), np.full(n, 0.9 / math.sqrt(n)), n)
        eps = cert.generator_params["epsilon"]
        lam = lambda_shell(n)
        assert eps < min(nu(n, lam), beta(n + 1) - beta(n))
        schedule = cert.generator_params["shell_rho_schedule"]
        assert schedule[-1] <= beta(n + 1)
        assert all(r1 > r2 for r1, r2 in zip(schedule, schedule[1:]))
        for r1, r2 in zip(schedule, schedule[1:]):
            assert r1 - r2 >= nu(n, lam) - eps - 1e-12
        assert schedule[0] == pytest.approx(
            float(np.clip(schedule[0], lam, 1.0)), abs=1e-9)  # starts above lambda
        assert mu(n, schedule[0]) == pytest.approx(lam - eps, abs=1e-9)


def test_generate_deterministic():
    x = np.array([0.4, 0.1, -0.3])
    y = np.array([-0.2, 0.6, 0.0])
    c1 = generate_equality_certificate(x, y, 3)
    c2 = generate_equality_certificate(x, y, 3)
    assert certificate_to_json(c1) == certificate_to_json(c2)


def test_generate_rejects_outside_ball():
    with pytest.raises(InputError, match="^certificate endpoints must lie in the closed unit ball"):
        generate_equality_certificate(np.array([1.2, 0.0]), np.array([0.0, 0.0]), 2)


def test_generate_endpoint_check_uses_the_callers_tolerance():
    tight = dataclasses.replace(DEFAULT_TOL, eps_eq=1e-11)
    x = np.array([1.0 + 5e-10, 0.0])
    with pytest.raises(InputError, match="closed unit ball"):
        generate_equality_certificate(x, np.zeros(2), 2, tight)
    # and a looser tolerance admits an endpoint just outside the ball
    loose = dataclasses.replace(DEFAULT_TOL, eps_eq=1e-6)
    x = np.array([1.0 + 5e-7, 0.0])
    cert = generate_equality_certificate(x, np.zeros(2), 2, loose)
    assert check_certificate(cert, loose).accepted


def test_generate_random_pairs_and_soundness():
    rng = np.random.default_rng(55)
    for n in (2, 3, 4):
        for _ in range(5):
            x = _ball_point(rng, n)
            y = _ball_point(rng, n)
            cert = generate_equality_certificate(x, y, n)
            report = check_certificate(cert)
            assert report.accepted and report.residual < 1e-8
            assignments = _feasible_assignments(cert, 20, np.random.default_rng(7))
            gap = np.abs(assignments[cert.claim[0]] - assignments[cert.claim[1]])
            assert float(np.max(gap)) < 1e-6


# -- serialization --------------------------------------------------------------


def test_json_round_trip_is_exact():
    cert = generate_equality_certificate(np.array([0.35, 0.1]), np.array([0.88, 0.2]), 2)
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert back.n == cert.n
    assert np.array_equal(back.points, cert.points)
    assert back.sets == cert.sets
    assert back.claim == cert.claim
    assert check_certificate(back).accepted


def _plain_document(cert):
    """The certificate document as nested lists, for the recursive _dumps."""
    doc = {
        "version": cert.version,
        "n": cert.n,
        "tolerance": {"eps_eq": DEFAULT_TOL.eps_eq, "eps_rank": 1e-8, "grid_step": 1e-4},
        "points": [[float(c) for c in p] for p in cert.points],
        "sets": [list(map(int, s)) for s in cert.sets],
        "claim": [int(cert.claim[0]), int(cert.claim[1])],
        "generator_params": cert.generator_params,
    }
    if cert.multipliers is not None:
        doc["multipliers"] = [int(m) for m in cert.multipliers]
    return doc


def test_json_writer_matches_the_recursive_dump():
    cert = generate_equality_certificate(np.zeros(3), np.array([0.95, -0.0, 0.0]), 3)
    assert cert.multipliers is not None
    assert certificate_to_json(cert) == _dumps(_plain_document(cert))
    bare = dataclasses.replace(cert, multipliers=None, version=1)
    assert certificate_to_json(bare) == _dumps(_plain_document(bare))
    assert "multipliers" not in certificate_to_json(bare)


def test_json_has_full_precision():
    value = 1.0 / 3.0
    cert = Certificate(n=2, points=np.array([[value, -value]]), sets=[], claim=(0, 0))
    text = certificate_to_json(cert)
    assert "0.33333333333333331" in text


# -- integer multipliers -------------------------------------------------------


def _mixed_certificate():
    """Inner x, shell y: chains, inner lemma, annulus steps and the closing pair."""
    return generate_equality_certificate(np.zeros(3), np.array([0.95, 0.0, 0.0]), 3)


def _in_plane(n, radius, cos_e1):
    point = np.zeros(n)
    point[:2] = radius * cos_e1, radius * math.sqrt(1.0 - cos_e1 ** 2)
    return point


def test_generated_multipliers_survive_json_round_trip():
    cert = _mixed_certificate()
    assert len(cert.multipliers) == len(cert.sets)
    assert all(type(m) is int for m in cert.multipliers)
    text = certificate_to_json(cert)
    doc = json.loads(text)
    assert doc["version"] == 2
    assert doc["multipliers"] == cert.multipliers
    back = certificate_from_json(text)
    assert back.multipliers == cert.multipliers
    report = check_certificate(back)
    assert report.accepted and report.residual == 0.0
    assert 0.0 <= report.detail["worst_distance_error"] <= 1e-9
    assert 0.0 <= report.detail["worst_norm_excess"] <= 1e-9


def test_flipped_multiplier_is_claim_not_implied():
    cert = _mixed_certificate()
    lam = list(cert.multipliers)
    i = next(i for i, m in enumerate(lam) if m != 0)
    lam[i] = -lam[i]
    report = check_certificate(dataclasses.replace(cert, multipliers=lam))
    assert not report.accepted
    assert report.failure == "ClaimNotImplied"
    # the combination is off by 2*lam_i times set i's row: n+1 ones and -1 for W
    assert report.residual == pytest.approx(2 * abs(lam[i]) * math.sqrt(cert.n + 2), rel=1e-12)
    assert "worst_distance_error" in report.detail


@pytest.mark.parametrize("mutate", [
    lambda lam: lam[:-1],
    lambda lam: lam + [0],
    lambda lam: [float(lam[0])] + lam[1:],
    lambda lam: [True] + lam[1:],
    lambda lam: [2 ** 62] + lam[1:],
])
def test_malformed_multipliers(mutate):
    cert = _mixed_certificate()
    bad = dataclasses.replace(cert, multipliers=mutate(list(cert.multipliers)))
    report = check_certificate(bad)
    assert report.failure == "MalformedCertificate"
    doc = json.loads(certificate_to_json(cert))
    doc["multipliers"] = bad.multipliers
    with pytest.raises(MalformedCertificate):
        certificate_from_json(json.dumps(doc))


@pytest.mark.parametrize("rewrite", [
    lambda i: i + 0.9,
    lambda i: str(i),
    lambda i: True,
], ids=["float", "string", "bool"])
def test_non_integer_set_ids_are_malformed(rewrite):
    """int() would truncate 0.9 and accept "2" and true as point ids."""
    doc = json.loads(certificate_to_json(_mixed_certificate()))
    doc["sets"][0][0] = rewrite(doc["sets"][0][0])
    with pytest.raises(MalformedCertificate, match="^set ids must be integers$"):
        certificate_from_json(json.dumps(doc))


@pytest.mark.parametrize("rewrite", [
    lambda cert: {"sets": [(cert.sets[0][0] + 0.9,) + cert.sets[0][1:]] + cert.sets[1:]},
    lambda cert: {"claim": (cert.claim[0] + 0.5, cert.claim[1])},
], ids=["set-id", "claim"])
def test_checker_rejects_non_integer_ids(rewrite):
    """The checker takes ids by the parser's rule: int64 conversion and int()
    would read the set id 0 written 0.9, or a claim id plus 0.5, as the id."""
    cert = _mixed_certificate()
    assert cert.sets[0][0] == 0
    report = check_certificate(dataclasses.replace(cert, **rewrite(cert)))
    assert report.failure == "MalformedCertificate"


def test_checker_accepts_numpy_integer_ids():
    cert = _mixed_certificate()
    as_numpy = dataclasses.replace(cert, sets=[tuple(map(np.int64, s)) for s in cert.sets],
                                   claim=tuple(map(np.int64, cert.claim)))
    assert check_certificate(as_numpy).accepted


def test_checker_accepts_sets_as_one_integer_array():
    # An (S, n+1) numpy id table, on the multiplier and least-squares paths.
    cert = _mixed_certificate()
    table = np.array(cert.sets)
    for multipliers in (cert.multipliers, None):
        report = check_certificate(dataclasses.replace(cert, sets=table, multipliers=multipliers))
        assert report.accepted and report.set_count == len(cert.sets)


@pytest.mark.parametrize("row", [None, [True, False, False], [0.5, None, 0.0]],
                         ids=["strings", "bools", "null"])
def test_non_number_coordinates_are_malformed(row):
    """np.asarray would read "0.5" and true as coordinates."""
    doc = json.loads(certificate_to_json(_mixed_certificate()))
    if row is None:
        doc["points"][0] = [str(c) for c in doc["points"][0]]
    else:
        doc["points"].append(row)
    with pytest.raises(MalformedCertificate,
                       match="^points must be a numeric array: coordinates must be JSON numbers$"):
        certificate_from_json(json.dumps(doc))


def test_sum_rows_match_the_per_set_loop():
    ids = np.random.default_rng(3).integers(0, 6, size=(9, 4))  # ids repeat within sets
    rows = np.zeros((9, 7))
    for r, s in enumerate(ids):
        for i in s:
            rows[r, i] += 1.0
        rows[r, 6] = -1.0
    assert np.array_equal(certify._sum_rows(ids, 6), rows)


def test_tampered_point_is_set_invalid_before_the_algebra():
    cert = _mixed_certificate()
    victim = cert.sets[3][0]
    points = cert.points.copy()
    points[victim, 0] += 1e-3
    report = check_certificate(dataclasses.replace(cert, points=points))
    assert report.failure == "SetInvalid"
    assert report.detail["set_index"] == min(i for i, s in enumerate(cert.sets) if victim in s)
    assert report.detail["worst_distance_error"] > 1e-4


def test_certificate_without_multipliers_takes_the_least_squares_path():
    cert = _mixed_certificate()
    report = check_certificate(dataclasses.replace(cert, multipliers=None))
    assert report.accepted and report.residual < 1e-8
    doc = json.loads(certificate_to_json(cert))
    del doc["multipliers"]
    doc["version"] = 1
    back = certificate_from_json(json.dumps(doc))
    assert back.multipliers is None and back.version == 1
    assert check_certificate(back).accepted


def test_closing_fragment_is_shared_and_leaves_certificates_unchanged():
    """The closing relation is built once per (n, tol): a cold cache, a cache
    warmed by other cross-class pairs and a caller mutating a returned
    certificate all give the same certificate text."""
    _closing_fragment.cache_clear()
    cold = certificate_to_json(_mixed_certificate())
    assert _closing_fragment.cache_info().misses == 1
    for x, y in [(_in_plane(3, 0.3, 0.2), _in_plane(3, 0.9, -0.6)),
                 (_in_plane(3, 0.97, 0.8), _in_plane(3, 0.1, -0.1))]:
        assert check_certificate(generate_equality_certificate(x, y, 3)).accepted
    assert _closing_fragment.cache_info().hits >= 2
    assert certificate_to_json(_mixed_certificate()) == cold
    cert = _mixed_certificate()
    cert.points[:] = 0.5
    cert.multipliers[:] = [7] * len(cert.multipliers)
    assert certificate_to_json(_mixed_certificate()) == cold
    frag = _closing_fragment(3, DEFAULT_TOL)
    assert not frag.points.flags.writeable
    assert frag.keys == tuple(map(_point_key, frag.points))
    assert _closing_fragment.cache_info().misses == 1


def test_unfinished_resolution_omits_multipliers():
    """A relation that refers to a point whose resolution is still open has
    no integer combination yet; the certificate then carries none."""
    gen = _Generator(2, DEFAULT_TOL)
    x, y = np.array([0.9, 0.0]), np.array([0.0, 0.9])
    gen.memo[_point_key(y)] = OUTER, None  # as resolve() marks a point it has entered
    assert gen.run(x, y).multipliers is None
    assert _Generator(2, DEFAULT_TOL).run(x, y).multipliers is not None


def test_n5_slow_window_pair_is_fast():
    """||y|| = 0.232 gives a ~3700-set certificate; the dense checker took 35-60 s."""
    x = _in_plane(5, 0.85, -0.3)
    y = _in_plane(5, 0.232, 0.65)
    t0 = time.perf_counter()
    cert = generate_equality_certificate(x, y, 5)
    report = check_certificate(certificate_from_json(certificate_to_json(cert)))
    assert time.perf_counter() - t0 < 10.0
    assert report.accepted and report.residual == 0.0
    assert len(cert.sets) <= 5000


def test_signed_zero_coordinates_share_one_point():
    """-0.0 and 0.0 give one dedup key, so the claim is trivial."""
    cert = generate_equality_certificate(np.array([0.5, -0.0, 0.0]), np.array([0.5, 0.0, 0.0]), 3)
    assert cert.sets == [] and cert.claim == (0, 0)
    assert cert.points.shape == (1, 3)
    assert check_certificate(cert).accepted


# -- queued registration ---------------------------------------------------------


def _spy_on_links(monkeypatch):
    calls = []
    real = certify.gamma1_links

    def spy(A, B, tol):
        calls.append(len(A))
        return real(A, B, tol)

    monkeypatch.setattr(certify, "gamma1_links", spy)
    return calls


def test_one_gamma1_links_call_builds_every_chain(monkeypatch):
    """Both endpoints chain to the anchor, four hops each; their hops share
    one call."""
    calls = _spy_on_links(monkeypatch)
    generate_equality_certificate(np.array([0.95, 0.0]), np.array([0.0, 0.9]), 2)
    assert calls == [8]
    _closing_fragment(3, DEFAULT_TOL)
    calls.clear()
    assert check_certificate(_mixed_certificate()).accepted
    assert len(calls) == 1


@pytest.mark.parametrize("x, y, n, message, entered", [
    (np.array([0.35, 0.1]), np.array([0.88, 0.2]), 2, "[bridge] certificate exceeded 40 sets", 11),
    (np.zeros(3), np.array([0.95, 0.0, 0.0]), 3, "[shell-link] certificate exceeded 40 sets", 4),
])
def test_set_cap_fails_at_the_same_request(monkeypatch, request, x, y, n, message, entered):
    """A certificate that outgrows the cap fails at the request that overflows
    it: same stage, and as many points entered, as when every request
    registered at once."""
    monkeypatch.setattr(certify, "MAX_CERT_SETS", 40)
    _closing_fragment.cache_clear()
    request.addfinalizer(_closing_fragment.cache_clear)  # drop failures kept under the cap
    gen = _Generator(n, DEFAULT_TOL)
    with pytest.raises(GenerationFailure, match=f"^{re.escape(message)}$"):
        gen.run(x, y)
    assert len(gen.memo) == entered


def test_closing_relation_at_n7_still_exceeds_the_cap():
    y = np.zeros(7)
    y[0] = 0.95
    with pytest.raises(GenerationFailure, match=r"^\[shell-link\] certificate exceeded 5000 sets$"):
        generate_equality_certificate(np.zeros(7), y, 7)


def test_closing_failure_is_kept(monkeypatch):
    """A closing relation that fails to build fails again, with the same
    stage and message, without being built a second time."""
    built = []
    emit = _Generator._emit_closing

    def spy(self):
        built.append(self.n)
        return emit(self)

    monkeypatch.setattr(_Generator, "_emit_closing", spy)
    _closing_fragment.cache_clear()
    y = np.zeros(7)
    y[0] = 0.95
    for x in (np.zeros(7), _in_plane(7, 0.1, 0.3)):
        with pytest.raises(GenerationFailure, match=r"^\[shell-link\] certificate exceeded 5000 sets$"):
            generate_equality_certificate(x, y, 7)
    assert built == [7]


def test_flush_raises_the_first_error_in_request_order():
    """A set that collapses under deduplication, queued before a chain whose
    hop fails its check, is the error the flush raises."""
    p, q, r = np.array([0.5, 0.0]), np.array([-0.5, 0.0]), np.array([0.0, 0.5])
    chain_only = _Builder(2, DEFAULT_TOL)
    chain_only.add_chain(np.array([p, r]), "shell-link")  # not one hop long
    with pytest.raises(InputError, match=r"^\|\|b-a\|\|="):
        chain_only.flush()
    builder = _Builder(2, DEFAULT_TOL)
    builder.add_set(EquilateralSet(np.array([p, p, q])), "bridge")  # holds p twice
    builder.add_chain(np.array([p, r]), "shell-link")
    with pytest.raises(GenerationFailure, match=r"^\[bridge\] set collapsed"):
        builder.flush()


def test_stage_counts_of_a_five_stage_pair():
    """Sets per stage tag of a pair whose certificate runs every stage."""
    gen = _Generator(3, DEFAULT_TOL)
    gen.run(np.array([0.62, 0.3, 0.0]), np.array([0.1, 0.05, 0.0]))
    assert Counter(gen.builder.stages) == {"shell-link": 264, "bridge": 26, "inner-lemma": 5,
                                           "annulus-step": 3, "closing": 2}


@pytest.mark.parametrize("n, stages", [
    (2, {"shell-link": 290, "bridge": 48, "inner-lemma": 21, "annulus-step": 20, "closing": 2}),
    (3, {"shell-link": 202, "bridge": 24, "inner-lemma": 4, "annulus-step": 3, "closing": 2}),
    (4, {"shell-link": 112, "bridge": 16, "inner-lemma": 1, "closing": 2}),
    (5, {"shell-link": 142, "bridge": 20, "inner-lemma": 1, "closing": 2}),
])
def test_stage_counts_of_the_closing_relation(n, stages):
    assert Counter(stage for _, stage in _closing_fragment(n, DEFAULT_TOL).sets) == stages


@pytest.mark.parametrize("x, y, n, sets, points, total", [
    (_in_plane(5, 0.85, -0.3), _in_plane(5, 0.1875, 0.65), 5, 954, 2830, 964),
    (np.array([0.35, 0.1]), np.array([0.88, 0.2]), 2, 436, 630, 444),
    (np.zeros(3), np.array([0.95, 0.0, 0.0]), 3, 292, 574, 262),
    (_in_plane(4, 0.6, 0.2), _in_plane(4, 0.3, -0.7), 4, 118, 285, 118),
])
def test_certificate_shape_is_pinned(x, y, n, sets, points, total):
    """Sets, points and sum of |multipliers| of fixed pairs; the first is the
    fixed pair of the certify-deep benchmark workload."""
    cert = generate_equality_certificate(x, y, n)
    assert (len(cert.sets), len(cert.points), sum(map(abs, cert.multipliers))) == (sets, points, total)
