import dataclasses
import hashlib
import importlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eqball import certify, simplex, verify
from eqball.certify import (
    OUTER,
    Certificate,
    _Builder,
    _Generator,
    _closing_fragment,
    _dumps,
    _point_key,
    _hubs,
    _rows_json,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    constant_lemma_relation,
    generate_equality_certificate,
    theorem_step_relation,
)
from eqball.errors import ConstructionError, GenerationFailure, InputError, MalformedCertificate
from eqball.gamma import gamma1_link
from eqball.geometry import DEFAULT_TOL, Tolerance, section2d
from eqball.simplex import EquilateralSet, alpha, beta, canonical_simplex, simplex_on_spheres
from eqball.verify import _ball_point, _feasible_assignments
from eqball.weights import eta, lambda_shell, mu


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
    """Certificates at eps_eq = 1e-10: an annulus step at n = 2, whose
    rho0 = ||u|| lies inside the window theorem_step_relation admits at any
    eps_eq, and a bridge at n = 5."""
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
    shared = gamma1_link(a, b)
    points = np.vstack([a, b, shared])
    cert = Certificate(n=2, points=points, sets=[(0, 2, 3), (1, 2, 3)], claim=(0, 1),
                       multipliers=[1, -1])
    report = check_certificate(cert)
    assert report.accepted
    assert report.residual == 0.0


def test_checker_rejects_perturbed_point():
    a3 = alpha(3)
    a, b = np.array([0.02, -a3]), np.array([0.02, a3])
    points = np.vstack([a, b, gamma1_link(a, b)])
    points[2, 0] += 1e-3
    cert = Certificate(n=2, points=points, sets=[(0, 2, 3), (1, 2, 3)], claim=(0, 1),
                       multipliers=[1, -1])
    report = check_certificate(cert)
    assert not report.accepted
    assert report.failure == "SetInvalid"
    assert report.detail["set_index"] == 0


def test_checker_rejects_non_shared_claim():
    a3 = alpha(3)
    a = np.array([0.02, -a3])
    set_a = np.vstack([a, gamma1_link(a, np.array([0.02, a3]))])
    cert = Certificate(n=2, points=set_a, sets=[(0, 1, 2)], claim=(0, 1),
                       multipliers=[1])
    report = check_certificate(cert)
    assert not report.accepted
    assert report.failure == "ClaimNotImplied"
    assert report.residual > 1e-3


def test_checker_malformed():
    cert = Certificate(n=2, points=np.zeros((2, 2)), sets=[(0, 1)], claim=(0, 1),
                       multipliers=[1])
    report = check_certificate(cert)
    assert report.failure == "MalformedCertificate"


def test_checker_reflexive_claim():
    cert = Certificate(n=2, points=np.array([[0.1, 0.2]]), sets=[], claim=(0, 0))
    report = check_certificate(cert)
    assert report.accepted and report.residual == 0.0


def test_checker_is_permutation_invariant():
    """Relabelling the written points and reordering the written sets, with
    their multipliers, keeps the verdict; the hop rows stay last, in hop
    order, their ends relabelled."""
    rng = np.random.default_rng(33)
    cert = generate_equality_certificate(np.array([0.2, 0.3]), np.array([0.7, -0.4]), 2)
    written, kept = len(cert.points), len(cert.sets) - 2 * len(cert.hops)
    assert kept > 1 and len(cert.hops)
    # old id -> new id: the written points permuted, the shared ids kept
    relabel = np.concatenate([rng.permutation(written), np.arange(written, cert.point_count)])
    new_points = np.empty_like(cert.points)
    new_points[relabel[:written]] = cert.points
    order = np.concatenate([rng.permutation(kept), np.arange(kept, len(cert.sets))])
    shuffled = Certificate(
        n=2,
        points=new_points,
        sets=[tuple(int(relabel[i]) for i in cert.sets[j]) for j in order],
        claim=(int(relabel[cert.claim[0]]), int(relabel[cert.claim[1]])),
        multipliers=[cert.multipliers[j] for j in order],
        hops=[tuple(int(relabel[i]) for i in hop) for hop in cert.hops],
    )
    assert check_certificate(shuffled).accepted
    as_table = dataclasses.replace(shuffled, sets=np.array(shuffled.sets, dtype=np.int64))
    assert check_certificate(as_table) == check_certificate(shuffled)


def _hand_built_certificates():
    """Certificates built without the generator, each with its sets as a
    list of id tuples: accepted, SetInvalid at a later set, ClaimNotImplied,
    an id past the table, and no sets."""
    a3 = alpha(3)
    a, b = np.array([0.02, -a3]), np.array([0.02, a3])
    points = np.vstack([a, b, gamma1_link(a, b)])
    link = Certificate(n=2, points=points, sets=[(0, 2, 3), (1, 2, 3)], claim=(0, 1),
                       multipliers=[1, -1])
    moved = points.copy()
    moved[1, 0] += 1e-3
    return [link,
            dataclasses.replace(link, points=moved),
            dataclasses.replace(link, multipliers=[1, 1]),
            dataclasses.replace(link, sets=[(0, 2, 3), (1, 2, 4)]),
            dataclasses.replace(link, sets=[], multipliers=[], claim=(0, 0))]


@pytest.mark.parametrize("case", range(5))
def test_int64_set_table_and_id_tuples_give_equal_reports(case):
    cert = _hand_built_certificates()[case]
    table = np.array(cert.sets, dtype=np.int64).reshape(len(cert.sets), cert.n + 1)
    report = check_certificate(cert)
    assert check_certificate(dataclasses.replace(cert, sets=table)) == report
    assert report.failure == [None, "SetInvalid", "ClaimNotImplied", "MalformedCertificate",
                              None][case]
    if case == 1:
        assert report.detail["set_index"] == 1


@pytest.mark.parametrize("sets, index", [
    ([[0, 1] * 20 + [0]] * 200, 0),
    ([list(range(41))] * 199 + [[0] * 41], 199),
], ids=["first-set-bad", "last-set-bad"])
def test_checker_memory_is_bounded_at_n40(sets, index):
    """A document of 200 sets at n = 40 is 0.03 MB, and one re-check pass
    over it would hold (200, 820, 40) difference stacks, 157 MB more peak
    RSS; chunks of CHECK_CHUNK_CELLS keep the checker's traced peak at a
    few of them and still report the first failing set."""
    n = 40
    points = np.vstack([canonical_simplex(n, n + 1).points, [[0.5] + [0.0] * (n - 1)]])
    doc = {"version": 4, "n": n, "points": points.tolist(), "hops": [], "sets": sets,
           "claim": [0, 1], "multipliers": [0] * len(sets)}
    text = json.dumps(doc)
    assert len(text) < 100_000
    cert = certificate_from_json(text)
    tracemalloc.start()
    try:
        report = check_certificate(cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.failure == "SetInvalid" and report.detail["set_index"] == index
    assert peak < 32e6


def test_chunked_recheck_reports_equal_the_one_pass_report(monkeypatch):
    """One set per chunk gives the report of one pass over all sets: the same
    first failing set, and margins that are the maximum over all chunks."""
    cert = _mixed_certificate()
    points = cert.points.copy()
    points[cert.sets[40][0], 0] += 1e-3
    cases = [cert, dataclasses.replace(cert, points=points),
             dataclasses.replace(cert, multipliers=[-m for m in cert.multipliers])]
    reports = [check_certificate(c) for c in cases]
    assert [r.failure for r in reports] == [None, "SetInvalid", "ClaimNotImplied"]
    monkeypatch.setattr(simplex, "CHECK_CHUNK_CELLS", 1)
    assert [check_certificate(c) for c in cases] == reports


# -- generator ----------------------------------------------------------------


def test_generate_reflexive():
    x = np.array([0.3, -0.2, 0.1])
    cert = generate_equality_certificate(x, x.copy(), 3)
    assert cert.sets.tolist() == []
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
    assert cert.generator_params == {}


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


def test_every_n_certifies_boundary_and_random_pairs():
    """At n = 2..12 a point at each boundary radius, paired with a random
    point of the ball, and three random pairs certify and check after the
    JSON round trip; the closing relation stays under the cap at n = 16."""
    rng = np.random.default_rng(2112)
    for n in range(2, 13):
        radii = (0.0, 1e-13, beta(n + 1), lambda_shell(n), 0.5, 2.0 * alpha(n + 1) - 1.0, 1.0)
        directions = rng.standard_normal((len(radii), n))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        pairs = [(r * d, _ball_point(rng, n)) for r, d in zip(radii, directions)]
        pairs += [(_ball_point(rng, n), _ball_point(rng, n)) for _ in range(3)]
        for x, y in pairs:
            start = time.perf_counter()
            cert = generate_equality_certificate(x, y, n)
            text = certificate_to_json(cert)
            assert check_certificate(certificate_from_json(text)).accepted, (n, x, y)
            assert len(cert.sets) <= 5000
            assert time.perf_counter() - start < 10.0
    assert len(_closing_fragment(16, DEFAULT_TOL).sets) < certify.MAX_CERT_SETS


# -- serialization --------------------------------------------------------------


def test_json_round_trip_is_exact():
    cert = generate_equality_certificate(np.array([0.35, 0.1]), np.array([0.88, 0.2]), 2)
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert back.n == cert.n
    assert np.array_equal(back.points, cert.points)
    assert np.array_equal(back.sets, cert.sets)
    assert back.claim == cert.claim
    assert check_certificate(back).accepted


def _plain_document(cert):
    """The certificate document as nested lists, for the recursive _dumps:
    the written points, the sets less the hops' own, and each hop keeps the
    multiplier of its a-set."""
    kept = len(cert.sets) - 2 * len(cert.hops)
    return {
        "version": 4,
        "n": cert.n,
        "tolerance": {"eps_eq": DEFAULT_TOL.eps_eq, "grid_step": 1e-4},
        "points": [[float(c) for c in p] for p in cert.points],
        "hops": [list(map(int, h)) for h in cert.hops],
        "sets": [list(map(int, s)) for s in cert.sets[:kept]],
        "claim": [int(cert.claim[0]), int(cert.claim[1])],
        "generator_params": cert.generator_params,
        "multipliers": [int(m) for m in cert.multipliers[:kept] + cert.multipliers[kept::2]],
    }


def test_json_writer_matches_the_recursive_dump():
    cert = generate_equality_certificate(np.zeros(3), np.array([0.95, -0.0, 0.0]), 3)
    assert len(cert.hops)
    assert certificate_to_json(cert) == _dumps(_plain_document(cert))


def test_json_has_full_precision():
    value = 1.0 / 3.0
    cert = Certificate(n=2, points=np.array([[value, -value]]), sets=[], claim=(0, 0))
    text = certificate_to_json(cert)
    assert "0.33333333333333331" in text


def _rows_json_per_row(rows, conversion):
    """Reference for _rows_json: every entry formatted on its own."""
    return "[" + ", ".join("[" + ", ".join(conversion % v for v in row) + "]"
                           for row in rows) + "]"


@pytest.mark.parametrize("rows, conversion", [
    (np.random.default_rng(4).standard_normal((40, 3)).tolist(), "%.17g"),
    ([[1.0 / 3.0, -0.0, 5e-324], [1e300, -2.5, 0.0]], "%.17g"),
    ([[0.5], [0.25, 0.125], [], [1.0 / 3.0, 2.0, -0.0]], "%.17g"),
    ([(0, 3, 17), (2, 5, 4000)], "%d"),
    ([(0, 1), (2, 3, 4), ()], "%d"),
    ([], "%d"),
    ([], "%.17g"),
    ([[]], "%d"),
])
def test_rows_json_matches_per_row_formatting(rows, conversion):
    """One % over the table's template prints what row-by-row formatting
    does, for equal-width, ragged and empty tables."""
    assert _rows_json(rows, conversion) == _rows_json_per_row(rows, conversion)


# One small generated document; the property test replaces its fields.
_BASE_DOC = json.loads(certificate_to_json(
    generate_equality_certificate(np.array([0.9, 0.0]), np.array([0.0, 0.9]), 2)))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=12)
# Values of the right shape more often than _JSON gives them: id tables with
# ids in and out of range, coordinate tables, claims.
_FIELD_VALUES = (_JSON
                 | st.lists(st.lists(st.integers(-2, 60), max_size=4), max_size=4)
                 | st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=4)
                 | st.lists(st.integers(-2, 60), min_size=2, max_size=2))
_DOCUMENTS = (st.dictionaries(st.sampled_from(sorted(_BASE_DOC)), _FIELD_VALUES)
              | st.builds(lambda key, value: dict(_BASE_DOC, **{key: value}),
                          st.sampled_from(sorted(_BASE_DOC)), _FIELD_VALUES))


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_DOCUMENTS)
def test_any_document_parses_or_is_malformed_and_checks(doc):
    """The parser raises nothing but MalformedCertificate, and the checker
    reports on whatever the parser returns."""
    try:
        cert = certificate_from_json(json.dumps(doc))
    except MalformedCertificate:
        return
    report = check_certificate(cert)
    assert report.accepted == (report.failure is None)


# -- hop rows ---------------------------------------------------------------------


def _document(cert):
    return json.loads(certificate_to_json(cert))


def _parse(doc):
    return certificate_from_json(json.dumps(doc))


def test_hop_points_are_rebuilt_after_the_written_points():
    """The ids E + n*h .. E + n*h + n - 1 name the n shared points of hop h,
    after the E written points, and no table holds them; the generator
    built them as the rows of one simplex_on_spheres call on the hop's ends
    with -0.0 read as 0.0, bit for bit; the sets of a listed hop are its
    only sets that hold them."""
    gen = _Generator(3, DEFAULT_TOL)
    cert = gen.run(np.zeros(3), np.array([0.95, 0.0, 0.0]))
    assert certificate_to_json(cert) == certificate_to_json(_mixed_certificate())
    n, hops = cert.n, np.array(cert.hops)
    written = len(cert.points)
    assert len(_document(cert)["points"]) == written and len(hops) > 0
    assert hops.max() < written
    assert cert.point_count == written + n * len(hops) == cert.sets.max() + 1
    a, b = cert.points[hops[:, 0]], cert.points[hops[:, 1]]
    shared = simplex_on_spheres((a + b) / 2.0 + 0.0, (b - a) + 0.0, beta(n)).reshape(-1, n) + 0.0
    # The generator's own rows of the listed hops, found by their ends.
    rows = {(row[0], row[-1]): row[1:-1] for row in gen.builder.tables()[2].tolist()}
    ends = [tuple(gen.builder.index[_point_key(cert.points[i])] for i in hop) for hop in hops]
    built = np.array([gen.builder.points[i] for end in ends for i in rows[end]]) + 0.0
    assert shared.tobytes() == built.tobytes()
    holders = {}
    for s in cert.sets:
        for i in s:
            holders.setdefault(i, []).append(set(s))
    for h, (i, j) in enumerate(cert.hops):
        ids = set(range(written + n * h, written + n * (h + 1)))
        for k in ids:
            assert sorted(map(sorted, holders[k])) == sorted([sorted(ids | {i}), sorted(ids | {j})])


def test_a_hop_whose_shared_point_is_claimed_stays_written():
    """A hop stays written when a shared point is a claim point: here y is a
    shared point of the first hop of x's chain."""
    n = 3
    x, y = np.array([0.9, 0.2, 0.1]), np.array([0.0, 0.95, 0.0])
    gen = _Generator(n, DEFAULT_TOL)
    gen.run(x, y)
    row = gen.builder.tables()[2][0]
    claimed, via = gen.builder.points[row[1]], gen.builder.points[row[-1]]
    gen = _Generator(n, DEFAULT_TOL)
    cert = gen.run(x, claimed)
    assert len(cert.hops) == len(gen.builder.hops) - 1
    listed = {(cert.points[i].tobytes(), cert.points[j].tobytes()) for i, j in cert.hops}
    assert (x.tobytes(), via.tobytes()) not in listed
    assert len(listed) == len(cert.hops)
    back = certificate_from_json(certificate_to_json(cert))
    assert back.points.tobytes() == cert.points.tobytes()
    assert back.points[back.claim[1]].tobytes() == claimed.tobytes()
    assert check_certificate(back).accepted


def test_a_hop_whose_sets_do_not_carry_opposite_multipliers_stays_written():
    """Only a hop whose a-set and b-set carry opposite multipliers is listed;
    with one of them doctored, the hop keeps its points and sets written."""
    gen = _Generator(3, DEFAULT_TOL)
    cert = gen.run(np.zeros(3), np.array([0.95, 0.0, 0.0]))
    lam = gen._multipliers(len(gen.nodes) - 1)  # the claim's node
    _, pairs, rows = gen.builder.tables()
    (set_a, set_b), row = pairs[0], rows[0]
    assert lam[set_a] == -lam[set_b] != 0
    lam[set_b] += 1
    doctored = gen.builder.certificate(cert.claim, lam)
    assert len(doctored.hops) == len(cert.hops) - 1
    assert (len(doctored.sets), doctored.point_count) == (len(cert.sets), cert.point_count)
    assert len(doctored.points) == len(cert.points) + cert.n
    ends = {(doctored.points[i].tobytes(), doctored.points[j].tobytes()) for i, j in doctored.hops}
    assert (gen.builder.points[row[0]].tobytes(), gen.builder.points[row[-1]].tobytes()) not in ends
    assert len(_document(doctored)["sets"]) == len(_document(cert)["sets"]) + 2
    back = certificate_from_json(certificate_to_json(doctored))
    assert np.array_equal(back.sets, doctored.sets) and back.multipliers == doctored.multipliers
    assert check_certificate(back).failure == "ClaimNotImplied"


def test_a_hop_registered_both_ways_is_kept_once():
    """The hop q -> p has the shared points of p -> q when q - p has a
    nonzero last coordinate, so it registers the same two sets and is kept
    once; the certificate lists it once and checks."""
    n, hop = 3, 2.0 * alpha(4)
    p, q = np.array([0.1, 0.2, -hop / 2.0]), np.array([0.1, 0.2, hop / 2.0])
    builder = _Builder(n, DEFAULT_TOL)
    builder.add_chain(np.array([p, q]), "shell-link")
    builder.add_chain(np.array([q, p]), "shell-link")
    builder.flush()
    assert builder.slots == [0, 1, 1, 0] and len(builder.hops) == 1
    cert = builder.certificate((0, n + 1), [1, -1])
    assert len(cert.hops) == 1
    assert check_certificate(certificate_from_json(certificate_to_json(cert))).accepted


@pytest.mark.parametrize("tamper", ["moved-end", "multiplier", "hop-multiplier"])
def test_tampered_hop_documents_are_rejected(tamper):
    """A hop end moved by 1e-3 takes the hop off its length, so it fails the
    hop rule; a changed written-set multiplier, or a hop's multiplier
    flipped, leaves the claim unproven."""
    doc = _document(_mixed_certificate())
    if tamper == "moved-end":
        doc["points"][doc["hops"][0][0]][0] += 1e-3
        expected = "SetInvalid"
    elif tamper == "multiplier":
        doc["multipliers"][0] += 1
        expected = "ClaimNotImplied"
    else:
        hop = len(doc["sets"]) + next(h for h, m in enumerate(doc["multipliers"][len(doc["sets"]):])
                                      if m)
        doc["multipliers"][hop] = -doc["multipliers"][hop]
        expected = "ClaimNotImplied"
    report = check_certificate(_parse(doc))
    assert not report.accepted and report.failure == expected


def _one_hop_document(a, b):
    """A certificate of one hop a -> b, whose two sets prove f(a) = f(b)."""
    n = len(a)
    return {"version": 4, "n": n, "points": [list(a), list(b)], "hops": [[0, 1]],
            "sets": [], "claim": [0, 1], "multipliers": [1]}


@pytest.mark.parametrize("n", [2, 3, 6])
def test_one_hop_documents(n):
    """Both ends in the ball at exact hop length: accepted.  A hop 1e-6 off
    its length, or one whose ends lie at norm 1.01, so that its shared
    points would leave the ball (in-ball ends keep them in, gamma's hop
    bound), is SetInvalid at its a-set."""
    hop = 2.0 * alpha(n + 1)
    e1, e2 = np.eye(n)[0], np.eye(n)[1]
    a = 0.4 * e2 - hop / 2.0 * e1
    assert check_certificate(_parse(_one_hop_document(a, a + hop * e1))).accepted
    report = check_certificate(_parse(_one_hop_document(a, a + (hop + 1e-6) * e1)))
    assert report.failure == "SetInvalid" and report.detail["worst_distance_error"] > 1e-7
    assert report.detail["set_index"] == 0
    r = 1.01
    far = math.sqrt(r * r - hop * hop / 4.0) * e2
    doc = _one_hop_document(far - hop / 2.0 * e1, far + hop / 2.0 * e1)
    cert = _parse(doc)
    assert np.linalg.norm(cert.points, axis=1).min() > 1.0
    with pytest.raises(InputError, match="outside the ball"):
        gamma1_link(*cert.points)
    report = check_certificate(cert)
    assert report.failure == "SetInvalid" and report.detail["worst_norm_excess"] > 1e-3
    assert report.detail["set_index"] == 0


@pytest.mark.parametrize("rewrite, message", [
    (lambda doc: doc["hops"][0].__setitem__(1, doc["hops"][0][0]), "^hop ends coincide$"),
    (lambda doc: doc["points"].append(doc["points"][doc["hops"][0][0]])
     or doc["hops"][0].__setitem__(1, len(doc["points"]) - 1), "^hop ends coincide$"),
    (lambda doc: doc["hops"][0].__setitem__(0, len(doc["points"])),
     "^hop ends must be ids of written points$"),
    (lambda doc: doc["hops"][0].__setitem__(0, -1), "^hop ends must be ids of written points$"),
    (lambda doc: doc["hops"][0].__setitem__(0, 2 ** 70), "^hop ends must be ids of written points$"),
    (lambda doc: doc["hops"][0].__setitem__(0, float(doc["hops"][0][0])), "^hops must be a list"),
    (lambda doc: doc["hops"][0].__setitem__(0, True), "^hops must be a list"),
    (lambda doc: doc["hops"][0].append(0), "^hops must be a list"),
    (lambda doc: doc["hops"].__setitem__(0, 0), "^hops must be a list"),
    (lambda doc: doc.__setitem__("hops", {}), "^hops must be a list"),
    (lambda doc: doc.pop("hops"), "^missing field 'hops'$"),
    (lambda doc: doc["points"][doc["hops"][0][0]].__setitem__(0, math.inf),
     "^hop ends must be finite points$"),
    (lambda doc: doc.update(n=1, points=[[0.5], [-0.5]], hops=[[0, 1]]), "^hops need n >= 2$"),
    (lambda doc: doc["multipliers"].append(0), "^multipliers must be a list of"),
    (lambda doc: doc["multipliers"].pop(), "^multipliers must be a list of"),
    (lambda doc: doc["multipliers"].extend(doc["multipliers"][len(doc["sets"]):]),
     "^multipliers must be a list of"),
    (lambda doc: doc["multipliers"].__setitem__(-1, 1.0), "^multipliers must be integers$"),
    (lambda doc: doc["multipliers"].__setitem__(-1, True), "^multipliers must be integers$"),
    (lambda doc: doc["sets"].__setitem__(0, doc["sets"][0][:-1]), "^sets must have n \\+ 1 = 4"),
    (lambda doc: doc["sets"][0].__setitem__(0, 2 ** 70), "^set ids must be ids of points$"),
], ids=["same-id", "same-point", "end-past-written", "end-negative", "end-past-int64",
        "float-id", "bool-id", "triple", "not-a-list", "hops-object", "no-hops", "end-inf", "n-1",
        "one-multiplier-more", "one-multiplier-fewer", "one-multiplier-per-hop-set",
        "hop-multiplier-float", "hop-multiplier-bool", "set-too-short", "set-id-past-int64"])
def test_malformed_hops(rewrite, message):
    doc = _document(_mixed_certificate())
    rewrite(doc)
    with pytest.raises(MalformedCertificate, match=message):
        _parse(doc)


def test_too_many_hop_coordinates_is_malformed(monkeypatch):
    """A document cannot make the parser build a hop-set id table of more
    than MAX_HOP_SET_CELLS cells, 2*(n+1) per hop; the check runs before the
    table is built, and a table of exactly the bound parses."""
    doc = _document(_mixed_certificate())
    cells = 2 * len(doc["hops"]) * (doc["n"] + 1)
    monkeypatch.setattr(certify, "MAX_HOP_SET_CELLS", cells - 1)
    with pytest.raises(MalformedCertificate, match="^hops would make more than"):
        _parse(doc)
    monkeypatch.setattr(certify, "MAX_HOP_SET_CELLS", cells)
    assert check_certificate(_parse(doc)).accepted
    monkeypatch.undo()
    assert check_certificate(_parse(doc)).accepted



_LARGE_PAIR = """
import resource
import numpy as np
from eqball.certify import (certificate_from_json, certificate_to_json, check_certificate,
                            generate_equality_certificate)
n = 64
y = np.zeros(n)
y[0] = 0.95
text = certificate_to_json(generate_equality_certificate(np.zeros(n), y, n))
assert check_certificate(certificate_from_json(text)).accepted
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_large_pair_at_n64_certifies_and_checks_in_bounded_memory():
    """(0, 0.95*e1) at n = 64 certifies, round-trips and checks in a child
    process limited to 1 GB of address space, so that a memory regression
    fails here instead of waking the OOM killer, with a peak RSS under
    300 MB (207 MB when this test was written).  The child reports its own
    getrusage peak, which other children of the test process cannot
    raise."""
    limit = 2**30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(certify.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _LARGE_PAIR], capture_output=True, text=True,
                          env=env, preexec_fn=cap_address_space, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) * 1024 < 300e6


def test_one_hop_document_at_n512_parses_and_checks_in_bounded_memory():
    """A one-hop document at n = 512, two written points, parses and checks
    in O(n) memory: a traced peak of at most 16 MB, where building its 512
    shared points and re-checking its two 513-point sets would hold 0.5 GB
    difference stacks.  With one end moved by 1e-3 it is SetInvalid at the
    hop's a-set."""
    n = 512
    hop = 2.0 * alpha(n + 1)
    e1, e2 = np.eye(n)[0], np.eye(n)[1]
    a = 0.4 * e2 - hop / 2.0 * e1
    doc = _one_hop_document(a, a + hop * e1)
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        report = check_certificate(certificate_from_json(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.accepted and report.point_count == 2 + n
    assert peak <= 16e6
    doc["points"][1][0] += 1e-3
    report = check_certificate(_parse(doc))
    assert report.failure == "SetInvalid" and report.detail["set_index"] == 0


def test_parse_and_check_build_no_shared_point(monkeypatch):
    """Neither the parser nor the checker builds a hop's shared points: with
    the generator's kernels refusing every call, a certificate still parses
    and checks."""
    text = certificate_to_json(_mixed_certificate())

    def refuse(*args, **kwargs):
        raise AssertionError("a shared point was built")

    gamma = importlib.import_module("eqball.gamma")  # the package's `gamma` is the function
    for module, name in [(gamma, "_shared_points"), (gamma, "simplex_on_spheres"),
                         (gamma, "gamma1_link"), (certify, "gamma1_link"),
                         (simplex, "simplex_on_spheres")]:
        monkeypatch.setattr(module, name, refuse)
    assert not hasattr(certify, "_shared_points")
    assert check_certificate(certificate_from_json(text)).accepted


def test_hop_margins_are_those_of_its_sets():
    """An accepted hop reports the distance error of its sets as
    |sqrt(beta(n)**2 + ||b - a||**2/4) - 1|, which the re-check of the sets
    gamma1_link builds measures to rounding, and the norm excess of its
    ends."""
    n = 4
    hop = 2.0 * alpha(n + 1) + 4e-10
    e1, e2 = np.eye(n)[0], np.eye(n)[1]
    far = math.sqrt((1.0 + 3e-10) ** 2 - hop * hop / 4.0) * e2
    a, b = far - hop / 2.0 * e1, far + hop / 2.0 * e1
    report = check_certificate(_parse(_one_hop_document(a, b)))
    assert report.accepted
    expected = abs(math.sqrt(beta(n) ** 2 + float(np.linalg.norm(b - a)) ** 2 / 4.0) - 1.0)
    assert report.detail["worst_distance_error"] == pytest.approx(expected, abs=1e-16)
    rows = np.vstack([a, gamma1_link(a, b), b])
    err = simplex.check_sets(rows, True, ids=np.array([np.arange(n + 1), np.arange(1, n + 2)]))[0]
    assert abs(err.max() - expected) < 1e-15
    excess = report.detail["worst_norm_excess"]
    assert excess == pytest.approx(max(np.linalg.norm(a), np.linalg.norm(b)) - 1.0, abs=1e-16)
    assert 2e-10 < excess < 4e-10


@pytest.mark.parametrize("rewrite, reason", [
    (lambda c: {"sets": c.sets[:-1], "multipliers": c.multipliers[:-1]}, "^the last 2H sets"),
    (lambda c: {"sets": np.concatenate([c.sets[:-2], c.sets[-1:], c.sets[-2:-1]])},
     "^the last 2H sets"),
    (lambda c: {"hops": c.hops[::-1]}, "^the last 2H sets"),
    (lambda c: {"hops": c.hops[:-1]}, "^set .* is not an \\(n\\+1\\)-tuple of valid ids$"),
    (lambda c: {"sets": np.concatenate([[[0, 1, 2, len(c.points)]], c.sets[1:]])},
     "^written set 0 names a hop's shared point$"),
    (lambda c: {"claim": (c.claim[0], len(c.points))}, "^claim indices out of range$"),
    (lambda c: {"hops": [(c.hops[0][0], len(c.points))] + c.hops[1:].tolist()},
     "^hops must be pairs of written point ids$"),
    (lambda c: {"hops": np.concatenate([[[c.hops[0][0], len(c.points)]], c.hops[1:]])},
     "^hops must be pairs of written point ids$"),
    (lambda c: {"hops": np.concatenate([[[-1, c.hops[0][1]]], c.hops[1:]])},
     "^hops must be pairs of written point ids$"),
    (lambda c: {"hops": [(0.0, 1)] + c.hops[1:].tolist()},
     "^hops must be pairs of written point ids$"),
    (lambda c: {"hops": None}, "^hops must be pairs of written point ids$"),
], ids=["b-set-missing", "b-set-first", "hops-reordered", "hop-missing", "written-set-shared-id",
        "claim-shared-id", "hop-end-shared-id", "hop-table-end-shared-id", "hop-table-end-negative",
        "hop-end-float", "hops-none"])
def test_checker_rejects_hop_tables_out_of_shape(rewrite, reason):
    """The last 2H set rows must be exactly the hop rows, and written sets,
    claims and hop ends name written points only."""
    cert = _mixed_certificate()
    report = check_certificate(dataclasses.replace(cert, **rewrite(cert)))
    assert report.failure == "MalformedCertificate"
    assert re.search(reason, report.detail["reason"])


def test_failing_hops_are_reported_in_table_order_after_the_written_sets():
    """A moved point fails the first written set that holds it, or else the
    first hop in table order that has it as an end, reported at the row of
    that hop's a-set."""
    cert = _mixed_certificate()
    kept = len(cert.sets) - 2 * len(cert.hops)
    in_written = set(cert.sets[:kept].ravel().tolist())
    ends = [i for hop in cert.hops for i in hop]
    cases = [next(i for i in ends if i in in_written), next(i for i in ends if i not in in_written),
             ends[-1]]
    for victim in cases:
        points = cert.points.copy()
        points[victim, 0] += 1e-3
        report = check_certificate(dataclasses.replace(cert, points=points))
        rows = [i for i in range(kept) if victim in cert.sets[i]]
        rows += [kept + 2 * h for h, hop in enumerate(cert.hops) if victim in hop]
        assert report.failure == "SetInvalid" and report.detail["set_index"] == rows[0]
        assert (rows[0] < kept) == (victim in in_written)


_HOP_NS = [2, 3, 4, 5, 6, 7, 8, 16, 33, 64]


@st.composite
def _near_hops(draw):
    """A dimension n and a pair a, b of a drawn plane at distance
    2*alpha(n+1) + delta, |delta| <= 3*eps_eq, each end on the unit sphere,
    inside the ball or up to 3*eps_eq outside it."""
    n = draw(st.sampled_from(_HOP_NS))
    eps = DEFAULT_TOL.eps_eq
    d = 2.0 * alpha(n + 1) + eps * draw(st.sampled_from([-3.0, -1.0, 0.0, 1.0, 3.0])
                                        | st.floats(-3.0, 3.0))
    radii = (st.sampled_from([d / 2.0, 1.0 - eps, 1.0, 1.0 + eps / 2.0, 1.0 + eps, 1.0 + 3.0 * eps])
             | st.floats(d / 2.0, 1.0 + 3.0 * eps))
    ra, rb = draw(radii), draw(radii)
    assume(abs(ra - rb) <= d <= ra + rb)
    cos = min(max((ra * ra + rb * rb - d * d) / (2.0 * ra * rb), -1.0), 1.0)
    if draw(st.booleans()):
        u, v = np.eye(n)[0], np.eye(n)[-1]
    else:
        u, v = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(
            (n, 2)))[0].T
    return n, ra * u, rb * (cos * u + math.sqrt(1.0 - cos * cos) * v)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_near_hops())
def test_hop_rule_accepts_only_pairs_gamma1_link_builds(case):
    """Soundness of the hop rule near its tolerances: the checker accepts a
    one-hop certificate exactly when gamma1_link builds the hop's shared
    points and re-checks both of its sets without error, and rejects every
    pair whose argument checks fail as SetInvalid."""
    n, a, b = case
    try:
        gamma1_link(a, b)
        error = None
    except (InputError, ConstructionError) as exc:
        error = exc
    report = check_certificate(_parse(_one_hop_document(a, b)))
    assert report.accepted == (error is None), (report, error)
    if error is not None:
        assert isinstance(error, InputError) and report.failure == "SetInvalid"


def _chained_fragment_point(n):
    """An outer point that the closing relation of n chains to the anchor,
    through a hub where it has such a chain (not at n = 5): the first end of
    a kept hop that is no hop's second end, at a norm that chains."""
    gen, frag = _Generator(n, DEFAULT_TOL), _closing_fragment(n, DEFAULT_TOL)
    starts = sorted(set(frag.hop_rows[:, 0].tolist()) - set(frag.hop_rows[:, -1].tolist()))
    chained = [p for p in frag.points[starts] if np.linalg.norm(p) >= gen.lam]
    return next((p for p in chained if len(gen._plan(gen._section(p) @ p)) == 5), chained[0])


def _holding(n, points):
    """A generator whose builder holds the registered chains of the points."""
    gen = _Generator(n, DEFAULT_TOL)
    for p in points:
        gen.resolve(p)
    gen.builder.flush()
    return gen


@pytest.mark.parametrize("n", [2, 3, 5])
def test_merged_closing_relation_registers_what_emitting_it_would(n):
    """The precompiled closing fragment merges into a generator the points,
    sets, stage tags and hops that building the closing relation in that
    generator registers: into a fresh builder, one holding the chain of an
    outer point, and one that already holds some of the fragment's points,
    sets and hops (the anchor and the chain of a point of the fragment,
    _chained_fragment_point)."""
    frag = _closing_fragment(n, DEFAULT_TOL)
    for held in ([], [_in_plane(n, 0.97, -0.4)], [_chained_fragment_point(n)]):
        merged, emitted = _holding(n, held), _holding(n, held)
        before = len(merged.builder.sets)
        assert bool(held) == bool(set(frag.keys) & set(merged.builder.index))
        merged._merge_closing()
        emitted._emit_closing()
        for gen in (merged, emitted):
            gen.builder.flush()
        one, other = merged.builder, emitted.builder
        assert one.points.tobytes() == other.points.tobytes()
        assert list(one.index.items()) == list(other.index.items())
        assert np.array_equal(one.sets, other.sets) and one.stages == other.stages
        assert list(one.hops) == list(other.hops)
        for mine, theirs in zip(one.tables(), other.tables()):
            assert np.array_equal(mine, theirs)
    # The fragment point's chain was registered before the merge.
    assert len(one.sets) < before + len(frag.sets)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_a_cap_inside_the_merged_closing_relation_fails_as_emitting_it_would(monkeypatch, n):
    """A set cap that falls inside the merged fragment, at its first, middle
    or last new set, fails with the stage and message of building the
    closing relation set by set in that generator."""
    frag = _closing_fragment(n, DEFAULT_TOL)
    held = [_chained_fragment_point(n)]
    gen = _holding(n, held)
    base = len(gen.builder.sets)
    gen._merge_closing()
    gen.builder.flush()
    added = len(gen.builder.sets) - base
    assert 0 < added < len(frag.sets)
    for cap in (base, base + added // 2, base + added - 1):
        monkeypatch.setattr(certify, "MAX_CERT_SETS", cap)
        errors = []
        for build in (_Generator._merge_closing, _Generator._emit_closing):
            gen = _holding(n, held)
            with pytest.raises(GenerationFailure) as info:
                build(gen)
                gen.builder.flush()
            errors.append((info.value.stage, info.value.message))
        assert errors[0] == errors[1]
        assert errors[0][1] == f"certificate exceeded {cap} sets"


@st.composite
def _certified_pairs(draw):
    """A dimension n in 2..8 and two points of the ball, each at a boundary
    radius or a drawn one, along a drawn direction."""
    n = draw(st.integers(2, 8))
    radii = st.sampled_from(_boundary_radii(n)) | st.floats(0.0, 1.0)

    def point():
        v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        norm = float(np.linalg.norm(v))
        assume(norm > 0.1)
        return draw(radii) * v / norm

    return n, point(), point()


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(_certified_pairs())
def test_certificates_round_trip_bit_for_bit(case):
    """A written certificate leaves out two sets and one multiplier per hop;
    parsing it gives its written points bit for bit, with equal sets, claim,
    multipliers and hops, and writing it again gives the same text."""
    n, x, y = case
    cert = generate_equality_certificate(x, y, n)
    text = certificate_to_json(cert)
    doc = json.loads(text)
    assert len(doc["sets"]) + 2 * len(doc["hops"]) == len(cert.sets)
    assert len(doc["multipliers"]) == len(doc["sets"]) + len(doc["hops"])
    back = certificate_from_json(text)
    assert back.points.tobytes() == cert.points.tobytes()
    assert back.sets.dtype == cert.sets.dtype == np.int64
    assert np.array_equal(back.sets, cert.sets)
    assert (back.claim, back.multipliers) == (cert.claim, cert.multipliers)
    assert back.hops.dtype == cert.hops.dtype == np.int64
    assert np.array_equal(back.hops, cert.hops)
    assert certificate_to_json(back) == text
    assert check_certificate(back).accepted


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
    assert doc["version"] == 4
    kept = len(doc["sets"])
    assert kept + 2 * len(doc["hops"]) == len(cert.sets)
    assert doc["multipliers"] == cert.multipliers[:kept] + cert.multipliers[kept::2]
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
    lambda cert: {"sets": [(cert.sets[0][0] + 0.9,) + tuple(cert.sets[0][1:])]
                  + cert.sets[1:].tolist()},
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
    # An (S, n+1) numpy id table.
    cert = _mixed_certificate()
    report = check_certificate(dataclasses.replace(cert, sets=np.array(cert.sets)))
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
    assert np.array_equal(verify._sum_rows(ids, 6), rows)


def test_tampered_point_is_set_invalid_before_the_algebra():
    cert = _mixed_certificate()
    victim = cert.sets[3][0]
    points = cert.points.copy()
    points[victim, 0] += 1e-3
    report = check_certificate(dataclasses.replace(cert, points=points))
    assert report.failure == "SetInvalid"
    assert report.detail["set_index"] == min(i for i, s in enumerate(cert.sets) if victim in s)
    assert report.detail["worst_distance_error"] > 1e-4


def test_certificate_without_multipliers_is_malformed():
    """The integer combination is the only claim test: a document without
    multipliers, or of another version, has nothing the checker accepts."""
    cert = _mixed_certificate()
    report = check_certificate(dataclasses.replace(cert, multipliers=None))
    assert not report.accepted and report.failure == "MalformedCertificate"
    doc = json.loads(certificate_to_json(cert))
    del doc["multipliers"]
    with pytest.raises(MalformedCertificate, match="^missing field 'multipliers'$"):
        certificate_from_json(json.dumps(doc))
    doc = json.loads(certificate_to_json(cert))
    for version in (1, 2, 3, 99, 4.0, True):
        doc["version"] = version
        with pytest.raises(MalformedCertificate, match="^unsupported certificate version$"):
            certificate_from_json(json.dumps(doc))
    del doc["version"]
    assert check_certificate(certificate_from_json(json.dumps(doc))).accepted


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
    assert _closing_fragment.cache_info().misses == 1


def test_unfinished_resolution_is_a_generation_failure():
    """A set member whose resolution is still open has no integer combination
    yet, so the set's relation cannot be built."""
    gen = _Generator(2, DEFAULT_TOL)
    x, y = np.zeros(2), np.array([0.0, 0.9])
    _, companions = constant_lemma_relation(x, gen.beta_next, 2)
    gen.memo[_point_key(companions[0])] = OUTER, None  # as resolve() marks a point it has entered
    with pytest.raises(GenerationFailure, match="a set member is still being resolved") as err:
        gen.run(x, y)
    assert err.value.stage == "inner-lemma"
    assert len(_Generator(2, DEFAULT_TOL).run(x, y).multipliers) > 0


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
    assert cert.sets.tolist() == [] and cert.claim == (0, 0)
    assert cert.points.shape == (1, 3)
    assert check_certificate(cert).accepted


def test_endpoints_4e_13_apart_are_two_points():
    """Points are one point only when their coordinates compare equal, so
    endpoints 4e-13 apart get two claim ids holding exactly x and y, and the
    certificate proves f(x) = f(y) after the JSON round trip."""
    x, y = np.array([0.3, 0.2]), np.array([0.3 + 4e-13, 0.2])
    parsed = certificate_from_json(certificate_to_json(generate_equality_certificate(x, y, 2)))
    i, j = parsed.claim
    assert i != j
    assert parsed.points[i].tobytes() == x.tobytes()
    assert parsed.points[j].tobytes() == y.tobytes()
    assert check_certificate(parsed).accepted


def test_point_ids_follow_exact_coordinate_equality():
    """Rows 1e-16 apart that straddle a 12-decimal rounding boundary get two
    ids; equal rows, and rows that differ only in a signed zero, get one."""
    builder = _Builder(2, DEFAULT_TOL)
    rows = np.array([[0.1234567890125, 0.5], [0.1234567890124999, 0.5],
                     [0.1234567890125, 0.5], [0.0, -0.0], [-0.0, 0.0]])
    assert builder.ids(rows).tolist() == [0, 1, 0, 2, 2]
    assert builder.ids(rows[::-1]).tolist() == [2, 2, 0, 1, 0]
    assert builder.points.tobytes() == rows[[0, 1, 3]].tobytes()


# -- near the input boundaries ----------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("axis, offset", [(1, 1e-10), (0, 1e-10), (0, -1e-9), (1, 1e-12)])
def test_endpoints_within_eps_of_the_anchor_certify(n, axis, offset):
    """A point within eps_eq of the anchor has a dedup key of its own and
    chains to the anchor like any shell point; its section's second axis is
    its residual direction, or the tie-break axis below RANK_RESIDUAL."""
    x = _Generator(n, DEFAULT_TOL).anchor.copy()
    x[axis] += offset
    y = np.zeros(n)
    y[1] = 0.95
    cert = generate_equality_certificate(x, y, n)
    assert check_certificate(cert).accepted
    assert cert.claim[0] != cert.claim[1]


def _boundary_radii(n):
    lam = lambda_shell(n)
    radii = [0.0, 1e-13, 0.5, 1.0 - 1e-15, 1.0, (lam + 1.0) / 2.0]
    for edge in (beta(n + 1), lam, 2.0 * alpha(n + 1) - 1.0):
        radii += [edge - 1e-12, edge + 1e-12]
    return radii


@st.composite
def _boundary_pairs(draw):
    """An endpoint at a boundary radius along +-e1, e2 or a drawn direction;
    its partner a drawn point or the endpoint moved by at most 1e-11."""
    n = draw(st.integers(2, 4))

    def direction():
        kind = draw(st.sampled_from(["e1", "-e1", "e2", "drawn"]))
        if kind != "drawn":
            return {"e1": 1.0, "-e1": -1.0, "e2": 1.0}[kind] * np.eye(n)[kind == "e2"]
        v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        norm = float(np.linalg.norm(v))
        assume(norm > 0.1)
        return v / norm

    x = draw(st.sampled_from(_boundary_radii(n))) * direction()
    if draw(st.booleans()):
        y = draw(st.sampled_from(_boundary_radii(n)) | st.floats(0.0, 1.0)) * direction()
    else:
        y = x + np.array(draw(st.lists(st.floats(-1e-11, 1e-11), min_size=n, max_size=n)))
    return n, x, y


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_boundary_pairs())
def test_boundary_pairs_certify_or_fail_cleanly(pair):
    """A certificate the checker accepts, an InputError, or a GenerationFailure
    of a named stage; never a construction error surfacing mid-stage."""
    n, x, y = pair
    try:
        cert = generate_equality_certificate(x, y, n)
    except InputError:
        return
    except GenerationFailure as exc:
        assert exc.stage != "construction", exc.message
        return
    assert check_certificate(cert).accepted


# -- fast paths, bit for bit -----------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5])
def test_generator_section_matches_section2d(n):
    """The generator's section rows are section2d(anchor, p)'s basis, on
    random points, on the e1 axis and within 1e-11 of it."""
    gen = _Generator(n, DEFAULT_TOL)
    rng = np.random.default_rng(n)
    e1, last = np.eye(n)[0], np.eye(n)[-1]
    points = [_ball_point(rng, n) for _ in range(40)]
    points += [0.9 * e1, -0.9 * e1, -1e-13 * e1, 0.97 * e1 + 1e-11 * last,
               -0.5 * e1 - 5e-12 * last, 0.8 * e1 + 2e-10 * last]
    for p in points:
        assert gen._section(p).tobytes() == section2d(gen.anchor, p).basis.tobytes()


def test_stacked_waypoint_embedding_matches_one_product_per_waypoint():
    rng = np.random.default_rng(12)
    for n in range(2, 9):
        gen = _Generator(n, DEFAULT_TOL)
        for _ in range(40):
            basis = gen._section(_ball_point(rng, n))
            local = rng.uniform(-1.0, 1.0, (int(rng.integers(2, 12)), 2))
            one_by_one = np.array([(w[None, :] @ basis)[0] for w in local])
            assert (local[:, None, :] @ basis)[:, 0].tobytes() == one_by_one.tobytes()


@st.composite
def _annulus_points(draw):
    """A dimension n in 2..64 and a point of the outer annulus at a boundary
    radius (lambda_shell(n), 1, the anchor's norm +-1e-12) or a drawn one,
    at the angle 0, pi, that of the hub axis or a drawn one from the
    anchor's axis toward e_n."""
    n = draw(st.integers(2, 64))
    lam, anchor = lambda_shell(n), (lambda_shell(n) + 1.0) / 2.0
    radius = draw(st.sampled_from([lam, 1.0, anchor - 1e-12, anchor + 1e-12])
                  | st.floats(lam, 1.0))
    angle = draw(st.sampled_from([0.0, math.pi, math.pi / 2.0]) | st.floats(0.0, math.pi))
    p = np.zeros(n)
    p[0], p[-1] = radius * math.cos(angle), radius * math.sin(angle)
    return n, p


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_annulus_points())
def test_hop_plans_take_two_or_four_hops_in_the_ball(case):
    """Every annulus point plans to the anchor in 2 or 4 hops of its section,
    each within eps_eq of 2*alpha(n+1), through waypoints in the ball."""
    n, p = case
    gen = _Generator(n, DEFAULT_TOL)
    p_local = gen._section(p) @ p
    plan = gen._plan(p_local)
    assert len(plan) - 1 in (2, 4)
    assert plan[0] is p_local and np.array_equal(plan[-1], gen.anchor_local)
    hops = np.linalg.norm(np.diff(plan, axis=0), axis=1)
    assert np.max(np.abs(hops - 2.0 * alpha(n + 1))) <= DEFAULT_TOL.eps_eq
    assert max(np.linalg.norm(plan[1:], axis=1)) <= 1.0


def _failing_closing(monkeypatch, request, built):
    """Make every closing relation built from now on fail with [closing]
    boom, recording its n in `built`; the cache is cleared so that the
    patched build runs, and again after the test."""
    def fail(self):
        built.append(self.n)
        raise GenerationFailure("closing", "boom")

    monkeypatch.setattr(_Generator, "_emit_closing", fail)
    _closing_fragment.cache_clear()
    request.addfinalizer(_closing_fragment.cache_clear)


def test_call_history_does_not_change_a_certificate(monkeypatch, request):
    """Certificates share the per-n hubs and closing relations; a pair
    certified from cold state, then again after pairs at other n and a
    failed n = 7 closing relation, gives the same text."""
    _hubs.cache_clear()
    x, y = _in_plane(3, 0.62, 0.9), _in_plane(3, 0.1, 0.4)
    first = certificate_to_json(generate_equality_certificate(x, y, 3))
    for n in (2, 4, 5):
        generate_equality_certificate(_in_plane(n, 0.97, -0.4), _in_plane(n, 0.3, 0.5), n)
    _failing_closing(monkeypatch, request, [])
    y7 = np.zeros(7)
    y7[0] = 0.95
    with pytest.raises(GenerationFailure, match=r"^\[closing\] boom$"):
        generate_equality_certificate(np.zeros(7), y7, 7)
    monkeypatch.undo()
    assert certificate_to_json(generate_equality_certificate(x, y, 3)) == first


# -- queued registration ---------------------------------------------------------


def _spy_on_links(monkeypatch):
    """Every gamma1_link call of the builder, as its two (k, n) end stacks."""
    calls = []
    real = certify.gamma1_link

    def spy(A, B, tol):
        calls.append((A, B))
        return real(A, B, tol)

    monkeypatch.setattr(certify, "gamma1_link", spy)
    return calls


def test_one_gamma1_links_call_builds_every_chain(monkeypatch):
    """Both endpoints chain to the anchor, two and four hops; their hops
    share one call.  At a pair with bridges, the flush's one call builds
    every chain and bridge hop of the run, in request order."""
    calls = _spy_on_links(monkeypatch)
    generate_equality_certificate(np.array([0.95, 0.0]), np.array([0.0, 0.9]), 2)
    assert [len(A) for A, _ in calls] == [6]
    _closing_fragment(2, DEFAULT_TOL)
    chains, bridges = [], []
    add_chain, bridge_partner = _Builder.add_chain, _Generator._bridge_partner

    def chain_spy(self, waypoints, stage):
        chains.append(waypoints)
        return add_chain(self, waypoints, stage)

    def partner_spy(self, p):
        q = bridge_partner(self, p)
        bridges.append(np.concatenate([p, q]))
        return q

    monkeypatch.setattr(_Builder, "add_chain", chain_spy)
    monkeypatch.setattr(_Generator, "_bridge_partner", partner_spy)
    calls.clear()
    generate_equality_certificate(np.array([0.05, 0.1]), np.array([0.5, 0.2]), 2)
    assert len(calls) == 1 and len(bridges) == 8
    A, B = calls[0]
    assert np.array_equal(A, np.concatenate([w[:-1] for w in chains]))
    assert np.array_equal(B, np.concatenate([w[1:] for w in chains]))
    rows = np.concatenate([A, B], axis=1)
    for hop in bridges:
        assert (rows == hop).all(axis=1).any()
    _closing_fragment(3, DEFAULT_TOL)
    calls.clear()
    assert check_certificate(_mixed_certificate()).accepted
    assert len(calls) == 1


@pytest.mark.parametrize("x, y, message", [
    ([0.05, 0.1], [0.5, 0.2], "||b-a||=1.722148357367, need 1.732050807569"),
    ([-0.102, 0.013, 0.07, 0.052, 0.235], [-0.098, -0.128, 0.156, -0.117, 0.036],
     "||b-a||=1.541073291683, need 1.549193338483"),
], ids=["n2", "n5"])
def test_bridge_partner_off_hop_length_fails_as_its_own_hop(monkeypatch, x, y, message):
    """A bridge hop queued with the chains fails with its own hop-length
    check, the stage and message it had when each bridge hop was built on
    its own."""
    bridge_partner = _Generator._bridge_partner
    monkeypatch.setattr(_Generator, "_bridge_partner", lambda self, p: 0.99 * bridge_partner(self, p))
    with pytest.raises(GenerationFailure) as info:
        generate_equality_certificate(np.array(x), np.array(y), len(x))
    assert (info.value.stage, info.value.message) == ("construction", message)


@pytest.mark.parametrize("x, y, digest", [
    ([0.437, -0.049], [-0.405, -0.169],
     "21dcdbce5773b87f318d7684f8afd5c0fd5304d22fbbd23211981b7a552af5f6"),
    ([-0.183, -0.052, -0.072], [-0.225, 0.17, 0.04],
     "d5f5fc363ae98a6b791547342072739daa5471a3af28c17e9836bcb35a38ceb6"),
    ([-0.102, 0.013, 0.07, 0.052, 0.235], [-0.098, -0.128, 0.156, -0.117, 0.036],
     "fe7e75b73990f155490d2b487fad17eafe95dacc7775f0ee112e25e6bbe04bee"),
], ids=["n2", "n3", "n5"])
def test_bridge_heavy_certificates_keep_their_bytes(x, y, digest):
    """Three pairs whose certificates hold many bridge sets (32 of 178, 12
    of 58 and 20 of 94), pinned by the sha256 of their JSON text as built
    when each bridge hop took its own gamma1_link call."""
    cert = generate_equality_certificate(np.array(x), np.array(y), len(x))
    assert hashlib.sha256(certificate_to_json(cert).encode()).hexdigest() == digest


@pytest.mark.parametrize("x, y, digest", [
    ([-0.287, -0.885], [0.797, -0.057],
     "830aa2495e18417556821929291edc964f4052e2249cf93654df220682fb6d17"),
    ([-0.587, 0.505], [0.22, 0.119],
     "10f43fbaef98df3458a98238a258c4916ca615ac115c04a7c4d130bab0181b9c"),
    ([-0.242, 0.652], [-0.66, 0.255],
     "0717da3c6702324bcf7a5d78466bc4e889178d66bd1cef449727248af94307a3"),
    ([0.126, 0.111, -0.846], [0.531, -0.126, 0.278],
     "2f58c3150663b48991f27c6a4329ecbfbc01d5062a6c096f7cc27fbf14ac12ce"),
    ([0.622, 0.081, -0.351], [-0.585, -0.093, -0.103],
     "89434707c8991fd9b4038b932ea9f4444e368d3dfc86d33f60b5a579e7497615"),
    ([-0.417, -0.162, -0.315], [-0.613, -0.244, -0.258],
     "e806852c893ae2742b0d75045649dcd3fb3beeab9730e10008587da4bf995346"),
    ([0.117, 0.595, -0.266, -0.687], [0.011, -0.256, 0.685, 0.652],
     "f0b6e7d0a7115be69f003a15d25fd5eb5db84e93bc6dfeb70a21bbb0863caa47"),
    ([0.025, -0.014, -0.098, -0.061], [0.258, 0.112, -0.277, 0.719],
     "b803077a693093c5c36506cb5c3d24f709a0e9b35a89cff43d3f6c13f5d3c2b8"),
    ([0.337, -0.427, -0.512, -0.272], [-0.125, 0.288, 0.037, 0.138],
     "7efb1d0a1b468d073d9960f7e9144e4ae46753767782647ac99d2b14838df90b"),
    ([-0.776, 0.136, -0.533, -0.1, -0.112], [0.003, -0.006, -0.184, 0.883, -0.176],
     "4f25566fbf38ee9ca84b12087a8b0c8b2e3a1ef9e38e2fcad5cc418ea83f4ab2"),
    ([-0.28, -0.155, 0.325, -0.225, -0.183], [-0.448, -0.073, -0.232, 0.008, -0.264],
     "6ece383358269a7b03f578d28d4d064d245e8e53fb436321e4cb6cbddb0815d4"),
    ([0.422, -0.525, -0.071, 0.603, -0.183], [0.211, -0.298, 0.009, 0.062, 0.419],
     "1bae22200cae5c628e6b97ae0158f7c502b4e25be4a1fa398c59e2080ae9eee7"),
], ids=["n2-same", "n2-cross", "n2-bridge-same", "n3-same", "n3-cross", "n3-bridge-cross",
        "n4-same", "n4-cross", "n4-bridge-cross", "n5-same", "n5-bridge-same",
        "n5-bridge-cross"])
def test_builder_certificates_keep_their_bytes(x, y, digest):
    """Same-class pairs, cross-class pairs, which merge the closing relation
    into a builder that holds some of its points, and pairs with many bridge
    sets (at least a fifth), pinned by the sha256 of their JSON text as
    built when the builder registered row by row."""
    cert = generate_equality_certificate(np.array(x), np.array(y), len(x))
    assert hashlib.sha256(certificate_to_json(cert).encode()).hexdigest() == digest


@pytest.mark.parametrize("x, y, n, message, entered", [
    (np.array([0.05, 0.1]), np.array([0.5, 0.2]), 2, "[bridge] certificate exceeded 40 sets", 16),
    (np.zeros(3), np.array([0.95, 0.0, 0.0]), 3, "[shell-link] certificate exceeded 40 sets", 5),
])
def test_set_cap_fails_at_the_same_request(monkeypatch, request, x, y, n, message, entered):
    """A certificate that outgrows the cap fails at the request that overflows
    it: same stage, and as many points entered, as when every request
    registered at once."""
    monkeypatch.setattr(certify, "MAX_CERT_SETS", 40)
    _closing_fragment.cache_clear()
    request.addfinalizer(_closing_fragment.cache_clear)
    gen = _Generator(n, DEFAULT_TOL)
    with pytest.raises(GenerationFailure, match=f"^{re.escape(message)}$"):
        gen.run(x, y)
    assert len(gen.memo) == entered


def test_closing_relation_at_n7_fits_under_the_cap():
    y = np.zeros(7)
    y[0] = 0.95
    cert = generate_equality_certificate(np.zeros(7), y, 7)
    assert check_certificate(certificate_from_json(certificate_to_json(cert))).accepted
    assert len(cert.sets) == 208


def test_closing_failure_raises_on_each_pair(monkeypatch, request):
    """A closing relation that fails to build raises its failure, stage and
    message, on every cross-class pair, and is built once per pair: a
    failure is not cached."""
    built = []
    _failing_closing(monkeypatch, request, built)
    y = np.zeros(7)
    y[0] = 0.95
    for x in (np.zeros(7), _in_plane(7, 0.1, 0.3)):
        with pytest.raises(GenerationFailure, match=r"^\[closing\] boom$"):
            generate_equality_certificate(x, y, 7)
    assert built == [7, 7]


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
    assert Counter(gen.builder.stages) == {"shell-link": 116, "bridge": 26, "inner-lemma": 5,
                                           "annulus-step": 3, "closing": 2}


@pytest.mark.parametrize("n, stages", [
    (2, {"shell-link": 188, "bridge": 48, "inner-lemma": 21, "annulus-step": 20, "closing": 2}),
    (3, {"shell-link": 92, "bridge": 24, "inner-lemma": 4, "annulus-step": 3, "closing": 2}),
    (4, {"shell-link": 60, "bridge": 16, "inner-lemma": 1, "closing": 2}),
    (5, {"shell-link": 76, "bridge": 20, "inner-lemma": 1, "closing": 2}),
])
def test_stage_counts_of_the_closing_relation(n, stages):
    frag = _closing_fragment(n, DEFAULT_TOL)
    assert len(frag.sets) == len(frag.stages)
    assert Counter(frag.stages) == stages


@pytest.mark.parametrize("x, y, n, sets, points, named, total", [
    (_in_plane(5, 0.85, -0.3), _in_plane(5, 0.1875, 0.65), 5, 140, 72, 412, 140),
    (np.array([0.35, 0.1]), np.array([0.88, 0.2]), 2, 320, 184, 456, 336),
    (np.zeros(3), np.array([0.95, 0.0, 0.0]), 3, 154, 82, 298, 158),
    (_in_plane(4, 0.6, 0.2), _in_plane(4, 0.3, -0.7), 4, 62, 33, 153, 62),
])
def test_certificate_shape_is_pinned(x, y, n, sets, points, named, total):
    """Sets, written points, named points (written, and n per hop) and sum
    of |multipliers| of fixed pairs; the first is the fixed pair of the
    certify-deep benchmark workload."""
    cert = generate_equality_certificate(x, y, n)
    assert (len(cert.sets), len(cert.points), cert.point_count,
            sum(map(abs, cert.multipliers))) == (sets, points, named, total)
