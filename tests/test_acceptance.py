"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each test runs its eqball.verify suite at the contract's sizes and seed and
asserts the contract's bounds on the measurements the suite returns;
`eqball verify-all` runs the same suites at interactive sizes.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines as
they complete.  Sample counts, seeds and bounds are fixed here, not
configurable: they are the contract.
"""
from eqball.verify import (
    suite_center_bounds,
    suite_certificates,
    suite_constants,
    suite_enlargement,
    suite_eta_mu_nu,
    suite_falsifier,
    suite_gamma_oracle,
    suite_k_region,
    suite_negative_controls,
    suite_shell_geometry,
)


def report(criterion, name, passed, detail):
    line = f"[criterion {criterion}] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_constants():
    r = suite_constants(max_k=64)
    report(1, "constants", r.passed and r.worst_slack < 1e-12 and r.elapsed < 1.0,
           f"worst dev {r.worst_slack:.2e}, {r.elapsed:.2f}s")


def test_criterion_2_enlargement():
    r = suite_enlargement(range(2, 9), per_n=1000, seed=202)
    m = r.measures
    passed = (r.passed and m["successes"] == r.count == 7000 and m["worst_dist"] < 1e-9
              and m["worst_norm"] <= 1 + 1e-9 and r.elapsed < 30.0)
    report(2, "enlargement", passed,
           f"{m['successes']}/{r.count}, dist err {m['worst_dist']:.2e}, "
           f"max norm 1+{m['worst_norm'] - 1:.2e}, {r.elapsed:.1f}s")


def test_criterion_3_center_bounds():
    r = suite_center_bounds(range(2, 7), per_n=5000, seed=303)
    violations = r.measures["violations"]
    report(3, "center bounds", r.passed and r.count == 50000 and violations == 0,
           f"0 expected violations, got {violations}; worst slack {r.worst_slack:.2e}")


def test_criterion_4_k_region():
    r = suite_k_region(range(2, 7), samples_per_n=100000, seed=404)
    m = r.measures
    passed = (r.passed and m["worst_norm"] <= 1 + 1e-9 and m["worst_unit"] <= 1e-9
              and m["violations"] == 0)
    report(4, "K-region", passed,
           f"max combo norm 1+{m['worst_norm'] - 1:.2e}, "
           f"inner-product violations {m['violations']}")


def test_criterion_5_gamma_oracle():
    r = suite_gamma_oracle(range(2, 7), pairs_per_n=1000, monotone_trials=200, seed=505)
    monotone = r.measures["monotone"]
    passed = r.passed and r.worst_slack <= 2e-4 and monotone >= 190 and r.elapsed < 120.0
    report(5, "gamma oracle agreement", passed,
           f"worst |closed-brute| {r.worst_slack:.2e}, monotone {monotone}/~200, "
           f"{r.elapsed:.1f}s")


def test_criterion_6_shell_geometry():
    r = suite_shell_geometry(max_n=64)
    report(6, "shell geometry", r.passed and r.worst_slack < 1e-12,
           f"worst closed-form dev {r.worst_slack:.2e}")


def test_criterion_7_eta_and_cap_extension():
    r = suite_eta_mu_nu(max_n=64, caps=1000, seed=707)
    m = r.measures
    report(7, "eta fixed point and cap extension",
           r.passed and m["fixed_point"] < 1e-12 and m["cap"] < 1e-9,
           f"fixed-point residual {m['fixed_point']:.2e}, cap worst dev {m['cap']:.2e}")


def test_criterion_8_certificates():
    r = suite_certificates((2, 3, 4), pairs_per_n=100, assignments=100, seed=808)
    m = r.measures
    passed = (r.passed and m["accepted"] == r.count == 300 and r.worst_slack < 1e-8
              and m["worst_sets"] <= 5000 and m["worst_time"] < 10.0
              and m["soundness_gap"] < 1e-6)
    report(8, "equality certificates", passed,
           f"{m['accepted']}/{r.count} accepted, worst residual {r.worst_slack:.2e}, "
           f"max sets {m['worst_sets']}, max time {m['worst_time']:.2f}s, "
           f"soundness gap {m['soundness_gap']:.2e}{', ' + r.note if r.note else ''}")


def test_criterion_9_falsifier():
    r = suite_falsifier(samples=1000, frames_per_n=100, seed=909)
    m = r.measures
    passed = (r.passed and m["quadratic_spread"] > 0.01 and m["constant_spread"] < 1e-12
              and m["sphere"] < 1e-9)
    report(9, "falsifier", passed,
           f"quadratic spread {m['quadratic_spread']:.3f}, "
           f"constant spread {m['constant_spread']:.2e}, sphere max dev {m['sphere']:.2e}")


def test_criterion_10_negative_controls():
    r = suite_negative_controls(seed=1010)
    m = r.measures
    passed = (r.passed and m["tampered"] == "SetInvalid"
              and m["single_link"] == m["single_set"] == "ClaimNotImplied")
    report(10, "negative controls", passed,
           f"tampered -> {m['tampered']}, single-set claim -> {m['single_link']}")
