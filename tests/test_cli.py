import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqball
from eqball.certify import certificate_from_json
from eqball import cli, weights
from eqball.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_output(capsys):
    code, out, _ = run_cli(capsys, "constants", "--n", "2", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["beta"]["3"] == pytest.approx(0.5773502691896258, abs=1e-15)
    assert doc["alpha"]["3"] == pytest.approx(0.8660254037844386, abs=1e-15)
    assert doc["lambda_n"] == pytest.approx(0.858, abs=1e-3)
    assert doc["beta_fixed_point_residual"] < 1e-12


def test_constants_rejects_n1(capsys):
    code, _, err = run_cli(capsys, "constants", "--n", "1")
    assert code == 2
    assert "n >= 2" in err


def test_constants_deterministic_without_timestamp(capsys):
    _, out1, _ = run_cli(capsys, "constants", "--n", "3", "--no-timestamp")
    _, out2, _ = run_cli(capsys, "constants", "--n", "3", "--no-timestamp")
    assert out1 == out2


def test_enlarge_roundtrip(tmp_path, capsys):
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps([[1.0, 0.0, 0.0]]))
    code, out, _ = run_cli(capsys, "enlarge", "--input", str(seed_file), "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["final_size"] == 4
    assert doc["verification"]["max_pairwise_distance_error"] < 1e-9
    assert doc["verification"]["max_norm"] <= 1 + 1e-9


def test_enlarge_maximal_input_unchanged(tmp_path, capsys):
    from eqball.simplex import canonical_simplex

    seed_file = tmp_path / "max.json"
    pts = canonical_simplex(2, 3).points.tolist()
    seed_file.write_text(json.dumps(pts))
    code, out, _ = run_cli(capsys, "enlarge", "--input", str(seed_file), "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["final_size"] == 3 and doc["trace"] == []


# An array nested past Python's recursion limit, which json.loads meets as RecursionError.
DEEP_JSON = "[" * 3000 + "]" * 3000


def test_enlarge_invalid_input_exit2(tmp_path, capsys):
    seed_file = tmp_path / "bad.json"
    for text in (json.dumps([[1.2, 0.0]]),               # outside the ball
                 json.dumps([["1", 0], [0, False]]),     # coordinates must be JSON numbers
                 json.dumps([[]]),                       # a point needs n >= 1 coordinates
                 DEEP_JSON):
        seed_file.write_text(text)
        code, out, err = run_cli(capsys, "enlarge", "--input", str(seed_file))
        assert code == 2 and out == ""
        assert err.startswith("error: invalid input set: ") and len(err.splitlines()) == 1


def test_falsify_constant_consistent(capsys):
    code, out, _ = run_cli(capsys, "falsify", "--expr", "1", "--n", "2",
                           "--samples", "50", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "consistent"
    assert doc["empirical_weight"] == pytest.approx(3.0, abs=1e-12)


def test_falsify_quadratic_disproved(capsys):
    code, out, _ = run_cli(capsys, "falsify", "--expr", "dot(x,x)", "--n", "3",
                           "--samples", "1000", "--no-timestamp")
    assert code == 3
    doc = json.loads(out)
    assert doc["verdict"] == "disproved"
    assert doc["spread"] > 0.01


def test_falsify_parse_error(capsys):
    code, _, err = run_cli(capsys, "falsify", "--expr", "norm(", "--n", "2")
    assert code == 2
    assert "parse" in err


def test_falsify_too_deep_expression_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "falsify", "--expr", "(" * 5000 + "x1" + ")" * 5000,
                             "--n", "2")
    assert (code, out) == (2, "")
    assert err == "error: cannot parse expression: expression is nested too deeply\n"


@pytest.mark.parametrize("x, y", [(DEEP_JSON, "0.6,-0.3"), ("0.2,0.1", DEEP_JSON)], ids=["x", "y"])
def test_certify_too_deep_point_is_an_input_error(capsys, x, y):
    code, out, err = run_cli(capsys, "certify", "--x", x, "--y", y)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: ") and len(err.splitlines()) == 1


def test_certify_check_roundtrip(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", "--x", "0.2,0.1", "--y", "0.6,-0.3",
                         "--out", str(cert_file), "--quiet")
    assert code == 0
    code, out, _ = run_cli(capsys, "check", "--input", str(cert_file), "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["accepted"] is True
    assert doc["residual"] < 1e-8
    written = json.loads(cert_file.read_text())
    assert doc["hops"] == len(written["hops"]) > 0
    assert doc["points"] == len(written["points"]) + 2 * doc["hops"]
    assert doc["sets"] == len(written["sets"]) + 2 * doc["hops"]


def test_certify_reflexive(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", "--x", "0.5,0.0", "--y", "0.5,0.0",
                         "--out", str(cert_file), "--quiet")
    assert code == 0
    doc = json.loads(cert_file.read_text())
    assert doc["sets"] == []
    code, out, _ = run_cli(capsys, "check", "--input", str(cert_file), "--no-timestamp")
    assert code == 0


def test_check_tampered_exit4(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    run_cli(capsys, "certify", "--x", "0.2,0.1", "--y", "0.6,-0.3",
            "--out", str(cert_file), "--quiet")
    doc = json.loads(cert_file.read_text())
    doc["points"][doc["sets"][0][0]][0] += 1e-3
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check", "--input", tampered.as_posix(), "--no-timestamp")
    assert code == 4
    assert json.loads(out)["failure"] == "SetInvalid"


VALID_DOC = {"version": 4, "n": 2, "points": [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.8]], "hops": [],
             "sets": [[0, 1, 2]], "claim": [0, 1], "multipliers": [0]}


def test_valid_doc_parses():
    # The control: each malformed case below breaks VALID_DOC in one field.
    assert certificate_from_json(json.dumps(VALID_DOC)).multipliers == [0]


@pytest.mark.parametrize("text", [
    json.dumps(dict(VALID_DOC, sets=5)),                              # sets not a list
    json.dumps(dict(VALID_DOC, points=[[0.5, 0.0], [0.1]])),          # ragged points
    json.dumps(dict(VALID_DOC, n="x")),                               # n not a number
    json.dumps(dict(VALID_DOC, claim=[0])),                           # one-element claim
    json.dumps(VALID_DOC).replace('"n": 2', '"n": 1e400'),           # n overflows to inf
    "5",                                                              # not an object
    json.dumps(dict(VALID_DOC, version="x")),                         # version not a number
    json.dumps(dict(VALID_DOC, sets=[1, 2])),                         # a set that is no list
    json.dumps(dict(VALID_DOC, sets=[[0.9, 1, 2]])),                  # ids must be JSON integers
    json.dumps(dict(VALID_DOC, sets=[["0", 1, 2]])),
    json.dumps(dict(VALID_DOC, sets=[[True, 1, 2]])),
    json.dumps(dict(VALID_DOC, points=[["0.5", "0.0"], [-0.5, 0.0], [0.0, 0.8]])),
    json.dumps(dict(VALID_DOC, points=VALID_DOC["points"] + [[True, False]])),
    json.dumps({k: v for k, v in VALID_DOC.items() if k != "multipliers"}),
    json.dumps(dict(VALID_DOC, version=1)),
    json.dumps(dict(VALID_DOC, version=2)),
    json.dumps(dict(VALID_DOC, version=3)),
    json.dumps(dict(VALID_DOC, version=99)),
    json.dumps({k: v for k, v in VALID_DOC.items() if k != "hops"}),
    json.dumps(dict(VALID_DOC, hops=[0, 1])),                         # a hop that is no list
    json.dumps(dict(VALID_DOC, hops=[[0, 1, 2]])),                    # a hop that is no pair
    json.dumps(dict(VALID_DOC, hops=[[0.0, 1]])),                     # ids must be JSON integers
    json.dumps(dict(VALID_DOC, hops=[[True, 1]])),
    json.dumps(dict(VALID_DOC, hops=[[0, 3]])),                       # end past the written points
    json.dumps(dict(VALID_DOC, hops=[[1, 1]])),                       # coincident ends
    json.dumps(dict(VALID_DOC, hops=[[0, 2]])),                       # no multiplier for the hop
    json.dumps(dict(VALID_DOC, hops=[[0, 2]], multipliers=[0, True])),  # a boolean hop multiplier
    json.dumps(dict(VALID_DOC, hops=[[0, 2]], multipliers=[0, 0.5])),   # a float hop multiplier
    json.dumps(dict(VALID_DOC, sets=[[0, 1]])),                       # a set of n ids
    DEEP_JSON,                                                        # nested 3000 deep
    json.dumps(VALID_DOC).replace("[[0, 1, 2]]", DEEP_JSON),
], ids=["sets-not-list", "ragged-points", "n-string", "short-claim", "n-1e400",
        "top-level-number", "version-string", "set-not-list", "set-id-float",
        "set-id-string", "set-id-bool", "point-strings", "point-bools",
        "no-multipliers", "version-1", "version-2", "version-3", "version-99", "no-hops",
        "hop-not-list", "hop-not-pair", "hop-id-float", "hop-id-bool", "hop-end-past-table",
        "hop-ends-coincide", "hop-without-multiplier", "hop-multiplier-bool",
        "hop-multiplier-float", "set-of-n-ids",
        "nested-3000", "sets-nested-3000"])
def test_check_malformed_document_exit2(tmp_path, capsys, text):
    doc_file = tmp_path / "bad.json"
    doc_file.write_text(text)
    code, out, err = run_cli(capsys, "check", "--input", str(doc_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_emit_circuit_csv(capsys):
    code, out, _ = run_cli(capsys, "emit-circuit", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label,cx,cy,radius,theta_start,theta_end"
    rows = [line.split(",") for line in lines[1:]]
    labels = [r[0] for r in rows]
    for expected in ("D", "C_w", "C_x", "C_y", "C_z", "C_a", "C_b", "C_c", "C_d",
                     "a", "b", "c", "d"):
        assert expected in labels
    arc_rows = [r for r in rows if r[0].startswith("C_")]
    for r in arc_rows:
        assert float(r[3]) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    corner = next(r for r in rows if r[0] == "a")
    assert float(corner[1]) == pytest.approx(0.6180339887498949, abs=1e-9)
    assert float(corner[2]) == pytest.approx(0.6180339887498949, abs=1e-9)
    # symmetry: all corner coordinates share one magnitude
    mags = {abs(float(r[1])) for r in rows if r[0] in "abcd"}
    assert max(mags) - min(mags) < 1e-12


@pytest.mark.parametrize("angle", ["1e8", "-1e8", "1e16", "1e17"])
def test_emit_circuit_large_angle(capsys, angle):
    # A large angle draws the circuit of its remainder modulo 2*pi.
    reduced = repr(math.remainder(float(angle), 2.0 * math.pi))
    for n in ("2", "3", "5"):
        code, out, err = run_cli(capsys, "emit-circuit", "--n", n, f"--angle={angle}")
        assert (code, err) == (0, "")
        assert run_cli(capsys, "emit-circuit", "--n", n, f"--angle={reduced}") == (0, out, "")


def test_emit_circuit_keeps_the_sign_of_a_zero_angle(capsys):
    # z's base angle -0.0 adds to the rotation without dropping its sign.
    rows = {}
    for angle in ("-0.0", "0"):
        code, out, _ = run_cli(capsys, "emit-circuit", "--n", "2", f"--angle={angle}")
        assert code == 0
        rows[angle] = next(line for line in out.splitlines() if line.startswith("C_z,"))
    assert rows["-0.0"] == "C_z,1,-0,1.7320508075688772,2.617993877991494,3.6651914291880923"
    assert rows["0"] == "C_z,1,0,1.7320508075688772,-3.6651914291880923,-2.617993877991494"


def test_verify_all_reports_every_suite(capsys):
    from eqball.verify import SUITE_NAMES

    code, out, _ = run_cli(capsys, "verify-all", "--n-min", "2", "--n-max", "3",
                           "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert [s["name"] for s in doc["suites"]] == SUITE_NAMES
    assert doc["all_passed"] is True


def test_verify_all_failing_suite_exit1(capsys, monkeypatch):
    from eqball import verify

    monkeypatch.setattr(verify, "suite_center_bounds",
                        lambda *args, **kwargs: verify.SuiteResult("center_bounds", False, 1, 1.0))
    code, out, _ = run_cli(capsys, "verify-all", "--n-min", "2", "--n-max", "3",
                           "--no-timestamp")
    assert code == 1
    doc = json.loads(out)
    assert doc["all_passed"] is False
    assert [s["name"] for s in doc["suites"] if not s["passed"]] == ["center_bounds"]


@pytest.mark.parametrize("bounds, message", [
    (("--n-min", "1"), "error: verify-all requires --n-min >= 2"),
    (("--n-min", "-3", "--n-max", "-1"), "error: verify-all requires --n-min >= 2"),
    (("--n-min", "5", "--n-max", "4"), "error: empty range: "),
], ids=["n-min-1", "negative", "empty"])
def test_verify_all_rejects_bad_n_range_exit2(capsys, bounds, message):
    code, out, err = run_cli(capsys, "verify-all", *bounds, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert err.startswith(message) and len(err.splitlines()) == 1


@pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf", "1e-3"])
@pytest.mark.parametrize("command", [
    ("certify", "--x", "0.2,0.1", "--y", "0.6,-0.3"),
    ("check", "--input", "cert.json"),
    ("enlarge", "--input", "seed.json"),
], ids=["certify", "check", "enlarge"])
def test_invalid_eps_exit2(tmp_path, capsys, monkeypatch, command, eps):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cert.json").write_text(json.dumps(VALID_DOC))
    (tmp_path / "seed.json").write_text(json.dumps([[1.0, 0.0]]))
    code, out, err = run_cli(capsys, *command, "--eps", eps)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --eps ") and len(err.splitlines()) == 1


def test_eps_sets_the_tolerance(tmp_path, capsys):
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps([[0.0, 0.0], [1.0 + 1e-7, 0.0]]))
    code, _, err = run_cli(capsys, "enlarge", "--input", str(seed_file))
    assert code == 2 and "invalid input" in err
    code, out, _ = run_cli(capsys, "enlarge", "--input", str(seed_file), "--eps", "1e-6",
                           "--no-timestamp")
    assert code == 0 and json.loads(out)["final_size"] == 3


@pytest.mark.parametrize("command", [
    ("constants", "--n", "2"),
    ("falsify", "--expr", "1", "--n", "2", "--samples", "5"),
    ("emit-circuit", "--n", "2"),
    ("verify-all",),
], ids=["constants", "falsify", "emit-circuit", "verify-all"])
def test_eps_only_where_it_is_used(command):
    with pytest.raises(SystemExit) as info:
        main([*command, "--eps", "1e-9"])
    assert info.value.code == 2


@pytest.mark.parametrize("command, message", [
    (("emit-circuit", "--n", "2", "--angle", "inf"), "error: rotation angle inf is not finite"),
    (("emit-circuit", "--n", "2", "--angle", "nan"), "error: rotation angle nan is not finite"),
    (("falsify", "--expr", "x1", "--n", "3", "--samples", "5", "--threshold", "nan"),
     "error: threshold nan must be finite and non-negative"),
    (("falsify", "--expr", "1", "--n", "3", "--samples", "5", "--threshold", "-1"),
     "error: threshold -1.0 must be finite and non-negative"),
    (("certify", "--x", "0.1,0", "--y", "0.2,0", "--n", "0"),
     "error: point has dimension 2, expected 0"),
    (("certify", "--x", '["0.2", false]', "--y", "0.6,-0.3"),
     "error: coordinates must be JSON numbers"),
    (("certify", "--x", "0.2,0.1", "--y", "[0.6, true]"),
     "error: coordinates must be JSON numbers"),
    (("falsify", "--expr", "x1", "--n", "3", "--samples", "10", "--seed", "-1"),
     "error: seed -1 must be non-negative"),
    (("verify-all", "--seed", "-1"), "error: verify-all requires --seed >= 0"),
    (("falsify", "--expr", "x1", "--n", "3", "--samples", "100000000000"),
     "error: 100000000000 samples at n=3 exceed the limit of 8388608 coordinates "
     "(samples * (n+1) * n)"),
    (("falsify", "--expr", "x1", "--n", "1000000", "--samples", "2"),
     "error: 2 samples at n=1000000 exceed the limit of 8388608 coordinates "
     "(samples * (n+1) * n)"),
], ids=["angle-inf", "angle-nan", "threshold-nan", "threshold-negative", "certify-n-0",
        "certify-json-strings", "certify-json-bool", "falsify-seed-negative",
        "verify-all-seed-negative", "falsify-samples-past-limit", "falsify-n-past-limit"])
def test_out_of_domain_numbers_exit2(capsys, command, message):
    code, out, err = run_cli(capsys, *command, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert err.strip() == message


@pytest.mark.parametrize("command, work", [
    (("constants", "--n", "100000000"), "beta"),
    (("emit-circuit", "--n", "100000000"), "shell_circuit"),
    (("verify-all", "--n-max", "1000"), "run_verification_suites"),
], ids=["constants", "emit-circuit", "verify-all"])
def test_inputs_past_a_resource_limit_exit2_before_any_work(capsys, monkeypatch, command, work):
    monkeypatch.setattr(cli, work, lambda *args, **kwargs: pytest.fail(f"{work} was called"))
    code, out, err = run_cli(capsys, *command, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {command[1]} {command[2]} exceeds the limit of ")
    assert len(err.splitlines()) == 1


def test_ball_mode_falsify_past_its_dimension_limit_exit2_before_sampling(capsys, monkeypatch):
    """Ball-mode falsify past MAX_BALL_FALSIFY_N exits 2 before anything is
    sampled; the limit itself, and sphere mode past it, are admitted."""
    limit = weights.MAX_BALL_FALSIFY_N
    with monkeypatch.context() as patched:
        patched.setattr(weights, "sample_maximal_sets",
                        lambda *args: pytest.fail("sample_maximal_sets was called"))
        code, out, err = run_cli(capsys, "falsify", "--expr", "x1", "--n", str(limit + 1),
                                 "--samples", "200", "--no-timestamp")
    assert (code, out) == (2, "")
    assert err == f"error: ball-mode falsify at n={limit + 1} exceeds the limit of n <= {limit}\n"
    for n, mode in ((limit, "ball"), (limit + 1, "sphere")):
        code, _, err = run_cli(capsys, "falsify", "--expr", "x1", "--n", str(n), "--samples", "5",
                               "--mode", mode, "--quiet")
        assert code in (0, 3) and err == ""


def test_resource_limits_admit_their_own_value(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_verification_suites",
                        lambda n_values, seed: ran.append(n_values) or [])
    for command, flag, limit in (("constants", "--n", cli.MAX_CONSTANTS_N),
                                 ("emit-circuit", "--n", cli.MAX_CIRCUIT_N),
                                 ("verify-all", "--n-max", cli.MAX_VERIFY_N)):
        assert run_cli(capsys, command, flag, str(limit), "--quiet")[0] == 0
        code, _, err = run_cli(capsys, command, flag, str(limit + 1), "--quiet")
        assert code == 2
        assert err == f"error: {flag} {limit + 1} exceeds the limit of {limit}\n"
    assert ran == [list(range(2, cli.MAX_VERIFY_N + 1))]


@pytest.mark.parametrize("command", [
    ("constants", "--n", "2"),
    ("falsify", "--expr", "1", "--n", "2", "--samples", "5"),
    ("certify", "--x", "0.2,0.1", "--y", "0.6,-0.3"),
    ("emit-circuit", "--n", "2"),
], ids=["constants", "falsify", "certify", "emit-circuit"])
def test_unwritable_out_path_exit2(tmp_path, capsys, command):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, *command, "--out", str(target), "--no-timestamp")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("text", [
    json.dumps(dict(VALID_DOC, sets=[[0, 1, 3]])),                    # set id past the table
    json.dumps(VALID_DOC).replace("0.8", "1e400"),                    # coordinate overflows to inf
    json.dumps({"n": 0, "points": [[]], "hops": [], "sets": [], "claim": [0, 0],
                "multipliers": []}),
], ids=["set-id-past-table", "coordinate-1e400", "n-0"])
def test_check_reported_malformed_document_exit2(tmp_path, capsys, text):
    """Documents that parse but that check_certificate reports as malformed
    exit 2, not 4, with the report on stdout."""
    doc_file = tmp_path / "bad.json"
    doc_file.write_text(text)
    code, out, _ = run_cli(capsys, "check", "--input", str(doc_file), "--no-timestamp")
    assert code == 2
    report = json.loads(out)
    assert report["accepted"] is False and report["failure"] == "MalformedCertificate"


def test_check_non_utf8_file_exit2(tmp_path, capsys):
    doc_file = tmp_path / "cert.json"
    doc_file.write_bytes(b"\xff\xfe" + json.dumps(VALID_DOC).encode())
    code, out, err = run_cli(capsys, "check", "--input", str(doc_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_check_point_width_not_n_exit2(tmp_path, capsys):
    doc_file = tmp_path / "cert.json"
    doc_file.write_text(json.dumps({"n": 10**26, "points": [[]], "hops": [], "sets": [],
                                     "claim": [0, 0], "multipliers": []}))
    code, out, err = run_cli(capsys, "check", "--input", str(doc_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: points must have n = ") and len(err.splitlines()) == 1


def run_module(tmp_path, *argv):
    """`python -m eqball` in a child process, with warnings shown: exit code,
    stdout and stderr as the user sees them."""
    env = dict(os.environ, PYTHONPATH=str(Path(eqball.__file__).resolve().parents[1]),
               PYTHONWARNINGS="default")
    done = subprocess.run([sys.executable, "-m", "eqball", *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("victim", ["written-set point", "hop end"])
def test_check_of_a_huge_coordinate_leaves_stderr_empty(tmp_path, capsys, victim):
    """A certificate point moved to the finite coordinate 1e308 fails its
    check (exit 4) with nothing on stderr: no overflow warning."""
    run_cli(capsys, "certify", "--x", "0.2,0.1", "--y", "0.6,-0.3",
            "--out", str(tmp_path / "cert.json"), "--quiet")
    doc = json.loads((tmp_path / "cert.json").read_text())
    assert doc["sets"] and doc["hops"]
    point = doc["sets"][0][0] if victim == "written-set point" else doc["hops"][0][1]
    doc["points"][point][0] = 1e308
    (tmp_path / "huge.json").write_text(json.dumps(doc))
    code, out, err = run_module(tmp_path, "check", "--input", "huge.json", "--no-timestamp")
    assert (code, err) == (4, "")
    assert '"failure": "SetInvalid"' in out


@pytest.mark.parametrize("command, message", [
    (["certify", "--x", "1e308,0", "--y", "0.1,0"],
     "error: certificate endpoints must lie in the closed unit ball\n"),
    (["enlarge", "--input", "seed.json"],
     "error: invalid input set: a point has norm inf > 1 (worst norm: point 0 has norm inf)\n"),
], ids=["certify", "enlarge"])
def test_huge_coordinates_are_input_errors_with_one_stderr_line(tmp_path, command, message):
    """An endpoint or enlarge seed point at the finite coordinate 1e308 exits
    2 with the error line alone on stderr: no overflow warning before it."""
    (tmp_path / "seed.json").write_text(json.dumps([[1e308, 0.0]]))
    code, out, err = run_module(tmp_path, *command)
    assert (code, out, err) == (2, "", message)
