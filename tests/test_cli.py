import json
import math

import pytest

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


def test_enlarge_invalid_input_exit2(tmp_path, capsys):
    seed_file = tmp_path / "bad.json"
    seed_file.write_text(json.dumps([[1.2, 0.0]]))
    code, _, err = run_cli(capsys, "enlarge", "--input", str(seed_file))
    assert code == 2
    assert "invalid input" in err


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


VALID_DOC = {"version": 2, "n": 2, "points": [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.8]],
             "sets": [[0, 1, 2]], "claim": [0, 1]}


@pytest.mark.parametrize("text", [
    json.dumps(dict(VALID_DOC, sets=5)),                              # sets not a list
    json.dumps(dict(VALID_DOC, points=[[0.5, 0.0], [0.1]])),          # ragged points
    json.dumps(dict(VALID_DOC, n="x")),                               # n not a number
    json.dumps(dict(VALID_DOC, claim=[0])),                           # one-element claim
    json.dumps(VALID_DOC).replace('"n": 2', '"n": 1e400'),           # n overflows to inf
    "5",                                                              # not an object
    json.dumps(dict(VALID_DOC, version="x")),                         # version not a number
    json.dumps(dict(VALID_DOC, sets=[1, 2])),                         # a set that is no list
], ids=["sets-not-list", "ragged-points", "n-string", "short-claim", "n-1e400",
        "top-level-number", "version-string", "set-not-list"])
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


def test_verify_all_reports_every_suite(capsys):
    from eqball.verify import SUITE_NAMES, run_verification_suites

    code, out, _ = run_cli(capsys, "verify-all", "--n-min", "2", "--n-max", "3",
                           "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert [s["name"] for s in doc["suites"]] == SUITE_NAMES
    assert doc["all_passed"] is True

    injected = run_verification_suites([2, 3], seed=0, inject_failure="center_bounds")
    failing = [r.name for r in injected if not r.passed]
    assert failing == ["center_bounds"]
