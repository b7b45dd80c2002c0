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


def test_check_non_utf8_file_exit2(tmp_path, capsys):
    doc_file = tmp_path / "cert.json"
    doc_file.write_bytes(b"\xff\xfe" + json.dumps(VALID_DOC).encode())
    code, out, err = run_cli(capsys, "check", "--input", str(doc_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_check_point_width_not_n_exit2(tmp_path, capsys):
    doc_file = tmp_path / "cert.json"
    doc_file.write_text(json.dumps({"n": 10**26, "points": [[]], "sets": [], "claim": [0, 0]}))
    code, out, err = run_cli(capsys, "check", "--input", str(doc_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: points must have n = ") and len(err.splitlines()) == 1
