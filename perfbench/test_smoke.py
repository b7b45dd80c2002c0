"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the correctness gates trip on a tampered certificate and on a wrong
falsify verdict, and that the command fails cleanly without the library.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import eqball  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_have_units(workload):
    result = result_of(run_bench(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_have_units():
    result = result_of(run_bench("certify-shell", 1))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["gamma.gamma1_link.calls"]["value"] > 0
    assert result["metrics"]["expr.eval.calls"]["value"] == 0


@pytest.fixture(scope="module")
def pair_and_cert():
    pair = workloads.Pair(2, np.array([0.95, 0.0]), np.array([0.0, 0.9]), "test")
    cert, report, _ = workloads.certify_once(pair)
    workloads.gate_certificate(pair, cert, report)
    return pair, cert


def test_tampered_certificate_trips_the_gate(pair_and_cert):
    pair, cert = pair_and_cert
    assert workloads.gate_tamper(cert) == "SetInvalid"
    bad = workloads.tampered(cert)
    with pytest.raises(workloads.GateFailure):
        workloads.gate_certificate(pair, bad, eqball.check_certificate(bad))


def test_gate_trips_if_checker_accepts_tampered(pair_and_cert, monkeypatch):
    _, cert = pair_and_cert
    monkeypatch.setattr(eqball, "check_certificate",
                        lambda c: eqball.CheckReport(accepted=True, residual=0.0))
    with pytest.raises(workloads.GateFailure):
        workloads.gate_tamper(cert)


def test_gate_trips_on_wrong_falsify_verdict():
    wl = workloads.FalsifyWorkload(seed=0)
    wl.types[0].expected = "consistent"   # ball mode, dot(x,x): really disproved
    with pytest.raises(workloads.GateFailure):
        wl.run(0)


def test_fails_without_the_library():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = run_bench("certify-shell", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
