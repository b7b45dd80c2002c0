"""Set-up timing, the timed and traced runs, metrics and the result lines."""
from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import eqball
import workloads
from hostspeed import HostSpeed
from tracer import EVAL_SPAN, Tracer
from workloads import GateFailure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ROUNDS = 7
# The traced run times this share of --seconds untraced, then repeats the
# same operations traced.
TRACE_SHARE = 0.45
# Imports eqball, numpy included, in a fresh interpreter, then times the
# host-speed kernel in that same process.
IMPORT_PROBE = """
import time
t = time.perf_counter()
import eqball
t = time.perf_counter() - t
from hostspeed import HostSpeed
speed = HostSpeed()
print(t, speed.factor_now())
"""


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def import_seconds() -> tuple[float, float]:
    """Time to import eqball, numpy included, in a fresh interpreter, and the
    host-speed factor measured in that interpreter right after."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    seconds, factor = map(float, out.stdout.split()[-2:])
    return seconds, factor


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
        "commit": git_commit(),
    }


def summarize(ops) -> workloads.Summary:
    summary = workloads.summarize(ops)
    if not summary.latencies_ms:
        raise GateFailure("no operation succeeded")
    return summary


def end_to_end(ops, setup_s: float, speed: HostSpeed) -> tuple[dict, dict]:
    """Metrics at the nominal host speed, and the same timings as measured."""
    def timings(summary):
        return {"op_p50_ms": float(np.percentile(summary.latencies_ms, 50)),
                "op_p90_ms": float(np.percentile(summary.latencies_ms, 90)),
                "ops_per_s": summary.ops_per_s, "sets_per_s": summary.sets_per_s}

    nominal = timings(summarize(speed.scaled(ops)))
    measured = timings(summarize(ops))
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "op_p50_ms": metric(nominal["op_p50_ms"], "ms"),
        "op_p90_ms": metric(nominal["op_p90_ms"], "ms"),
        "ops_per_s": metric(nominal["ops_per_s"], "1/s"),
        "sets_per_s": metric(nominal["sets_per_s"], "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, measured


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def traced_run(name: str, seed: int, seconds: float, untraced):
    """Time ops untraced, then the same ops traced; return per-layer metrics."""
    base_ops, base_wall = workloads.closed_loop(untraced, seconds=seconds * TRACE_SHARE)
    tracer = Tracer()
    tracer.install(eqball)
    check = tracer.originals["certify.check"]
    revalidate: dict[int, float] = {}
    traced = workloads.make_workload(name, seed, trace_eval=lambda f: tracer.wrap(EVAL_SPAN, f))

    def between(done_ops) -> None:
        """Untimed: re-validate the last certificate's sets alone, by checking
        a copy whose claim is trivial, then open the next op's span id."""
        done = len(done_ops)
        cert = getattr(traced, "last_cert", None)
        if cert is not None:
            c = cert.claim[0]
            t0 = time.perf_counter()
            check(dataclasses.replace(cert, claim=(c, c)))
            revalidate[done - 1] = time.perf_counter() - t0
        tracer.op_id = done

    tracer.op_id = 0
    try:
        ops, wall = workloads.closed_loop(traced, count=len(base_ops), between=between)
    finally:
        tracer.uninstall()

    count = len(ops)
    layers = {}
    for span, (calls, self_s) in tracer.per_span().items():
        layers[f"{span}.calls"] = metric(calls / count, "count/op")
        layers[f"{span}.self_ms"] = metric(self_s * 1e3 / count, "ms/op")
    certs = [i for i, op in enumerate(ops) if op.ok] if traced.kind == "certify" else []
    check_s = tracer.top_level_seconds("certify.check")
    layers.update({
        "certify.check.revalidate_ms": metric(_mean(revalidate[i] * 1e3 for i in certs), "ms/check"),
        "certify.check.solve_ms": metric(_mean((check_s[i] - revalidate[i]) * 1e3 for i in certs),
                                         "ms/check"),
        "certify.check.dense_cells": metric(_mean(ops[i].sets * (ops[i].points + 1) for i in certs),
                                            "cells/check"),
        "certify.gen.sets": metric(_mean(ops[i].sets for i in certs), "count/cert"),
        "certify.gen.points": metric(_mean(ops[i].points for i in certs), "count/cert"),
        "certify.gen.failed_ms": metric(sum(op.seconds for op in ops if not op.ok) * 1e3 / count,
                                        "ms/op"),
        "certify.cert_bytes": metric(_mean(ops[i].cert_bytes for i in certs), "B/cert"),
        "trace.overhead_frac": metric(wall / base_wall - 1.0, "ratio"),
    })
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{name}-seed{seed}.npz"
    tracer.save(spans_path)
    extra = {"spans": len(tracer.start), "spans_file": str(spans_path.relative_to(ROOT)),
             "untraced_wall_s": base_wall, "traced_wall_s": wall}
    return traced, ops, layers, extra


def main(args, entered: float, blas_threads: int) -> int:
    try:
        speed = HostSpeed()
        rounds, rounds_measured = [], []
        for _ in range(SETUP_ROUNDS):
            t_import, import_factor = import_seconds()
            before = speed.sample()
            t0 = time.perf_counter()
            wl = workloads.make_workload(args.workload, args.seed)
            wl.warm_up()
            t_build = time.perf_counter() - t0
            rounds_measured.append(t_import + t_build)
            rounds.append(t_import * import_factor + t_build * speed.factor(before, speed.sample()))
        first_op_s = time.perf_counter() - entered
        extra = {}
        if args.trace:
            wl, ops, metrics, extra = traced_run(args.workload, args.seed, args.seconds, wl)
        else:
            speed.begin()
            ops, wall = workloads.closed_loop(wl, seconds=args.seconds, between=speed.between_ops)
            metrics, measured = end_to_end(ops, statistics.median(rounds), speed)
            extra.update(loop_wall_s=wall, as_measured=measured,
                         host_speed_factor=speed.median_factor,
                         reference_samples=len(speed.samples))
        extra.update(wl.finish())
        distinct = summarize(ops).distinct
    except GateFailure as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1

    failed = sum(not op.ok for op in ops)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, one caller",
        "env": environment(blas_threads), "inputs": wl.describe(),
        "counts": {"attempted": len(ops), "failed": failed, "fail_frac": failed / len(ops),
                   "distinct": distinct, "passes": len(ops) / len(wl.pool)},
        "setup_rounds_s": rounds, "setup_rounds_measured_s": rounds_measured,
        "entry_to_first_op_s": first_op_s, **extra,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": True, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0
