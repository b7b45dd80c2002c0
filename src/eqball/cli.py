"""Command-line front end with machine-readable JSON/CSV output.

Exit codes: 0 success (or falsifier consistent / certificate accepted),
1 a verify-all suite failed, 2 input or parse error (a malformed
certificate document included, also one that the checker reports as
MalformedCertificate) or an --out file that cannot be written, 3 falsifier
found a disproof, 4 certificate rejected.

Weight expressions use the grammar of eqball.expr: coordinates x1..xn, the
point `x` inside norm(x) / dot(x, x), functions sqrt and abs, binary
+ - * /, decimal literals.  Example: "dot(x,x) - 0.5*norm(x) + 1".
"""
from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .certify import (
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    generate_equality_certificate,
    _dumps,
)
from .enlarge import enlarge_to_maximal
from .errors import EqBallError, ExpressionError, InputError
from .expr import compile_weight_expression
from .geometry import DEFAULT_TOL, GRID_STEP, Tolerance, json_number_array
from .simplex import EquilateralSet, alpha, beta, distance_errors
from .verify import run_verification_suites
from .weights import WeightFn, eta, falsify, lambda_shell, nu, shell_circuit
from . import __version__

# Largest --n of constants and emit-circuit and --n-max of verify-all; past
# it the command exits 2 before it allocates.  At these limits each ran in
# under 4 s and 60 MB (2 vCPUs, Python 3.11); constants --n 10**6 took 7 s and
# 450 MB, verify-all --n-max 24 12 s.  The cost of emit-circuit does not grow with n.
MAX_CONSTANTS_N = 10**4
MAX_CIRCUIT_N = 10**4
MAX_VERIFY_N = 16


def _tolerance(args) -> Tolerance:
    """DEFAULT_TOL, with eps_eq set by --eps when it is given."""
    if args.eps is None:
        return DEFAULT_TOL
    try:
        return replace(DEFAULT_TOL, eps_eq=args.eps)
    except ValueError as exc:
        raise InputError(f"--eps {args.eps}: {exc}") from None


def _emit(args, payload: dict, text: str | None = None) -> None:
    """Write JSON (or raw text) to stdout and optionally to --out."""
    if text is None:
        if not getattr(args, "no_timestamp", False):
            payload = dict(payload)
            payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        text = _dumps(payload)
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if not getattr(args, "quiet", False):
        print(text)


def _parse_point(text: str) -> np.ndarray:
    text = text.strip()
    try:
        if text.startswith("["):
            return json_number_array(json.loads(text))
        return np.asarray([float(tok) for tok in text.split(",") if tok.strip()])
    except RecursionError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    except ValueError as exc:  # json.JSONDecodeError included
        raise InputError(str(exc)) from None


def cmd_constants(args) -> int:
    n = args.n
    if n < 2:
        raise InputError("ball-geometry commands require n >= 2 (the unit-ball result "
                         "starts at dimension 2)")
    if n > MAX_CONSTANTS_N:
        raise InputError(f"--n {n} exceeds the limit of {MAX_CONSTANTS_N}")
    betas = {str(k): beta(k) for k in range(1, n + 3)}
    alphas = {str(k): alpha(k) for k in range(2, n + 3)}
    bnext = beta(n + 1)
    payload = {
        "n": n,
        "beta": betas,
        "alpha": alphas,
        "beta_fixed_point_residual": abs(eta(n, bnext) - bnext),
        "lambda_n": lambda_shell(n),
        "nu_at_lambda": nu(n, lambda_shell(n)),
    }
    _emit(args, payload)
    return 0


def cmd_enlarge(args) -> int:
    tol = _tolerance(args)
    pts = None
    try:
        with open(args.input, encoding="utf-8") as fh:
            coords = json.load(fh)
        pts = json_number_array(coords)
        s = EquilateralSet(pts)
        s.validate(in_ball=True, tol=tol)
    except (OSError, ValueError, RecursionError, EqBallError) as exc:
        detail = _name_worst_violation(pts) if isinstance(pts, np.ndarray) and pts.ndim == 2 else ""
        print(f"error: invalid input set: {exc}{detail}", file=sys.stderr)
        return 2
    final, trace = enlarge_to_maximal(s, tol)
    payload = {
        "n": final.n,
        "input_size": s.k,
        "final_size": final.k,
        "points": [[float(c) for c in p] for p in final.points],
        "trace": [
            {"k": st.k, "subspace_dim": st.subspace_dim,
             "a": [float(c) for c in st.a],
             "u": [float(c) for c in st.u],
             "new_point": [float(c) for c in st.new_point]}
            for st in trace.steps
        ],
        "verification": {
            "max_pairwise_distance_error": final.pairwise_distance_error(),
            "max_norm": final.max_norm(),
        },
    }
    _emit(args, payload)
    return 0


def _name_worst_violation(pts: np.ndarray) -> str:
    worst = ""
    errs = np.nan_to_num(distance_errors(pts), nan=0.0, posinf=np.inf)
    worst_err = float(errs.max(initial=0.0))
    if worst_err > 0.0:
        pair = int(errs.argmax())
        i, j = np.triu_indices(pts.shape[0], 1)
        worst = f" (worst pair ({i[pair]}, {j[pair]}) distance error {worst_err:.3e})"
    norms = np.linalg.norm(pts, axis=1)
    if norms.size and float(norms.max()) - 1.0 > worst_err:
        worst = f" (worst norm: point {int(norms.argmax())} has norm {float(norms.max()):.12f})"
    return worst


def cmd_falsify(args) -> int:
    if args.n < 2:
        raise InputError("falsify requires n >= 2")
    try:
        evaluator = compile_weight_expression(args.expr, args.n)
    except ExpressionError as exc:
        print(f"error: cannot parse expression: {exc}", file=sys.stderr)
        return 2
    fn = WeightFn(evaluator=evaluator, domain_mode=args.mode)
    report = falsify(fn, args.n, args.samples, args.seed, threshold=args.threshold)
    payload = {
        "expression": args.expr,
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "mode": args.mode,
        "spread": report.spread,
        "empirical_weight": report.empirical_weight,
        "verdict": report.verdict,
        "witness_high": [[float(c) for c in p] for p in report.witness_high],
        "witness_low": [[float(c) for c in p] for p in report.witness_low],
        "witness_indices": list(report.witness_indices),
    }
    _emit(args, payload)
    return 3 if report.verdict == "disproved" else 0


def cmd_certify(args) -> int:
    tol = _tolerance(args)
    x = _parse_point(args.x)
    y = _parse_point(args.y)
    n = x.size if args.n is None else args.n
    cert = generate_equality_certificate(x, y, n, tol)
    text = certificate_to_json(cert, tol)
    _emit(args, {}, text=text)
    if not getattr(args, "quiet", False):
        print(f"sets={len(cert.sets)} points={cert.points.shape[0]}", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    tol = _tolerance(args)
    try:
        with open(args.input, encoding="utf-8") as fh:
            cert = certificate_from_json(fh.read())
    except (OSError, UnicodeDecodeError, EqBallError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = check_certificate(cert, tol)
    payload = {
        "accepted": report.accepted,
        "failure": report.failure,
        "residual": report.residual,
        "detail": report.detail,
        "sets": report.set_count,
        "points": report.point_count,
    }
    _emit(args, payload)
    if report.accepted:
        return 0
    return 2 if report.failure == "MalformedCertificate" else 4


def cmd_emit_circuit(args) -> int:
    if args.n < 2:
        raise InputError("emit-circuit requires n >= 2")
    if args.n > MAX_CIRCUIT_N:
        raise InputError(f"--n {args.n} exceeds the limit of {MAX_CIRCUIT_N}")
    plan = shell_circuit(args.n, args.angle)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["label", "cx", "cy", "radius", "theta_start", "theta_end"])
    writer.writerow(["D", "0", "0", "1", "0", format(2 * math.pi, ".17g")])
    for arc in plan.arcs:
        writer.writerow([arc.label,
                         format(arc.center[0], ".17g"), format(arc.center[1], ".17g"),
                         format(arc.radius, ".17g"),
                         format(arc.theta_start, ".17g"), format(arc.theta_end, ".17g")])
    for name, pt in plan.corners_local.items():
        writer.writerow([name, format(pt[0], ".17g"), format(pt[1], ".17g"), "0", "0", "0"])
    _emit(args, {}, text=buf.getvalue().rstrip("\n"))
    return 0


def cmd_verify_all(args) -> int:
    if args.n_min < 2:
        raise InputError("verify-all requires --n-min >= 2")
    if args.seed < 0:
        raise InputError("verify-all requires --seed >= 0")
    if args.n_max < args.n_min:
        raise InputError(f"empty range: --n-max {args.n_max} is below --n-min {args.n_min}")
    if args.n_max > MAX_VERIFY_N:
        raise InputError(f"--n-max {args.n_max} exceeds the limit of {MAX_VERIFY_N}")
    n_values = list(range(args.n_min, args.n_max + 1))
    results = run_verification_suites(n_values, seed=args.seed)
    payload = {
        "suites": [
            {"name": r.name, "passed": r.passed, "count": r.count,
             "worst_slack": r.worst_slack, "note": r.note}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    _emit(args, payload)
    return 0 if payload["all_passed"] else 1


def _add_common(parser, eps=False):
    parser.add_argument("--quiet", action="store_true", help="suppress stdout output")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp field for byte-identical reruns")
    if eps:
        parser.add_argument("--eps", type=float, default=None,
                            help="distance-equality tolerance, in (0, "
                                 f"{GRID_STEP:g})")
    parser.add_argument("--out", default=None, help="also write the output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqball",
        description="Equilateral sets in the unit ball: constants, enlargement, "
                    "weight falsification, equality certificates.",
        epilog="Weight expression grammar: coordinates x1..xn; the point x inside "
               "norm(x) and dot(x,x); sqrt(s), abs(s); operators + - * /; decimal "
               "literals.",
    )
    parser.add_argument("--version", action="version", version=f"eqball {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="closed-form constants and fixed-point residual")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("enlarge", help="enlarge an in-ball equilateral set to size n+1")
    p.add_argument("--input", required=True, help="JSON file: array of coordinate arrays")
    _add_common(p, eps=True)
    p.set_defaults(func=cmd_enlarge)

    p = sub.add_parser("falsify", help="probe a candidate weight expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["ball", "sphere"], default="ball")
    p.add_argument("--threshold", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("certify", help="generate an equality certificate for two points")
    p.add_argument("--x", required=True, help="comma-separated or JSON coordinates")
    p.add_argument("--y", required=True)
    p.add_argument("--n", type=int, default=None)
    _add_common(p, eps=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("check", help="verify a certificate file")
    p.add_argument("--input", required=True)
    _add_common(p, eps=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("emit-circuit", help="CSV of the annulus circuit (plot-ready)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--angle", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=cmd_emit_circuit)

    p = sub.add_parser("verify-all", help="run every guaranteed-property suite")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EqBallError, OSError) as exc:  # OSError: --out cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
